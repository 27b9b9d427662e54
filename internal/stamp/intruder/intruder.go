// Package intruder ports STAMP's intruder: signature-based network
// intrusion detection in three pipelined stages — capture (pop a packet
// fragment from the shared capture queue), reassembly (place the
// fragment's payload into its flow buffer and track completion in a
// shared map), and detection (scan the reassembled flow's bytes for
// attack signatures). Every stage centers on hot shared structures,
// which is why intruder exhibits the largest state models in the paper
// (Table III: 71k states at 8 threads, 1.3M at 16).
//
// Static transaction IDs:
//
//	0 — capture: pop one fragment from the packet queue
//	1 — reassembly: record the fragment; on flow completion enqueue it
//	2 — detection: pop a completed flow and scan it for signatures
package intruder

import (
	"bytes"
	"fmt"
	"runtime"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

type params struct {
	flows    int
	frags    int // fragments per flow
	fragSize int // payload bytes per fragment
}

func sizeParams(s stamp.Size) params {
	switch s {
	case stamp.Small:
		return params{flows: 48, frags: 4, fragSize: 32}
	case stamp.Large:
		return params{flows: 1024, frags: 8, fragSize: 64}
	default:
		return params{flows: 256, frags: 6, fragSize: 48}
	}
}

// signatures are the attack patterns the detector scans for (the
// original uses a dictionary of attack strings).
var signatures = [][]byte{
	[]byte("GETSHELL/bin/sh"),
	[]byte("%n%n%n%n"),
	[]byte("\x90\x90\x90\x90\x90\x90"),
	[]byte("' OR 1=1 --"),
}

const fragShift = 10 // fragment index lives in the low 10 bits

// Workload is one intruder run. Create with New.
type Workload struct {
	cfg stamp.Config
	p   params

	payloads  [][]byte // per-flow full payload (setup-generated)
	assembled [][]byte // per-flow reassembly buffers
	attacks   int      // number of flows carrying a signature

	capture  *tl2.Queue // encoded fragments awaiting processing
	progress *tl2.Map   // flowID → fragments received
	done     *tl2.Queue // completed flows awaiting detection
	detected *tl2.Map   // flowID → 1 benign, 2 attack
	nFound   *tl2.Var   // number of detected flows
	nAttacks *tl2.Var   // number of flows flagged as attacks
}

// New returns an unconfigured intruder workload.
func New() *Workload { return &Workload{} }

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "intruder" }

// Setup implements stamp.Workload: synthesizes flow payloads (one in
// four carries an injected attack signature), fragments them, shuffles
// the fragment stream, and loads the capture queue.
func (w *Workload) Setup(s *tl2.STM, cfg stamp.Config) error {
	w.cfg = cfg
	w.p = sizeParams(cfg.Size)
	rng := stamp.NewRand(cfg.Seed)

	w.payloads = make([][]byte, w.p.flows)
	w.assembled = make([][]byte, w.p.flows)
	w.attacks = 0
	payloadLen := w.p.frags * w.p.fragSize
	for f := 0; f < w.p.flows; f++ {
		p := make([]byte, payloadLen)
		for i := range p {
			p[i] = byte('a' + rng.Intn(26))
		}
		if f%4 == 0 {
			sig := signatures[rng.Intn(len(signatures))]
			at := rng.Intn(payloadLen - len(sig))
			copy(p[at:], sig)
			w.attacks++
		}
		w.payloads[f] = p
		w.assembled[f] = make([]byte, payloadLen)
	}

	total := w.p.flows * w.p.frags
	stream := make([]int64, 0, total)
	for f := 0; f < w.p.flows; f++ {
		for i := 0; i < w.p.frags; i++ {
			stream = append(stream, int64(f)<<fragShift|int64(i))
		}
	}
	for i := len(stream) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stream[i], stream[j] = stream[j], stream[i]
	}

	w.capture = tl2.NewQueue(total + 1)
	w.progress = tl2.NewMap(w.p.flows * 2)
	w.done = tl2.NewQueue(w.p.flows + 1)
	w.detected = tl2.NewMap(w.p.flows * 2)
	w.nFound = tl2.NewVar(0)
	w.nAttacks = tl2.NewVar(0)

	// Load the capture queue (single-threaded, pre-run).
	var err error
	for _, frag := range stream {
		err = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			if !w.capture.Push(tx, frag) {
				return fmt.Errorf("intruder: capture queue overflow")
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	s.ResetCounters()
	return nil
}

// scan searches the payload for any attack signature — the detection
// stage's real work (the original runs a dictionary matcher).
func scan(payload []byte) bool {
	for _, sig := range signatures {
		if bytes.Contains(payload, sig) {
			return true
		}
	}
	return false
}

// Thread implements stamp.Workload: loop capture→reassembly, draining
// the detection queue opportunistically, until all flows are detected.
func (w *Workload) Thread(s *tl2.STM, thread int) {
	th := uint16(thread)
	for {
		// Stage 0: capture.
		var frag int64
		var got bool
		_ = s.Atomic(th, 0, func(tx *tl2.Tx) error {
			frag, got = w.capture.Pop(tx)
			return nil
		})

		if got {
			// Stage 1: reassembly. The payload copy happens before the
			// completion count commits, so a later detector observing
			// the completed count (through the STM's atomics) also
			// observes the assembled bytes.
			flow := int(frag >> fragShift)
			idx := int(frag & ((1 << fragShift) - 1))
			off := idx * w.p.fragSize
			copy(w.assembled[flow][off:off+w.p.fragSize],
				w.payloads[flow][off:off+w.p.fragSize])
			_ = s.Atomic(th, 1, func(tx *tl2.Tx) error {
				stamp.Spin(tx, 256) // header decode + checksum
				n, _ := w.progress.Get(tx, int64(flow))
				n++
				w.progress.Put(tx, int64(flow), n)
				if n == int64(w.p.frags) {
					w.done.Push(tx, int64(flow))
				}
				return nil
			})
		}

		// Stage 2: detection (drain one if available).
		var finished bool
		_ = s.Atomic(th, 2, func(tx *tl2.Tx) error {
			if flow, ok := w.done.Pop(tx); ok {
				// The signature scan runs inside the transaction: an
				// aborted detection wastes the whole scan, as in the
				// original.
				verdict := int64(1)
				if scan(w.assembled[flow]) {
					verdict = 2
					tx.Write(w.nAttacks, tx.Read(w.nAttacks)+1)
				}
				w.detected.Put(tx, flow, verdict)
				tx.Write(w.nFound, tx.Read(w.nFound)+1)
			}
			finished = tx.Read(w.nFound) == int64(w.p.flows)
			return nil
		})
		if finished {
			return
		}
		if !got {
			runtime.Gosched() // out of fragments; wait for stragglers
		}
	}
}

// Validate implements stamp.Workload: every flow detected exactly once,
// every reassembled payload byte-identical to the original, and the
// attack count exact.
func (w *Workload) Validate() error {
	if got := w.nFound.Value(); got != int64(w.p.flows) {
		return fmt.Errorf("intruder: detected %d flows, want %d", got, w.p.flows)
	}
	if got := len(w.detected.SnapshotKeys()); got != w.p.flows {
		return fmt.Errorf("intruder: detected set has %d flows, want %d", got, w.p.flows)
	}
	if got := w.nAttacks.Value(); got != int64(w.attacks) {
		return fmt.Errorf("intruder: flagged %d attacks, want %d", got, w.attacks)
	}
	for f := 0; f < w.p.flows; f++ {
		if !bytes.Equal(w.assembled[f], w.payloads[f]) {
			return fmt.Errorf("intruder: flow %d reassembled incorrectly", f)
		}
	}
	return nil
}
