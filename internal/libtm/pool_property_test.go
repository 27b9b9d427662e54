package libtm

// Property tests for the pooled descriptor path (pinned-seed corpora
// via internal/proptest): every transaction must begin with a clean
// descriptor no matter what histories the pool recycled, and putTx's
// scrub must leave nothing for a later transaction to observe.

import (
	"sync"
	"testing"
	"testing/quick"

	"gstm/internal/proptest"
	"gstm/internal/tts"
)

// Property (pool-reuse hygiene): across commits and user aborts in
// every detection/resolution mode, a transaction always starts with
// empty read/write/lock sets. A leaked entry from a recycled descriptor
// would validate objects this transaction never read or publish writes
// it never made.
func TestDescriptorReuseHygieneProperty(t *testing.T) {
	sentinel := errSentinel{}
	type op struct {
		Idx   uint8
		Write bool
		Fail  bool
	}
	for _, m := range allModes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			f := func(ops []op) bool {
				const n = 4
				s := New(Options{Mode: m})
				objs := make([]*Obj, n)
				for i := range objs {
					objs[i] = NewObj(0)
				}
				clean := true
				for _, o := range ops {
					idx := int(o.Idx) % n
					_ = s.Atomic(0, 7, func(tx *Tx) error {
						if len(tx.invReads) != 0 || len(tx.visReads) != 0 ||
							len(tx.writes) != 0 || len(tx.locked) != 0 {
							clean = false
						}
						if o.Write {
							tx.Write(objs[idx], tx.Read(objs[idx])+1)
						} else {
							_ = tx.Read(objs[idx])
						}
						if o.Fail {
							return sentinel
						}
						return nil
					})
					if !clean {
						return false
					}
				}
				return clean
			}
			if err := quick.Check(f, proptest.Config(t, 25)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPutTxScrubs pins the scrub contract directly: a descriptor
// carrying a finished transaction's full state goes through putTx and
// must come back from the pool with every field reset — set lengths
// zero, identity fields cleared, doom/killer atomics unset.
func TestPutTxScrubs(t *testing.T) {
	s := New(Options{Mode: FullyOptimistic})
	o := NewObj(1)
	tx := txPool.Get().(*Tx)
	tx.stm = s
	tx.pair = tts.Pair{Tx: 9, Thread: 3}
	tx.irrev = true
	tx.invReads = append(tx.invReads, readEntry{o, 1})
	tx.visReads = append(tx.visReads, o)
	tx.writes = append(tx.writes, writeEntry{o: o, val: 2})
	tx.locked = append(tx.locked, o)
	tx.doomed.Store(true)
	tx.killer.Store(42)

	putTx(tx)
	got := txPool.Get().(*Tx)
	// sync.Pool's per-P private slot hands the same descriptor straight
	// back on an uncontended goroutine; if a GC intervened and dropped
	// it, a fresh zero-valued descriptor passes the same assertions.
	if got.stm != nil || got.pair != (tts.Pair{}) || got.irrev {
		t.Errorf("recycled descriptor keeps identity state: stm=%v pair=%+v irrev=%v",
			got.stm, got.pair, got.irrev)
	}
	if len(got.invReads) != 0 || len(got.visReads) != 0 || len(got.writes) != 0 || len(got.locked) != 0 {
		t.Errorf("recycled descriptor keeps set entries: %d invReads, %d visReads, %d writes, %d locked",
			len(got.invReads), len(got.visReads), len(got.writes), len(got.locked))
	}
	if got.doomed.Load() || got.killer.Load() != 0 {
		t.Errorf("recycled descriptor keeps doom state: doomed=%v killer=%d",
			got.doomed.Load(), got.killer.Load())
	}
	putTx(got)
}

// TestPooledDescriptorsUnderChurn hammers the pool from concurrent
// workers across modes and verifies the counter arithmetic the pooled
// path must preserve (no lost updates, exact commit accounting) —
// the blackbox companion to the whitebox hygiene property.
func TestPooledDescriptorsUnderChurn(t *testing.T) {
	for _, m := range []Mode{FullyOptimistic, FullyPessimistic} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			const workers, incs = 4, 200
			s := New(Options{Mode: m})
			o := NewObj(0)
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for i := 0; i < incs; i++ {
						if err := s.Atomic(uint16(w), uint16(100+w), func(tx *Tx) error {
							tx.Write(o, tx.Read(o)+1)
							return nil
						}); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := o.Value(); got != workers*incs {
				t.Errorf("final counter = %d, want %d", got, workers*incs)
			}
			if got := s.Commits(); got != workers*incs {
				t.Errorf("Commits() = %d, want %d", got, workers*incs)
			}
		})
	}
}
