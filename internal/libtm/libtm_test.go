package libtm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gstm/internal/race"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// allModes enumerates the four detection configurations × both
// resolutions (resolution is irrelevant for invisible reads but must be
// harmless).
func allModes() []Mode {
	var out []Mode
	for _, r := range []ReadDetection{VisibleReads, InvisibleReads} {
		for _, w := range []WriteDetection{EncounterWrites, CommitWrites} {
			for _, c := range []Resolution{AbortReaders, WaitForReaders} {
				out = append(out, Mode{Reads: r, Writes: w, Resolution: c})
			}
		}
	}
	return out
}

func TestModeString(t *testing.T) {
	if FullyOptimistic.String() != "libtm(invis-reads/commit-writes/abort-readers)" {
		t.Errorf("FullyOptimistic = %s", FullyOptimistic)
	}
	if FullyPessimistic.String() != "libtm(vis-reads/enc-writes/wait-for-readers)" {
		t.Errorf("FullyPessimistic = %s", FullyPessimistic)
	}
}

func TestBasicReadWriteAllModes(t *testing.T) {
	for _, m := range allModes() {
		t.Run(m.String(), func(t *testing.T) {
			s := New(Options{Mode: m})
			o := NewObj(10)
			err := s.Atomic(0, 0, func(tx *Tx) error {
				if got := tx.Read(o); got != 10 {
					t.Errorf("Read = %d", got)
				}
				tx.Write(o, 42)
				if got := tx.Read(o); got != 42 {
					t.Errorf("read-own-write = %d", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if o.Value() != 42 {
				t.Errorf("committed = %d", o.Value())
			}
			if s.Commits() != 1 {
				t.Errorf("commits = %d", s.Commits())
			}
		})
	}
}

func TestUserErrorRollsBackAllModes(t *testing.T) {
	sentinel := errors.New("no")
	for _, m := range allModes() {
		t.Run(m.String(), func(t *testing.T) {
			s := New(Options{Mode: m})
			o := NewObj(5)
			if err := s.Atomic(0, 0, func(tx *Tx) error {
				tx.Write(o, 9)
				return sentinel
			}); !errors.Is(err, sentinel) {
				t.Fatalf("err = %v", err)
			}
			if o.Value() != 5 {
				t.Errorf("rollback failed: %d", o.Value())
			}
			// Locks must be fully released: a fresh transaction succeeds.
			if err := s.Atomic(1, 0, func(tx *Tx) error {
				tx.Write(o, 7)
				return nil
			}); err != nil {
				t.Fatalf("post-rollback tx: %v", err)
			}
			if o.Value() != 7 {
				t.Error("post-rollback write lost")
			}
		})
	}
}

// objSink keeps TestNewObjAllocatesOnce's objects alive.
var objSink *Obj

// TestNewObjAllocatesOnce pins NewObj at one allocation: the object
// itself. The visible-reader registry is allocated on the first
// registration, so invisible-read workloads never build one.
func TestNewObjAllocatesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	if avg := testing.AllocsPerRun(200, func() { objSink = NewObj(1) }); avg != 1 {
		t.Errorf("NewObj allocates %.1f/op, want 1", avg)
	}
	if objSink.readers != nil {
		t.Error("NewObj built a reader registry")
	}
}

func TestFloatRoundtrip(t *testing.T) {
	s := New(Options{Mode: FullyOptimistic})
	o := NewFloatObj(1.5)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		tx.WriteFloat(o, tx.ReadFloat(o)*4)
		return nil
	})
	if o.FloatValue() != 6.0 {
		t.Errorf("FloatValue = %v", o.FloatValue())
	}
	o.StoreFloat(2.25)
	if o.FloatValue() != 2.25 {
		t.Error("StoreFloat failed")
	}
}

func TestConcurrentCountersExactAllModes(t *testing.T) {
	for _, m := range allModes() {
		t.Run(m.String(), func(t *testing.T) {
			s := New(Options{Mode: m})
			o := NewObj(0)
			const workers = 6
			const per = 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := s.Atomic(uint16(w), 0, func(tx *Tx) error {
							tx.Write(o, tx.Read(o)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if o.Value() != workers*per {
				t.Errorf("counter = %d, want %d", o.Value(), workers*per)
			}
		})
	}
}

func TestInvariantPreservedAllModes(t *testing.T) {
	// Writers keep x+y constant; readers must never observe otherwise
	// at commit time.
	for _, m := range allModes() {
		t.Run(m.String(), func(t *testing.T) {
			s := New(Options{Mode: m})
			x, y := NewObj(100), NewObj(100)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = s.Atomic(0, 0, func(tx *Tx) error {
						a := tx.Read(x)
						tx.Write(x, a-1)
						tx.Write(y, tx.Read(y)+1)
						return nil
					})
					if i%10 == 9 {
						// Breathe so the read-only transactions are not
						// starved by a continuous commit stream (this
						// test checks isolation, not contention-manager
						// fairness, which LibTM does not have).
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
			for i := 0; i < 200; i++ {
				var sum int64
				if err := s.Atomic(1, 1, func(tx *Tx) error {
					sum = tx.Read(x) + tx.Read(y)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if sum != 200 {
					t.Fatalf("observed sum %d, invariant broken", sum)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestAbortsAreTracedWithAttribution(t *testing.T) {
	s := New(Options{Mode: FullyOptimistic})
	col := trace.NewCollector()
	s.SetTracer(col)
	o := NewObj(0)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				_ = s.Atomic(uint16(w), 0, func(tx *Tx) error {
					v := tx.Read(o)
					for k := 0; k < 50; k++ {
						_ = k // widen the conflict window
					}
					tx.Write(o, v+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	commits, _ := col.Counts()
	if commits != workers*150 {
		t.Fatalf("commit events = %d", commits)
	}
	if s.Aborts() > 0 {
		seq, _ := col.Sequence()
		attributed := 0
		for _, st := range seq {
			attributed += len(st.Aborts)
		}
		if attributed == 0 {
			t.Error("aborts occurred but none were attributed")
		}
	}
}

type admitCounter struct {
	mu sync.Mutex
	n  int
}

func (a *admitCounter) Admit(tts.Pair) {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func TestGateConsulted(t *testing.T) {
	s := New(Options{Mode: FullyOptimistic})
	g := &admitCounter{}
	s.SetGate(g)
	o := NewObj(0)
	for i := 0; i < 3; i++ {
		_ = s.Atomic(0, 0, func(tx *Tx) error {
			tx.Write(o, 1)
			return nil
		})
	}
	if g.n != 3 {
		t.Errorf("admits = %d", g.n)
	}
	s.SetGate(nil)
	_ = s.Atomic(0, 0, func(tx *Tx) error { return nil })
	if g.n != 3 {
		t.Error("gate consulted after removal")
	}
}

func TestRetryLimit(t *testing.T) {
	s := New(Options{Mode: FullyOptimistic, MaxRetries: 2})
	o := NewObj(0)
	// White box: park a foreign write lock on the object.
	o.meta.Store(99<<1 | 1)
	err := s.Atomic(0, 0, func(tx *Tx) error {
		_ = tx.Read(o)
		return nil
	})
	if !errors.Is(err, ErrRetryLimit) {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitForReadersDrains(t *testing.T) {
	// A visible reader that finishes quickly should let a
	// wait-for-readers writer commit without aborting the reader.
	s := New(Options{Mode: Mode{Reads: VisibleReads, Writes: CommitWrites, Resolution: WaitForReaders}, WaitSpin: 10000})
	o := NewObj(1)
	readerIn := make(chan struct{}, 1)
	readerGo := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	signaled := false
	go func() {
		defer wg.Done()
		_ = s.Atomic(0, 0, func(tx *Tx) error {
			_ = tx.Read(o)
			if !signaled {
				signaled = true
				readerIn <- struct{}{}
				<-readerGo
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-readerIn
		go func() { readerGo <- struct{}{} }()
		_ = s.Atomic(1, 1, func(tx *Tx) error {
			tx.Write(o, 2)
			return nil
		})
	}()
	wg.Wait()
	if o.Value() != 2 {
		t.Errorf("value = %d", o.Value())
	}
}

func TestAbortReadersKillsConflictingReader(t *testing.T) {
	// With visible reads + abort-readers, a writer that commits while a
	// reader is mid-transaction dooms the reader, which then retries.
	s := New(Options{Mode: Mode{Reads: VisibleReads, Writes: CommitWrites, Resolution: AbortReaders}})
	col := trace.NewCollector()
	s.SetTracer(col)
	o := NewObj(0)
	readerStarted := make(chan struct{}, 1)
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	firstAttempt := true
	go func() {
		defer wg.Done()
		_ = s.Atomic(0, 0, func(tx *Tx) error {
			_ = tx.Read(o)
			if firstAttempt {
				firstAttempt = false
				readerStarted <- struct{}{}
				<-writerDone
			}
			_ = tx.Read(o) // checkDoomed fires here if we were killed
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-readerStarted
		_ = s.Atomic(1, 1, func(tx *Tx) error {
			tx.Write(o, 5)
			return nil
		})
		close(writerDone)
	}()
	wg.Wait()
	if o.Value() != 5 {
		t.Errorf("value = %d", o.Value())
	}
	if s.Aborts() == 0 {
		t.Error("reader was not aborted by abort-readers resolution")
	}
}

func TestCountersReset(t *testing.T) {
	s := New(Options{Mode: FullyOptimistic})
	_ = s.Atomic(0, 0, func(tx *Tx) error { return nil })
	s.ResetCounters()
	if s.Commits() != 0 || s.Aborts() != 0 {
		t.Error("counters not reset")
	}
}
