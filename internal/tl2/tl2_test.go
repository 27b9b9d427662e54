package tl2

import (
	"errors"
	"gstm/internal/proptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gstm/internal/trace"
	"gstm/internal/tts"
)

func TestSingleThreadReadWrite(t *testing.T) {
	s := New(Options{})
	v := NewVar(10)
	err := s.Atomic(0, 0, func(tx *Tx) error {
		if got := tx.Read(v); got != 10 {
			t.Errorf("Read = %d, want 10", got)
		}
		tx.Write(v, 42)
		if got := tx.Read(v); got != 42 {
			t.Errorf("read-own-write = %d, want 42", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Value() != 42 {
		t.Errorf("committed value = %d, want 42", v.Value())
	}
}

func TestWriteBackIsLazy(t *testing.T) {
	s := New(Options{})
	v := NewVar(1)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		tx.Write(v, 99)
		if v.Value() != 1 {
			t.Error("write must not reach shared memory before commit")
		}
		return nil
	})
	if v.Value() != 99 {
		t.Error("write must reach shared memory after commit")
	}
}

func TestUserErrorRollsBack(t *testing.T) {
	s := New(Options{})
	v := NewVar(5)
	sentinel := errors.New("boom")
	err := s.Atomic(0, 0, func(tx *Tx) error {
		tx.Write(v, 123)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if v.Value() != 5 {
		t.Errorf("value = %d, rollback failed", v.Value())
	}
	if s.Commits() != 0 {
		t.Error("user abort must not count as commit")
	}
}

func TestReadOnlyTransactionCommits(t *testing.T) {
	s := New(Options{})
	v := NewVar(7)
	if err := s.Atomic(0, 0, func(tx *Tx) error {
		_ = tx.Read(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 1 {
		t.Errorf("Commits = %d", s.Commits())
	}
}

func TestFloatRoundtrip(t *testing.T) {
	s := New(Options{})
	v := NewFloatVar(3.25)
	if v.FloatValue() != 3.25 {
		t.Fatalf("initial = %v", v.FloatValue())
	}
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		f := tx.ReadFloat(v)
		tx.WriteFloat(v, f*2)
		return nil
	})
	if v.FloatValue() != 6.5 {
		t.Errorf("FloatValue = %v, want 6.5", v.FloatValue())
	}
}

func TestConcurrentCountersExact(t *testing.T) {
	s := New(Options{})
	v := NewVar(0)
	const workers = 8
	const per = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Atomic(uint16(w), 0, func(tx *Tx) error {
					tx.Write(v, tx.Read(v)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if v.Value() != workers*per {
		t.Errorf("counter = %d, want %d", v.Value(), workers*per)
	}
	if s.Commits() != workers*per {
		t.Errorf("Commits = %d, want %d", s.Commits(), workers*per)
	}
}

func TestBankTransferInvariant(t *testing.T) {
	s := New(Options{})
	const accounts = 16
	const initial = 1000
	acc := NewArray(accounts, initial)
	const workers = 6
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w + 1)
			for i := 0; i < per; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := int(rng % accounts)
				to := int((rng >> 8) % accounts)
				amt := int64(rng % 50)
				if err := s.Atomic(uint16(w), 0, func(tx *Tx) error {
					f := acc.Get(tx, from)
					if f < amt {
						return nil // insufficient funds; still commits (no-op)
					}
					acc.Set(tx, from, f-amt)
					acc.Set(tx, to, acc.Get(tx, to)+amt)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, x := range acc.Snapshot() {
		if x < 0 {
			t.Errorf("negative balance %d", x)
		}
		total += x
	}
	if total != accounts*initial {
		t.Errorf("money not conserved: %d != %d", total, accounts*initial)
	}
}

func TestIsolationNoDirtyReads(t *testing.T) {
	// Two vars must always be observed equal: writers keep x == y.
	s := New(Options{})
	x, y := NewVar(0), NewVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Atomic(0, 0, func(tx *Tx) error {
				tx.Write(x, i)
				tx.Write(y, i)
				return nil
			})
		}
	}()
	for i := 0; i < 500; i++ {
		var gx, gy int64
		if err := s.Atomic(1, 1, func(tx *Tx) error {
			gx = tx.Read(x)
			gy = tx.Read(y)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if gx != gy {
			t.Fatalf("torn read: x=%d y=%d", gx, gy)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRetryLimitOnPermanentConflict(t *testing.T) {
	s := New(Options{MaxRetries: 3})
	v := NewVar(0)
	// Simulate a stuck lock holder (white box): lock the var so every
	// read aborts.
	v.lock.Store(lockedBit)
	v.who.Store(777)
	err := s.Atomic(0, 0, func(tx *Tx) error {
		_ = tx.Read(v)
		return nil
	})
	if !errors.Is(err, ErrRetryLimit) {
		t.Fatalf("err = %v, want ErrRetryLimit", err)
	}
	if s.Aborts() == 0 {
		t.Error("aborts should have been counted")
	}
}

func TestAbortAttributionReachesTracer(t *testing.T) {
	s := New(Options{MaxRetries: 2})
	c := trace.NewCollector()
	s.SetTracer(c)
	v := NewVar(0)
	v.lock.Store(lockedBit)
	v.who.Store(555)
	_ = s.Atomic(3, 1, func(tx *Tx) error {
		_ = tx.Read(v)
		return nil
	})
	_, aborts := c.Counts()
	if aborts == 0 {
		t.Fatal("tracer saw no aborts")
	}
	byThread := c.AbortCountByThread()
	if byThread[3] == 0 {
		t.Error("abort not charged to thread 3")
	}
}

func TestConflictAttributionEndToEnd(t *testing.T) {
	// Drive real conflicts and confirm the collector can attribute at
	// least some aborts to committed killers.
	s := New(Options{})
	c := trace.NewCollector()
	s.SetTracer(c)
	v := NewVar(0)
	const workers = 8
	var wg sync.WaitGroup
	var spins atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Atomic(uint16(w), 0, func(tx *Tx) error {
					x := tx.Read(v)
					// Lengthen the window to force overlap.
					for k := 0; k < 100; k++ {
						spins.Add(1)
					}
					tx.Write(v, x+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if v.Value() != workers*200 {
		t.Fatalf("lost updates: %d", v.Value())
	}
	seq, _ := c.Sequence()
	if len(seq) != workers*200 {
		t.Fatalf("commit events = %d", len(seq))
	}
	if s.Aborts() > 0 {
		attributed := 0
		for _, st := range seq {
			attributed += len(st.Aborts)
		}
		if attributed == 0 {
			t.Error("conflicts occurred but no abort was attributed to any commit")
		}
	} else {
		t.Log("no conflicts occurred on this run; attribution untested")
	}
}

type countingGate struct {
	n atomic.Int64
}

func (g *countingGate) Admit(tts.Pair) { g.n.Add(1) }

func TestGateIsConsulted(t *testing.T) {
	s := New(Options{})
	g := &countingGate{}
	s.SetGate(g)
	v := NewVar(0)
	for i := 0; i < 5; i++ {
		_ = s.Atomic(0, 2, func(tx *Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		})
	}
	if g.n.Load() != 5 {
		t.Errorf("gate admits = %d, want 5", g.n.Load())
	}
	s.SetGate(nil)
	_ = s.Atomic(0, 2, func(tx *Tx) error { return nil })
	if g.n.Load() != 5 {
		t.Error("gate must not be consulted after removal")
	}
}

func TestLargeWriteSetIndexPath(t *testing.T) {
	s := New(Options{})
	n := writeIdxThreshold*2 + 7
	a := NewArray(n, 0)
	if err := s.Atomic(0, 0, func(tx *Tx) error {
		for i := 0; i < n; i++ {
			a.Set(tx, i, int64(i))
		}
		// Overwrite some through the indexed path.
		for i := 0; i < n; i += 3 {
			a.Set(tx, i, int64(i)*10)
		}
		for i := 0; i < n; i++ {
			want := int64(i)
			if i%3 == 0 {
				want = int64(i) * 10
			}
			if got := a.Get(tx, i); got != want {
				t.Errorf("a[%d] = %d, want %d", i, got, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int64(i)
		if i%3 == 0 {
			want = int64(i) * 10
		}
		if got := a.At(i).Value(); got != want {
			t.Fatalf("committed a[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestResetCounters(t *testing.T) {
	s := New(Options{})
	v := NewVar(0)
	_ = s.Atomic(0, 0, func(tx *Tx) error { tx.Write(v, 1); return nil })
	if s.Commits() == 0 {
		t.Fatal("expected a commit")
	}
	s.ResetCounters()
	if s.Commits() != 0 || s.Aborts() != 0 {
		t.Error("counters not reset")
	}
}

// Property: sequential transactional execution is equivalent to direct
// computation for arbitrary programs of reads and writes.
func TestSequentialEquivalenceProperty(t *testing.T) {
	type op struct {
		Idx   uint8
		Delta int8
	}
	f := func(ops []op) bool {
		s := New(Options{})
		const n = 16
		a := NewArray(n, 0)
		ref := make([]int64, n)
		err := s.Atomic(0, 0, func(tx *Tx) error {
			for i := range ref {
				ref[i] = 0 // reset in case of a retried attempt
			}
			for _, o := range ops {
				i := int(o.Idx) % n
				a.Set(tx, i, a.Get(tx, i)+int64(o.Delta))
				ref[i] += int64(o.Delta)
			}
			return nil
		})
		if err != nil {
			return false
		}
		got := a.Snapshot()
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, proptest.Config(t, 50)); err != nil {
		t.Error(err)
	}
}

// TestPreempt: Tx.Preempt is a suspension point only while the STM
// emulates interleaving (YieldEvery > 0), and then it yields through
// Options.Yield when that is set, through runtime.Gosched otherwise.
func TestPreempt(t *testing.T) {
	t.Run("Off", func(t *testing.T) {
		yields := 0
		s := New(Options{YieldEvery: -1, Yield: func() { yields++ }})
		_ = s.Atomic(0, 0, func(tx *Tx) error {
			for i := 0; i < 10; i++ {
				tx.Preempt()
			}
			return nil
		})
		if yields != 0 {
			t.Errorf("%d yields with interleaving off, want none", yields)
		}
	})
	t.Run("Hook", func(t *testing.T) {
		// A scheduler hook turns the default emulation on whatever the
		// number of Ps: Preempt must reach it.
		yields := 0
		s := New(Options{Yield: func() { yields++ }})
		_ = s.Atomic(0, 0, func(tx *Tx) error {
			before := yields
			tx.Preempt()
			if got := yields - before; got != 1 {
				t.Errorf("Preempt yielded %d times through the hook, want once", got)
			}
			return nil
		})
	})
	t.Run("Gosched", func(t *testing.T) {
		// On one P a goroutine started inside the body runs only when the
		// body's goroutine yields the processor. One yield is not enough
		// to see it run: Gosched puts the caller on the global run queue,
		// and every 61st schedule the scheduler serves that queue first,
		// handing the P straight back to the caller. So Preempt is called
		// up to eight times, stopping once the goroutine has run; without
		// yielding, eight calls must not let it run either.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, yieldEvery := range []int{0, -1} {
			var ran atomic.Bool
			done := make(chan struct{})
			s := New(Options{YieldEvery: yieldEvery})
			_ = s.Atomic(0, 0, func(tx *Tx) error {
				go func() { ran.Store(true); close(done) }()
				for i := 0; i < 8 && !ran.Load(); i++ {
					tx.Preempt()
				}
				if got, want := ran.Load(), yieldEvery == 0; got != want {
					t.Errorf("YieldEvery %d: another goroutine ran during Preempt = %v, want %v", yieldEvery, got, want)
				}
				return nil
			})
			<-done
		}
	})
}
