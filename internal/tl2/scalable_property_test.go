package tl2

// Property tests for the commit path (pinned-seed corpora via
// internal/proptest): the version clock's per-thread snapshot
// guarantees and the pooled descriptors' reuse hygiene.

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"gstm/internal/proptest"
)

// Property (per-thread snapshot monotonicity): a thread's successive
// transactional snapshots never move
// backwards and are never torn — a reader that repeatedly scans an
// invariant pair (x == y, bumped together by a concurrent writer)
// must observe equal components and a non-decreasing value, for any
// writer/reader intensity.
func TestSnapshotMonotonicityProperty(t *testing.T) {
	f := func(incs, reads uint8) bool {
		nInc := int(incs%40) + 1
		nRead := int(reads%40) + 1
		s := New(Options{})
		x, y := NewVar(0), NewVar(0)
		ok := true
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < nInc; i++ {
				_ = s.Atomic(0, 100, func(tx *Tx) error {
					a := tx.Read(x)
					tx.Write(x, a+1)
					tx.Write(y, a+1)
					return nil
				})
			}
		}()
		go func() {
			defer wg.Done()
			last := int64(-1)
			for i := 0; i < nRead; i++ {
				var a, b int64
				if err := s.Atomic(1, 101, func(tx *Tx) error {
					a = tx.Read(x)
					b = tx.Read(y)
					return nil
				}); err != nil {
					ok = false
					return
				}
				if a != b || a < last {
					ok = false
					return
				}
				last = a
			}
		}()
		wg.Wait()
		return ok && x.Value() == int64(nInc) && y.Value() == int64(nInc)
	}
	if err := quick.Check(f, proptest.Config(t, 40)); err != nil {
		t.Error(err)
	}
}

// Property (committed-write visibility): a commit is immediately
// visible — after a worker's increment returns, the same thread must
// transactionally read at least its own count, and once all workers
// join the counter equals the total (no lost updates).
func TestCommittedWriteVisibilityProperty(t *testing.T) {
	f := func(workers, incs uint8) bool {
		nW := int(workers%4) + 2
		nInc := int(incs%20) + 1
		s := New(Options{})
		v := NewVar(0)
		ok := make([]bool, nW)
		var wg sync.WaitGroup
		wg.Add(nW)
		for w := 0; w < nW; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 1; i <= nInc; i++ {
					if err := s.Atomic(uint16(w), uint16(100+w), func(tx *Tx) error {
						tx.Write(v, tx.Read(v)+1)
						return nil
					}); err != nil {
						return
					}
					var seen int64
					if err := s.Atomic(uint16(w), uint16(200+w), func(tx *Tx) error {
						seen = tx.Read(v)
						return nil
					}); err != nil {
						return
					}
					if seen < int64(i) {
						return
					}
				}
				ok[w] = true
			}(w)
		}
		wg.Wait()
		for _, o := range ok {
			if !o {
				return false
			}
		}
		return v.Value() == int64(nW*nInc)
	}
	if err := quick.Check(f, proptest.Config(t, 30)); err != nil {
		t.Error(err)
	}
}

// Property (pool-reuse hygiene): every transaction — after commits,
// user aborts and conflict retries — begins with empty read/write
// sets. A recycled descriptor leaking a prior attempt's entries would
// validate or write back locations this transaction never touched.
func TestDescriptorReuseHygieneProperty(t *testing.T) {
	errUser := errors.New("user abort")
	type op struct {
		Idx   uint8
		Write bool
		Fail  bool
	}
	f := func(ops []op) bool {
		const n = 4
		s := New(Options{})
		vars := make([]*Var, n)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		clean := true
		for _, o := range ops {
			idx := int(o.Idx) % n
			_ = s.Atomic(0, 7, func(tx *Tx) error {
				if len(tx.reads) != 0 || len(tx.writes) != 0 {
					clean = false
				}
				if o.Write {
					tx.Write(vars[idx], tx.Read(vars[idx])+1)
				} else {
					_ = tx.Read(vars[idx])
				}
				if o.Fail {
					return errUser
				}
				return nil
			})
			if !clean {
				return false
			}
		}
		return clean
	}
	if err := quick.Check(f, proptest.Config(t, 40)); err != nil {
		t.Error(err)
	}
}
