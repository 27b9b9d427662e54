package tl2

import (
	"gstm/internal/proptest"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestArrayBasics(t *testing.T) {
	a := NewArray(4, 9)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i, x := range a.Snapshot() {
		if x != 9 {
			t.Errorf("a[%d] = %d, want 9", i, x)
		}
	}
	s := New(Options{})
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		a.Set(tx, 2, 100)
		if a.Get(tx, 2) != 100 {
			t.Error("read-own-write on array failed")
		}
		return nil
	})
	if a.At(2).Value() != 100 {
		t.Error("array write did not commit")
	}
}

// TestArraySnapshotInto: SnapshotInto equals Snapshot and fills dst's
// storage when it has the capacity, growing it only when it does not.
func TestArraySnapshotInto(t *testing.T) {
	a := NewArray(5, 0)
	for i := 0; i < a.Len(); i++ {
		a.At(i).Store(int64(i * i))
	}
	want := a.Snapshot()
	buf := make([]int64, 2, 8)
	got := a.SnapshotInto(buf)
	if !slices.Equal(got, want) {
		t.Fatalf("SnapshotInto = %v, Snapshot = %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("SnapshotInto reallocated a buffer with room for the array")
	}
	if again := a.SnapshotInto(got); &again[0] != &got[0] || !slices.Equal(again, want) {
		t.Error("a second SnapshotInto into its own result did not reuse it")
	}
	if short := a.SnapshotInto(make([]int64, 0, 2)); !slices.Equal(short, want) {
		t.Errorf("SnapshotInto a short buffer = %v, want %v", short, want)
	}
}

func TestMapBasicOps(t *testing.T) {
	s := New(Options{})
	m := NewMap(8)
	err := s.Atomic(0, 0, func(tx *Tx) error {
		if !m.Put(tx, 5, 50) {
			t.Error("first Put should insert")
		}
		if m.Put(tx, 5, 55) {
			t.Error("second Put should update")
		}
		if v, ok := m.Get(tx, 5); !ok || v != 55 {
			t.Errorf("Get = %d,%v", v, ok)
		}
		if _, ok := m.Get(tx, 6); ok {
			t.Error("missing key found")
		}
		if !m.Contains(tx, 5) {
			t.Error("Contains failed")
		}
		if !m.Delete(tx, 5) {
			t.Error("Delete should succeed")
		}
		if m.Delete(tx, 5) {
			t.Error("double Delete should fail")
		}
		if m.Contains(tx, 5) {
			t.Error("deleted key still present")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapTombstoneReuse(t *testing.T) {
	s := New(Options{})
	m := NewMap(4)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		for k := int64(0); k < 4; k++ {
			m.Put(tx, k, k*10)
		}
		m.Delete(tx, 2)
		if !m.Put(tx, 100, 1) {
			t.Error("insert into tombstone should report new")
		}
		if v, ok := m.Get(tx, 100); !ok || v != 1 {
			t.Error("tombstone-reused key unreadable")
		}
		for _, k := range []int64{0, 1, 3} {
			if v, ok := m.Get(tx, k); !ok || v != k*10 {
				t.Errorf("key %d lost after tombstone reuse", k)
			}
		}
		return nil
	})
}

func TestMapNegativeKeys(t *testing.T) {
	s := New(Options{})
	m := NewMap(8)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		m.Put(tx, -7, 7)
		if v, ok := m.Get(tx, -7); !ok || v != 7 {
			t.Error("negative key failed")
		}
		return nil
	})
}

func TestMapSnapshotKeys(t *testing.T) {
	s := New(Options{})
	m := NewMap(8)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		m.Put(tx, 1, 1)
		m.Put(tx, 2, 2)
		m.Put(tx, 3, 3)
		m.Delete(tx, 2)
		return nil
	})
	ks := m.SnapshotKeys()
	if len(ks) != 2 {
		t.Fatalf("SnapshotKeys = %v", ks)
	}
	seen := map[int64]bool{}
	for _, k := range ks {
		seen[k] = true
	}
	if !seen[1] || !seen[3] || seen[2] {
		t.Errorf("SnapshotKeys = %v", ks)
	}
}

// Property: the transactional map agrees with a native Go map under an
// arbitrary single-threaded op sequence.
func TestMapMatchesNativeProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0 put, 1 delete, 2 get
		Key  uint8
		Val  int16
	}
	f := func(ops []op) bool {
		s := New(Options{})
		m := NewMap(64)
		ref := map[int64]int64{}
		ok := true
		err := s.Atomic(0, 0, func(tx *Tx) error {
			// Rebuild ref if the attempt retried (single thread: won't).
			for _, o := range ops {
				k := int64(o.Key % 32)
				switch o.Kind % 3 {
				case 0:
					m.Put(tx, k, int64(o.Val))
					ref[k] = int64(o.Val)
				case 1:
					gotDel := m.Delete(tx, k)
					_, had := ref[k]
					if gotDel != had {
						ok = false
					}
					delete(ref, k)
				case 2:
					v, present := m.Get(tx, k)
					rv, had := ref[k]
					if present != had || (present && v != rv) {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, proptest.Config(t, 40)); err != nil {
		t.Error(err)
	}
}

func TestMapConcurrentInsertDisjoint(t *testing.T) {
	s := New(Options{})
	m := NewMap(512)
	const workers = 4
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := int64(w*1000 + i)
				if err := s.Atomic(uint16(w), 0, func(tx *Tx) error {
					m.Put(tx, k, k)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(m.SnapshotKeys()); got != workers*per {
		t.Errorf("keys = %d, want %d", got, workers*per)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New(Options{})
	q := NewQueue(4)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		for i := int64(1); i <= 4; i++ {
			if !q.Push(tx, i) {
				t.Errorf("Push %d failed", i)
			}
		}
		if q.Push(tx, 5) {
			t.Error("Push into full queue should fail")
		}
		if q.Len(tx) != 4 {
			t.Errorf("Len = %d", q.Len(tx))
		}
		for i := int64(1); i <= 4; i++ {
			x, ok := q.Pop(tx)
			if !ok || x != i {
				t.Errorf("Pop = %d,%v want %d", x, ok, i)
			}
		}
		if _, ok := q.Pop(tx); ok {
			t.Error("Pop from empty queue should fail")
		}
		return nil
	})
}

func TestQueueWrapAround(t *testing.T) {
	s := New(Options{})
	q := NewQueue(3)
	_ = s.Atomic(0, 0, func(tx *Tx) error {
		for round := int64(0); round < 10; round++ {
			if !q.Push(tx, round) {
				t.Fatal("push failed")
			}
			x, ok := q.Pop(tx)
			if !ok || x != round {
				t.Fatalf("round %d: got %d,%v", round, x, ok)
			}
		}
		return nil
	})
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	s := New(Options{})
	q := NewQueue(1024)
	const producers = 3
	const per = 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				val := int64(p*per + i)
				for {
					var pushed bool
					_ = s.Atomic(uint16(p), 0, func(tx *Tx) error {
						pushed = q.Push(tx, val)
						return nil
					})
					if pushed {
						break
					}
				}
			}
		}(p)
	}
	got := make(map[int64]bool)
	var mu sync.Mutex
	var cwg sync.WaitGroup
	for cns := 0; cns < 2; cns++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for {
				var x int64
				var ok bool
				_ = s.Atomic(uint16(producers+c), 1, func(tx *Tx) error {
					x, ok = q.Pop(tx)
					return nil
				})
				if !ok {
					mu.Lock()
					done := len(got) == producers*per
					mu.Unlock()
					if done {
						return
					}
					continue
				}
				mu.Lock()
				if got[x] {
					t.Errorf("duplicate pop of %d", x)
				}
				got[x] = true
				mu.Unlock()
			}
		}(cns)
	}
	wg.Wait()
	cwg.Wait()
	if len(got) != producers*per {
		t.Errorf("popped %d values, want %d", len(got), producers*per)
	}
}
