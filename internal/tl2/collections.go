package tl2

import (
	"fmt"
	"slices"
)

// Array is a fixed-length sequence of transactional words, the bulk
// data structure behind grids, centroid tables and reservation tables
// in the STAMP kernels.
type Array struct {
	vars []Var
}

// NewArray returns an Array of n words, all initialized to init.
func NewArray(n int, init int64) *Array {
	a := &Array{vars: make([]Var, n)}
	if init != 0 {
		for i := range a.vars {
			a.vars[i].val.Store(init)
		}
	}
	return a
}

// Len returns the number of words.
func (a *Array) Len() int { return len(a.vars) }

// At returns the i-th word for use with Tx.Read / Tx.Write.
func (a *Array) At(i int) *Var { return &a.vars[i] }

// Get transactionally reads element i.
func (a *Array) Get(tx *Tx, i int) int64 { return tx.Read(&a.vars[i]) }

// Set transactionally writes element i.
func (a *Array) Set(tx *Tx, i int, x int64) { tx.Write(&a.vars[i], x) }

// Snapshot copies the committed values non-transactionally, for
// post-run verification.
func (a *Array) Snapshot() []int64 { return a.SnapshotInto(nil) }

// SnapshotInto is Snapshot into dst's storage, reallocated only when its
// capacity is short: a caller that copies the array over and over (a
// planner's private grid) allocates once. It returns the filled slice.
func (a *Array) SnapshotInto(dst []int64) []int64 {
	dst = slices.Grow(dst[:0], len(a.vars))[:len(a.vars)]
	for i := range a.vars {
		dst[i] = a.vars[i].Value()
	}
	return dst
}

// Sentinel keys for Map slots. Real keys must avoid these two values.
const (
	mapEmpty     = int64(-1) << 62
	mapTombstone = mapEmpty + 1
)

// Map is a fixed-capacity transactional hash table from int64 keys to
// int64 values, using open addressing with linear probing. It does not
// grow: creating it with enough headroom is the caller's job (STAMP's
// C hashtables are likewise sized up front). Keys must not equal the
// two reserved sentinel values near -2^62.
type Map struct {
	keys *Array
	vals *Array
	mask uint64
}

// NewMap returns a Map with capacity for at least n entries (rounded up
// to a power of two, with a 2x load-factor margin).
func NewMap(n int) *Map {
	cap := 16
	for cap < 2*n {
		cap *= 2
	}
	return &Map{
		keys: NewArray(cap, mapEmpty),
		vals: NewArray(cap, 0),
		mask: uint64(cap - 1),
	}
}

// Cap returns the slot capacity of the table.
func (m *Map) Cap() int { return m.keys.Len() }

func hash64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ErrMapFull is reported (via panic converted to error by Atomic's
// caller contract) when an insert probes every slot. Sizing the map
// with NewMap's 2x margin makes this unreachable in the workloads.
var ErrMapFull = fmt.Errorf("tl2: transactional map is full")

// Put inserts or updates key → val. Returns true if the key was newly
// inserted, false if an existing entry was updated.
func (m *Map) Put(tx *Tx, key, val int64) bool {
	h := hash64(key) & m.mask
	firstFree := -1
	for i := uint64(0); i <= m.mask; i++ {
		slot := int((h + i) & m.mask)
		k := m.keys.Get(tx, slot)
		switch k {
		case key:
			m.vals.Set(tx, slot, val)
			return false
		case mapEmpty:
			if firstFree >= 0 {
				slot = firstFree
			}
			m.keys.Set(tx, slot, key)
			m.vals.Set(tx, slot, val)
			return true
		case mapTombstone:
			if firstFree < 0 {
				firstFree = slot
			}
		}
	}
	if firstFree >= 0 {
		m.keys.Set(tx, firstFree, key)
		m.vals.Set(tx, firstFree, val)
		return true
	}
	panic(ErrMapFull)
}

// Get looks up key, returning its value and whether it was present.
func (m *Map) Get(tx *Tx, key int64) (int64, bool) {
	h := hash64(key) & m.mask
	for i := uint64(0); i <= m.mask; i++ {
		slot := int((h + i) & m.mask)
		k := m.keys.Get(tx, slot)
		switch k {
		case key:
			return m.vals.Get(tx, slot), true
		case mapEmpty:
			return 0, false
		}
	}
	return 0, false
}

// Contains reports whether key is present.
func (m *Map) Contains(tx *Tx, key int64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// Delete removes key, returning whether it was present.
func (m *Map) Delete(tx *Tx, key int64) bool {
	h := hash64(key) & m.mask
	for i := uint64(0); i <= m.mask; i++ {
		slot := int((h + i) & m.mask)
		k := m.keys.Get(tx, slot)
		switch k {
		case key:
			m.keys.Set(tx, slot, mapTombstone)
			return true
		case mapEmpty:
			return false
		}
	}
	return false
}

// SnapshotKeys returns the committed live keys, non-transactionally.
func (m *Map) SnapshotKeys() []int64 {
	var out []int64
	for i := 0; i < m.keys.Len(); i++ {
		k := m.keys.At(i).Value()
		if k != mapEmpty && k != mapTombstone {
			out = append(out, k)
		}
	}
	return out
}

// Queue is a bounded transactional FIFO ring buffer of int64, the hot
// shared structure in intruder and yada.
type Queue struct {
	buf  *Array
	head *Var // next slot to pop
	tail *Var // next slot to push
	size int64
}

// NewQueue returns a Queue holding at most n elements.
func NewQueue(n int) *Queue {
	return &Queue{
		buf:  NewArray(n, 0),
		head: NewVar(0),
		tail: NewVar(0),
		size: int64(n),
	}
}

// Push appends x; returns false (without writing) if the queue is full.
func (q *Queue) Push(tx *Tx, x int64) bool {
	h := tx.Read(q.head)
	t := tx.Read(q.tail)
	if t-h >= q.size {
		return false
	}
	q.buf.Set(tx, int(t%q.size), x)
	tx.Write(q.tail, t+1)
	return true
}

// Pop removes and returns the oldest element; ok is false when empty.
func (q *Queue) Pop(tx *Tx) (x int64, ok bool) {
	h := tx.Read(q.head)
	t := tx.Read(q.tail)
	if h == t {
		return 0, false
	}
	x = q.buf.Get(tx, int(h%q.size))
	tx.Write(q.head, h+1)
	return x, true
}

// Len returns the transactional length.
func (q *Queue) Len(tx *Tx) int64 {
	return tx.Read(q.tail) - tx.Read(q.head)
}
