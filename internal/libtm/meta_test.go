package libtm

import (
	"errors"
	"testing"
)

// White-box tests for the one-word lock protocol: each parks words or
// interleaves rivals deterministically inside a victim's body, then
// checks the victim's abort count and its first killer.

// metaVictim runs body as the victim pair once through s with a fresh
// tracer and returns its killers and commits.
func metaVictim(t *testing.T, s *STM, body func(tx *Tx, first bool)) (killers, commits []uint64) {
	t.Helper()
	tr := newKillTrace()
	s.SetTracer(tr)
	first := true
	if err := s.Atomic(victimPair.Thread, victimPair.Tx, func(tx *Tx) error {
		f := first
		first = false
		body(tx, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	commits, killers = tr.get(victimPair)
	return killers, commits
}

// A writer that locks and then aborts restores the exact word, so a
// reader that read before the lock commits without an abort.
func TestAbortedLockRestoresWord(t *testing.T) {
	s := New(parityOpts(FullyOptimistic))
	o := NewObj(5)
	o.meta.Store(55 << 1) // a word some earlier writer left
	killers, _ := metaVictim(t, s, func(tx *Tx, first bool) {
		_ = tx.Read(o)
		if !first {
			return
		}
		before := o.meta.Load()
		// A rival locks o at commit and then aborts at a foreign lock
		// parked on p; its retry gives up with an error.
		p := NewObj(0)
		p.meta.Store(99<<1 | 1)
		stop := errors.New("stop")
		tries := 0
		err := s.Atomic(rivalPair.Thread, rivalPair.Tx, func(rtx *Tx) error {
			if tries++; tries > 1 {
				return stop
			}
			rtx.Write(o, 1)
			rtx.Write(p, 1)
			return nil
		})
		if !errors.Is(err, stop) || tries != 2 {
			t.Fatalf("rival: err %v after %d attempts, want one abort then stop", err, tries)
		}
		if got := o.meta.Load(); got != before {
			t.Errorf("word after the rival's aborted lock = %#x, want %#x restored", got, before)
		}
	})
	if len(killers) != 0 {
		t.Errorf("reader aborted (killers %v), want a clean commit", killers)
	}
}

// A publish between a read and its commit aborts the reader, naming
// exactly that publisher.
func TestPublishNamesWriter(t *testing.T) {
	s := New(parityOpts(FullyOptimistic))
	o := NewObj(0)
	var writer uint64
	killers, _ := metaVictim(t, s, func(tx *Tx, first bool) {
		_ = tx.Read(o)
		if first {
			writer = rivalWrite(t, s, o, 3)
		}
	})
	if len(killers) == 0 || killers[0] != writer {
		t.Errorf("victim killers = %v, want first killer %d (the publisher)", killers, writer)
	}
}

// A transaction reads x, a rival publishes x, then the transaction
// locks x at commit: it aborts naming the rival, although the word now
// names the transaction itself. Without the rival's publish it commits.
func TestOwnLockComparesPreLockWord(t *testing.T) {
	for _, rival := range []bool{true, false} {
		s := New(parityOpts(FullyOptimistic))
		o := NewObj(0)
		var writer uint64
		killers, _ := metaVictim(t, s, func(tx *Tx, first bool) {
			v := tx.Read(o)
			if first && rival {
				writer = rivalWrite(t, s, o, 3)
			}
			tx.Write(o, v+1)
		})
		switch {
		case rival && (len(killers) == 0 || killers[0] != writer):
			t.Errorf("with a rival publish: killers = %v, want first killer %d", killers, writer)
		case !rival && len(killers) != 0:
			t.Errorf("without a rival: killers = %v, want a clean commit", killers)
		}
		if want := int64(4); rival && o.Value() != want {
			t.Errorf("final value = %d, want %d", o.Value(), want)
		}
	}
}

// In encounter-writes mode, a read of an object the transaction holds
// passes validation: the read's word is compared with the word the lock
// replaced.
func TestEncounterHeldReadValidates(t *testing.T) {
	s := New(parityOpts(Mode{Reads: InvisibleReads, Writes: EncounterWrites, Resolution: AbortReaders}))
	objs := []*Obj{NewObj(1), NewObj(2), NewObj(3)}
	objs[1].meta.Store(77 << 1) // a word some earlier writer left
	killers, commits := metaVictim(t, s, func(tx *Tx, _ bool) {
		for _, o := range objs {
			tx.Write(o, tx.Read(o)+10)
		}
		// Read again after the locks: served from the write set.
		_ = tx.Read(objs[0])
	})
	if len(killers) != 0 || len(commits) != 1 {
		t.Fatalf("killers %v, commits %v: want one clean commit", killers, commits)
	}
	for i, o := range objs {
		if want := commits[0] << 1; o.meta.Load() != want {
			t.Errorf("object %d word = %#x, want %#x (the committer, free)", i, o.meta.Load(), want)
		}
	}
}

// rivalWrite commits one write of x into o as the rival pair and returns
// its instance.
func rivalWrite(t *testing.T, s *STM, o *Obj, x int64) uint64 {
	t.Helper()
	var inst uint64
	if err := s.Atomic(rivalPair.Thread, rivalPair.Tx, func(tx *Tx) error {
		tx.Write(o, x)
		inst = tx.instance
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := o.meta.Load(); got != inst<<1 {
		t.Fatalf("word after the rival's publish = %#x, want %#x", got, inst<<1)
	}
	return inst
}
