// Package droppederr exercises gstm005: silently discarding the
// result of Atomic.
package droppederr

import (
	"gstm"
	"gstm/internal/tl2"
)

func positives(s *gstm.STM, v *gstm.Var) {
	s.Atomic(0, 0, func(tx *gstm.Tx) error { // want "gstm005"
		tx.Write(v, tx.Read(v)+1)
		return nil
	})
	s.AtomicIrrevocable(0, 0, func(tx *tl2.IrrevTx) error { // want "gstm005"
		tx.Write(v, 1)
		return nil
	})
	go s.Atomic(0, 1, func(tx *gstm.Tx) error { // want "gstm005"
		tx.Write(v, tx.Read(v)+1)
		return nil
	})
	defer s.Atomic(0, 2, func(tx *gstm.Tx) error { // want "gstm005"
		tx.Write(v, tx.Read(v)+1)
		return nil
	})
}

// negatives: a checked error, and the repo's explicit `_ =` idiom for
// transactions that cannot fail.
func negatives(s *gstm.STM, v *gstm.Var) error {
	if err := s.Atomic(0, 0, func(tx *gstm.Tx) error {
		tx.Write(v, tx.Read(v)+1)
		return nil
	}); err != nil {
		return err
	}
	_ = s.Atomic(0, 1, func(tx *gstm.Tx) error {
		tx.Write(v, tx.Read(v)+1)
		return nil
	})
	return nil
}
