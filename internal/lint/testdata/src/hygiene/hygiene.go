// Package hygiene exercises gstm000: ignore directives that suppress
// nothing. A bare directive (no check ID) never suppresses, and a
// directive whose named checks all ran but matched nothing is a stale
// waiver that would silently swallow the next finding on its line.
package hygiene

import "gstm"

func cases(s *gstm.STM, v *gstm.Var) {
	_ = s.Atomic(0, 0, func(tx *gstm.Tx) error {
		// Bare directive: suppresses nothing, so the dead read survives
		// alongside the hygiene warning.
		tx.Read(v) //gstm:ignore -- bare; want "gstm000" "gstm007"
		// Stale directive: gstm003 ran but has no finding here.
		x := tx.Read(v) //gstm:ignore gstm003 -- stale; want "gstm000"
		// Retired or misspelt ID: no registered check can ever match it.
		tx.Write(v, x) //gstm:ignore gstm010 -- retired; want "gstm000"
		// Healthy directive: names the check it actually suppresses.
		tx.Read(v) //gstm:ignore gstm007 -- deliberate widening demo
		tx.Write(v, x)
		return nil
	})
}
