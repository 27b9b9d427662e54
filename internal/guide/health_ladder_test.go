package guide

import "testing"

// ladderController builds a controller with an 8-admit health window,
// default trip rates (unknown 0.5, escape 0.25) and a 2-window re-arm,
// driven directly through note (a window under 16 counts every admit as it
// happens) for exact per-window rates.
func ladderController() *Controller {
	return New(twoStateModel(), Options{K: 2, HealthWindow: 8, RearmWindows: 2})
}

// window feeds exactly one full health window with the given outcome
// counts (the remaining admits are healthy).
func window(c *Controller, unknowns, escapes int) {
	for i := 0; i < 8; i++ {
		c.note(uint64(i), i < unknowns, i < escapes)
	}
}

// TestHealthWindowEdgeRates pins the trip thresholds to their exact
// window-edge boundaries: the trip comparison is >= , so a window
// sitting exactly on the rate trips and one admit below it does not.
func TestHealthWindowEdgeRates(t *testing.T) {
	cases := []struct {
		name     string
		unknowns int // of 8 admits; 4/8 = DefaultUnknownTrip exactly
		escapes  int // of 8 admits; 2/8 = DefaultEscapeTrip exactly
		want     Level
	}{
		{"all healthy", 0, 0, LevelGuided},
		{"unknowns one below trip", 3, 0, LevelGuided},
		{"unknowns exactly at trip", 4, 0, LevelRelaxed},
		{"unknowns above trip", 8, 0, LevelRelaxed},
		{"escapes one below trip", 0, 1, LevelGuided},
		{"escapes exactly at trip", 0, 2, LevelRelaxed},
		{"escapes above trip", 0, 8, LevelRelaxed},
		{"both exactly at trip", 4, 2, LevelRelaxed},
		{"both one below trip", 3, 1, LevelGuided},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := ladderController()
			window(c, tc.unknowns, tc.escapes)
			if got := c.Level(); got != tc.want {
				t.Fatalf("after window with %d unknowns, %d escapes: level = %v, want %v",
					tc.unknowns, tc.escapes, got, tc.want)
			}
			wantDeg := uint64(0)
			if tc.want != LevelGuided {
				wantDeg = 1
			}
			if st := c.Stats(); st.Degradations != wantDeg {
				t.Fatalf("degradations = %d, want %d", st.Degradations, wantDeg)
			}
		})
	}
}

// TestLadderRoundTrip walks the full ladder down and back up:
// guided → relaxed → passthrough (clamped there on further bad
// windows), then two healthy windows per rung re-arm it step by step
// back to guided, with the healthy streak reset at each rung.
func TestLadderRoundTrip(t *testing.T) {
	c := ladderController()
	steps := []struct {
		name     string
		unknowns int
		want     Level
	}{
		{"first bad window trips to relaxed", 8, LevelRelaxed},
		{"second bad window trips to passthrough", 8, LevelPassthrough},
		{"further bad windows clamp at passthrough", 8, LevelPassthrough},
		{"one healthy window is below the re-arm streak", 0, LevelPassthrough},
		{"second healthy window re-arms to relaxed", 0, LevelRelaxed},
		{"streak was reset: one healthy window holds relaxed", 0, LevelRelaxed},
		{"second healthy window re-arms to guided", 0, LevelGuided},
		{"healthy windows at guided stay guided", 0, LevelGuided},
	}
	for _, s := range steps {
		window(c, s.unknowns, 0)
		if got := c.Level(); got != s.want {
			t.Fatalf("%s: level = %v, want %v", s.name, got, s.want)
		}
	}
	st := c.Stats()
	if st.Degradations != 2 {
		t.Errorf("degradations = %d, want 2 (the clamped window must not count)", st.Degradations)
	}
	if st.Rearms != 2 {
		t.Errorf("rearms = %d, want 2", st.Rearms)
	}
}

// TestRearmProbeTripsAgain: the re-arm is a probe — if the workload
// still mismatches the model at the stricter level, the very next bad
// window sends the controller straight back down, and a bad window
// also erases any healthy streak accumulated before it.
func TestRearmProbeTripsAgain(t *testing.T) {
	c := ladderController()
	window(c, 8, 0)
	window(c, 8, 0) // → passthrough
	window(c, 0, 0)
	window(c, 0, 0) // probe: → relaxed
	if got := c.Level(); got != LevelRelaxed {
		t.Fatalf("probe did not re-arm: level = %v", got)
	}
	window(c, 8, 0) // probe fails
	if got := c.Level(); got != LevelPassthrough {
		t.Fatalf("failed probe did not trip back down: level = %v", got)
	}
	// The bad window reset the streak: one healthy window must not
	// re-arm on its own.
	window(c, 0, 0)
	if got := c.Level(); got != LevelPassthrough {
		t.Fatalf("healthy streak survived a bad window: level = %v", got)
	}
	if st := c.Stats(); st.Degradations != 3 || st.Rearms != 1 {
		t.Errorf("degradations = %d rearms = %d, want 3 and 1", st.Degradations, st.Rearms)
	}
}
