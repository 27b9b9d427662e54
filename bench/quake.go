package bench

import (
	"fmt"
	"time"

	"gstm/internal/guide"
	"gstm/internal/progress"
	"gstm/internal/synquake"
	"gstm/internal/trace"
)

const (
	quakePlayers     = 1000
	quakeMap         = 1024
	quakeTrainFrames = 200
	quakeBlock       = 50 // frames per block; a unit is one frame
	quakeTest        = "4quadrants"
)

var quakeTrain = []string{"4worst_case", "4moving"}

// quake is the paper's SynQuake experiment on LibTM: trained on two quest
// layouts, measured on a third. Two games with the same seed, one per
// mode, advance in alternating blocks of frames. It runs at SynQuake's
// shipped LibTM options: its Config exposes no runtime knob.
type quake struct {
	seed  int64
	games [2]*synquake.Game
	prog  [2]progress.Stats
	ctrl  *guide.Controller
}

func newQuake(seed int64) *quake { return &quake{seed: seed} }

func (w *quake) Name() string { return "synquake-quadrants" }

func (w *quake) Runtime() string { return "libtm" }

func (w *quake) WarmPairs() int { return 1 }

func (w *quake) Controllers() []*guide.Controller { return []*guide.Controller{w.ctrl} }

func (w *quake) game(scenario string, seed int64) (*synquake.Game, error) {
	return synquake.New(synquake.Config{
		Players: quakePlayers, MapSize: quakeMap, Threads: Threads, Scenario: scenario, Seed: seed,
	})
}

func (w *quake) Setup() (*Stages, error) {
	st := &Stages{}
	var err error
	w.ctrl, err = st.train(len(quakeTrain), func(run int, col *trace.Collector) error {
		g, err := w.game(quakeTrain[run], w.seed+int64(run))
		if err != nil {
			return err
		}
		g.STM().SetTracer(col)
		_, err = g.RunFrames(quakeTrainFrames)
		return err
	})
	if err != nil {
		return nil, err
	}
	for m := range w.games {
		if w.games[m], err = w.game(quakeTest, w.seed+100); err != nil {
			return nil, err
		}
		w.prog[m] = progress.Stats{}
	}
	return st, nil
}

func (w *quake) Run(m Mode, rec *Recorder) (Block, error) {
	g := w.games[m]
	s := g.STM()
	var col *trace.Collector
	unit := int32(0)
	if rec != nil {
		col = trace.NewCollector()
		unit = rec.BeginUnit(m)
		// RunFrames starts fresh goroutines every frame, so the block is
		// the innermost span the driver can name.
		for t := 0; t < Threads; t++ {
			rec.Enter(t, unit)
		}
	}
	gt, tr := wire(m, w.ctrl, rec, col)
	s.SetGate(gt)
	s.SetTracer(tr)
	fr, err := g.RunFrames(quakeBlock)
	if rec != nil {
		rec.Close(unit)
		var aborts [Threads]int
		rec.Observe(m, col, "", &aborts)
		if err := rec.EndBlock(m, &aborts); err != nil {
			return Block{}, err
		}
	}
	if fr.FrameTimes == nil {
		return Block{}, err
	}
	ps := s.ProgressStats()
	b := Block{
		UnitWall: fr.FrameTimes,
		// The frame barrier occupies every thread for the whole frame.
		ThreadTime: [][]time.Duration{fr.FrameTimes, fr.FrameTimes},
		Commits:    fr.Commits,
		Aborts:     fr.Aborts,
		Ops:        fr.Commits,
	}
	b.addProgress(w.prog[m], ps)
	w.prog[m] = ps
	// The game drops the error of its Atomic calls by design; a failed call
	// shows up in these counters or in Game.Validate, which RunFrames runs.
	b.Failed = b.DeadlineMisses + b.Sheds
	if err != nil {
		b.Failed += b.Ops
		b.Problems = append(b.Problems, err.Error())
	}
	return b, nil
}

func (w *quake) Check(def, gui *ModeData, _ GateCounts) []string {
	var bad []string
	for m, g := range w.games {
		if err := g.Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("synquake-quadrants (%s): %v", Mode(m), err))
		}
	}
	return bad
}
