package synquake

import (
	"fmt"
	"sync"
	"time"

	"gstm/internal/libtm"
	"gstm/internal/stamp"
	"gstm/internal/txn"
)

// Config parameterizes one game instance.
type Config struct {
	// Players is the population (the paper uses 1000).
	Players int
	// MapSize is the square map's side (the paper uses 1024).
	MapSize int
	// CellSize is the spatial-grid cell side; contention happens on
	// cell occupancy counters.
	CellSize int
	// Threads is the number of server worker threads.
	Threads int
	// Scenario names the quest layout (see ScenarioNames).
	Scenario string
	// Seed drives player placement and per-thread action randomness.
	Seed int64
	// Mode selects the LibTM configuration; the zero value is replaced
	// by FullyOptimistic (the paper's setting).
	Mode libtm.Mode
}

func (c *Config) fill() error {
	if c.Players <= 0 {
		c.Players = 64
	}
	if c.MapSize <= 0 {
		c.MapSize = 1024
	}
	if c.CellSize <= 0 {
		c.CellSize = c.MapSize / 16
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Scenario == "" {
		c.Scenario = "4quadrants"
	}
	if c.MapSize%c.CellSize != 0 {
		return fmt.Errorf("synquake: map size %d not divisible by cell size %d", c.MapSize, c.CellSize)
	}
	if c.Mode == (libtm.Mode{}) {
		c.Mode = libtm.FullyOptimistic
	}
	return nil
}

// Static transaction IDs of the game server.
const (
	// TxMove is the movement transaction: reposition one player and
	// maintain the occupancy grid.
	TxMove uint16 = 0
	// TxAttack is the combat transaction: damage a victim near the same
	// quest.
	TxAttack uint16 = 1
	// TxScore is the quest-scoring transaction.
	TxScore uint16 = 2
)

const maxHealth = 100

// Game is one SynQuake world on a LibTM STM.
type Game struct {
	cfg      Config
	scenario Scenario
	stm      *libtm.STM

	cellsPerSide int
	posX, posY   []*libtm.Obj // per player (float bits)
	health       []*libtm.Obj // per player
	cells        []*libtm.Obj // occupancy count per grid cell
	tree         *QuadTree    // hierarchical interest index (area-node tree)
	questScore   []*libtm.Obj // per quest
	frame        int
}

// New builds the world: players placed uniformly at random, occupancy
// grid initialized to match.
func New(cfg Config) (*Game, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	sc, err := NewScenario(cfg.Scenario, cfg.MapSize)
	if err != nil {
		return nil, err
	}
	g := &Game{
		cfg:          cfg,
		scenario:     sc,
		stm:          libtm.New(libtm.Options{Mode: cfg.Mode, YieldEvery: txn.YieldEveryFor(cfg.Threads)}),
		cellsPerSide: cfg.MapSize / cfg.CellSize,
	}
	treeDepth := 3
	if cfg.MapSize >= 256 {
		treeDepth = 4
	}
	tree, err := NewQuadTree(cfg.MapSize, treeDepth)
	if err != nil {
		return nil, err
	}
	g.tree = tree
	rng := stamp.NewRand(cfg.Seed)
	n := cfg.Players
	g.posX = make([]*libtm.Obj, n)
	g.posY = make([]*libtm.Obj, n)
	g.health = make([]*libtm.Obj, n)
	g.cells = make([]*libtm.Obj, g.cellsPerSide*g.cellsPerSide)
	for i := range g.cells {
		g.cells[i] = libtm.NewObj(0)
	}
	for p := 0; p < n; p++ {
		x := rng.Float64() * float64(cfg.MapSize)
		y := rng.Float64() * float64(cfg.MapSize)
		g.posX[p] = libtm.NewFloatObj(x)
		g.posY[p] = libtm.NewFloatObj(y)
		g.health[p] = libtm.NewObj(maxHealth)
		c := g.cellOf(x, y)
		g.cells[c].Store(g.cells[c].Value() + 1)
		g.tree.InsertRaw(x, y)
	}
	g.questScore = make([]*libtm.Obj, len(sc.Quests))
	for i := range g.questScore {
		g.questScore[i] = libtm.NewObj(0)
	}
	return g, nil
}

// STM exposes the underlying LibTM instance (to attach tracers and
// gates).
func (g *Game) STM() *libtm.STM { return g.stm }

// Scenario returns the active quest layout.
func (g *Game) Scenario() Scenario { return g.scenario }

// cellOf maps coordinates to a grid cell index, clamping to the map.
func (g *Game) cellOf(x, y float64) int {
	cx := int(x) / g.cfg.CellSize
	cy := int(y) / g.cfg.CellSize
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cellsPerSide {
		cx = g.cellsPerSide - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.cellsPerSide {
		cy = g.cellsPerSide - 1
	}
	return cy*g.cellsPerSide + cx
}

// clamp keeps a coordinate on the map.
func (g *Game) clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if max := float64(g.cfg.MapSize) - 1e-9; v > max {
		return max
	}
	return v
}

// questOf returns the quest a player is assigned to.
func (g *Game) questOf(player int) int { return player % len(g.scenario.Quests) }

// stepPlayer runs one player's frame: a movement transaction toward the
// player's quest, then (with some probability) an attack on a fellow
// quest-goer and a scoring update.
func (g *Game) stepPlayer(thread, player, frame int, rng *stamp.Rand) {
	th := uint16(thread)
	q := g.questOf(player)
	quest := g.scenario.Quests[q]
	tx0, ty0 := quest.Target(frame)

	// Movement: advance ~1/8 of the distance to the quest plus jitter.
	// The jitter is drawn before the transaction: a draw inside the
	// closure would advance the PRNG once per *attempt*, making the
	// stream — and every profiled Tseq built from it — depend on the
	// abort history (gstm001).
	jx := (rng.Float64() - 0.5) * quest.Spread
	jy := (rng.Float64() - 0.5) * quest.Spread
	_ = g.stm.Atomic(th, TxMove, func(tx *libtm.Tx) error {
		x := tx.ReadFloat(g.posX[player])
		y := tx.ReadFloat(g.posY[player])
		nx := g.clamp(x + (tx0-x)/8 + jx)
		ny := g.clamp(y + (ty0-y)/8 + jy)
		oldCell, newCell := g.cellOf(x, y), g.cellOf(nx, ny)
		if oldCell != newCell {
			tx.Write(g.cells[oldCell], tx.Read(g.cells[oldCell])-1)
			tx.Write(g.cells[newCell], tx.Read(g.cells[newCell])+1)
		}
		g.tree.Move(tx, x, y, nx, ny)
		tx.WriteFloat(g.posX[player], nx)
		tx.WriteFloat(g.posY[player], ny)
		return nil
	})

	// Combat: 1 in 4 frames, hit another player headed to the same
	// quest (they are nearby by construction).
	if rng.Intn(4) == 0 {
		nq := len(g.scenario.Quests)
		victim := (player + (1+rng.Intn(7))*nq) % g.cfg.Players
		if g.questOf(victim) == q && victim != player {
			_ = g.stm.Atomic(th, TxAttack, func(tx *libtm.Tx) error {
				h := tx.Read(g.health[victim])
				h--
				if h <= 0 {
					h = maxHealth // respawn
					tx.Write(g.questScore[q], tx.Read(g.questScore[q])+1)
				}
				tx.Write(g.health[victim], h)
				return nil
			})
		}
	}

	// Scoring: occasionally credit the quest proportionally to the
	// interest around it (an area-node query — reads the quest region's
	// occupant counter, coupling the scoring transaction to movement).
	if rng.Intn(8) == 0 {
		_ = g.stm.Atomic(th, TxScore, func(tx *libtm.Tx) error {
			interest := g.tree.CountAround(tx, tx0, ty0, 2)
			credit := int64(1)
			if interest > int64(g.cfg.Players/8) {
				credit = 2 // crowded quest scores faster
			}
			tx.Write(g.questScore[q], tx.Read(g.questScore[q])+credit)
			return nil
		})
	}
}

// FrameResult reports a RunFrames execution.
type FrameResult struct {
	// FrameTimes[i] is the processing time of frame i — the quantity
	// whose variance Figures 11/12 report.
	FrameTimes []time.Duration
	// Commits and Aborts are STM totals over the run.
	Commits, Aborts uint64
}

// AbortRatio returns aborts per commit (the figures' abort ratio).
func (r FrameResult) AbortRatio() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(r.Commits)
}

// RunFrames processes the given number of frames: each frame, the
// worker threads partition the players, step them transactionally, and
// meet at a barrier. Frame processing time is measured per frame.
func (g *Game) RunFrames(frames int) (FrameResult, error) {
	if frames <= 0 {
		return FrameResult{}, fmt.Errorf("synquake: non-positive frame count %d", frames)
	}
	cfg := g.cfg
	res := FrameResult{FrameTimes: make([]time.Duration, frames)}
	c0, a0 := g.stm.Commits(), g.stm.Aborts()

	rngs := make([]*stamp.Rand, cfg.Threads)
	for t := range rngs {
		rngs[t] = stamp.NewRand(cfg.Seed ^ int64(t+1)<<24 ^ int64(g.frame+1)<<48)
	}

	for f := 0; f < frames; f++ {
		frame := g.frame
		t0 := time.Now()
		var wg sync.WaitGroup
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			go func(thread int) {
				defer wg.Done()
				lo := thread * cfg.Players / cfg.Threads
				hi := (thread + 1) * cfg.Players / cfg.Threads
				for p := lo; p < hi; p++ {
					g.stepPlayer(thread, p, frame, rngs[thread])
				}
			}(t)
		}
		wg.Wait()
		res.FrameTimes[f] = time.Since(t0)
		g.frame++
	}
	res.Commits = g.stm.Commits() - c0
	res.Aborts = g.stm.Aborts() - a0
	return res, g.Validate()
}

// Validate checks world invariants: occupancy totals match the
// population, every player's cell counter is consistent with their
// position, and health stays in range.
func (g *Game) Validate() error {
	var total int64
	for _, c := range g.cells {
		v := c.Value()
		if v < 0 {
			return fmt.Errorf("synquake: negative cell occupancy %d", v)
		}
		total += v
	}
	if total != int64(g.cfg.Players) {
		return fmt.Errorf("synquake: occupancy total %d, want %d players", total, g.cfg.Players)
	}
	occ := make([]int64, len(g.cells))
	for p := 0; p < g.cfg.Players; p++ {
		h := g.health[p].Value()
		if h < 1 || h > maxHealth {
			return fmt.Errorf("synquake: player %d health %d out of range", p, h)
		}
		occ[g.cellOf(g.posX[p].FloatValue(), g.posY[p].FloatValue())]++
	}
	for i := range occ {
		if occ[i] != g.cells[i].Value() {
			return fmt.Errorf("synquake: cell %d occupancy %d, counter says %d", i, occ[i], g.cells[i].Value())
		}
	}
	return g.tree.Validate(int64(g.cfg.Players))
}
