// Package stamp provides the shared substrate for the Go ports of the
// STAMP benchmark kernels (Minh et al., IISWC'08) that the paper
// evaluates on: a workload interface, input sizing, deterministic
// per-thread random streams, and a runner that measures per-thread
// execution times the way the paper does (the time for each thread
// function to complete, Section II-B).
//
// The kernels are faithful *transactional skeletons* of the C
// originals: same phases, same static transaction IDs, same contention
// character (which shared structures are hot, how long transactions
// are), scaled to run on one machine. DESIGN.md documents the
// substitution.
package stamp

import (
	"fmt"
	"sync"
	"time"

	"gstm/internal/tl2"
)

// Size selects an input scale, mirroring the artifact's
// small/medium/large data sets: medium trains the model, small/large
// test it.
type Size int

// Input sizes. The zero value is "unset": workloads treat it as Medium,
// and the harness substitutes its phase-appropriate default.
const (
	SizeUnset Size = iota
	Small
	Medium
	Large
)

// String implements fmt.Stringer.
func (s Size) String() string {
	switch s {
	case SizeUnset:
		return "unset"
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("Size(%d)", int(s))
	}
}

// ParseSize converts a size name to a Size.
func ParseSize(s string) (Size, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("stamp: unknown size %q (want small|medium|large)", s)
}

// Config parameterizes one run of a workload.
type Config struct {
	// Threads is the number of worker threads (the paper uses 8 and 16).
	Threads int
	// Size selects the input scale.
	Size Size
	// Seed makes the workload *content* deterministic; interleaving
	// remains non-deterministic, which is the variance under study.
	Seed int64
}

// Workload is one STAMP kernel. Implementations are single-run objects:
// Setup allocates fresh shared state, Thread is executed concurrently
// by Config.Threads goroutines, Validate checks post-run invariants.
type Workload interface {
	// Name returns the kernel name (lowercase, e.g. "kmeans").
	Name() string
	// Setup allocates the shared transactional state for one run.
	Setup(s *tl2.STM, cfg Config) error
	// Thread runs the per-thread body for the given thread ID
	// (0..Threads-1). It must only touch shared state transactionally.
	Thread(s *tl2.STM, thread int)
	// Validate verifies the run's semantic invariants afterwards.
	Validate() error
}

// Rand is a small deterministic PRNG (splitmix64 core) giving each
// thread an independent stream without locking.
type Rand struct {
	state uint64
}

// NewRand seeds a stream; distinct seeds give independent streams.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// Next returns the next 64 random bits.
func (r *Rand) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stamp: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Spin performs n units of deterministic computation inside transaction
// tx. The STAMP kernels call it to model the substantial per-transaction
// work of the C originals (sequence hashing, distance evaluation, cavity
// retriangulation, ...): an aborted attempt wastes the work, which is
// precisely why abort-count variance turns into execution-time variance.
// Every 256 units it offers tx.Preempt a suspension point, which yields
// only while the STM emulates interleaving (tl2.Options.YieldEvery > 0),
// the way computation is preempted on a host with fewer cores than
// threads; on real cores the work runs uninterrupted.
func Spin(tx *tl2.Tx, n int) int64 {
	var acc int64 = 1
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
		if i&255 == 255 {
			tx.Preempt()
		}
	}
	return acc
}

// Result reports one run's measurements.
type Result struct {
	// ThreadTimes[i] is how long thread i's body took.
	ThreadTimes []time.Duration
	// Wall is the total parallel-section wall time.
	Wall time.Duration
}

// Run executes one full run of w under cfg on STM s: setup, a barrier
// start, per-thread timing, validation. Any afterSetup hooks run
// between setup and the parallel section — the harness uses them to
// attach tracers so setup transactions stay out of the profile.
func Run(s *tl2.STM, w Workload, cfg Config, afterSetup ...func()) (Result, error) {
	if cfg.Threads <= 0 {
		return Result{}, fmt.Errorf("stamp: non-positive thread count %d", cfg.Threads)
	}
	if err := w.Setup(s, cfg); err != nil {
		return Result{}, fmt.Errorf("stamp: %s setup: %w", w.Name(), err)
	}
	for _, f := range afterSetup {
		f()
	}
	res := Result{ThreadTimes: make([]time.Duration, cfg.Threads)}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(thread int) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			w.Thread(s, thread)
			res.ThreadTimes[thread] = time.Since(t0)
		}(i)
	}
	w0 := time.Now()
	close(start)
	wg.Wait()
	res.Wall = time.Since(w0)
	if err := w.Validate(); err != nil {
		return res, fmt.Errorf("stamp: %s validation: %w", w.Name(), err)
	}
	return res, nil
}

// Barrier synchronizes phase changes inside workloads that need them
// (kmeans iterations). It is a reusable counting barrier.
type Barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	phase  int
	broken bool
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n parties have called Wait for this phase.
func (b *Barrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for b.phase == phase {
		b.cond.Wait()
	}
}
