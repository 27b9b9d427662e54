package bench

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Threads is the client count of every workload: a closed loop of two
// goroutines, the core count of the reference sandbox.
const Threads = 2

// degradedAbove is the pair/single ratio past which the two vCPUs are not
// delivering two cores and a result must not be used for a comparison.
const degradedAbove = 1.25

// Host describes the machine a result was measured on.
type Host struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	CPUModel       string  `json:"cpu_model"`
	PairOverSingle float64 `json:"pair_over_single"`
	Degraded       bool    `json:"host_degraded"`
}

// mulAdds runs n dependent multiply-adds: the fixed CPU-bound loop used
// for calibration and as non-transactional think time.
func mulAdds(n int) int64 {
	acc := int64(1)
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// spinSink keeps the compiler from discarding mulAdds results.
var spinSink [Threads]struct {
	v int64
	_ [120]byte
}

// together runs fn on n client goroutines at once and returns when each
// started and how long it took.
func together(n int, fn func(thread int)) (began []time.Time, took []time.Duration) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	began, took = make([]time.Time, n), make([]time.Duration, n)
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			<-start
			began[t] = time.Now()
			fn(t)
			took[t] = time.Since(began[t])
		}(t)
	}
	close(start)
	wg.Wait()
	return began, took
}

// slowest is how long the slowest of n goroutines running fn at once took.
func slowest(n int, fn func(thread int)) time.Duration {
	_, took := together(n, fn)
	return slices.Max(took)
}

// Calibrate warms the host by spinning every client thread for warm, then
// times a fixed loop on one thread and on all threads at once. On a host
// that gives each thread a core the two take the same time; the ratio
// pair/single is recorded with every result.
func Calibrate(warm time.Duration) Host {
	deadline := time.Now().Add(warm)
	together(Threads, func(t int) {
		for time.Now().Before(deadline) {
			spinSink[t].v += mulAdds(1 << 16)
		}
	})
	const loop, reps = 20 << 20, 7
	single := make([]float64, reps)
	pair := make([]float64, reps)
	for i := 0; i < reps; i++ {
		single[i] = slowest(1, func(t int) { spinSink[t].v += mulAdds(loop) }).Seconds()
		pair[i] = slowest(Threads, func(t int) { spinSink[t].v += mulAdds(loop) }).Seconds()
	}
	sort.Float64s(single)
	sort.Float64s(pair)
	h := Host{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		CPUModel:       cpuModel(),
		PairOverSingle: pair[reps/2] / single[reps/2],
	}
	h.Degraded = h.PairOverSingle > degradedAbove
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo; unknown hosts
// report "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
