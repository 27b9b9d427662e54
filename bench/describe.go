package bench

// RunSeconds is how long one run measures (BENCHMARK.json's run_seconds).
const RunSeconds = 20

// Manifest is the content of BENCHMARK.json.
type Manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadNote `json:"workloads"`
	EndToEnd   []MetricDef    `json:"end_to_end"`
	PerLayer   []MetricDef    `json:"per_layer"`
}

// WorkloadNote records why a workload exists.
type WorkloadNote struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Describe returns BENCHMARK.json as the code defines it; a test keeps the
// committed file equal to it.
func Describe() Manifest {
	return Manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		Workloads: []WorkloadNote{
			{"ladder-disjoint", "TL2, disjoint data, no conflict: all time is fixed per-transaction cost of tl2 begin/commit and the guide's Admit/OnCommit; the conflict path does nothing"},
			{"bank-hot", "TL2, 8 shared accounts, transfers beside read-only audits: conflicts, retries and hold decisions dominate, the paper's regime; fixed per-transaction cost is small"},
			{"stamp-suite", "TL2, the seven STAMP kernels back to back with one model each: the paper's own evaluation, long mixed transactions, ssca2 as the conflict-free control; hardest on set-up"},
			{"synquake-quadrants", "LibTM, SynQuake trained on two quest layouts and measured on a third: the only workload on the second runtime, with a per-frame barrier where the slowest thread sets the time"},
		},
		EndToEnd: EndToEnd,
		PerLayer: PerLayer,
	}
}
