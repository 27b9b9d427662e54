// Command gstmbench runs one pass of one workload of the repository's
// benchmark and prints the result as one JSON object on the last line of
// its standard output; the readable report goes to standard error.
//
//	gstmbench --workload bank-hot --seed 1 --seconds 20 --trace 0
//	gstmbench -compare a.jsonl b.jsonl     # two files written with -out
//	gstmbench -describe                    # the contents of BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gstm/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: one of "+fmt.Sprint(bench.WorkloadNames))
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", bench.RunSeconds, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		out      = flag.String("out", "", "append the result to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two files written with -out: gstmbench -compare a.jsonl b.jsonl")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the code defines it")
	)
	flag.Parse()
	switch {
	case *describe:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(bench.Describe()); err != nil {
			fail(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		a, err := bench.ReadRecords(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		b, err := bench.ReadRecords(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		ok, err := bench.Compare(os.Stdout, a, b)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		run(bench.Config{
			Workload: *workload,
			Seed:     *seed,
			Seconds:  *seconds,
			Trace:    *trace != 0,
			Warm:     time.Second,
			Rounds:   8,
			TraceDir: "bench/out",
			Log:      os.Stderr,
		}, *out)
	}
}

func run(cfg bench.Config, out string) {
	res, host, problems, err := bench.Run(cfg)
	if err != nil {
		fail(err)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	if out != "" {
		rec := bench.Record{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Host: host, Result: res}
		if err := bench.AppendRecord(out, rec); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gstmbench:", err)
	os.Exit(2)
}
