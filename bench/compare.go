package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Record is one run as `gstmbench -out` appends it to a file: the printed
// result with what is needed to compare it to another.
type Record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     Host    `json:"host"`
	Result   Result  `json:"result"`
}

// AppendRecord appends r to the file at path as one line of JSON.
func AppendRecord(path string, r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRecords reads a file written by AppendRecord.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Compare prints, per workload and end-to-end metric, the median and the
// quartile spread of both sets of untraced runs, by how much b's median is
// worse than a's, and the bound. It reports false when a metric is worse
// by more than its bound or a run was incorrect, and refuses sets measured
// on a degraded host: their numbers say nothing about the code.
func Compare(w io.Writer, a, b []Record) (bool, error) {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	for side, recs := range [2][]Record{a, b} {
		for _, r := range recs {
			if r.Host.Degraded {
				return false, fmt.Errorf("%s seed %d was measured on a degraded host (pair/single %.2f)", r.Workload, r.Seed, r.Host.PairOverSingle)
			}
			if r.Trace {
				continue
			}
			if !r.Result.Correct {
				fmt.Fprintf(w, "%s seed %d: incorrect run (%d of %d operations failed)\n", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
				return false, nil
			}
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				values[side][k] = append(values[side][k], m.Value)
			}
		}
	}
	ok := true
	fmt.Fprintf(w, "%-20s %-22s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "a median", "spread", "b median", "spread", "worse", "bound")
	for _, name := range WorkloadNames {
		for _, d := range EndToEnd {
			va, vb := values[0][key{name, d.Name}], values[1][key{name, d.Name}]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := percentile(va, 50), percentile(vb, 50)
			worse := ratio(mb-ma, ma)
			if d.Better == higher {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  REGRESSION", false
			}
			fmt.Fprintf(w, "%-20s %-22s %12.5g %8s %12.5g %8s %+7.1f%% %5.0f%%%s\n",
				name, d.Name, ma, spreadOf(va), mb, spreadOf(vb), 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

// spreadOf formats the quartile spread of xs as a percentage of the median.
func spreadOf(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*spread(xs))
}
