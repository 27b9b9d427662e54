package bench

import (
	"math"
	"sort"

	"gstm/internal/stats"
)

// percentile is stats.Percentile for a p the caller fixed in the source:
// its only error is a p outside [0,100].
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		panic(err)
	}
	return v
}

// medianCV is the benchmark's repeatable form of the paper's variance
// quantity: stddev/mean of each series (one thread's unit times on one
// set-up, a few seconds of identical units), and the median over the series.
// A series is short enough to keep slow drift of the host out of the
// dispersion, and the median keeps one disturbed series from deciding it.
func medianCV(series [][]float64) float64 {
	cvs := make([]float64, len(series))
	for i, xs := range series {
		cvs[i] = stats.CoefficientOfVariation(xs)
	}
	return percentile(cvs, 50)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span and overlapping children count once.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, span.start)
		c.end = min(c.end, span.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, edge := int64(0), span.start
	for _, c := range cs {
		if c.end <= edge {
			continue
		}
		covered += c.end - max(c.start, edge)
		edge = c.end
	}
	return span.end - span.start - covered
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because the
// acceptance rule for this benchmark is stated in those terms. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4, one-based, clamped to the data.
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the steadiness measure the acceptance rule bounds.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
