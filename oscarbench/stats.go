package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailPermille is the highest reported percentile, in per mille, that has
// at least ten of n samples beyond it: 999, 990 or 900. It reports false
// when n is under 100 and no high percentile is supported.
func tailPermille(n int) (int, bool) {
	for _, pm := range []int{999, 990, 900} {
		if n*(1000-pm) >= 10*1000 {
			return pm, true
		}
	}
	return 0, false
}

// latencySummary states a latency distribution the way the benchmark
// reports timings: the median, the highest percentile with at least ten
// samples beyond it, and the sample count.
func latencySummary(label string, xs []float64, unit string) string {
	s := fmt.Sprintf("%s: p50 %.4g %s", label, median(xs), unit)
	if pm, ok := tailPermille(len(xs)); ok {
		s += fmt.Sprintf(", p%g %.4g %s", float64(pm)/10, quantile(xs, float64(pm)/1000), unit)
	} else {
		s += ", no high percentile (under 100 samples)"
	}
	return s + fmt.Sprintf(" (%d samples)", len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanMS is a span node's wall duration in milliseconds.
func spanMS(n *obs.SpanNode) float64 { return ms(n.End.Sub(n.Start)) }

// walk visits every node of the given trees, depth first.
func walk(nodes []*obs.SpanNode, fn func(*obs.SpanNode)) {
	for _, n := range nodes {
		fn(n)
		walk(n.Children, fn)
	}
}

// selfMS returns a span's self time: its duration minus the part of its
// interval covered by the union of its children.
func selfMS(n *obs.SpanNode) float64 {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range n.Children {
		lo, hi := c.Start, c.End
		if lo.Before(n.Start) {
			lo = n.Start
		}
		if hi.After(n.End) {
			hi = n.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return ms(n.End.Sub(n.Start) - covered)
}

// selfTimes sums self time by span name over trees.
func selfTimes(trees []*obs.TraceTree) map[string]float64 {
	out := map[string]float64{}
	for _, t := range trees {
		if t == nil {
			continue
		}
		walk(t.Spans, func(n *obs.SpanNode) { out[n.Name] += selfMS(n) })
	}
	return out
}

// attrFloat reads a numeric span attribute (JSON numbers decode as
// float64).
func attrFloat(n *obs.SpanNode, key string) float64 {
	v, _ := n.Attrs[key].(float64)
	return v
}
