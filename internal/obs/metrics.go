package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// histShards is the number of counter stripes per histogram. Observations
// hash across stripes so concurrent hot paths rarely contend on one cache
// line; scrapes sum all stripes.
const histShards = 8

// ExpBuckets returns n exponentially-spaced upper bounds starting at start
// with the given growth factor — the fixed bucket layout every stage
// histogram shares, so scrapes stay mergeable across processes.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// DefaultWallBuckets spans 100µs to ~52s — the wall-clock latency range of
// job stages from a cache-served validate to a large sharded solve.
func DefaultWallBuckets() []float64 { return ExpBuckets(1e-4, 2, 20) }

// DefaultVirtualBuckets spans 0.5s to ~2400h of simulated time — fleet
// batch latencies and makespans.
func DefaultVirtualBuckets() []float64 { return ExpBuckets(0.5, 2, 24) }

// histShard is one stripe of counters, padded to its own cache lines.
type histShard struct {
	counts  []atomic.Int64
	sumBits atomic.Uint64
	_       [40]byte
}

// Histogram is a fixed-bucket latency histogram with lock-free sharded
// counters: Observe is two atomic adds on a hashed stripe, never a mutex.
type Histogram struct {
	name   string
	labels string // rendered constant labels, e.g. `stage="solve"`
	bounds []float64
	shards [histShards]histShard
}

func newHistogram(name, labels string, bounds []float64) *Histogram {
	h := &Histogram{name: name, labels: labels, bounds: bounds}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// Observe records one value. Safe for a nil receiver (disabled metrics) and
// for unbounded concurrency.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		return
	}
	// Stripe selection hashes the value bits — cheap, allocation-free, and
	// spreads distinct observations across cache lines.
	bits := math.Float64bits(v)
	bits ^= bits >> 33
	bits *= 0xff51afd7ed558ccd
	sh := &h.shards[bits%histShards]
	// Linear scan: bucket counts are small (~20) and the comparison loop is
	// branch-predictable, beating binary search at this size.
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	sh.counts[idx].Add(1)
	for {
		old := sh.sumBits.Load()
		niu := math.Float64bits(math.Float64frombits(old) + v)
		if sh.sumBits.CompareAndSwap(old, niu) {
			return
		}
	}
}

// snapshot sums the stripes: per-bucket counts (not cumulative), total
// count, and value sum.
func (h *Histogram) snapshot() (counts []int64, total int64, sum float64) {
	counts = make([]int64, len(h.bounds)+1)
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range counts {
			counts[i] += sh.counts[i].Load()
		}
		sum += math.Float64frombits(sh.sumBits.Load())
	}
	for _, c := range counts {
		total += c
	}
	return counts, total, sum
}

// Counter is a monotonically increasing count, one series per family name.
// Add and Load are single atomic operations and, like Histogram.Observe,
// safe on a nil receiver (disabled metrics).
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds named counters and histogram families for Prometheus
// export.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	fams     map[string]*histFamily
}

type histFamily struct {
	name, help string
	bounds     []float64
	series     map[string]*Histogram // by rendered labels
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter), fams: make(map[string]*histFamily)}
}

// Counter returns the counter registered under name, creating it on first
// use with the given help text. A registered counter exports from the first
// scrape on, at 0 before its first Add. Safe on a nil registry (returns a
// nil counter, whose Add is a no-op).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, help: help}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram for (name, labels), creating it — and its
// family — on first use. All series of one family share the first-seen help
// text and bucket bounds. Safe on a nil registry (returns a nil histogram,
// whose Observe is a no-op).
func (r *Registry) Histogram(name, help string, labels map[string]string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &histFamily{name: name, help: help, bounds: bounds, series: make(map[string]*Histogram)}
		r.fams[name] = f
	}
	h, ok := f.series[key]
	if !ok {
		h = newHistogram(name, key, f.bounds)
		f.series[key] = h
	}
	return h
}

// PromFamily is one rendered metric family: its name (for global sorting
// across exporters) and its full text block including # HELP/# TYPE.
type PromFamily struct {
	Name string
	Text string
}

// Family renders one metric family of the given type from its sample
// lines. It is the only writer of # HELP/# TYPE headers: the registry
// renders its families through it, and so do exporters of scrape-time
// gauges.
func Family(name, typ, help, samples string) PromFamily {
	return PromFamily{Name: name, Text: "# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n" + samples}
}

// Families renders every counter and histogram family in the Prometheus
// text format, one PromFamily per name, sorted by name, with histogram
// series sorted by label set — deterministic output for stable scrapes and
// diffable smoke tests.
func (r *Registry) Families() []PromFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]PromFamily, 0, len(r.counters)+len(r.fams))
	for _, c := range r.counters {
		out = append(out, Family(c.name, "counter", c.help, c.name+" "+strconv.FormatInt(c.Load(), 10)+"\n"))
	}
	for _, f := range r.fams {
		var b strings.Builder
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := f.series[k]
			counts, total, sum := h.snapshot()
			cum := int64(0)
			for i, bound := range f.bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", f.name, seriesPrefix(k), formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, seriesPrefix(k), total)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(k), formatFloat(sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(k), total)
		}
		out = append(out, Family(f.name, "histogram", f.help, b.String()))
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// braced wraps rendered labels in braces, or returns "" for the empty set.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// seriesPrefix turns rendered labels into a prefix for appending the le
// label: “ stays “, `stage="x"` becomes `stage="x",`.
func seriesPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// renderLabels renders a label map deterministically: keys sorted, values
// escaped per the text exposition format.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// EscapeLabel escapes a label value for the Prometheus text format, which
// permits exactly three escapes inside quoted values: \\, \", and \n. Other
// control characters are replaced with spaces.
func EscapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == '"':
			b.WriteString(`\"`)
		case r == '\n':
			b.WriteString(`\n`)
		case r < 0x20 || r == 0x7f:
			b.WriteByte(' ')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
