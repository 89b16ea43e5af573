// Package obs is the shared observability layer for the simulation engines
// and the HTTP server: lock-free counters, gauges and histograms collected
// in a registry that renders the Prometheus text exposition format, plus
// run-ID generation for structured per-run logs.
//
// The instruments are deliberately minimal — an atomic int64 per counter or
// gauge, one atomic int64 per histogram bucket — so the engines can update
// them from their hot loops (per trial batch, per request batch) without
// measurable overhead and without external dependencies. A loop that
// observes per item rather than per batch stages through a single-goroutine
// LocalHistogram (Histogram.Local) and flushes it once per batch, so the
// shared atomics are touched per batch, not per item. Engines register
// their metrics against Default() at package init; cmd/citadel-server
// exposes the registry at GET /metrics.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed upper-bound buckets
// (cumulative, Prometheus-style; an implicit +Inf bucket catches the rest).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, non-cumulative per bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// bucket returns the index of the first bound >= v (len(bounds), the +Inf
// bucket, when none is; NaN lands there too), as sort.SearchFloat64s
// would. A linear scan beats the binary search's closure calls over the
// dozen-odd bounds a histogram has.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	return i
}

// addSum adds v to the float sum with a CAS loop.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Local returns a new staging buffer for h. See LocalHistogram.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]int64, len(h.counts))}
}

// LocalHistogram stages observations for one Histogram on a single
// goroutine: Observe touches only the buffer's own memory, and Flush
// publishes everything staged since the last Flush into the shared
// histogram. A scrape therefore lags the owner by at most one flush
// interval. Bucket counts and _count are exact; _sum adds the staged
// values in a different order than direct Observe calls would, so it can
// differ in the last bits unless every value is an integer.
//
// A LocalHistogram is not safe for concurrent use; give each goroutine
// its own.
type LocalHistogram struct {
	h      *Histogram
	counts []int64 // len(h.counts), non-cumulative per bucket
	count  int64
	sum    float64
}

// Observe stages one value.
func (l *LocalHistogram) Observe(v float64) {
	l.counts[l.h.bucket(v)]++
	l.count++
	l.sum += v
}

// Flush folds the staged values into the shared histogram and clears the
// buffer. Buckets are published before the total, as in Observe, so a
// concurrent scrape never sees _count ahead of the buckets.
func (l *LocalHistogram) Flush() {
	if l.count == 0 {
		return
	}
	for i, n := range l.counts {
		if n != 0 {
			l.h.counts[i].Add(n)
			l.counts[i] = 0
		}
	}
	l.h.count.Add(l.count)
	l.h.addSum(l.sum)
	l.count, l.sum = 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot reads the per-bucket counts, total count, and sum coherently
// with respect to concurrent Observe calls. Observe increments the bucket
// before the total, so a torn read shows bucket-total > count; we retry
// until the two agree (and the count is stable across the bucket sweep).
// If the histogram never quiesces we derive the count from the bucket
// total, preserving the exposition invariant that the cumulative +Inf
// bucket equals _count. The sum is best-effort under concurrency.
func (h *Histogram) snapshot() (buckets []int64, count int64, sum float64) {
	buckets = make([]int64, len(h.counts))
	for attempt := 0; attempt < 16; attempt++ {
		c := h.count.Load()
		s := h.Sum()
		total := int64(0)
		for i := range h.counts {
			buckets[i] = h.counts[i].Load()
			total += buckets[i]
		}
		if total == c && h.count.Load() == c {
			return buckets, c, s
		}
	}
	total := int64(0)
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		total += buckets[i]
	}
	return buckets, total, h.Sum()
}

// metric is one registered instrument plus its exposition metadata.
type metric struct {
	name, help, typ string
	counter         *Counter
	gauge           *Gauge
	hist            *Histogram
}

// Registry holds named metrics and renders them as Prometheus text.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the engines register against.
func Default() *Registry { return defaultRegistry }

// lookup returns the existing metric for name, checking the type matches.
// Registration is idempotent so independent Server instances (e.g. in
// tests) can share the process-wide instruments.
func (r *Registry) lookup(name, typ string) *metric {
	m, ok := r.byName[name]
	if !ok {
		return nil
	}
	if m.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, m.typ))
	}
	return m
}

// Counter registers (or returns the existing) counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, "counter"); m != nil {
		return m.counter
	}
	m := &metric{name: name, help: help, typ: "counter", counter: &Counter{}}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m.counter
}

// Gauge registers (or returns the existing) gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, "gauge"); m != nil {
		return m.gauge
	}
	m := &metric{name: name, help: help, typ: "gauge", gauge: &Gauge{}}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m.gauge
}

// Histogram registers (or returns the existing) histogram with the given
// ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, "histogram"); m != nil {
		return m.hist
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	m := &metric{name: name, help: help, typ: "histogram", hist: h}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m.hist
}

// WritePrometheus renders every metric in the text exposition format, in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, escapeHelp(m.help), m.name, m.typ)
		switch m.typ {
		case "counter":
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case "gauge":
			fmt.Fprintf(&b, "%s %d\n", m.name, m.gauge.Value())
		case "histogram":
			h := m.hist
			buckets, count, sum := h.snapshot()
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += buckets[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatBound(bound), cum)
			}
			cum += buckets[len(h.bounds)]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %g\n", m.name, sum)
			fmt.Fprintf(&b, "%s_count %d\n", m.name, count)
		}
	}
	io.WriteString(w, b.String())
}

// helpEscaper applies the text-exposition HELP escaping rules: backslash
// and line feed must be escaped or a multi-line help string corrupts the
// whole scrape.
var helpEscaper = strings.NewReplacer("\\", `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatBound renders a bucket bound the way Prometheus clients expect.
func formatBound(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Run-ID generation: a per-process random prefix plus a sequence number,
// so IDs from concurrently running servers don't collide and a single
// process's runs sort chronologically.
var (
	runSeq    atomic.Uint64
	runPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:]))
	}()
)

// NewRunID returns a process-unique run identifier like "r-1f3a9c0b-17"
// for correlating structured log lines of one simulation run.
func NewRunID() string {
	return fmt.Sprintf("r-%s-%d", runPrefix, runSeq.Add(1))
}
