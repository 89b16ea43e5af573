package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help")
	b := r.Counter("dup_total", "help")
	if a != b {
		t.Errorf("re-registering the same counter returned a new instance")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("re-registering with a different type did not panic")
		}
	}()
	r.Gauge("dup_total", "help")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %g, want 556.5", h.Sum())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`, // 0.5 and the boundary value 1
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="100"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_sum 556.5",
		"lat_count 5",
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "counts x").Add(3)
	r.Gauge("y", "current y").Set(-2)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP x_total counts x",
		"# TYPE x_total counter",
		"x_total 3",
		"# TYPE y gauge",
		"y -2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "help")
	h := r.Histogram("conc_hist", "help", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Errorf("histogram count=%d sum=%g, want 8000/8000", h.Count(), h.Sum())
	}
}

// TestHelpEscaping pins the exposition-format fix: a help string with a
// newline or backslash must not inject raw lines into the scrape.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line one\nline two with a back\\slash").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total line one\nline two with a back\\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	// Every line must be a comment, a sample, or empty — the raw "line two"
	// continuation would be a parse error for a Prometheus scraper.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "esc_total") {
			continue
		}
		t.Errorf("unparseable exposition line %q", line)
	}
}

// TestHistogramScrapeCoherence pins the tear fix: under a concurrent
// Observe storm, every rendered scrape must satisfy the format invariant
// that the cumulative +Inf bucket equals _count.
func TestHistogramScrapeCoherence(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tear_hist", "help", []float64{1, 2, 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := float64(w)
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		var b strings.Builder
		r.WritePrometheus(&b)
		var inf, count int64
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, `tear_hist_bucket{le="+Inf"}`) {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &inf)
			}
			if strings.HasPrefix(line, "tear_hist_count") {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &count)
			}
		}
		if inf != count {
			t.Fatalf("scrape %d tore: +Inf bucket %d != count %d", i, inf, count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestNewRunIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if seen[id] {
			t.Fatalf("duplicate run ID %q", id)
		}
		seen[id] = true
	}
}

// TestLocalHistogramMatchesObserve pins the staging contract: values
// staged through a LocalHistogram and flushed, in several batches, leave
// the histogram exactly as direct Observe calls do — per-bucket counts,
// _count, and (for integer values) _sum — so the exposition text is
// unchanged.
func TestLocalHistogramMatchesObserve(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 15, 30}
	values := []float64{0, 1, 1, 2, 3, 4, 5, 8, 9, 15, 16, 30, 31, 1000, -3}
	for i := 0; i < 200; i++ {
		values = append(values, float64(i*7%45))
	}
	direct, staged := NewRegistry(), NewRegistry()
	hd := direct.Histogram("h", "help", bounds)
	hs := staged.Histogram("h", "help", bounds)
	l := hs.Local()
	for i, v := range values {
		hd.Observe(v)
		l.Observe(v)
		if i%37 == 0 {
			l.Flush()
		}
	}
	l.Flush()
	l.Flush() // an empty flush publishes nothing
	if hs.Count() != hd.Count() || hs.Sum() != hd.Sum() {
		t.Errorf("staged count/sum %d/%g, direct %d/%g", hs.Count(), hs.Sum(), hd.Count(), hd.Sum())
	}
	bd, _, _ := hd.snapshot()
	bs, _, _ := hs.snapshot()
	for i := range bd {
		if bd[i] != bs[i] {
			t.Errorf("bucket %d: staged %d, direct %d", i, bs[i], bd[i])
		}
	}
	var wd, ws strings.Builder
	direct.WritePrometheus(&wd)
	staged.WritePrometheus(&ws)
	if wd.String() != ws.String() {
		t.Errorf("exposition differs:\ndirect:\n%s\nstaged:\n%s", wd.String(), ws.String())
	}
}

// TestLocalHistogramConcurrentFlush runs several goroutines, each staging
// into its own buffer and flushing into one shared histogram, while the
// registry is scraped: every scrape must keep the cumulative +Inf bucket
// equal to _count, and nothing staged may be lost.
func TestLocalHistogramConcurrentFlush(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("staged_hist", "help", []float64{1, 2, 4})
	const workers, perWorker = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := h.Local()
			for i := 0; i < perWorker; i++ {
				l.Observe(float64((w + i) % 6))
				if i%64 == 0 {
					l.Flush()
				}
			}
			l.Flush()
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for scrapes := 0; ; scrapes++ {
		var b strings.Builder
		r.WritePrometheus(&b)
		var inf, count int64
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, `staged_hist_bucket{le="+Inf"}`) {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &inf)
			}
			if strings.HasPrefix(line, "staged_hist_count") {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &count)
			}
		}
		if inf != count {
			t.Fatalf("scrape %d tore: +Inf bucket %d != count %d", scrapes, inf, count)
		}
		select {
		case <-done:
			if n := h.Count(); n != workers*perWorker {
				t.Fatalf("count = %d, want %d", n, workers*perWorker)
			}
			// Each worker's values cycle through 0..5 from offset w.
			want := 0.0
			for w := 0; w < workers; w++ {
				for i := 0; i < perWorker; i++ {
					want += float64((w + i) % 6)
				}
			}
			if h.Sum() != want {
				t.Fatalf("sum = %g, want %g", h.Sum(), want)
			}
			return
		default:
		}
	}
}

// TestBucketMatchesSearch pins the linear bucket scan to the binary
// search it replaced, on bounds, between them, beyond them, and on NaN.
func TestBucketMatchesSearch(t *testing.T) {
	h := NewRegistry().Histogram("b", "help", []float64{-1, 0, 1, 1, 2.5, 10})
	for _, v := range []float64{math.Inf(-1), -2, -1, -0.5, 0, 0.5, 1, 2, 2.5, 3, 10, 11, math.Inf(1), math.NaN()} {
		if got, want := h.bucket(v), sort.SearchFloat64s(h.bounds, v); got != want {
			t.Errorf("bucket(%g) = %d, want %d", v, got, want)
		}
	}
}
