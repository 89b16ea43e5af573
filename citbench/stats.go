package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond counts the samples strictly above the p-th percentile
// position, i.e. floor(n*(1-p/100)).
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p/100) + 1e-9))
}

// ratio divides and reports 0 for an empty base, so a ratio printed for
// a layer the workload never exercised reads 0 with base 0.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// zCheck sets the reference checks' confidence to 99.9%. At 95% the
// rowhammer cell (about 9 failures expected per run against a
// 311-in-a-million reference) fails about one run in forty by chance,
// and a comparison makes dozens of runs; at 99.9% about one in ten
// thousand.
const zCheck = 3.290526731491926

// wilson returns the Wilson score interval of k successes in n trials at
// normal quantile z. It stays sensible for k = 0 (upper bound ≈ z²/n) and
// never collapses to a point, unlike the normal approximation.
func wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	den := 1 + z*z/nf
	c := (p + z*z/(2*nf)) / den
	h := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / den
	return math.Max(0, c-h), math.Min(1, c+h)
}

// overlaps reports whether [a0,a1] and [b0,b1] intersect.
func overlaps(a0, a1, b0, b1 float64) bool { return a0 <= b1 && b0 <= a1 }

// promSample parses Prometheus text exposition into name → value,
// summing series that differ only in labels. Comment and blank lines are
// skipped; malformed lines are an error so a format change is noticed.
func promSample(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// promDelta returns after − before for every series in after (series
// absent before count from zero).
func promDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
