package main

import (
	"fmt"
	"math"
	"sort"
)

// timing is a set of samples of one timed operation. Reports give its
// median, the highest tail percentile that still has at least minBeyond
// samples above it, and the count.
type timing struct {
	unit string
	// res is the resolution samples were rounded to, in unit: the
	// clock's nanosecond, or 0 for samples that are means.
	res     float64
	samples []float64
}

// Timings of single calls, read from the nanosecond clock.
func nsTiming() timing { return timing{unit: "ns", res: 1} }
func usTiming() timing { return timing{unit: "us", res: 1e-3} }

// meanTiming holds samples that are each a mean over several calls.
func meanTiming(unit string) timing { return timing{unit: unit} }

// minBeyond is how many samples a reported tail percentile must have
// beyond it; a percentile backed by fewer is noise, not a measurement.
const minBeyond = 10

// tailLadder lists the percentiles a report may choose from, lowest
// first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// rank returns the 1-based nearest-rank position of percentile p among
// n sorted samples.
func rank(p float64, n int) int {
	// The tolerance keeps p99.9 of 10000 at rank 9990, not 9991: 99.9 has
	// no exact binary form.
	x := p / 100 * float64(n)
	r := int(math.Ceil(x - 1e-9*x))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples ranked above it, and false when even
// the median has fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns percentile p of the sorted samples xs, or 0 for no
// samples. With res 0 it is the nearest-rank percentile. Otherwise the
// samples are taken as rounded to res, and within a run of tied samples
// the percentile is interpolated across the rounding interval: a
// median of whole nanoseconds then moves with the distribution instead
// of reading the same integer on every run.
func quantile(xs []float64, p, res float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	v := xs[rank(p, n)-1]
	if res == 0 {
		return v
	}
	below := sort.SearchFloat64s(xs, v)                           // samples < v
	upto := sort.Search(n, func(i int) bool { return xs[i] > v }) // samples <= v
	frac := (p/100*float64(n) - float64(below)) / float64(upto-below)
	return v - res/2 + res*math.Max(0, math.Min(1, frac))
}

func (t *timing) add(v float64) { t.samples = append(t.samples, v) }

func (t *timing) sorted() []float64 {
	xs := append([]float64(nil), t.samples...)
	sort.Float64s(xs)
	return xs
}

// median returns the median, or 0 without samples.
func (t *timing) median() float64 { return t.at(50) }

// at returns percentile p.
func (t *timing) at(p float64) float64 { return quantile(t.sorted(), p, t.res) }

// String renders the timing as "median, tail percentile, count".
func (t *timing) String() string {
	xs := t.sorted()
	s := fmt.Sprintf("median %.4g %s", quantile(xs, 50, t.res), t.unit)
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		s += fmt.Sprintf(", p%g %.4g %s", p, quantile(xs, p, t.res), t.unit)
	}
	return s + fmt.Sprintf(", n=%d", len(xs))
}
