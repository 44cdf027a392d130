package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles tailPercentile chooses among,
// highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that has at
// least ten samples beyond it, with its value. Reporting a p99 from a
// hundred samples would report the maximum under another name; with
// fewer than twenty samples even the median has fewer than ten beyond
// it, and ok is false.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p = tailPercentiles[i]
		if supports(xs, p) {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// supports reports whether xs is large enough to report percentile p:
// at least ten samples lie beyond it.
func supports(xs []float64, p float64) bool {
	// The tolerance absorbs binary rounding of p: 100 samples put
	// exactly ten beyond p90.
	return float64(len(xs))*(100-p)/100 >= 10-1e-9
}

// spanLog is the driver's own span record: for every named layer
// boundary the driver crosses, the duration of each crossing. It is the
// traced run's source for per-layer timings, kept in memory and reduced
// when the run ends. A nil *spanLog records nothing, so untraced code
// paths call it unconditionally.
type spanLog struct {
	mu  sync.Mutex
	dur map[string][]float64 // seconds, by span name
}

func newSpanLog() *spanLog { return &spanLog{dur: map[string][]float64{}} }

// start opens a span; calling the returned function closes it.
func (l *spanLog) start(name string) func() {
	if l == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { l.add(name, time.Since(t0)) }
}

// add records one completed span of duration d.
func (l *spanLog) add(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.dur[name] = append(l.dur[name], d.Seconds())
	l.mu.Unlock()
}

// samples returns the recorded durations of name, in seconds.
func (l *spanLog) samples(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.dur[name]...)
}

// p50 returns the median duration of name, scaled by unit (1e6 for
// microseconds, 1e3 for milliseconds), or 0 when name never ran.
func (l *spanLog) p50(name string, unit float64) float64 {
	return median(l.samples(name)) * unit
}
