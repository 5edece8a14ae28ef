package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// figure resting on fewer is noise.
const minBeyond = 10

// tailLadder lists the percentiles a distribution is summarized at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// rank returns the 1-based nearest-rank position of the p-th percentile
// among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float rounding (0.9999*1e5 = 99990.00000000001)
	// from pushing an exact rank one place up.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// topPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples above it, or 0 when even the median has not.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-rank(n, p) >= minBeyond {
			top = p
		}
	}
	return top
}

// median and pTail summarize a small sample by nearest rank without
// reordering it; an empty sample reads 0.
func median(v []float64) float64 { return pTail(v, 50) }

func pTail(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

// A run reports the fast end of its timings. On the 2-core host the
// benchmark was tuned on, the drone loop runs at two speeds that alternate
// in spells of tens of frames: a greedy drone-e2e-int16 frame takes about
// 0.4 ms of CPU or about 0.9 ms. The slow spells come from work on the other
// core, chiefly the garbage collector marking beside the loop (GOGC=400
// raised the fast share of one run from 18% to 67%), and the fast share
// ranged from 2% to over half between runs, so any figure that mixes the two
// speeds, such as a median, moves with it. Interference only adds time: the
// fast end follows the code, and a change that slows the code slows the
// fast frames too. What it misses is a change that only makes the slow
// spells longer or more frequent; the p99s are there for that.
const (
	// partPct summarizes the fleet's 13 parts of the high phase: 0 takes
	// the fastest part. Over 30 runs the fastest part's p99 spread 0.14,
	// the second fastest's (the 10th percentile) 0.25, as a slow host
	// leaves only one or two quiet parts in a run.
	partPct = 0
)

// fastEnd returns the minBeyond-th smallest of values: the fastest figure
// that still rests on minBeyond samples at or below it, so that one lucky
// sample does not make it. It does not reorder values.
func fastEnd(values []float64) (float64, error) {
	if len(values) < 10*minBeyond {
		return 0, fmt.Errorf("%d samples are too few for a fast end (need %d)", len(values), 10*minBeyond)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[minBeyond-1], nil
}

// dist summarizes one latency distribution: its median, its p99 and the
// highest percentile the sample count supports.
type dist struct {
	N    int
	P50  float64
	P99  float64
	Top  float64 // the highest supported percentile
	TopV float64 // its value
	Max  float64
}

// summarize sorts values in place and summarizes them. It is an error for
// the sample to be too small to support a p99.
func summarize(values []float64) (dist, error) {
	sort.Float64s(values)
	n := len(values)
	d := dist{N: n, Top: topPercentile(n)}
	if d.Top < 99 {
		return d, fmt.Errorf("%d samples cannot support a p99 (need %d beyond it)", n, minBeyond)
	}
	d.P50, d.P99 = percentile(values, 50), percentile(values, 99)
	d.TopV, d.Max = percentile(values, d.Top), values[n-1]
	return d, nil
}

// String renders the summary with its sample count.
func (d dist) String() string {
	return fmt.Sprintf("n=%d p50=%.4g p99=%.4g p%g=%.4g max=%.4g", d.N, d.P50, d.P99, d.Top, d.TopV, d.Max)
}

// partSize is the smallest slice of a request stream that supports a p99.
const partSize = 1000

// parts splits latencies, in arrival order, into len/partSize consecutive
// parts of at least partSize each, and returns each part's p50 and p99.
func parts(lat []float64) (p50s, p99s []float64) {
	k := len(lat) / partSize
	for i := 0; i < k; i++ {
		part := append([]float64(nil), lat[i*len(lat)/k:(i+1)*len(lat)/k]...)
		sort.Float64s(part)
		p50s, p99s = append(p50s, percentile(part, 50)), append(p99s, percentile(part, 99))
	}
	return p50s, p99s
}

// stepResult is one open-loop load step of the serving workload.
type stepResult struct {
	Rate     float64
	Sent     int
	Rejected int // HTTP 429
	Errors   int // any other non-200 answer
	Lat      dist
	// P99 is the median over the step's parts of their p99: a stall from
	// outside the process spoils one part, not the step. NaN when the step
	// is too short for one part.
	P99   float64
	Depth []int // queue depth sampled every 10 ms
	Fail  string
}

// rising reports whether queue-depth samples keep rising across a step: the
// mean of each quarter exceeds the one before, and the last quarter's mean is
// at least minRise above the first's. A backlog that grows for the whole step
// would eventually overflow the queue, whatever the p99 says so far.
func rising(samples []int, minRise float64) bool {
	n := len(samples)
	if n < 8 {
		return false
	}
	var q [4]float64
	for i := range q {
		lo, hi := i*n/4, (i+1)*n/4
		for _, s := range samples[lo:hi] {
			q[i] += float64(s)
		}
		q[i] /= float64(hi - lo)
	}
	for i := 1; i < 4; i++ {
		if q[i] <= q[i-1] {
			return false
		}
	}
	return q[3]-q[0] >= minRise
}

// backlogRise is the queue growth across a step that marks a backlog.
const backlogRise = 8

// judge applies the step's pass rule: no 429, no other error, p99 within the
// limit (a step too short to measure one fails), and no queue depth rising
// across the step. It records the first
// reason for failing in r.Fail.
func judge(r *stepResult, limitMS float64) {
	switch {
	case r.Rejected > 0:
		r.Fail = fmt.Sprintf("%d rejected (429)", r.Rejected)
	case r.Errors > 0:
		r.Fail = fmt.Sprintf("%d errors", r.Errors)
	case !(r.P99 <= limitMS):
		r.Fail = fmt.Sprintf("p99 %.2f ms > %.0f ms", r.P99, limitMS)
	case rising(r.Depth, backlogRise):
		r.Fail = "queue depth rising"
	}
}

// climb runs a load ladder: rates from start, each step frac above the one
// before, stopping at the first failing step or after maxSteps steps. A step
// that fails is run once more and fails only if the repeat fails too: a
// stall from outside the process can spoil one step, while an overload
// spoils both. climb returns the highest passing rate (0 when the first step
// fails) and every step run. Past the first failure, goodput only falls as
// rejections multiply, so nothing is learned by climbing further.
func climb(start, frac float64, maxSteps int, run func(rate float64) stepResult) (float64, []stepResult) {
	best, rate := 0.0, start
	var steps []stepResult
	for i := 0; i < maxSteps; i++ {
		r := run(rate)
		steps = append(steps, r)
		if r.Fail != "" {
			r = run(rate)
			steps = append(steps, r)
		}
		if r.Fail != "" {
			break
		}
		best = rate
		rate *= 1 + frac
	}
	return best, steps
}
