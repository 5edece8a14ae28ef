package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},   // the median's rank leaves only 5 above it
		{20, 50},  // rank 10, 10 above
		{99, 50},  // p90 rank 90 leaves 9
		{100, 90}, // p90 rank 90 leaves 10
		{999, 90}, // p99 rank 990 leaves 9
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 100: 1000, 0.01: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestSummarizeRefusesAThinTail(t *testing.T) {
	if _, err := summarize(make([]float64, 999)); err == nil {
		t.Error("999 samples cannot support a p99")
	}
	d, err := summarize(make([]float64, 1000))
	if err != nil || d.Top != 99 {
		t.Errorf("1000 samples: top p%g, err %v", d.Top, err)
	}
}

func TestFastEndRestsOnTenSamples(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i)
	}
	v[50] = 0.5 // one lucky sample does not make the figure
	got, err := fastEnd(v)
	if err != nil || got != 9 {
		t.Errorf("fastEnd = %g, %v; want 9, the tenth smallest", got, err)
	}
	if v[0] != 100 {
		t.Error("fastEnd reordered its input")
	}
	if _, err := fastEnd(v[:99]); err == nil {
		t.Error("99 samples should be too few")
	}
}

func TestSteadyDropsRandomActions(t *testing.T) {
	// Frames 0-1 explore; every frame 4k trains. Frame 6 took a random
	// action (a 1 us SelectAction), which spoils its cycle 4-7.
	st := loopStats{frames: 10, epsDone: 2}
	for i := 0; i < st.frames; i++ {
		st.cpuMS = append(st.cpuMS, float64(i))
		st.actMS = append(st.actMS, 0.5)
	}
	st.actMS[6] = 0.001
	all, greedy, cycles := st.steady(4)
	if want := []float64{4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(all, want) {
		t.Errorf("steady frames %v, want %v (from the first cycle after exploration)", all, want)
	}
	if want := []float64{5, 7}; !reflect.DeepEqual(greedy, want) {
		t.Errorf("greedy frames %v, want %v (frame 4 trains, frame 6 is random, 8 and 9 start an unfinished cycle)", greedy, want)
	}
	if len(cycles) != 0 {
		t.Errorf("cycles %v, want none: 4-7 holds a random action, 8-11 is unfinished", cycles)
	}
	st.actMS[6] = 0.5
	if _, _, cycles := st.steady(4); !reflect.DeepEqual(cycles, []float64{4 + 5 + 6 + 7}) {
		t.Errorf("cycles %v, want [22]", cycles)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "act", Parent: 0, Start: 10, End: 30},
		{Name: "train", Parent: 0, Start: 40, End: 90},
		// A grandchild reduces its parent's self time, not the root's.
		{Name: "kernel", Parent: 2, Start: 50, End: 70},
		// Overlapping children are counted once; one reaching past its
		// parent counts only inside it.
		{Name: "root2", Parent: -1, Start: 200, End: 300},
		{Name: "a", Parent: 4, Start: 190, End: 250},
		{Name: "b", Parent: 4, Start: 240, End: 260},
	}
	want := []int64{30, 20, 30, 20, 40, 60, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by, total := selfByName(spans[:4], "frame")
	if total != 100 || by["frame"]+by["act"]+by["train"]+by["kernel"] != total {
		t.Errorf("self times %v should partition the frame's %d ns", by, total)
	}
}

func TestPartsNeedAThousandEach(t *testing.T) {
	lat := make([]float64, 2999)
	for i := range lat {
		lat[i] = float64(i % 1000)
	}
	lat[10] = 500 // one stall early in the stream
	p50s, p99s := parts(lat)
	if len(p99s) != 2 || len(p50s) != 2 {
		t.Fatalf("2999 samples make %d parts, want 2", len(p99s))
	}
	if _, p99s := parts(lat[:999]); len(p99s) != 0 {
		t.Error("999 samples cannot make a part")
	}
}

func TestRisingNeedsSteadyGrowth(t *testing.T) {
	ramp := make([]int, 100)
	for i := range ramp {
		ramp[i] = i / 2
	}
	if !rising(ramp, backlogRise) {
		t.Error("a queue growing all step long is a backlog")
	}
	flat := make([]int, 100)
	for i := range flat {
		flat[i] = 3 + i%5
	}
	if rising(flat, backlogRise) {
		t.Error("a queue that jitters around a level is not a backlog")
	}
	// Growth then drain: the last quarter falls.
	hump := append(append([]int(nil), ramp[:75]...), make([]int, 25)...)
	if rising(hump, backlogRise) {
		t.Error("a burst that drains before the step ends is not a backlog")
	}
	small := []int{0, 0, 1, 1, 2, 2, 3, 3}
	if rising(small, backlogRise) {
		t.Error("growth below the threshold is not a backlog")
	}
}

func TestJudgeFailsOnRejectionsLatencyOrBacklog(t *testing.T) {
	ok := stepResult{P99: 20}
	judge(&ok, 35)
	if ok.Fail != "" {
		t.Errorf("a clean step failed: %s", ok.Fail)
	}
	for name, s := range map[string]stepResult{
		"429":       {Rejected: 1, P99: 1},
		"error":     {Errors: 1, P99: 1},
		"latency":   {P99: 35.01},
		"too short": {P99: math.NaN()},
		"backlog":   {P99: 1, Depth: []int{0, 0, 10, 10, 20, 20, 30, 30}},
	} {
		judge(&s, 35)
		if s.Fail == "" {
			t.Errorf("%s: step passed", name)
		}
	}
}

func TestClimbStopsAtFirstFailingStep(t *testing.T) {
	var ran []float64
	best, steps := climb(100, 0.1, 10, func(rate float64) stepResult {
		ran = append(ran, rate)
		s := stepResult{Rate: rate}
		if rate > 125 {
			s.Fail = "p99"
		}
		return s
	})
	want := []float64{100, 110, 121, 133.1, 133.1} // the failing step runs twice
	if len(steps) != len(want) || len(ran) != len(want) {
		t.Fatalf("ran %v, want %v and nothing after", ran, want)
	}
	for i := range want {
		if math.Abs(ran[i]-want[i]) > 1e-9 {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
	if math.Abs(best-121) > 1e-9 {
		t.Errorf("best = %g, want 121", best)
	}
	best, steps = climb(100, 0.1, 10, func(rate float64) stepResult { return stepResult{Rate: rate, Fail: "429"} })
	if best != 0 || len(steps) != 2 {
		t.Errorf("first step failing: best %g after %d steps, want 0 after 2", best, len(steps))
	}
	if best, steps = climb(100, 0.1, 3, func(rate float64) stepResult { return stepResult{Rate: rate} }); len(steps) != 3 || math.Abs(best-121) > 1e-9 {
		t.Errorf("budget of 3 passing steps: best %g after %d steps", best, len(steps))
	}
}

func TestClimbRepeatsAFailedStepOnce(t *testing.T) {
	calls := 0
	best, steps := climb(100, 0.1, 3, func(rate float64) stepResult {
		calls++
		if calls == 2 { // one stall at 110
			return stepResult{Rate: rate, Fail: "p99"}
		}
		return stepResult{Rate: rate}
	})
	if len(steps) != 4 || math.Abs(best-121) > 1e-9 {
		t.Errorf("a passing repeat should continue the climb: best %g after %d steps", best, len(steps))
	}
}

// BENCHMARK.json at the repository root and metrics.go must name the same
// workloads and metrics with the same units.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		list string
		json []def
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var code []def
		for _, d := range c.code {
			code = append(code, def{d.name, d.unit})
		}
		if !reflect.DeepEqual(c.json, code) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nin metrics.go:\n%v", c.list, c.json, code)
		}
	}
}
