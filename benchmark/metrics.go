package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root carries the
// same names with the bound each end-to-end metric may worsen by.
type metricDef struct{ name, unit string }

// endToEnd are measured on untraced runs. Every workload reports every one;
// README.md gives each workload's reading of the shared names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "frames/s"},
	{"frame_ms_fast", "ms"},
	{"frame_ms_p99", "ms"},
	{"sim_mj_per_frame", "mJ"},
}

// perLayer are measured on traced runs. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"rl.act_us_p50", "us"},
	{"rl.train_us_p50", "us"},
	{"rl.train_us_p99", "us"},
	{"rl.train_useful_frac", "frac"},
	{"rl.observe_us_p50", "us"},
	{"env.step_us_p50", "us"},
	{"env.render_us_p50", "us"},
	{"frame.share_act", "frac"},
	{"frame.share_train", "frac"},
	{"frame.share_env", "frac"},
	{"frame.share_other", "frac"},
	{"qnn.train_steps", "count"},
	{"mem.mram_read_mbit_per_frame", "Mbit"},
	{"mem.mram_write_mbit_per_frame", "Mbit"},
	{"hw.sim_ms_per_frame", "ms"},
	{"serve.act_ms_p50.low", "ms"},
	{"serve.act_ms_p99.low", "ms"},
	{"serve.batch_mean.low", "count"},
	{"serve.batch_mean.high", "count"},
	{"serve.batch_p99.high", "count"},
	{"serve.batched_frac", "frac"},
	{"serve.queue_depth_p99.high", "count"},
	{"serve.rejected", "count"},
	{"serve.reload_ms_p50", "ms"},
	{"serve.adopt_ms_max", "ms"},
	{"qnn.infer_batch_us.b1", "us"},
	{"qnn.infer_batch_us.b8", "us"},
	{"qnn.infer_batch_us.b32", "us"},
	{"mem.mram_mbit_per_request", "Mbit"},
	{"mem.link_mbit_per_request", "Mbit"},
	{"gen.late_ms_p99", "ms"},
	{"gen.late_ms_max", "ms"},
	{"trace.overhead_frac", "frac"},
	{"reward_per_frame", "reward"},
	{"fail_frac", "frac"},
}

// finish makes the run's metrics exactly the selected list: on traced runs
// it fills fail_frac and reads unexercised layers as 0; on untraced runs a
// missing end-to-end metric is an error.
func finish(r *run) error {
	want := endToEnd
	if r.trace {
		want = perLayer
		if r.res.Attempted > 0 {
			r.set("fail_frac", float64(r.res.Failed)/float64(r.res.Attempted), "frac")
		}
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := r.res.Metrics[d.name]
		switch {
		case ok && m.Unit != d.unit:
			return fmt.Errorf("metric %s reported in %s, want %s", d.name, m.Unit, d.unit)
		case ok:
			out[d.name] = m
		case r.trace:
			out[d.name] = metric{Value: 0, Unit: d.unit}
		default:
			return fmt.Errorf("workload %s did not report %s", r.workload, d.name)
		}
	}
	var extra []string
	for name := range r.res.Metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics outside the vocabulary: %v", extra)
	}
	r.res.Metrics = out
	return nil
}
