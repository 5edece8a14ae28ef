package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"dronerl/internal/env"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/rl"
	"dronerl/internal/serve"
	"dronerl/internal/tensor"
	"dronerl/internal/transfer"
)

const (
	// lowRate is about 35 drones at Fig. 1's hardest frame rate (14.3 fps);
	// highRate is three times that.
	lowRate  = 500.0
	highRate = 1500.0
	// ladderFrac is the ladder's step above highRate and each step before.
	ladderFrac = 0.10
	// limitMS is the p99 latency limit: half of the 70 ms frame period of
	// Indoor 1 at 10 m/s, leaving the other half for sensing and actuation.
	limitMS = 35.0

	// The load schedule: a warm-up at lowRate, lowRate for lowDur, highRate
	// for highDur, then ladders of stepDur steps in what is left of the
	// run. 2.5 s at 500/s and 0.8 s at 1650/s each give at least one part
	// of partSize requests. 9 s at highRate gives 13 parts (see partPct).
	warmDur = 500 * time.Millisecond
	lowDur  = 2500 * time.Millisecond
	highDur = 9 * time.Second
	stepDur = 800 * time.Millisecond
	// A ladder has at most ladderSteps steps (up to 5178 req/s, above what
	// the seed serves on two cores, so a faster server can show). At least
	// minLadders climb; more follow while a whole ladder fits in the run.
	ladderSteps = 13
	minLadders  = 3
	// A traced run offers the high rate in highSlices slices, each twice
	// (untraced, then traced), seeded from sliceSeeds on.
	highSlices = 9
	sliceSeeds = 1000

	reloadEvery = 2 * time.Second
	sampleEvery = 10 * time.Millisecond

	// poolSize is how many seeded poses the requests draw from.
	poolSize = 512
	// serveTuneIters adapts the meta-trained policy into the second
	// snapshot the reloads alternate with.
	serveTuneIters = 200
	// fleetSetupReps is how many times the server is built and started;
	// setup_s is the median.
	fleetSetupReps = 21
)

// fleet is the serving workload's state: the server under test, its seeded
// inputs, and what the checks need.
type fleet struct {
	r   *run
	srv *serve.Server
	h   http.Handler

	obs     [][]float32               // per pose: the rendered depth image
	bodies  [][]byte                  // per pose: the POST /v1/act body
	rewards [][env.NumActions]float64 // per pose and action: the reward a drone would get
	expect  [2][]float32              // per snapshot: qnn.Backend.InferBatch rows of the pool
	snaps   [2]*nn.Snapshot
	gobs    [2][]byte // per snapshot: the POST /v1/policy body

	mu       sync.Mutex
	versions map[uint64]int // installed policy version → snapshot
	reloads  []reload
	nextID   atomic.Int64
}

type reload struct {
	start, end time.Time
	version    uint64
}

// req is one request of the open loop.
type req struct {
	pose            int
	due, sent, done time.Time
	status          int
	body            []byte
	rep             *reply // the decoded answer of a 200, nil if it did not decode
}

// reply is the POST /v1/act answer.
type reply struct {
	Action        int       `json:"action"`
	Q             []float32 `json:"q"`
	PolicyVersion uint64    `json:"policy_version"`
	Batch         int       `json:"batch"`
}

// phase is one fixed-rate stretch of the open loop.
type phase struct {
	name       string
	step       stepResult
	p50s, p99s []float64 // per part of partSize requests
	reqs       []*req
	late       []float64 // ms the generator issued each request after its due time
}

// inputs generates the served policies and the request pool from the seed.
func (f *fleet) inputs(seed int64) error {
	spec := nn.NavNetSpec()
	// The served policy is drone-l4's meta-model for the same seed.
	a, _, err := droneL4.setup(seed)
	if err != nil {
		return err
	}
	agent, err := transfer.Deploy(a, spec, nn.E2E, rl.Options{Seed: seed + 1, BatchSize: batchSize})
	if err != nil {
		return err
	}
	world := env.IndoorApartment(seed)
	rl.NewTrainer(world, agent, serveTuneIters).Run(serveTuneIters)
	f.snaps = [2]*nn.Snapshot{a, nn.TakeSnapshot(agent.Net, spec.Name)}

	// Poses: seeded collision-free spawns in the apartment.
	world = env.IndoorApartment(seed)
	for k := 0; k < poolSize; k++ {
		world.Spawn()
		pose := world.Drone
		img := env.DepthImage(world.Depths(), world.Camera.MaxRange)
		f.obs = append(f.obs, img.Data())
		body, err := json.Marshal(map[string][]float32{"obs": img.Data()})
		if err != nil {
			return err
		}
		f.bodies = append(f.bodies, body)
		var rw [env.NumActions]float64
		for act := range rw {
			c := world.Clone()
			c.Seed(seed*7919 + int64(k))
			c.Drone = pose
			rw[act] = c.Step(env.Action(act)).Reward
		}
		f.rewards = append(f.rewards, rw)
	}

	// Expected answers: the quantized engine run directly on each snapshot.
	for i, s := range f.snaps {
		qb, err := quantBackend(s)
		if err != nil {
			return err
		}
		for lo := 0; lo < poolSize; lo += 32 {
			f.expect[i] = append(f.expect[i], qb.InferBatch(f.stack(lo, 32))...)
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			return err
		}
		f.gobs[i] = buf.Bytes()
	}
	return nil
}

// quantBackend compiles a snapshot into the integer engine the way a serving
// worker does.
func quantBackend(s *nn.Snapshot) (*qnn.Backend, error) {
	net := nn.NavNetSpec().Build()
	net.SetConfig(nn.E2E)
	if err := s.Restore(net); err != nil {
		return nil, err
	}
	return qnn.NewBackend(net)
}

// stack returns poses [lo, lo+b) as one (b, 1, H, W) batch.
func (f *fleet) stack(lo, b int) *tensor.Tensor {
	t := tensor.New(b, 1, env.ImageSize, env.ImageSize)
	n := env.ImageSize * env.ImageSize
	for i := 0; i < b; i++ {
		copy(t.Data()[i*n:(i+1)*n], f.obs[(lo+i)%poolSize])
	}
	return t
}

// start builds and starts the server: the set-up being timed.
func (f *fleet) start() (time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{Backend: "quant", Snapshot: f.snaps[0]})
	if err != nil {
		return 0, err
	}
	srv.Start()
	dt := time.Since(t0)
	f.srv, f.h = srv, srv.Handler()
	f.versions = map[uint64]int{srv.PolicyVersion(): 0}
	return dt, nil
}

// reloader posts the two snapshots alternately every reloadEvery until stop
// closes.
func (f *fleet) reloader(stop <-chan struct{}, done chan<- error) {
	tick := time.NewTicker(reloadEvery)
	defer tick.Stop()
	next := 1
	for {
		select {
		case <-stop:
			done <- nil
			return
		case <-tick.C:
		}
		t0 := time.Now()
		sp := f.r.tr.open("serve.Reload", int64(next), -1, t0)
		req, err := http.NewRequest(http.MethodPost, "/v1/policy", bytes.NewReader(f.gobs[next]))
		if err != nil {
			done <- err
			return
		}
		rw := httptest.NewRecorder()
		f.h.ServeHTTP(rw, req)
		t1 := time.Now()
		f.r.tr.close(sp, t1)
		var out struct {
			PolicyVersion uint64 `json:"policy_version"`
		}
		if rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &out) != nil {
			done <- fmt.Errorf("policy reload answered %d: %s", rw.Code, rw.Body.String())
			return
		}
		f.mu.Lock()
		f.versions[out.PolicyVersion] = next
		f.reloads = append(f.reloads, reload{start: t0, end: t1, version: out.PolicyVersion})
		f.mu.Unlock()
		next = 1 - next
	}
}

// run drives one open-loop phase and summarizes it.
func (f *fleet) run(name string, rate float64, dur time.Duration, seed int64, tr *tracer) *phase {
	reqs, depth := f.drive(rate, dur, seed, tr)
	return newPhase(name, rate, reqs, depth)
}

// drive offers Poisson arrivals at rate for dur, each request timed from its
// due time, and samples the queue depth throughout.
func (f *fleet) drive(rate float64, dur time.Duration, seed int64, tr *tracer) ([]*req, []int) {
	rng := rand.New(rand.NewSource(seed))
	var reqs []*req
	var offsets []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		reqs = append(reqs, &req{pose: rng.Intn(poolSize)})
		offsets = append(offsets, time.Duration(t*1e9))
	}

	var depth []int
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s := tr.begin("serve.Stats", 0, -1)
				depth = append(depth, f.srv.Stats().QueueDepth)
				tr.end(s)
			}
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range reqs {
		q.due = start.Add(offsets[i])
		if d := time.Until(q.due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(q *req, id int64) {
			defer wg.Done()
			// A constant method and path: NewRequest cannot fail.
			hr, _ := http.NewRequest(http.MethodPost, "/v1/act", bytes.NewReader(f.bodies[q.pose]))
			rw := httptest.NewRecorder()
			q.sent = time.Now()
			root := tr.open("request", id, -1, q.due)
			tr.close(tr.open("gen.wait", id, root, q.due), q.sent)
			h := tr.open("serve.Handler", id, root, q.sent)
			f.h.ServeHTTP(rw, hr)
			q.done = time.Now()
			tr.close(h, q.done)
			tr.close(root, q.done)
			q.status, q.body = rw.Code, rw.Body.Bytes()
		}(q, f.nextID.Add(1))
	}
	wg.Wait()
	close(stop)
	<-sampled
	return reqs, depth
}

// newPhase decodes and judges the answers to one phase's requests.
func newPhase(name string, rate float64, reqs []*req, depth []int) *phase {
	p := &phase{name: name, reqs: reqs, step: stepResult{Rate: rate, Sent: len(reqs), Depth: depth}}
	lat := make([]float64, 0, len(reqs))
	for _, q := range reqs {
		switch q.status {
		case http.StatusOK:
			var rep reply
			if json.Unmarshal(q.body, &rep) == nil {
				q.rep = &rep
			}
		case http.StatusTooManyRequests:
			p.step.Rejected++
		default:
			p.step.Errors++
		}
		lat = append(lat, float64(q.done.Sub(q.due))/1e6)
		p.late = append(p.late, float64(q.sent.Sub(q.due))/1e6)
	}
	p.step.Lat, _ = summarize(append([]float64(nil), lat...))
	p.p50s, p.p99s = parts(lat)
	p.step.P99 = median(p.p99s)
	if len(p.p99s) == 0 {
		p.step.P99 = math.NaN()
	}
	judge(&p.step, limitMS)
	note("phase %-10s rate %4.0f/s: sent %d, 429 %d, errors %d; latency ms %s; part p99s %.2f; generator late ms p99 %.3f max %.3f; %s",
		name, rate, p.step.Sent, p.step.Rejected, p.step.Errors, p.step.Lat, p.p99s, pTail(p.late, 99), pTail(p.late, 100), verdict(p.step))
	return p
}

func verdict(s stepResult) string {
	if s.Fail == "" {
		return "pass"
	}
	return "FAIL: " + s.Fail
}

// verify checks every answered request: its action is the argmax of its
// Q-values, its policy version was installed, and its Q-values equal the
// quantized engine's rows for that snapshot and pose. It returns the number
// of wrong answers and records the first reply time of each version.
func (f *fleet) verify(phases []*phase, first map[uint64]time.Time) int {
	wrong := 0
	for _, p := range phases {
		for _, q := range p.reqs {
			if q.status != http.StatusOK {
				continue
			}
			rep := q.rep
			snap, installed := 0, false
			if rep != nil {
				snap, installed = f.versions[rep.PolicyVersion]
			}
			ok := installed && len(rep.Q) == env.NumActions && rep.Action == argmax(rep.Q)
			if ok {
				want := f.expect[snap][q.pose*env.NumActions : (q.pose+1)*env.NumActions]
				for i, v := range rep.Q {
					ok = ok && math.Float32bits(v) == math.Float32bits(want[i])
				}
			}
			if !ok {
				wrong++
				if wrong <= 3 {
					note("wrong answer in %s for pose %d: %s", p.name, q.pose, q.body)
				}
				continue
			}
			if t, seen := first[rep.PolicyVersion]; !seen || q.done.Before(t) {
				first[rep.PolicyVersion] = q.done
			}
		}
	}
	return wrong
}

// argmax is the first maximal index, the serving API's tie rule.
func argmax(q []float32) int {
	best := 0
	for i, v := range q {
		if v > q[best] {
			best = i
		}
	}
	return best
}

// replies returns a phase's decoded answers.
func replies(p *phase) []*reply {
	var out []*reply
	for _, q := range p.reqs {
		if q.rep != nil {
			out = append(out, q.rep)
		}
	}
	return out
}

// energy is the merged ledger's reading at one moment.
type energy struct {
	served     int64
	mj         float64
	mram, link int64 // bits moved
}

func (f *fleet) energyNow() energy {
	st := f.srv.Stats()
	m, l := st.Devices[mem.STTMRAM().Name], st.Devices[mem.DRAM().Name]
	return energy{served: st.Served, mj: st.TotalEnergyMJ, mram: m.ReadBits + m.WriteBits, link: l.ReadBits + l.WriteBits}
}

func runFleet(r *run) error {
	f := &fleet{r: r}
	if err := f.inputs(r.seed); err != nil {
		return err
	}
	// Set-up: build and start the server fleetSetupReps times; the last one
	// serves.
	setups := make([]float64, 0, fleetSetupReps)
	for i := 0; i < fleetSetupReps; i++ {
		dt, err := f.start()
		if err != nil {
			return err
		}
		setups = append(setups, dt.Seconds())
		if i < fleetSetupReps-1 {
			f.srv.Close()
		}
	}
	defer f.srv.Close()
	note("setup: serve.New + Start, %d repetitions, median %.6f s", fleetSetupReps, median(setups))

	if r.trace {
		f.kernel(r)
	}

	stop, reloaded := make(chan struct{}), make(chan error, 1)
	go f.reloader(stop, reloaded)
	tr := r.tr
	seed := r.seed * 1_000_003
	fixed := []*phase{f.run("warm-up", lowRate, warmDur, seed, tr)}
	before := f.energyNow()
	low := f.run("low", lowRate, lowDur, seed+1, tr)
	var plainHigh, high *phase
	if r.trace {
		// The tracing overhead: the high rate in slices, each offered
		// untraced and then traced with the same arrivals, so that both
		// see the same host.
		var plain, traced []*req
		var plainDepth, tracedDepth []int
		for k := int64(0); k < highSlices; k++ {
			q, d := f.drive(highRate, highDur/highSlices, seed+sliceSeeds+k, nil)
			plain, plainDepth = append(plain, q...), append(plainDepth, d...)
			q, d = f.drive(highRate, highDur/highSlices, seed+sliceSeeds+k, tr)
			traced, tracedDepth = append(traced, q...), append(tracedDepth, d...)
		}
		plainHigh, high = newPhase("high-plain", highRate, plain, plainDepth), newPhase("high", highRate, traced, tracedDepth)
		fixed = append(fixed, plainHigh)
	} else {
		high = f.run("high", highRate, highDur, seed+2, nil)
	}
	after := f.energyNow()
	fixed = append(fixed, low, high)

	// Ladders climb, one after another, while a whole ladder still fits in
	// the run.
	end := time.Now().Add(r.seconds - warmDur - lowDur - highDur)
	if r.trace {
		end = end.Add(-highDur)
	}
	var ladder []*phase
	var bests []float64
	for len(bests) < minLadders || time.Until(end) >= ladderSteps*stepDur {
		best, climbed := climb(highRate*(1+ladderFrac), ladderFrac, ladderSteps, func(rate float64) stepResult {
			p := f.run(fmt.Sprintf("ladder%d-%d", len(bests)+1, len(ladder)+1), rate, stepDur, seed+3+int64(len(ladder)), tr)
			ladder = append(ladder, p)
			return p.step
		})
		// A ladder failing its first step falls back to the fixed rates.
		for _, p := range []*phase{high, low} {
			if best == 0 && p.step.Fail == "" {
				best = p.step.Rate
			}
		}
		if climbed[len(climbed)-1].Fail == "" {
			note("ladder %d: every step passed; its result is a lower bound", len(bests)+1)
		}
		bests = append(bests, best)
	}
	close(stop)
	if err := <-reloaded; err != nil {
		return err
	}
	note("ladders: highest rates meeting p99 <= %.0f ms: %.0f", limitMS, bests)

	first := map[uint64]time.Time{}
	wrong := f.verify(append(fixed, ladder...), first)
	r.check(wrong == 0, "%d wrong answers", wrong)
	r.check(len(f.reloads) > 0, "no policy reload ran")
	// Every request counts as attempted; a 429 or error counts as failed in
	// the fixed-rate phases, where none should happen. On the ladders they
	// are the stop signal.
	rejected := 0
	for _, p := range fixed {
		r.res.Attempted += len(p.reqs)
		rejected += p.step.Rejected
		r.res.Failed += p.step.Rejected + p.step.Errors
	}
	for _, p := range ladder {
		r.res.Attempted += len(p.reqs)
	}
	r.res.Failed += wrong

	// Reward of the served actions at their poses, over the fixed rates.
	var rsum float64
	var rn int
	for _, p := range []*phase{low, high} {
		for _, q := range p.reqs {
			if q.rep != nil && q.rep.Action >= 0 && q.rep.Action < env.NumActions {
				rsum += f.rewards[q.pose][q.rep.Action]
				rn++
			}
		}
	}
	served := float64(after.served - before.served)
	reward := rsum / float64(rn)

	if !r.trace {
		note("reward per frame of the served actions: %v", reward)
		r.set("setup_s", median(setups), "s")
		// Near capacity a step passes or fails by luck, which lifts the
		// best ladder as often as interference lowers the worst: the
		// median ladder is the steady figure.
		r.set("frames_per_s", median(bests), "frames/s")
		r.set("frame_ms_fast", pTail(high.p50s, partPct), "ms")
		r.set("frame_ms_p99", pTail(high.p99s, partPct), "ms")
		r.set("sim_mj_per_frame", (after.mj-before.mj)/served, "mJ")
		return nil
	}

	r.set("reward_per_frame", reward, "reward")
	r.set("serve.act_ms_p50.low", low.step.Lat.P50, "ms")
	r.set("serve.act_ms_p99.low", low.step.Lat.P99, "ms")
	r.set("serve.batch_mean.low", meanBatch(replies(low)), "count")
	hb := replies(high)
	r.set("serve.batch_mean.high", meanBatch(hb), "count")
	var sizes []float64
	for _, rep := range hb {
		sizes = append(sizes, float64(rep.Batch))
	}
	r.set("serve.batch_p99.high", pTail(sizes, 99), "count")
	st := f.srv.Stats()
	r.set("serve.batched_frac", float64(st.BatchedBatches)/float64(st.Batches), "frac")
	var depth []float64
	for _, d := range high.step.Depth {
		depth = append(depth, float64(d))
	}
	r.set("serve.queue_depth_p99.high", pTail(depth, 99), "count")
	r.set("serve.rejected", float64(rejected), "count")

	var reloadMS, adoptMS []float64
	for _, rl := range f.reloads {
		reloadMS = append(reloadMS, float64(rl.end.Sub(rl.start))/1e6)
		if t, ok := first[rl.version]; ok {
			adoptMS = append(adoptMS, math.Max(0, float64(t.Sub(rl.end))/1e6))
		}
	}
	r.set("serve.reload_ms_p50", median(reloadMS), "ms")
	r.set("serve.adopt_ms_max", pTail(adoptMS, 100), "ms")
	r.set("mem.mram_mbit_per_request", float64(after.mram-before.mram)/1e6/served, "Mbit")
	r.set("mem.link_mbit_per_request", float64(after.link-before.link)/1e6/served, "Mbit")

	var late []float64
	for _, p := range append(fixed, ladder...) {
		late = append(late, p.late...)
	}
	r.set("gen.late_ms_p99", pTail(late, 99), "ms")
	r.set("gen.late_ms_max", pTail(late, 100), "ms")
	// The median, as a stall from outside the process moves the mean of
	// one half by tens of percent.
	r.set("trace.overhead_frac", high.step.Lat.P50/plainHigh.step.Lat.P50-1, "frac")
	return nil
}

func meanBatch(reps []*reply) float64 {
	if len(reps) == 0 {
		return 0
	}
	var s float64
	for _, rep := range reps {
		s += float64(rep.Batch)
	}
	return s / float64(len(reps))
}

// kernel times direct qnn.Backend.InferBatch calls on the served snapshot at
// batch 1, 8 and 32: the kernel's busy time per batch, with no queueing.
func (f *fleet) kernel(r *run) {
	qb, err := quantBackend(f.snaps[0])
	if err != nil {
		r.check(false, "compiling the served snapshot: %v", err)
		return
	}
	for _, b := range []int{1, 8, 32} {
		batch := f.stack(0, b)
		calls := 4096 / b
		var us []float64
		for i := 0; i < calls+3; i++ {
			s := r.tr.begin("qnn.InferBatch", int64(b), -1)
			t0 := time.Now()
			qb.InferBatch(batch)
			d := time.Since(t0)
			r.tr.end(s)
			if i >= 3 { // the first calls grow the workspace
				us = append(us, float64(d)/1e3)
			}
		}
		r.set(fmt.Sprintf("qnn.infer_batch_us.b%d", b), median(us), "us")
	}
}
