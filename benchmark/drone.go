package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
	"dronerl/internal/transfer"
)

// droneWorkload is one drone doing online RL in a test world after
// meta-training in the matching meta-environment.
type droneWorkload struct {
	test, meta   func(seed int64) *env.World
	cfg          nn.Config
	trainBackend string // "" trains on the float reference path
}

var (
	// droneL4 is the paper's proposed configuration: only the FC tail
	// trains, on the float reference path.
	droneL4 = droneWorkload{test: env.IndoorApartment, meta: env.IndoorMeta, cfg: nn.L4}
	// droneE2E backpropagates the whole network in int16 and rewrites every
	// weight in the modeled STT-MRAM on each update.
	droneE2E = droneWorkload{test: env.OutdoorForest, meta: env.OutdoorMeta, cfg: nn.E2E, trainBackend: "quant-train"}
)

const (
	// metaIters is the meta-training length of set-up.
	metaIters = 1500
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 3
	// checkFrames is the checked prefix: the first checkFrames frames of
	// the measured loop must reproduce rl.Trainer.Run exactly.
	checkFrames = 1500
	// qualityFrames is the window of the deterministic figures (modeled
	// energy, reward): the same frames for a seed on every run.
	qualityFrames = 6000
	// chunkFrames is how many frames an untraced run flies between looks at
	// the clock.
	chunkFrames = 1000
	// turnFrames is how many frames each flight of a traced run flies
	// before the other takes its turn: well under a second, shorter than
	// the host's speed swings.
	turnFrames = 250
	// epsFrames is how long exploration decays (1 → 0.05).
	epsFrames = 1000
	// batchSize is the paper's training batch N.
	batchSize = 4
)

// deploy builds the online agent for a seed from the meta-trained policy.
func (w droneWorkload) deploy(snap *nn.Snapshot, seed int64) (*rl.Agent, error) {
	return transfer.Deploy(snap, nn.NavNetSpec(), w.cfg, rl.Options{
		Seed: seed + 1, BatchSize: batchSize, EpsDecaySteps: epsFrames,
		Actors: 1, TrainBackend: w.trainBackend,
	})
}

// setup meta-trains the policy and deploys it: what a drone does before its
// first online frame.
func (w droneWorkload) setup(seed int64) (*nn.Snapshot, *rl.Agent, error) {
	snap, _ := transfer.MetaTrain(w.meta(seed+1000), nn.NavNetSpec(), metaIters, rl.Options{
		Seed: seed, BatchSize: batchSize, EpsDecaySteps: metaIters / 2,
	})
	agent, err := w.deploy(snap, seed)
	return snap, agent, err
}

// checkpoint is the loop's state at the end of the checked prefix: what
// rl.Trainer.Run exposes, the weights' digest, and the train backend's
// tallies.
type checkpoint struct {
	cum, ret, sfd  float64
	crashes, steps int
	weights        string
	trainSteps     int
	cost           nn.BackendCost
	mram           mem.LedgerTotal
	qnnSteps       int64
}

func takeCheckpoint(agent *rl.Agent, tk *metrics.FlightTracker) checkpoint {
	c := checkpoint{
		cum: tk.CumulativeReward(), ret: tk.Return(),
		sfd: tk.SafeFlightDistance(), crashes: tk.Crashes(), steps: tk.Steps(),
		weights: weightDigest(agent.Net), trainSteps: agent.TrainSteps(), cost: agent.TrainCost(),
	}
	if tb, ok := agent.TrainBackend().(*qnn.TrainBackend); ok {
		c.mram = tb.Ledger().Total(mem.STTMRAM().Name)
		c.qnnSteps = tb.Steps()
	}
	return c
}

// weightDigest is the SHA-256 of every parameter's float32 bits, in order.
func weightDigest(net *nn.Network) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range net.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.W.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loopStats is what a flight has measured so far.
type loopStats struct {
	frames  int
	frameMS []float64 // wall time of each frame
	// Each frame's CPU time on the loop's thread, and that of its
	// SelectAction call.
	cpuMS, actMS []float64
	check        checkpoint // state after checkFrames frames
	quality      tally      // deterministic figures over qualityFrames frames
	useful       int        // TrainStep calls that updated weights
	calls        int
	epsDone      int // first frame at which exploration had fully decayed
}

// tally is what the first qualityFrames frames did.
type tally struct {
	reward     float64
	trainSteps int
	cost       nn.BackendCost
}

// flight is one drone's online frame loop, driven through the same public
// calls rl.Trainer.Run makes. It is flown in pieces, so that an untraced and
// a traced flight can take turns.
type flight struct {
	agent     *rl.Agent
	world     *env.World
	tk        *metrics.FlightTracker
	every     int // TrainStep cadence in frames
	obs       *tensor.Tensor
	rewardSum float64
	st        loopStats
}

func newFlight(agent *rl.Agent, world *env.World) *flight {
	trainer := rl.NewTrainer(world, agent, checkFrames)
	return &flight{
		agent: agent, world: world, tk: trainer.Tracker, every: trainer.TrainEvery,
		obs: env.DepthImage(world.Depths(), world.Camera.MaxRange),
		st: loopStats{
			frameMS: make([]float64, 0, 1<<15), cpuMS: make([]float64, 0, 1<<15),
			actMS: make([]float64, 0, 1<<15), epsDone: -1,
		},
	}
}

// fly runs n more frames. Taking the checkpoint after checkFrames frames is
// kept off the clock.
func (f *flight) fly(n int, tr *tracer) {
	agent, world, st := f.agent, f.world, &f.st
	maxRange := world.Camera.MaxRange
	for end := st.frames + n; st.frames < end; st.frames++ {
		i := st.frames
		if st.epsDone < 0 && agent.Epsilon() <= agent.Options().EpsEnd {
			st.epsDone = i
		}
		c0, t0 := threadCPU(), time.Now()
		fs := tr.open("frame", int64(i), -1, t0)

		s := tr.begin("rl.SelectAction", int64(i), fs)
		action := agent.SelectAction(f.obs)
		tr.end(s)
		ca := threadCPU()

		s = tr.begin("env.Step", int64(i), fs)
		res := world.Step(env.Action(action))
		tr.end(s)

		s = tr.begin("env.DepthImage", int64(i), fs)
		next := env.DepthImage(res.Depths, maxRange)
		tr.end(s)

		s = tr.begin("rl.Observe", int64(i), fs)
		agent.Observe(rl.Transition{State: f.obs, Action: action, Reward: res.Reward, Next: next, Done: res.Crashed})
		tr.end(s)

		f.tk.Step(res.Reward, res.Crashed, res.FlightDistance)
		if i%f.every == 0 {
			s = tr.begin("rl.TrainStep", int64(i), fs)
			loss := agent.TrainStep()
			tr.end(s)
			st.calls++
			if loss >= 0 {
				st.useful++
			}
		}
		f.obs = next
		t1, c1 := time.Now(), threadCPU()
		tr.close(fs, t1)
		st.frameMS = append(st.frameMS, float64(t1.Sub(t0))/1e6)
		st.cpuMS = append(st.cpuMS, float64(c1-c0)/1e6)
		st.actMS = append(st.actMS, float64(ca-c0)/1e6)
		f.rewardSum += res.Reward

		switch i + 1 {
		case checkFrames:
			s = tr.begin("mem+hw.ledgers", int64(i), -1)
			st.check = takeCheckpoint(agent, f.tk)
			tr.end(s)
		case qualityFrames:
			st.quality = tally{reward: f.rewardSum / qualityFrames, trainSteps: agent.TrainSteps(), cost: agent.TrainCost()}
		}
	}
}

// steady returns the CPU times of the steady frames, those from the first
// training cycle after exploration has decayed, and two subsets of them: the
// frames without a TrainStep whose action came from the policy, and the
// training cycles (a TrainStep frame and the frames up to the next one)
// whose every action did. A random action skips the policy's forward pass;
// it is told apart by its SelectAction call, which takes microseconds where
// a forward pass takes hundreds.
func (st *loopStats) steady(every int) (all, greedy, cycles []float64) {
	first := (max(st.epsDone, 0) + every - 1) / every * every
	if first >= st.frames {
		return nil, nil, nil
	}
	ran := median(st.actMS[first:st.frames]) / 10
	for c := first; c+every <= st.frames; c += every {
		sum, policy := 0.0, true
		for i := c; i < c+every; i++ {
			sum += st.cpuMS[i]
			if st.actMS[i] < ran {
				policy = false
			} else if i > c {
				greedy = append(greedy, st.cpuMS[i])
			}
		}
		if policy {
			cycles = append(cycles, sum)
		}
	}
	return append([]float64(nil), st.cpuMS[first:st.frames]...), greedy, cycles
}

// reference runs rl.Trainer.Run for the checked prefix on a freshly
// deployed agent and a fresh world.
func (w droneWorkload) reference(snap *nn.Snapshot, seed int64) (checkpoint, error) {
	agent, err := w.deploy(snap, seed)
	if err != nil {
		return checkpoint{}, err
	}
	trainer := rl.NewTrainer(w.test(seed), agent, checkFrames)
	tk := trainer.Run(checkFrames)
	return takeCheckpoint(agent, tk), nil
}

func runDrone(r *run, w droneWorkload) error {
	// Frames are timed on the CPU clock of the loop's thread, so the loop
	// must stay on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Set-up: meta-train and deploy, setupReps times; every repetition
	// must produce the same meta-model.
	var snap *nn.Snapshot
	var agent *rl.Agent
	setups := make([]float64, 0, setupReps)
	digest := ""
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, a, err := w.setup(r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d := weightDigest(a.Net)
		r.check(i == 0 || d == digest, "set-up %d deployed different weights", i)
		snap, agent, digest = s, a, d
	}
	setup := median(setups)
	note("setup: meta-train %d iterations + deploy, %d repetitions %v s, median %.4f s", metaIters, setupReps, setups, setup)

	ref, err := w.reference(snap, r.seed)
	if err != nil {
		return err
	}
	// account counts a flight's frames and checks its prefix.
	account := func(f *flight) {
		r.res.Attempted += f.st.frames
		ok := f.st.check == ref
		r.check(ok, "frame loop diverged from rl.Trainer.Run over %d frames: loop %+v, reference %+v", checkFrames, f.st.check, ref)
		if !ok {
			r.res.Failed++
		}
	}

	if !r.trace {
		fl := newFlight(agent, w.test(r.seed))
		start := time.Now()
		for fl.st.frames < qualityFrames || time.Since(start) < r.seconds {
			fl.fly(chunkFrames, nil)
		}
		account(fl)
		st := fl.st
		all, err := summarize(append([]float64(nil), st.frameMS...))
		if err != nil {
			return err
		}
		steady, greedy, cycles := st.steady(fl.every)
		tail, err := summarize(steady)
		if err != nil {
			return fmt.Errorf("steady frames: %v", err)
		}
		cycleMS, err := fastEnd(cycles)
		if err != nil {
			return fmt.Errorf("greedy training cycles: %v", err)
		}
		fast, err := fastEnd(greedy)
		if err != nil {
			return fmt.Errorf("greedy frames without a TrainStep: %v", err)
		}
		note("frames: %d; wall ms per frame over the run %s", st.frames, all)
		note("steady frames, CPU ms: %s", tail)
		note("steady greedy frames without a TrainStep: %d, CPU ms fast end %.4f, median %.4f", len(greedy), fast, median(greedy))
		note("steady greedy cycles of %d frames: %d, CPU ms fast end %.4f, median %.4f", fl.every, len(cycles), cycleMS, median(cycles))
		r.set("setup_s", setup, "s")
		r.set("frames_per_s", float64(fl.every)*1000/cycleMS, "frames/s")
		r.set("frame_ms_fast", fast, "ms")
		r.set("frame_ms_p99", tail.P99, "ms")
		r.set("sim_mj_per_frame", w.simMJPerFrame(st.quality), "mJ")
		note("reward per frame over the first %d frames: %v", qualityFrames, st.quality.reward)
		return nil
	}

	// Traced run: two flights from the same deployed state, one untraced
	// and one traced, take turns every turnFrames frames, so that both fly
	// the same frames on the same host; the difference is the tracing
	// overhead.
	agent2, err := w.deploy(snap, r.seed)
	if err != nil {
		return err
	}
	plain, traced := newFlight(agent, w.test(r.seed)), newFlight(agent2, w.test(r.seed))
	start := time.Now()
	for plain.st.frames < qualityFrames || time.Since(start) < r.seconds {
		plain.fly(turnFrames, nil)
		traced.fly(turnFrames, r.tr)
	}
	account(plain)
	account(traced)
	w.perLayer(r, plain.st, traced.st)
	return nil
}

// simMJPerFrame is the modeled energy per frame over the quality window. On
// the quant-train path it is the backend's STT-MRAM ledger; on the float
// path the hardware model prices what the loop ran: one inference per frame
// plus its camera frame, and a training forward and backward per sample of
// every weight update.
func (w droneWorkload) simMJPerFrame(q tally) float64 {
	if w.trainBackend != "" {
		return q.cost.EnergyMJ / qualityFrames
	}
	m := hw.NewModelFor(nn.NavNetSpec())
	link := m.Link.TransferEnergyPJ(mem.FrameBytes(m.Arch.InputH, m.Arch.InputC)) / 1e9
	fwd, bwd := m.ForwardEnergyMJ(), m.BackwardEnergyMJ(w.cfg)
	total := qualityFrames*(fwd+link) + float64(q.trainSteps*batchSize)*(fwd+bwd)
	return total / qualityFrames
}

// perLayer reports the traced run's per-layer metrics.
func (w droneWorkload) perLayer(r *run, plain, traced loopStats) {
	spans := r.tr.spans
	// Tracing overhead: mean frame time over the frames both runs made.
	n := min(plain.frames, traced.frames)
	var a, b float64
	for i := 0; i < n; i++ {
		a += plain.frameMS[i]
		b += traced.frameMS[i]
	}
	r.set("trace.overhead_frac", b/a-1, "frac")
	r.set("reward_per_frame", plain.quality.reward, "reward")

	// The SelectAction span on frames after exploration decayed, where 95%
	// of actions run the greedy forward pass.
	var act []float64
	for _, s := range spans {
		if s.Name == "rl.SelectAction" && traced.epsDone >= 0 && s.ID >= int64(traced.epsDone) {
			act = append(act, float64(s.End-s.Start)/1e3)
		}
	}
	r.set("rl.act_us_p50", median(act), "us")
	train := durations(spans, "rl.TrainStep")
	r.set("rl.train_us_p50", median(train), "us")
	r.set("rl.train_us_p99", pTail(train, 99), "us")
	r.set("rl.train_useful_frac", float64(traced.useful)/float64(traced.calls), "frac")
	r.set("env.step_us_p50", median(durations(spans, "env.Step")), "us")
	r.set("env.render_us_p50", median(durations(spans, "env.DepthImage")), "us")
	r.set("rl.observe_us_p50", median(durations(spans, "rl.Observe")), "us")

	self, frameTotal := selfByName(spans, "frame")
	ft := float64(frameTotal)
	r.set("frame.share_act", float64(self["rl.SelectAction"])/ft, "frac")
	r.set("frame.share_train", float64(self["rl.TrainStep"])/ft, "frac")
	r.set("frame.share_env", float64(self["env.Step"]+self["env.DepthImage"])/ft, "frac")
	r.set("frame.share_other", float64(self["frame"]+self["rl.Observe"])/ft, "frac")

	c := traced.check
	r.set("qnn.train_steps", float64(c.qnnSteps), "count")
	r.set("mem.mram_read_mbit_per_frame", float64(c.mram.ReadBits)/1e6/checkFrames, "Mbit")
	r.set("mem.mram_write_mbit_per_frame", float64(c.mram.WriteBits)/1e6/checkFrames, "Mbit")
	r.set("hw.sim_ms_per_frame", c.cost.LatencyMS/checkFrames, "ms")
	note("traced: %d frames (untraced %d); spans %d; overhead %.4f", traced.frames, plain.frames, len(spans), b/a-1)
}
