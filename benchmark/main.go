// Command dronebench is the repository's end-to-end benchmark: one drone
// doing online RL frame by frame under the paper's proposed L4 topology, the
// same loop under end-to-end int16 training, and a fleet of drones served by
// the policy daemon under open-loop load. See README.md beside this file for
// every workload, metric and prediction.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash benchmark/run.sh --workload drone-l4 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured untraced; with --trace 1 the run records spans
// around every call into a layer and reports the per-layer metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its output.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tr       *tracer // nil on untraced runs

	res result
}

// set records a metric.
func (r *run) set(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one output check; a failing one makes the run incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
}

// note prints an informational line (never the last line of output).
func note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

var workloads = map[string]func(*run) error{
	"drone-l4":        func(r *run) error { return runDrone(r, droneL4) },
	"drone-e2e-int16": func(r *run) error { return runDrone(r, droneE2E) },
	"serve-fleet":     runFleet,
}

func main() {
	workload := flag.String("workload", "", "drone-l4, drone-e2e-int16 or serve-fleet")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "how long the measured window lasts")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dronebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		res: result{Correct: true, Metrics: map[string]metric{}},
	}
	if r.trace {
		r.tr = newTracer()
	}
	printEnv(r)
	busy0, steal0 := cpuTimes()
	err := fn(r)
	if busy1, steal1 := cpuTimes(); busy1 > busy0 {
		// Time the hypervisor gave to other guests while this one wanted
		// to run: when it is high, every timing of the run is suspect.
		note("host steal: %.1f%% of this machine's busy CPU time during the run", 100*float64(steal1-steal0)/float64(busy1-busy0))
	}
	if err == nil {
		err = finish(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dronebench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "dronebench: writing spans:", err)
			os.Exit(1)
		}
		note("spans: %d written to %s", len(r.tr.spans), path)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dronebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printEnv records what the numbers were measured on: without it, runs on
// different machines or commits cannot be told apart.
func printEnv(r *run) {
	env := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds.Seconds(),
		"trace":         r.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
	}
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the machine's busy and steal CPU ticks from /proc/stat (0
// and 0 where it cannot).
func cpuTimes() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i != 3 && i != 4 { // idle and iowait are not busy
			busy += n
		}
		if i == 7 {
			steal = n
		}
	}
	return busy, steal
}

// commit reads the checked-out commit from .git, or reports "unknown" in a
// plain source tree (the source digest identifies the code there).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory, in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
