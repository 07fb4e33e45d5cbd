// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed wall-clock budget and prints every metric by name and unit,
// ending with a single JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A run is a sequence of cycles. Each cycle builds a fresh deployment from a
// seed derived from --seed, drives its load, injects its fault, recovers and
// audits every acknowledged commit. Every cycle runs in a fresh child process
// of this binary, one at a time: the simulator has no teardown, so a process
// exit is what releases a cycle's memory and parked daemons. Metrics are the
// median over the run's cycles.
//
// --trace 0 reports the end-to-end metrics from untraced cycles. --trace 1
// spends half the budget on untraced cycles (per-layer counters, wall
// timings) and half on traced ones (critical path, span self time, tracing
// overhead), and reports the per-layer metrics. See RATIONALE.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// maxProcs is the fixed scheduler width. The simulator runs one process at a
// time, so a second thread only adds cross-thread goroutine hand-off and idle
// spinning; with one, the hand-off stays on one thread and the process's CPU
// time, which the cost metrics use, is its work.
const maxProcs = 1

// cycleTimeout bounds one child process; a whole run must end within 180 s.
const cycleTimeout = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload name: tpcc_plugpull, stress_quorum_open or failover_plugpull")
	seed := fs.Int64("seed", 1, "input seed; cycle i of a run uses a seed derived from it")
	seconds := fs.Int("seconds", 30, "wall-clock budget of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	cycle := fs.Bool("cycle", false, "run a single cycle with --seed as its seed in this process and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := maxProcs
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)

	wl, ok := workloads[*wlName]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wlName)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %d\n", *seconds)
		return 2
	}
	if *cycle {
		res := runCycle(wl, *seed, *trace == 1, nil)
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		wl.name, *seed, *seconds, *trace, runtime.NumCPU(), procs, runtime.Version())
	budget := time.Duration(*seconds) * time.Second
	var untraced, traced []cycleResult
	start := time.Now()
	next := 0
	runPhase := func(until time.Duration, tracedPhase bool, out *[]cycleResult) error {
		var walls []float64
		for n := 0; ; n++ {
			elapsed := time.Since(start)
			if n >= 1 && elapsed+time.Duration(median(walls)*float64(time.Second)) > until {
				return nil
			}
			t0 := time.Now()
			res, err := spawnCycle(wl.name, cycleSeed(*seed, next), tracedPhase, stderr)
			next++
			if err != nil {
				return err
			}
			walls = append(walls, time.Since(t0).Seconds())
			*out = append(*out, res)
		}
	}
	if *trace == 1 {
		if err := runPhase(budget/2, false, &untraced); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := runPhase(budget, true, &traced); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
	} else if err := runPhase(budget, false, &untraced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}

	return finish(stdout, stderr, wl, untraced, traced, *trace == 1)
}

// finish prints the run's result and applies the audit gate: it returns a
// non-zero exit code, naming the workload, when any cycle failed its audit.
func finish(stdout, stderr io.Writer, wl *workloadDef, untraced, traced []cycleResult, layers bool) int {
	all := append(append([]cycleResult(nil), untraced...), traced...)
	sum := summarize(all)
	var metrics map[string]metricOut
	if layers {
		metrics = layerMetrics(untraced, traced, wl.alwaysTraced)
	} else {
		metrics = endToEndMetrics(untraced)
	}
	report(stdout, all, metrics)
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{sum.correct, sum.attempted, sum.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.correct {
		for _, p := range sum.problems {
			fmt.Fprintf(stderr, "perfbench: AUDIT FAILED: workload %s: %s\n", wl.name, p)
		}
		return 1
	}
	return 0
}

// cycleSeed derives cycle i's seed: the same --seed always yields the same
// sequence of cycle inputs.
func cycleSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

// spawnCycle runs one cycle in a child process and decodes its result.
func spawnCycle(wl string, seed int64, traced bool, stderr io.Writer) (cycleResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return cycleResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cycleTimeout)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--cycle", "--workload", wl, "--seed", strconv.FormatInt(seed, 10), "--trace", tr)
	cmd.Stderr = stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return cycleResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return cycleResult{}, err
	}
	var res cycleResult
	decErr := json.NewDecoder(bufio.NewReader(outPipe)).Decode(&res)
	_, _ = io.Copy(io.Discard, outPipe) // drain so Wait cannot block on a full pipe
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("cycle seed %d: %w", seed, err)
	}
	if decErr != nil {
		return res, fmt.Errorf("cycle seed %d: decoding result: %w", seed, decErr)
	}
	return res, nil
}

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	correct           bool
	attempted, failed int64
	problems          []string
}

// summarize folds the audit gate over every cycle of the run: any lost or
// corrupted acknowledged commit, split brain, invariant violation or cycle
// error fails the whole run.
func summarize(cycles []cycleResult) summary {
	s := summary{correct: len(cycles) > 0}
	if len(cycles) == 0 {
		s.problems = append(s.problems, "no cycle completed")
	}
	for _, c := range cycles {
		s.attempted += c.Attempted
		s.failed += c.Failed
		for _, p := range c.Problems {
			s.correct = false
			s.problems = append(s.problems, fmt.Sprintf("cycle seed %d: %s", c.Seed, p))
		}
	}
	if s.attempted < 1 {
		s.attempted = 1
		s.correct = false
		s.problems = append(s.problems, "no operation attempted")
	}
	return s
}

// endToEndMetrics reports the median of each end-to-end metric over the
// run's untraced cycles.
func endToEndMetrics(cycles []cycleResult) map[string]metricOut {
	out := make(map[string]metricOut)
	for _, m := range endToEnd {
		out[m.name] = metricOut{Value: medianOf(cycles, m.name, func(c cycleResult) map[string]float64 { return c.E2E }), Unit: m.unit}
	}
	return out
}

// layerMetrics reports the per-layer metrics: counters and wall timings from
// the untraced cycles, trace-derived figures from the traced ones. A
// workload whose deployment is always traced has no untraced baseline, so
// its tracing overhead is reported as 0 (not measurable).
func layerMetrics(untraced, traced []cycleResult, alwaysTraced bool) map[string]metricOut {
	out := make(map[string]metricOut)
	layer := func(c cycleResult) map[string]float64 { return c.Layer }
	for _, m := range perLayer {
		src := untraced
		if m.fromTrace {
			src = traced
		}
		out[m.name] = metricOut{Value: medianOf(src, m.name, layer), Unit: m.unit}
	}
	e2e := func(c cycleResult) map[string]float64 { return c.E2E }
	overhead := 0.0
	if tr := medianOf(traced, "cpu_commits_per_s", e2e); tr > 0 && !alwaysTraced {
		overhead = medianOf(untraced, "cpu_commits_per_s", e2e) / tr
	}
	out["obs.tracing_overhead"] = metricOut{Value: overhead, Unit: "ratio"}
	return out
}

func medianOf(cycles []cycleResult, name string, pick func(cycleResult) map[string]float64) float64 {
	var vs []float64
	for _, c := range cycles {
		if v, ok := pick(c)[name]; ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints the human-readable result lines that precede the JSON line.
func report(w io.Writer, cycles []cycleResult, metrics map[string]metricOut) {
	for _, c := range cycles {
		mode := "untraced"
		if c.Traced {
			mode = "traced"
		}
		fmt.Fprintf(w, "# cycle seed=%d %s: commits=%d attempted=%d failed=%d acked_lost=%d split_brain=%d p999_samples=%d cpu_commits_per_s=%.0f %s\n",
			c.Seed, mode, c.Commits, c.Attempted, c.Failed, c.Lost, c.SplitBrain, c.P999Samples, c.E2E["cpu_commits_per_s"], c.Note)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
