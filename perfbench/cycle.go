package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/workload"
)

// metricDef names one reported metric. fromTrace marks per-layer metrics
// that only a traced cycle can produce.
type metricDef struct {
	name, unit string
	fromTrace  bool
}

// endToEnd is what a user of the deployment sees; every workload reports
// every one of them (RATIONALE.md gives each workload's reading).
var endToEnd = []metricDef{
	{name: "commit_tps", unit: "1/s"},
	{name: "commit_p50_us", unit: "us"},
	{name: "commit_p999_us", unit: "us"},
	{name: "recovery_s", unit: "s"},
	{name: "cpu_commits_per_s", unit: "1/s"},
	{name: "run_cpu_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "heap_peak_mib", unit: "MiB"},
}

// perLayer lists the single-layer metrics, in module order. A layer a
// workload bypasses reports 0. obs.tracing_overhead is added by
// layerMetrics.
var perLayer = []metricDef{
	{name: "sim.events_per_commit", unit: "count"},
	{name: "sim.events_per_cpu_s", unit: "1/s"},
	{name: "runtime.allocs_per_commit", unit: "count"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "engine.ops_per_commit", unit: "count"},
	{name: "engine.commit_ack_p999_us", unit: "us"},
	{name: "engine.durable_lag_p999_us", unit: "us"},
	{name: "engine.redone_txns", unit: "count"},
	{name: "engine.redo_wall_s", unit: "s"},
	{name: "pagestore.hit_ratio", unit: "ratio"},
	{name: "pagestore.evictions", unit: "count"},
	{name: "pagestore.checkpoints", unit: "count"},
	{name: "pagestore.recovery_misses", unit: "count"},
	{name: "wal.forces_per_commit", unit: "count"},
	{name: "wal.piggyback_ratio", unit: "ratio"},
	{name: "wal.force_p999_us", unit: "us"},
	{name: "wal.blocks_per_commit", unit: "count"},
	{name: "core.ack_p999_us", unit: "us"},
	{name: "core.throttled_ratio", unit: "ratio"},
	{name: "core.absorbed_ratio", unit: "ratio"},
	{name: "core.quorum_wait_p999_us", unit: "us"},
	{name: "core.buffer_peak_bytes", unit: "bytes"},
	{name: "core.buffer_peak_over_bound", unit: "ratio"},
	{name: "core.dump_bytes", unit: "bytes"},
	{name: "core.dump_replay_s", unit: "s"},
	{name: "disk.sectors_written_per_user_byte", unit: "ratio"},
	{name: "disk.write_p999_us", unit: "us"},
	{name: "disk.flushes_per_commit", unit: "count"},
	{name: "disk.recovery_reads", unit: "count"},
	{name: "disk.read_p999_us", unit: "us"},
	{name: "hv.exits_per_commit", unit: "count"},
	{name: "netsim.msgs_per_commit", unit: "count"},
	{name: "netsim.bytes_per_commit", unit: "bytes"},
	{name: "netsim.inflight_peak_bytes", unit: "bytes"},
	{name: "replica.ack_p999_us", unit: "us"},
	{name: "replica.resend_ratio", unit: "ratio"},
	{name: "replica.lag_peak", unit: "count"},
	{name: "replica.retained_peak_bytes", unit: "bytes"},
	{name: "ha.detect_s", unit: "s", fromTrace: true},
	{name: "ha.fence_s", unit: "s", fromTrace: true},
	{name: "ha.promote_s", unit: "s", fromTrace: true},
	{name: "ha.promote_replay_bytes", unit: "bytes"},
	{name: "ha.redirects", unit: "count"},
	{name: "ha.split_brain", unit: "count"},
	{name: "workload.backlog_peak", unit: "count"},
	{name: "workload.abort_ratio", unit: "ratio"},
	{name: "workload.acked_lost", unit: "count"},
	{name: "workload.load_s", unit: "s"},
	{name: "rig.build_s", unit: "s"},
	{name: "rig.boot_s", unit: "s"},
	{name: "bench.wall_commits_per_s", unit: "1/s"},
	{name: "bench.run_wall_s", unit: "s"},
	{name: "engine.pre_force_p50_us", unit: "us", fromTrace: true},
	{name: "core.local_force_p50_us", unit: "us", fromTrace: true},
	{name: "replica.quorum_barrier_p50_us", unit: "us", fromTrace: true},
	{name: "engine.post_force_p50_us", unit: "us", fromTrace: true},
	{name: "obs.trace_dropped", unit: "count", fromTrace: true},
	{name: "obs.monitor_violations", unit: "count", fromTrace: true},
	{name: "span.cycle.self_wall_s", unit: "s", fromTrace: true},
	{name: "span.serve.self_wall_s", unit: "s", fromTrace: true},
	{name: "span.op.self_virtual_s", unit: "s", fromTrace: true},
	{name: "span.recover.self_wall_s", unit: "s", fromTrace: true},
	{name: "span.verify.self_wall_s", unit: "s", fromTrace: true},
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(c *cycle) error
	// alwaysTraced: the deployment cannot run with its tracer off, so the
	// workload has no untraced baseline for the tracing overhead.
	alwaysTraced bool
}

var workloads = map[string]*workloadDef{
	"tpcc_plugpull":      {name: "tpcc_plugpull", run: runTPCC},
	"stress_quorum_open": {name: "stress_quorum_open", run: runStress},
	"failover_plugpull":  {name: "failover_plugpull", run: runFailover, alwaysTraced: true},
}

// cycleResult is one cycle's outcome, passed from the child process to the
// parent as JSON.
type cycleResult struct {
	Seed        int64
	Traced      bool
	Commits     int64
	Attempted   int64
	Failed      int64
	Lost        int
	SplitBrain  int
	P999Samples int
	Note        string
	Problems    []string
	E2E         map[string]float64
	Layer       map[string]float64
}

// cycle is the state of one load→fault→recover→audit cycle.
type cycle struct {
	seed   int64
	traced bool
	res    cycleResult
	spans  *recorder
	// root is the cycle's span; a workload closes it when its simulation
	// ends, before reading results.
	root int
	// cpu0 is the process CPU time when the cycle started.
	cpu0 time.Duration
	// plant, when set, runs on the journal just before the audit; the gate
	// test uses it to plant an entry that was never committed.
	plant func(*workload.Journal)
}

func (c *cycle) problem(format string, args ...any) {
	c.res.Problems = append(c.res.Problems, fmt.Sprintf(format, args...))
}

// runCycle runs one cycle of wl in this process.
func runCycle(wl *workloadDef, seed int64, traced bool, plant func(*workload.Journal)) cycleResult {
	runtime.GC()
	c := &cycle{
		seed:   seed,
		traced: traced,
		res:    cycleResult{Seed: seed, Traced: traced, E2E: map[string]float64{}, Layer: map[string]float64{}},
		spans:  newRecorder(traced),
		plant:  plant,
	}
	heap := startHeapSampler()
	c.cpu0 = cpuTime()
	c.root = c.spans.begin("cycle", 0, 0, 0)
	err := wl.run(c)
	c.res.E2E["heap_peak_mib"] = float64(heap.stop()) / (1 << 20)
	if err != nil {
		c.problem("%v", err)
	}
	if traced {
		for name, s := range c.spans.selfTimes() {
			c.res.Layer["span."+name+".self_wall_s"] = s.wall.Seconds()
			c.res.Layer["span."+name+".self_virtual_s"] = s.virtual.Seconds()
		}
		if err := c.spans.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", wl.name, seed))); err != nil {
			c.problem("writing spans: %v", err)
		}
	}
	return c.res
}

// latencies records the exact median and 99.9th percentile of per-commit
// virtual latencies.
func latencies(c *cycle, lat []time.Duration) {
	if len(lat) == 0 {
		c.problem("no commit latency recorded")
		return
	}
	s := sorted(lat)
	c.res.E2E["commit_p50_us"] = us(quantile(s, 0.5))
	c.res.E2E["commit_p999_us"] = us(quantile(s, 0.999))
	c.res.P999Samples = len(s)
}

func sorted(lat []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile of a sorted, non-empty sample.
func quantile(s []time.Duration, q float64) time.Duration { return s[int(q*float64(len(s)-1))] }

// heapSampler tracks the peak of live heap objects while a cycle runs.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// span is one benchmark-side call into a layer: its name, virtual and wall
// start/end, the span that caused it, and the request it serves.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	VStart int64  `json:"v_start_ns"`
	VEnd   int64  `json:"v_end_ns"`
	WStart int64  `json:"w_start_ns"`
	WEnd   int64  `json:"w_end_ns"`
}

// recorder keeps a cycle's spans in memory. Phase spans are always kept
// (their wall durations feed the set-up metrics); per-operation spans only
// in traced cycles.
type recorder struct {
	traced bool
	t0     time.Time
	spans  []span
}

func newRecorder(traced bool) *recorder { return &recorder{traced: traced, t0: time.Now()} }

// begin opens a span at virtual time v and returns its id.
func (r *recorder) begin(name string, parent int, req int64, v time.Duration) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		VStart: int64(v), WStart: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id at virtual time v; id 0 (an unrecorded op) is a no-op.
func (r *recorder) end(id int, v time.Duration) {
	if id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.VEnd, s.WEnd = int64(v), int64(time.Since(r.t0))
}

// op opens a per-operation span in traced cycles only (0 otherwise).
func (r *recorder) op(parent int, req int64, v time.Duration) int {
	if !r.traced {
		return 0
	}
	return r.begin("op", parent, req, v)
}

// wall returns the wall duration of the first span with the given name.
func (r *recorder) wall(name string) time.Duration {
	for _, s := range r.spans {
		if s.Name == name {
			return time.Duration(s.WEnd - s.WStart)
		}
	}
	return 0
}

type selfTime struct{ wall, virtual time.Duration }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]selfTime {
	// A span that never ended belongs to an operation the fault killed; it
	// has no duration to attribute.
	var ended []span
	for _, s := range r.spans {
		if s.WEnd != 0 {
			ended = append(ended, s)
		}
	}
	kids := make(map[int][]span)
	for _, s := range ended {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]selfTime)
	for _, s := range ended {
		st := out[s.Name]
		st.wall += time.Duration(s.WEnd-s.WStart) - covered(s.WStart, s.WEnd, kids[s.ID], func(k span) (int64, int64) { return k.WStart, k.WEnd })
		st.virtual += time.Duration(s.VEnd-s.VStart) - covered(s.VStart, s.VEnd, kids[s.ID], func(k span) (int64, int64) { return k.VStart, k.VEnd })
		out[s.Name] = st
	}
	return out
}

// covered measures the union of the children's intervals inside [lo, hi].
func covered(lo, hi int64, kids []span, iv func(span) (int64, int64)) time.Duration {
	type seg struct{ a, b int64 }
	var segs []seg
	for _, k := range kids {
		a, b := iv(k)
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			segs = append(segs, seg{a, b})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].a < segs[j].a })
	var total, end int64
	end = lo
	for _, g := range segs {
		if g.a > end {
			end = g.a
		}
		if g.b > end {
			total += g.b - end
			end = g.b
		}
	}
	return time.Duration(total)
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
