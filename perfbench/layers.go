package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// walBlockBytes is the WAL's block size (the wal package default): the unit
// of bytes a guest submits to its log device.
const walBlockBytes = 4096

// matches reports whether a registry name is the instrument named by suffix,
// either at the root or under a cluster node's prefix ("node1.engine.commits").
func matches(name, suffix string) bool {
	return name == suffix || strings.HasSuffix(name, "."+suffix)
}

// counter sums every counter named by suffix in a snapshot.
func counter(s obs.Snapshot, suffix string) float64 {
	var v int64
	for n, c := range s.Counters {
		if matches(n, suffix) {
			v += c
		}
	}
	return float64(v)
}

// gaugePeak is the highest peak of any gauge named by suffix.
func gaugePeak(s obs.Snapshot, suffix string) float64 {
	var v int64
	for n, g := range s.Gauges {
		if matches(n, suffix) && g.Peak > v {
			v = g.Peak
		}
	}
	return float64(v)
}

// p999us merges every histogram of snapshot s whose name starts with prefix
// (or has it after a node prefix) and ends with suffix, and returns its
// 99.9th percentile in microseconds.
func p999us(reg *obs.Registry, s obs.Snapshot, prefix, suffix string) float64 {
	h := metrics.NewHistogram("merged")
	for n := range s.Histograms {
		if strings.HasSuffix(n, suffix) && (strings.HasPrefix(n, prefix) || strings.Contains(n, "."+prefix)) {
			h.Merge(reg.Histogram(n))
		}
	}
	return us(h.Quantile(0.999))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe is a reading of the process and simulator counters at one instant,
// so a phase's cost can be taken as the difference of two probes.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	events  uint64
	mallocs uint64
	gcs     uint32
	snap    obs.Snapshot
}

func takeProbe(s *sim.Sim, reg *obs.Registry) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{cpu: cpuTime(), wall: time.Now(), events: s.Dispatched(), mallocs: ms.Mallocs, gcs: ms.NumGC, snap: reg.Snapshot()}
}

// cpuTime is the CPU time this process has used. The benchmark's bounded
// cost metrics use it rather than wall time: on a virtual machine, time the
// host steals from the guest stretches wall time by tens of percent from
// one minute to the next, and process CPU time leaves it out.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadPhase records the per-commit layer costs of the load phase between two
// probes, and the commit rate per CPU and per wall second.
func loadPhase(c *cycle, a, b probe, commits int64) {
	l := c.res.Layer
	n := float64(commits)
	d := func(name string) float64 { return counter(b.snap, name) - counter(a.snap, name) }
	cpu := (b.cpu - a.cpu).Seconds()
	c.res.E2E["cpu_commits_per_s"] = ratio(n, cpu)
	l["bench.wall_commits_per_s"] = ratio(n, b.wall.Sub(a.wall).Seconds())
	l["sim.events_per_commit"] = ratio(float64(b.events-a.events), n)
	l["sim.events_per_cpu_s"] = ratio(float64(b.events-a.events), cpu)
	l["runtime.allocs_per_commit"] = ratio(float64(b.mallocs-a.mallocs), n)
	l["engine.ops_per_commit"] = ratio(d("engine.reads")+d("engine.writes"), n)
	l["wal.forces_per_commit"] = ratio(d("wal.forces"), n)
	l["wal.piggyback_ratio"] = ratio(d("wal.force_waits"), d("wal.forces")+d("wal.force_waits"))
	l["wal.blocks_per_commit"] = ratio(d("wal.blocks_written"), n)
	l["core.throttled_ratio"] = ratio(d("rapilog.throttled"), d("rapilog.writes"))
	l["core.absorbed_ratio"] = ratio(d("rapilog.absorbed"), d("rapilog.writes"))
	l["disk.sectors_written_per_user_byte"] = ratio(d("disk0.sectors_written"), d("wal.blocks_written")*walBlockBytes)
	l["disk.flushes_per_commit"] = ratio(d("disk0.flushes"), n)
	l["hv.exits_per_commit"] = ratio(d("hv.exits"), n)
	l["netsim.msgs_per_commit"] = ratio(d("net.sent"), n)
	l["netsim.bytes_per_commit"] = ratio(d("repl.shipped_bytes"), n)
	l["replica.resend_ratio"] = ratio(d("repl.resends"), d("repl.shipped"))
}

// wholeRun records the layer figures read once, after the cycle: latency
// tails, high-water marks and recovery counters.
func wholeRun(c *cycle, reg *obs.Registry, gcs uint32) {
	l := c.res.Layer
	s := reg.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["runtime.gc_cycles"] = float64(ms.NumGC - gcs)
	l["engine.commit_ack_p999_us"] = p999us(reg, s, "engine.", "commit.ack_latency")
	l["engine.durable_lag_p999_us"] = p999us(reg, s, "engine.", "commit.durable_latency")
	l["engine.redone_txns"] = counter(s, "engine.redone_txns")
	l["wal.force_p999_us"] = p999us(reg, s, "wal.", "force_latency")
	l["core.ack_p999_us"] = p999us(reg, s, "rapilog.", "ack_latency")
	l["core.quorum_wait_p999_us"] = p999us(reg, s, "rapilog.", "quorum_wait")
	l["core.buffer_peak_bytes"] = gaugePeak(s, "rapilog.occupancy")
	l["core.dump_bytes"] = counter(s, "rapilog.dumped_bytes")
	l["disk.write_p999_us"] = p999us(reg, s, "disk0.", "write_latency")
	l["disk.read_p999_us"] = p999us(reg, s, "disk0.", "read_latency")
	l["netsim.inflight_peak_bytes"] = gaugePeak(s, "net.inflight_bytes")
	l["replica.ack_p999_us"] = p999us(reg, s, "repl.", ".ack_latency")
	l["replica.lag_peak"] = gaugePeak(s, "repl.lag")
	l["replica.retained_peak_bytes"] = gaugePeak(s, "repl.retained_bytes")
	l["ha.promote_replay_bytes"] = counter(s, "ha.promote_replay_bytes")
	l["ha.redirects"] = counter(s, "ha.redirects")
}

// traceFigures records what only a retained trace can give: the commit
// critical path and (for HA) the takeover phases after cutAt.
func traceFigures(c *cycle, tr *obs.Tracer, cutAt time.Duration) {
	if !c.traced {
		return
	}
	l := c.res.Layer
	l["obs.trace_dropped"] = float64(tr.Dropped())
	c.res.Note += fmt.Sprintf(" trace_events=%d", tr.Emitted())
	a, err := obs.Analyze(tr.Dump(), 0)
	if err != nil {
		c.problem("trace analysis: %v", err)
		return
	}
	cp := a.Critical
	l["engine.pre_force_p50_us"] = us(cp.PreForce.Quantile(0.5))
	l["core.local_force_p50_us"] = us(cp.LocalForce.Quantile(0.5))
	l["replica.quorum_barrier_p50_us"] = us(cp.QuorumBarrier.Quantile(0.5))
	l["engine.post_force_p50_us"] = us(cp.PostForce.Quantile(0.5))
	if cutAt == 0 {
		return
	}
	first := map[obs.Kind]time.Duration{}
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.EvElect, obs.EvFence, obs.EvPromote:
			if _, ok := first[e.Kind]; !ok && e.At >= cutAt {
				first[e.Kind] = e.At
			}
		}
	}
	l["ha.detect_s"] = (first[obs.EvElect] - cutAt).Seconds()
	l["ha.fence_s"] = (first[obs.EvFence] - first[obs.EvElect]).Seconds()
	l["ha.promote_s"] = (first[obs.EvPromote] - first[obs.EvFence]).Seconds()
}

// poolReading is the buffer pool's counters at one instant.
type poolReading struct{ hits, misses, evictions int64 }

func readPool(e *engine.Engine) poolReading {
	st := e.Store().Stats()
	return poolReading{st.Hits.Value(), st.Misses.Value(), st.Evictions.Value()}
}

// poolPhase records the buffer pool's behaviour since reading a.
func poolPhase(c *cycle, e *engine.Engine, a poolReading) {
	b := readPool(e)
	hits, misses := float64(b.hits-a.hits), float64(b.misses-a.misses)
	c.res.Layer["pagestore.hit_ratio"] = ratio(hits, hits+misses)
	c.res.Layer["pagestore.evictions"] = float64(b.evictions - a.evictions)
	c.res.Layer["pagestore.checkpoints"] = float64(e.Store().Stats().Checkpoints.Value())
}
