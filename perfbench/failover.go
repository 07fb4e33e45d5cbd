package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// failover_plugpull: a 3-node HA cluster under redirect-aware sessions; the
// leader's plug is pulled after a fixed interval, a standby is fenced and
// promoted (WAL redo), load continues for a fixed interval on the new
// leader, and every acknowledged operation of both generations is audited
// on it.
const (
	failoverNodes    = 3
	failoverClients  = 4
	failoverValue    = 1000
	failoverPre      = 2 * time.Second // load before the cut
	failoverPost     = time.Second     // load after the first commit on the new leader
	failoverDeadline = 2 * time.Minute // longest takeover the cycle waits for
	failoverTraceCap = 1 << 18         // every event of a traced cycle (about 0.14M)
)

var errStopped = errors.New("perfbench: load stopped")

// attempts wraps the sessions' workload to time every attempt the sessions
// make against a leader: the exact per-commit latency, and the attempts a
// dying leader took with it.
type attempts struct {
	c       *cycle
	w       workload.Workload
	serve   int
	req     int64
	stopped bool
	started int64
	lat     []time.Duration
}

func (a *attempts) Name() string                             { return a.w.Name() }
func (a *attempts) Load(p *sim.Proc, e *engine.Engine) error { return a.w.Load(p, e) }
func (a *attempts) Do(p *sim.Proc, e *engine.Engine, j *workload.Journal) error {
	if a.stopped {
		return errStopped
	}
	a.started++
	a.req++
	start := p.Now()
	op := a.c.spans.op(a.serve, a.req, start.Duration())
	// Deferred so an attempt killed with its leader still closes its span.
	defer func() { a.c.spans.end(op, p.Now().Duration()) }()
	err := a.w.Do(p, e, j)
	if err == nil && !a.stopped {
		a.lat = append(a.lat, p.Now().Sub(start))
	}
	return err
}

func runFailover(c *cycle) error {
	traceCap := 0 // the cluster's default ring: tracing is always on
	if c.traced {
		traceCap = failoverTraceCap
	}
	b := c.spans.begin("build", c.root, 0, 0)
	cl, err := rig.NewCluster(rig.ClusterConfig{
		Nodes: failoverNodes,
		Rig:   rig.Config{Seed: c.seed, AckPolicy: core.AckQuorum(1), TraceCapacity: traceCap},
	})
	c.spans.end(b, 0)
	if err != nil {
		return fmt.Errorf("rig.NewCluster: %w", err)
	}
	s, reg := cl.S, cl.Obs.Registry()
	leader := cl.LeaderRig()
	w := &workload.Stress{ValueSize: failoverValue}
	e, err := bootAndLoad(c, s, leader.Plat.Domain(), leader.Boot, w)
	if err != nil {
		return err
	}
	dir := workload.NewDirectory()
	dir.Update(1, cl.LeaderName(), e, leader.Plat.Domain())
	var promotedWall time.Time
	var redoMisses int64
	cl.OnPromote = func(gen int, name string, pe *engine.Engine, dom *sim.Domain) {
		if gen == 2 {
			promotedWall = time.Now()
			redoMisses = pe.Store().Stats().Misses.Value()
		}
		dir.Update(gen, name, pe, dom)
	}

	j := workload.NewJournal()
	a := &attempts{c: c, w: w}
	serveStart := s.Now()
	a.serve = c.spans.begin("serve", c.root, 0, serveStart.Duration())
	before := takeProbe(s, reg)
	pool := readPool(e)
	s.Spawn(nil, "bench.sessions", func(p *sim.Proc) {
		// The cycle ends at the audit, long before this duration; the child
		// process exit reclaims the sessions.
		workload.RunSessions(p, dir, a, workload.SessionConfig{
			Clients: failoverClients, Duration: time.Hour, Journal: j,
			Reg: reg, Trace: cl.Obs.Tracer(),
		})
	})

	var runErr error
	var vr workload.VerifyResult
	var cutAt, takeover, stopAt time.Duration
	var cutWall time.Time
	done := s.NewEvent("bench.audited")
	s.Spawn(nil, "bench.operator", func(p *sim.Proc) {
		defer done.Fire()
		p.Sleep(failoverPre)
		poolPhase(c, e, pool)
		c.res.Layer["core.buffer_peak_over_bound"] = ratio(gaugePeak(reg.Snapshot(), "rapilog.occupancy"), float64(leader.SafeBound()))
		disk0 := counter(reg.Snapshot(), "disk0.reads")

		cutAt, cutWall = p.Now().Duration(), time.Now()
		sp := c.spans.begin("cut", c.root, 0, cutAt)
		cl.CutLeaderPower()
		c.spans.end(sp, p.Now().Duration())
		sp = c.spans.begin("takeover", c.root, 0, cutAt)
		for deadline := p.Now().Add(failoverDeadline); p.Now() < deadline; p.Sleep(10 * time.Millisecond) {
			if first, ok := dir.FirstSuccess(2); ok {
				takeover = first - cutAt
				break
			}
		}
		c.spans.end(sp, p.Now().Duration())
		if takeover == 0 {
			runErr = fmt.Errorf("no commit on a promoted leader within %v (failovers %d, last error %v)",
				failoverDeadline, cl.Coord.Failovers(), cl.Coord.LastErr())
			return
		}
		c.res.Layer["disk.recovery_reads"] = counter(reg.Snapshot(), "disk0.reads") - disk0
		p.Sleep(cutAt + takeover + failoverPost - p.Now().Duration())
		a.stopped, stopAt = true, p.Now().Duration()
		loadPhase(c, before, takeProbe(s, reg), int64(len(a.lat)))
		c.spans.end(a.serve, p.Now().Duration())

		ld := dir.Leader()
		verified := s.NewEvent("bench.verified")
		s.Spawn(ld.Dom, "bench.verify", func(vp *sim.Proc) {
			defer verified.Fire()
			vr, runErr = audit(c, vp, ld.Eng, j, j.Len())
		})
		verified.Wait(p)
	})
	if err := s.RunUntilEvent(done); err != nil {
		return err
	}
	c.spans.end(c.root, s.Now().Duration())
	c.res.E2E["run_cpu_s"] = (cpuTime() - before.cpu).Seconds()
	c.res.Layer["bench.run_wall_s"] = time.Since(before.wall).Seconds()
	wholeRun(c, reg, before.gcs)
	traceFigures(c, cl.Obs.Tracer(), cutAt)
	monitorVerdict(c, cl.Monitor)
	if runErr != nil {
		return runErr
	}
	gateVerify(c, vr)

	c.res.Commits = int64(len(a.lat))
	c.res.Attempted = a.started
	served := cutAt - serveStart.Duration() + stopAt - (cutAt + takeover)
	c.res.E2E["commit_tps"] = float64(c.res.Commits) / served.Seconds()
	c.res.E2E["recovery_s"] = takeover.Seconds()
	c.res.Layer["engine.redo_wall_s"] = promotedWall.Sub(cutWall).Seconds()
	c.res.Layer["pagestore.recovery_misses"] = float64(redoMisses)
	c.res.Layer["workload.abort_ratio"] = ratio(float64(a.started-int64(len(a.lat))), float64(a.started))
	c.res.Layer["workload.backlog_peak"] = failoverClients
	latencies(c, a.lat)
	if n := cl.Coord.Failovers(); n != 1 {
		c.problem("%d failovers, want exactly 1", n)
	}
	if cl.Monitor != nil {
		c.res.SplitBrain = cl.Monitor.Report().ByKind["single_writer_epoch"]
	}
	c.res.Layer["ha.split_brain"] = float64(c.res.SplitBrain)
	c.res.Note += fmt.Sprintf(" takeover_s=%.3f replayed_bytes=%d", takeover.Seconds(), cl.LastReplay.Bytes)
	return nil
}
