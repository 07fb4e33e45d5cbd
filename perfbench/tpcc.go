package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tpcc_plugpull: the paper's configuration — single-node RapiLog on one
// shared HDD, PG-like engine, TPC-C — under closed-loop load, then a plug
// pull, the hold-up dump, recovery with redo and a full audit.
const (
	tpccWarehouses = 4
	tpccClients    = 8
	// tpccServe is the virtual load interval before the cut: long enough for
	// the 1 s checkpoint cadence to put one checkpoint's I/O under load.
	tpccServe = 2 * time.Second
	// tpccDark is how long the machine stays unplugged: longer than any
	// hold-up window, so the dump has finished before power returns.
	tpccDark = 3 * time.Second
	// tpccTraceCap keeps every event of a traced cycle (about 0.67M).
	tpccTraceCap = 1 << 20
)

func runTPCC(c *cycle) error {
	b := c.spans.begin("build", c.root, 0, 0)
	r, err := rig.New(rig.Config{
		Seed:            c.seed,
		Mode:            rig.RapiLog,
		CheckpointEvery: time.Second,
		Trace:           c.traced,
		TraceCapacity:   tpccTraceCap,
	})
	c.spans.end(b, 0)
	if err != nil {
		return fmt.Errorf("rig.New: %w", err)
	}
	w := &workload.TPCC{Warehouses: tpccWarehouses}
	e, err := bootAndLoad(c, r.S, r.Plat.Domain(), r.Boot, w)
	if err != nil {
		return err
	}
	return plugPull(c, r, e, w)
}

// bootAndLoad boots the engine and loads the schema, timing both; the wall
// time from the start of the cycle to here is the set-up time.
func bootAndLoad(c *cycle, s *sim.Sim, dom *sim.Domain, boot func(*sim.Proc) (*engine.Engine, error), w workload.Workload) (*engine.Engine, error) {
	var e *engine.Engine
	var err error
	done := s.NewEvent("bench.setup")
	s.Spawn(dom, "bench.setup", func(p *sim.Proc) {
		defer done.Fire()
		sp := c.spans.begin("boot", c.root, 0, p.Now().Duration())
		e, err = boot(p)
		c.spans.end(sp, p.Now().Duration())
		if err != nil {
			err = fmt.Errorf("Rig.Boot: %w", err)
			return
		}
		sp = c.spans.begin("load", c.root, 0, p.Now().Duration())
		err = w.Load(p, e)
		c.spans.end(sp, p.Now().Duration())
		if err != nil {
			err = fmt.Errorf("Workload.Load: %w", err)
		}
	})
	if rerr := s.RunUntilEvent(done); rerr != nil {
		return nil, rerr
	}
	c.res.Layer["rig.build_s"] = c.spans.wall("build").Seconds()
	c.res.Layer["rig.boot_s"] = c.spans.wall("boot").Seconds()
	c.res.Layer["workload.load_s"] = c.spans.wall("load").Seconds()
	c.res.E2E["setup_s"] = (cpuTime() - c.cpu0).Seconds()
	return e, err
}

// closedLoop is a pool of clients with no think time. Each client issues one
// Workload.Do after another until stop; only operations acknowledged before
// stop count.
type closedLoop struct {
	lat      []time.Duration
	commits  int64
	aborted  int64
	failed   int64
	inflight int64
	// unfinished is how many operations were in flight at stop.
	unfinished int64
	stopped    bool
	stopAt     sim.Time
	firstErr   error
}

func startClosedLoop(c *cycle, s *sim.Sim, dom *sim.Domain, e *engine.Engine, w workload.Workload, j *workload.Journal, clients int, serve int) *closedLoop {
	l := &closedLoop{}
	var req int64
	for i := 0; i < clients; i++ {
		s.Spawn(dom, "bench.client", func(p *sim.Proc) {
			for !l.stopped {
				start := p.Now()
				req++
				op := c.spans.op(serve, req, start.Duration())
				l.inflight++
				err := w.Do(p, e, j)
				l.inflight--
				c.spans.end(op, p.Now().Duration())
				if l.stopped {
					return // acknowledged after the cut: not counted
				}
				switch {
				case err == nil:
					l.commits++
					l.lat = append(l.lat, p.Now().Sub(start))
				case errors.Is(err, engine.ErrDeadlock) || errors.Is(err, engine.ErrLockTimeout):
					// A deadlock victim, as OLTP clients see them: back off, go on.
					l.aborted++
					p.Sleep(time.Duration(100+s.Rand().Intn(900)) * time.Microsecond)
				default:
					l.failed++
					if l.firstErr == nil {
						l.firstErr = err
					}
				}
			}
		})
	}
	return l
}

// stop ends the load; operations still in flight count as unfinished.
func (l *closedLoop) stop(now sim.Time) {
	l.stopped = true
	l.stopAt = now
	l.unfinished = l.inflight
}

// tally records the load's outcome in the cycle.
func (l *closedLoop) tally(c *cycle, virtual time.Duration) {
	c.res.Commits = l.commits
	c.res.Attempted = l.commits + l.aborted + l.failed + l.unfinished
	c.res.Failed = l.failed
	c.res.E2E["commit_tps"] = float64(l.commits) / virtual.Seconds()
	c.res.Layer["workload.abort_ratio"] = ratio(float64(l.aborted+l.unfinished), float64(c.res.Attempted))
	c.res.Layer["workload.backlog_peak"] = float64(tpccClients)
	latencies(c, l.lat)
	if l.firstErr != nil {
		c.problem("Workload.Do: %d operations failed, first: %v", l.failed, l.firstErr)
	}
}

// plugPull serves the closed-loop load for tpccServe, pulls the plug,
// restores power, recovers, and audits every commit acknowledged before the
// cut.
func plugPull(c *cycle, r *rig.Rig, e *engine.Engine, w workload.Workload) error {
	s, reg := r.S, r.Obs.Registry()
	j := workload.NewJournal()
	serveStart := s.Now()
	serve := c.spans.begin("serve", c.root, 0, serveStart.Duration())
	before := takeProbe(s, reg)
	pool := readPool(e)
	l := startClosedLoop(c, s, r.Plat.Domain(), e, w, j, tpccClients, serve)

	var runErr error
	var acked int
	var vr workload.VerifyResult
	var redoMisses int64
	var cutAt time.Duration
	done := s.NewEvent("bench.audited")
	s.Spawn(nil, "bench.operator", func(p *sim.Proc) {
		defer done.Fire()
		p.Sleep(tpccServe)
		l.stop(p.Now())
		acked = j.Len()
		after := takeProbe(s, reg)
		c.spans.end(serve, p.Now().Duration())
		loadPhase(c, before, after, l.commits)
		poolPhase(c, e, pool)
		c.res.Layer["core.buffer_peak_over_bound"] = ratio(gaugePeak(reg.Snapshot(), "rapilog.occupancy"), float64(r.SafeBound()))

		cutAt = p.Now().Duration()
		sp := c.spans.begin("cut", c.root, 0, cutAt)
		r.CutPower()
		c.spans.end(sp, p.Now().Duration())
		p.Sleep(tpccDark)
		disk0 := counter(reg.Snapshot(), "disk0.reads")

		restored := p.Now()
		sp = c.spans.begin("recover", c.root, 0, restored.Duration())
		_, err := r.RecoverAfterPower(p)
		c.spans.end(sp, p.Now().Duration())
		c.res.Layer["core.dump_replay_s"] = p.Now().Sub(restored).Seconds()
		if err != nil {
			runErr = fmt.Errorf("Rig.RecoverAfterPower: %w", err)
			return
		}
		booted := s.NewEvent("bench.redo")
		s.Spawn(r.Plat.Domain(), "bench.redo", func(bp *sim.Proc) {
			defer booted.Fire()
			sp := c.spans.begin("redo_boot", c.root, 0, bp.Now().Duration())
			e2, err := r.Boot(bp)
			c.spans.end(sp, bp.Now().Duration())
			if err != nil {
				runErr = fmt.Errorf("Rig.Boot after power loss: %w", err)
				return
			}
			c.res.E2E["recovery_s"] = bp.Now().Sub(restored).Seconds()
			c.res.Layer["engine.redo_wall_s"] = c.spans.wall("redo_boot").Seconds()
			c.res.Layer["disk.recovery_reads"] = counter(reg.Snapshot(), "disk0.reads") - disk0
			redoMisses = e2.Store().Stats().Misses.Value()
			vr, runErr = audit(c, bp, e2, j, acked)
		})
		booted.Wait(p)
	})
	if err := s.RunUntilEvent(done); err != nil {
		return err
	}
	c.spans.end(c.root, s.Now().Duration())
	c.res.E2E["run_cpu_s"] = (cpuTime() - before.cpu).Seconds()
	c.res.Layer["bench.run_wall_s"] = time.Since(before.wall).Seconds()
	l.tally(c, l.stopAt.Sub(serveStart))
	c.res.Layer["pagestore.recovery_misses"] = float64(redoMisses)
	wholeRun(c, reg, before.gcs)
	traceFigures(c, r.Obs.Tracer(), 0)
	monitorVerdict(c, r.Monitor)
	if runErr != nil {
		return runErr
	}
	gateVerify(c, vr)
	if peak, bound := c.res.Layer["core.buffer_peak_bytes"], float64(r.SafeBound()); peak > bound {
		c.problem("RapiLog buffer peaked at %.0f bytes, above its safe bound %.0f", peak, bound)
	}
	c.res.Note += fmt.Sprintf(" acked_before_cut=%d recovery_s=%.3f", acked, c.res.E2E["recovery_s"])
	return nil
}

// audit checks the first n journaled obligations on a recovered engine; the
// journal may first receive the planted entry of the gate test.
func audit(c *cycle, p *sim.Proc, e *engine.Engine, j *workload.Journal, n int) (workload.VerifyResult, error) {
	if c.plant != nil {
		c.plant(j)
		n = j.Len()
	}
	sp := c.spans.begin("verify", c.root, 0, p.Now().Duration())
	vr, err := j.VerifyFirst(p, e, n)
	c.spans.end(sp, p.Now().Duration())
	if err != nil {
		return vr, fmt.Errorf("Journal.VerifyFirst: %w", err)
	}
	return vr, nil
}

// gateVerify turns an audit result into the cycle's loss counts and gate
// problems.
func gateVerify(c *cycle, vr workload.VerifyResult) {
	c.res.Lost = vr.Missing
	c.res.Failed += int64(vr.Missing + vr.Mismatched)
	c.res.Layer["workload.acked_lost"] = float64(vr.Missing)
	if !vr.Ok() {
		c.problem("acked_lost=%d mismatched=%d of %d audited (%s)", vr.Missing, vr.Mismatched, vr.Checked, vr.FirstBad)
	}
}

// monitorVerdict records the online invariant monitor's findings (traced
// deployments only) and fails the gate on any.
func monitorVerdict(c *cycle, m *obs.Monitor) {
	if m == nil {
		return
	}
	n := m.Total()
	c.res.Layer["obs.monitor_violations"] = float64(n)
	if n > 0 {
		c.problem("invariant monitor reported %d violations: %v", n, m.Report().ByKind)
	}
}
