package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stress_quorum_open: independent users committing one 1000 B row each, as
// a Poisson stream at a fixed ladder of rates, against RapiLog with two
// standbys and a quorum-of-one ack over the default link.
const (
	stressValue = 1000
	stressRung  = time.Second // virtual length of each rung but the reference
	// stressRef is the reference rung: below the knee, it gives the latency
	// metrics. It runs stressRefRung, so its 10 000 arrivals leave ten
	// samples beyond p99.9.
	stressRef     = 4000.0
	stressRefRung = 2500 * time.Millisecond
	// stressLimit is the p99.9 latency limit a rung must meet to count
	// towards commit_tps.
	stressLimit = 6 * time.Millisecond
	// The burst overloads the deployment after the ladder; the time its
	// backlog takes to drain is the workload's recovery_s.
	stressBurstRate = 16000.0
	stressBurst     = 500 * time.Millisecond
	// stressDrainCap bounds the wait for a rung's arrivals to finish.
	stressDrainCap = 30 * time.Second
	// stressTraceCap keeps every event of a traced cycle (about 0.4M).
	stressTraceCap = 1 << 19
)

// stressLadder holds the offered rates, in arrivals per virtual second.
var stressLadder = []float64{2000, 4000, 8000, 12000}

// rung is one fixed-rate stretch of the open loop.
type rung struct {
	rate      float64
	arrivals  int64
	errs      int64
	lat       []time.Duration // from when each arrival was due to its ack
	drained   bool
	drainTime time.Duration // window end → last arrival acked
	backlog   int64         // most arrivals outstanding at once
}

// openLoop generates Poisson arrivals and runs each as its own Workload.Do
// in the guest domain.
type openLoop struct {
	c       *cycle
	s       *sim.Sim
	dom     *sim.Domain
	e       *engine.Engine
	w       workload.Workload
	j       *workload.Journal
	sh      *replica.Shipper
	serve   int
	req     int64
	lastSeq uint64 // shipper sequence at the latest acknowledgement
}

// run offers rate arrivals per second for d, then waits for all of them.
func (o *openLoop) run(p *sim.Proc, rate float64, d time.Duration) *rung {
	rg := &rung{rate: rate}
	var outstanding int64
	drained := o.s.NewEvent("bench.drained")
	start := p.Now()
	end := start.Add(d)
	due := start
	for {
		gap := -math.Log(1-o.s.Rand().Float64()) / rate
		due = due.Add(time.Duration(gap * float64(time.Second)))
		if due >= end {
			break
		}
		p.Sleep(due.Sub(p.Now()))
		at := due
		rg.arrivals++
		outstanding++
		if outstanding > rg.backlog {
			rg.backlog = outstanding
		}
		o.req++
		req := o.req
		o.s.Spawn(o.dom, "bench.arrival", func(ap *sim.Proc) {
			op := o.c.spans.op(o.serve, req, at.Duration())
			err := o.w.Do(ap, o.e, o.j)
			o.c.spans.end(op, ap.Now().Duration())
			if err != nil {
				rg.errs++
			} else {
				rg.lat = append(rg.lat, ap.Now().Sub(at))
				if seq := o.sh.LastSeq(); seq > o.lastSeq {
					o.lastSeq = seq
				}
			}
			outstanding--
			if outstanding == 0 && ap.Now() >= end {
				drained.Fire()
			}
		})
	}
	p.Sleep(end.Sub(p.Now()))
	if outstanding > 0 {
		drained.WaitTimeout(p, stressDrainCap)
	}
	rg.drained = outstanding == 0
	rg.drainTime = p.Now().Sub(end)
	return rg
}

// p999 returns the rung's exact 99.9th percentile latency.
func (rg *rung) p999() time.Duration {
	if len(rg.lat) == 0 {
		return 0
	}
	return quantile(sorted(rg.lat), 0.999)
}

func runStress(c *cycle) error {
	b := c.spans.begin("build", c.root, 0, 0)
	r, err := rig.New(rig.Config{
		Seed:          c.seed,
		Mode:          rig.RapiLogReplica,
		Replicas:      2,
		AckPolicy:     core.AckQuorum(1),
		Trace:         c.traced,
		TraceCapacity: stressTraceCap,
	})
	c.spans.end(b, 0)
	if err != nil {
		return fmt.Errorf("rig.New: %w", err)
	}
	w := &workload.Stress{ValueSize: stressValue}
	e, err := bootAndLoad(c, r.S, r.Plat.Domain(), r.Boot, w)
	if err != nil {
		return err
	}
	s, reg := r.S, r.Obs.Registry()
	j := workload.NewJournal()
	before := takeProbe(s, reg)
	pool := readPool(e)
	o := &openLoop{c: c, s: s, dom: r.Plat.Domain(), e: e, w: w, j: j, sh: r.Shipper}
	o.serve = c.spans.begin("serve", c.root, 0, s.Now().Duration())

	var rungs []*rung
	var burst *rung
	var vr workload.VerifyResult
	var runErr error
	done := s.NewEvent("bench.audited")
	s.Spawn(nil, "bench.generator", func(p *sim.Proc) {
		defer done.Fire()
		for _, rate := range stressLadder {
			d := stressRung
			if rate == stressRef {
				d = stressRefRung
			}
			rungs = append(rungs, o.run(p, rate, d))
		}
		burst = o.run(p, stressBurstRate, stressBurst)
		c.spans.end(o.serve, p.Now().Duration())
		loadPhase(c, before, takeProbe(s, reg), int64(j.Len()))
		poolPhase(c, e, pool)
		verified := s.NewEvent("bench.verified")
		s.Spawn(r.Plat.Domain(), "bench.verify", func(vp *sim.Proc) {
			defer verified.Fire()
			vr, runErr = audit(c, vp, e, j, j.Len())
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
	c.res.Layer["core.buffer_peak_over_bound"] = ratio(c.res.Layer["core.buffer_peak_bytes"], float64(r.SafeBound()))
	traceFigures(c, r.Obs.Tracer(), 0)
	monitorVerdict(c, r.Monitor)
	if runErr != nil {
		return runErr
	}
	tallyOpenLoop(c, rungs, burst)
	gateVerify(c, vr)
	if q := r.Shipper.QuorumSeq(1); q < o.lastSeq {
		c.problem("quorum watermark %d does not cover the last acknowledged record %d", q, o.lastSeq)
	}
	return nil
}

// tallyOpenLoop turns the ladder into the cycle's metrics. commit_tps is the
// highest rung whose p99.9 meets the limit with every arrival done; latency
// and abort ratio are read at the reference rung; recovery_s is the burst's
// drain time. Rungs above the knee are how commit_tps is found, so their
// misses are not failures; an arrival that errored is.
func tallyOpenLoop(c *cycle, rungs []*rung, burst *rung) {
	var notes []string
	slo := 0.0
	for _, rg := range append(rungs, burst) {
		c.res.Attempted += rg.arrivals
		c.res.Commits += int64(len(rg.lat))
		c.res.Failed += rg.errs
		if rg.errs > 0 {
			c.problem("%d of %d arrivals at %.0f/s failed", rg.errs, rg.arrivals, rg.rate)
		}
		if !rg.drained {
			c.problem("arrivals at %.0f/s still outstanding %v after the window", rg.rate, stressDrainCap)
		}
		p := rg.p999()
		notes = append(notes, fmt.Sprintf("%.0f/s:p999=%v", rg.rate, p.Round(time.Microsecond)))
		if rg != burst && rg.drained && rg.errs == 0 && p <= stressLimit && rg.rate > slo {
			slo = rg.rate
		}
		if rg.rate == stressRef && rg != burst {
			latencies(c, rg.lat)
			c.res.Layer["workload.abort_ratio"] = ratio(float64(rg.arrivals-int64(len(rg.lat))), float64(rg.arrivals))
		}
		if rg != burst && float64(rg.backlog) > c.res.Layer["workload.backlog_peak"] {
			c.res.Layer["workload.backlog_peak"] = float64(rg.backlog)
		}
	}
	c.res.E2E["commit_tps"] = slo
	c.res.E2E["recovery_s"] = burst.drainTime.Seconds()
	c.res.Note += fmt.Sprintf(" slo_tps=%.0f limit=%v burst_drain_s=%.4f %s", slo, stressLimit, burst.drainTime.Seconds(), strings.Join(notes, " "))
}
