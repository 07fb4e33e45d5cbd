package faultinject

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rig"
)

func TestFailoverConfigValidation(t *testing.T) {
	if sum := RunFailoverCampaign(FailoverConfig{Fault: "no-such-fault", Trials: 1}); sum.Errors != 1 {
		t.Fatalf("unknown fault accepted: %+v", sum)
	}
	bad := FailoverConfig{Fault: LeaderPowerCut, Trials: 1, SessionFor: time.Second, InjectAfterMax: 2 * time.Second}
	if sum := RunFailoverCampaign(bad); sum.Errors != 1 {
		t.Fatal("session window inside inject window accepted")
	}
}

func failoverBase(fault FailoverFault, trials int) FailoverConfig {
	return FailoverConfig{
		Cluster: rig.ClusterConfig{
			Nodes: 3,
			Rig:   rig.Config{Seed: 1234, AckPolicy: core.AckQuorum(1)},
		},
		Fault:      fault,
		Trials:     trials,
		Clients:    4,
		SessionFor: 45 * time.Second,
	}
}

// requireClean asserts a campaign's acceptance criteria: zero acked-quorum
// loss, zero split-brain, every trial a single complete takeover.
func requireClean(t *testing.T, sum FailoverSummary) {
	t.Helper()
	t.Log(sum.String())
	if sum.Errors > 0 {
		for _, tr := range sum.Trials {
			if tr.Err != nil {
				t.Fatalf("trial seed %d: %v", tr.Seed, tr.Err)
			}
		}
	}
	if sum.TotalAcked == 0 {
		t.Fatal("campaign acked nothing — proves nothing")
	}
	if sum.Violations != 0 || sum.TotalLost != 0 {
		t.Fatalf("acked-quorum loss: %s", sum)
	}
	if sum.SplitBrains != 0 {
		t.Fatalf("split-brain detected: %s", sum)
	}
	if sum.Incomplete != 0 {
		t.Fatalf("incomplete takeovers: %s", sum)
	}
	if sum.UnavailPercentile(0.5) == 0 {
		t.Fatal("no unavailability windows measured")
	}
}

func TestFailoverCampaignPowerCut(t *testing.T) {
	requireClean(t, RunFailoverCampaign(failoverBase(LeaderPowerCut, 2)))
}

func TestFailoverCampaignIsolation(t *testing.T) {
	requireClean(t, RunFailoverCampaign(failoverBase(LeaderIsolation, 2)))
}

func TestFailoverCampaignComposed(t *testing.T) {
	requireClean(t, RunFailoverCampaign(failoverBase(CoordAndLeader, 2)))
}

// TestFailoverTrialForensics checks that a traced trial captures the full
// artifact set and the ha.* counters move.
func TestFailoverTrialForensics(t *testing.T) {
	cfg := failoverBase(LeaderIsolation, 1)
	cfg.applyDefaults()
	res := RunFailoverTrial(cfg, 77)
	if !res.Ok() {
		t.Fatalf("trial not clean: %+v err=%v", res, res.Err)
	}
	if res.Artifacts == nil || res.Artifacts.Trace == nil || res.Artifacts.Metrics == nil ||
		res.Artifacts.Monitor == nil || res.Artifacts.Flight == nil {
		t.Fatalf("artifact capture incomplete: %+v", res.Artifacts)
	}
	if res.Redirects == 0 {
		t.Fatal("no session ever redirected to the promoted leader")
	}
	// An isolated-then-healed leader retransmits its deposed epoch into
	// fenced stores: those must surface as fencing rejections.
	if res.FenceRejections == 0 {
		t.Fatal("healed deposed leader produced no fencing rejections")
	}
	if res.ReplayBytes == 0 || res.ReplayEntries == 0 {
		t.Fatalf("promotion replayed nothing: %+v", res)
	}
}

// TestFailoverSummaryKeepsMonitorViolation: a trial whose monitor fired an
// invariant other than split-brain is counted, and its artifacts stay
// pinned over a later clean trial's.
func TestFailoverSummaryKeepsMonitorViolation(t *testing.T) {
	clean := FailoverTrial{Failovers: 1, Unavailable: time.Second}
	flagged := clean
	flagged.Seed, flagged.MonitorViolations = 1, 2
	flagged.Artifacts = &Artifacts{Seed: 1}
	clean.Seed = 2
	clean.Artifacts = &Artifacts{Seed: 2}
	if !flagged.Ok() {
		t.Fatal("flagged trial must be otherwise clean")
	}

	var sum FailoverSummary
	sum.add(flagged)
	sum.add(clean)
	if sum.MonitorViolations != 2 {
		t.Fatalf("MonitorViolations = %d, want 2", sum.MonitorViolations)
	}
	if sum.Artifacts == nil || sum.Artifacts.Seed != 1 {
		t.Fatalf("retained artifacts %+v, want the flagged trial's (seed 1)", sum.Artifacts)
	}
}
