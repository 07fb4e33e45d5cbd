package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestAuditGateTrips plants one journal entry that was never committed and
// checks that the audit counts it lost and the benchmark exits non-zero,
// naming the workload; the same cycle without the plant passes.
func TestAuditGateTrips(t *testing.T) {
	wl := workloads["failover_plugpull"]
	cases := []struct {
		name  string
		plant func(*workload.Journal)
		code  int
	}{
		{"clean", nil, 0},
		{"planted", func(j *workload.Journal) { j.Add("never-committed", []byte("x")) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runCycle(wl, 1, false, tc.plant)
			var out, errOut bytes.Buffer
			code := finish(&out, &errOut, wl, []cycleResult{res}, nil, false)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d; problems %v", code, tc.code, res.Problems)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool
				Failed  int64
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result JSON: %v", err)
			}
			if tc.plant == nil {
				if !last.Correct || res.Lost != 0 {
					t.Fatalf("clean cycle: correct=%v lost=%d problems %v", last.Correct, res.Lost, res.Problems)
				}
				return
			}
			if last.Correct || res.Lost != 1 || last.Failed != 1 {
				t.Fatalf("planted cycle: correct=%v lost=%d failed=%d", last.Correct, res.Lost, last.Failed)
			}
			if msg := errOut.String(); !strings.Contains(msg, "workload failover_plugpull") || !strings.Contains(msg, "acked_lost=1") {
				t.Fatalf("gate message does not name the workload and the loss: %q", msg)
			}
		})
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	want := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	if got, w := names(b.EndToEnd), want(endToEnd); strings.Join(got, ",") != strings.Join(w, ",") {
		t.Errorf("end_to_end %v, benchmark prints %v", got, w)
	}
	layer := append(append([]metricDef(nil), perLayer...), metricDef{name: "obs.tracing_overhead", unit: "ratio"})
	if got, w := names(b.PerLayer), want(layer); strings.Join(got, ",") != strings.Join(w, ",") {
		t.Errorf("per_layer %v, benchmark prints %v", got, w)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, counting overlapping children once, and ignores spans a fault
// left open.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	r := &recorder{spans: []span{
		{ID: 1, Name: "serve", WStart: 0, WEnd: 10 * ms, VStart: 0, VEnd: 10 * ms},
		{ID: 2, Parent: 1, Name: "op", WStart: 1 * ms, WEnd: 4 * ms, VStart: 1 * ms, VEnd: 4 * ms},
		{ID: 3, Parent: 1, Name: "op", WStart: 3 * ms, WEnd: 6 * ms, VStart: 3 * ms, VEnd: 6 * ms},
		{ID: 4, Parent: 1, Name: "op", WStart: 7 * ms},
	}}
	st := r.selfTimes()
	if got := st["serve"].wall; got != 5*time.Millisecond {
		t.Errorf("serve self time %v, want 5ms", got)
	}
	if got := st["op"].virtual; got != 6*time.Millisecond {
		t.Errorf("op self time %v, want 6ms", got)
	}
}
