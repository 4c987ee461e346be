package array

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xlnand/internal/obs"
)

// tracedDegradedRun drives a parity fleet through writes, a drive
// death, and reads that must reconstruct, returning the trace export
// and the fleet report.
func tracedDegradedRun(t *testing.T) ([]byte, *FleetReport) {
	t.Helper()
	tr := obs.NewTracer()
	cfg := testConfig(4)
	cfg.Redundancy = RedundancyParity
	cfg.Trace = tr
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const warm = 64
	for p := 0; p < warm; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	a.kill(a.slots[2]) // no spare: reads of slot 2 must reconstruct
	for p := 0; p < warm; p++ {
		if drv, _ := a.code.locate(p); drv == 2 {
			if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := a.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("degraded read page %d failed: %v", r.Page, r.Err)
		}
	}
	return tr.JSON(), a.Report()
}

// traceEvent mirrors the exported trace-event fields the tests check.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func parseTrace(t *testing.T, raw []byte) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestArrayTraceDeterministic pins the acceptance contract: two traced
// runs of the same degraded scenario export byte-identical JSON.
func TestArrayTraceDeterministic(t *testing.T) {
	j1, _ := tracedDegradedRun(t)
	j2, _ := tracedDegradedRun(t)
	if !bytes.Equal(j1, j2) {
		t.Fatal("trace exports diverged between identical degraded runs")
	}
}

// TestArrayTraceSchema checks the degraded-run trace's shape: host and
// per-drive processes, reconstruction spans on the recovery thread with
// virtual timestamps correctly nested inside their scheduling round,
// and drive-level sense/decode spans from the dispatch layer.
func TestArrayTraceSchema(t *testing.T) {
	raw, rep := tracedDegradedRun(t)
	if rep.Totals.DegradedReads == 0 {
		t.Fatal("scenario produced no degraded reads")
	}
	events := parseTrace(t, raw)

	procs := map[int]string{}
	var rounds, recons []traceEvent
	names := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Pid] = e.Args["name"].(string)
		}
		if e.Ph == "X" {
			names[e.Name]++
		}
		if e.Pid != 0 {
			continue
		}
		switch e.Name {
		case "round":
			rounds = append(rounds, e)
		case "reconstruct":
			recons = append(recons, e)
		}
	}
	if procs[0] != "host" || !strings.HasPrefix(procs[1], "drive") {
		t.Fatalf("process layout wrong: %v", procs)
	}
	for _, want := range []string{"round", "reconstruct", "sense", "decode", "program"} {
		if names[want] == 0 {
			t.Errorf("no %q spans in trace", want)
		}
	}
	if len(recons) == 0 {
		t.Fatal("no reconstruction spans despite degraded reads")
	}
	const eps = 1e-9
	for _, rc := range recons {
		if rc.Tid != hostTidRecov {
			t.Fatalf("reconstruct span on tid %d, want %d", rc.Tid, hostTidRecov)
		}
		nested := false
		for _, rd := range rounds {
			if rc.Ts >= rd.Ts-eps && rc.Ts+rc.Dur <= rd.Ts+rd.Dur+eps {
				nested = true
				break
			}
		}
		if !nested {
			t.Fatalf("reconstruct span [%v,+%v) not nested in any round span", rc.Ts, rc.Dur)
		}
	}
	// The death marker rides the scheduler thread.
	found := false
	for _, e := range events {
		if e.Name == "drive_dead" && e.Pid == 0 {
			found = true
			if e.Args["slot"].(float64) != 2 {
				t.Fatalf("drive_dead marks slot %v, want 2", e.Args["slot"])
			}
		}
	}
	if !found {
		t.Fatal("no drive_dead instant in trace")
	}
}

// TestTenantSLOBreaches pins the per-tenant latency SLO satellite: a
// sub-microsecond target must breach on every drive-served op, the
// breach rounds dedupe and cap, and an SLO-free tenant reports nothing.
func TestTenantSLOBreaches(t *testing.T) {
	cfg := testConfig(2)
	cfg.Tenants = []TenantConfig{
		{Name: "strict", SLOTarget: time.Nanosecond},
		{Name: "loose"},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const ops = 40
	for p := 0; p < ops; p++ {
		if err := a.Submit(Op{Tenant: "strict", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(Op{Tenant: "loose", Write: true, Page: ops + p, Data: pagePattern(a, p, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	var strict, loose *TenantStats
	for i := range rep.Tenants {
		switch rep.Tenants[i].Name {
		case "strict":
			strict = &rep.Tenants[i]
		case "loose":
			loose = &rep.Tenants[i]
		}
	}
	if strict == nil || loose == nil {
		t.Fatal("tenants missing from report")
	}
	if strict.SLOBreaches != ops {
		t.Fatalf("strict tenant breaches = %d, want %d", strict.SLOBreaches, ops)
	}
	if len(strict.BreachRounds) == 0 || len(strict.BreachRounds) > sloBreachRoundsCap {
		t.Fatalf("breach round list size %d outside (0,%d]", len(strict.BreachRounds), sloBreachRoundsCap)
	}
	for i := 1; i < len(strict.BreachRounds); i++ {
		if strict.BreachRounds[i] <= strict.BreachRounds[i-1] {
			t.Fatal("breach rounds not strictly increasing (per-round dedup broken)")
		}
	}
	if strict.Latency == nil || strict.Latency.Count != ops {
		t.Fatalf("strict tenant latency snapshot missing or wrong count: %+v", strict.Latency)
	}
	if loose.SLOBreaches != 0 || loose.SLOTargetUs != 0 || loose.BreachRounds != nil {
		t.Fatalf("SLO-free tenant carries SLO state: %+v", loose)
	}
	if loose.Latency == nil || loose.Latency.Count != ops {
		t.Fatalf("loose tenant latency snapshot missing: %+v", loose.Latency)
	}
}

// TestFleetLatencyClasses checks the per-op-class histograms surface in
// both the per-drive and fleet-level report sections, with ordered
// quantiles.
func TestFleetLatencyClasses(t *testing.T) {
	cfg := testConfig(2)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const ops = 32
	for p := 0; p < ops; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ops; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if rep.Latency == nil {
		t.Fatal("fleet latency section missing")
	}
	reads := rep.Latency.CleanRead.Count + rep.Latency.RetriedRead.Count + rep.Latency.SoftRead.Count
	if reads != ops {
		t.Fatalf("read-class counts sum to %d, want %d", reads, ops)
	}
	if rep.Latency.Write.Count != ops {
		t.Fatalf("write-class count %d, want %d", rep.Latency.Write.Count, ops)
	}
	check := func(name string, s obs.HistSnapshot) {
		if s.Count == 0 {
			return
		}
		if s.P50Us > s.P99Us || s.P99Us > s.P999Us || s.MinUs > s.P50Us || s.P999Us > s.MaxUs {
			t.Errorf("%s quantiles disordered: %+v", name, s)
		}
	}
	check("clean", rep.Latency.CleanRead)
	check("write", rep.Latency.Write)
	var perDrive uint64
	for _, d := range rep.PerDrive {
		if d.Latency == nil {
			t.Fatalf("drive %d missing latency section", d.Drive)
		}
		perDrive += d.Latency.CleanRead.Count + d.Latency.RetriedRead.Count + d.Latency.SoftRead.Count
	}
	if perDrive != reads {
		t.Fatalf("per-drive read counts sum to %d, fleet says %d", perDrive, reads)
	}
}

// TestArrayPublishMetrics checks the registry export is byte-stable
// and carries the expected series families.
func TestArrayPublishMetrics(t *testing.T) {
	run := func() []byte {
		cfg := testConfig(2)
		cfg.Tenants = []TenantConfig{{Name: "default", SLOTarget: time.Nanosecond}}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		for p := 0; p < 16; p++ {
			if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Drain(); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		a.PublishMetrics(reg)
		return reg.PrometheusText()
	}
	p1, p2 := run(), run()
	if !bytes.Equal(p1, p2) {
		t.Fatal("metrics export diverged between identical runs")
	}
	for _, want := range []string{
		"array_fleet_iops",
		"array_op_latency_us{class=\"write\",quantile=\"0.99\"}",
		"tenant_slo_breaches_total{name=\"default\"}",
		"nand_clean_reads_total{drive=\"0\"}",
		"ftl_host_writes_total{drive=\"1\",part=\"vol\"}",
	} {
		if !strings.Contains(string(p1), want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}
