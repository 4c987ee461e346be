package array

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xlnand/internal/obs"
)

// goldenScenario is one redundancy mode's pinned biography: a mixed
// read/write stream through a small write-back cache, a drive with
// seeded transient faults, a fail-stop rebuilt onto the hot spare and,
// where the mode survives it, a second fail-stop with no spare left
// (under parity that slot holds some rows' parity, so writes to those
// rows leave their parity stale).
type goldenScenario struct {
	name   string
	drives int
	mode   string
	faults []DriveFault
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{name: "none", drives: 4, mode: RedundancyNone, faults: []DriveFault{
			{Drive: 1, TransientErrRate: 0.3},
			{Drive: 2, FailStopRound: 14},
		}},
		{name: "mirror", drives: 4, mode: RedundancyMirror, faults: []DriveFault{
			{Drive: 0, TransientErrRate: 0.3, LatencyFactor: 2},
			{Drive: 2, FailStopRound: 14},
			{Drive: 3, FailStopRound: 40},
		}},
		{name: "parity", drives: 5, mode: RedundancyParity, faults: []DriveFault{
			{Drive: 1, TransientErrRate: 0.3, LatencyFactor: 2},
			{Drive: 2, FailStopRound: 14},
			{Drive: 3, FailStopRound: 40},
		}},
	}
}

// runGolden plays a scenario and returns its compact report JSON, the trace
// export and a digest of the completion stream (every field of every
// Result, read data included).
func runGolden(t *testing.T, sc goldenScenario) (report, trace []byte, results string) {
	t.Helper()
	tr := obs.NewTracer()
	cfg := testConfig(sc.drives)
	cfg.Seed = 60606
	cfg.Redundancy = sc.mode
	cfg.Spares = 1
	cfg.Cache = CacheConfig{Pages: 6}
	cfg.RoundOps = 24
	cfg.Faults = FaultPlan{Seed: 17, Drives: sc.faults}
	cfg.Trace = tr
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	h := sha256.New()
	digest := func(res []Result) {
		for _, r := range res {
			fmt.Fprintf(h, "%s/%v/%d/%d/%v/%d/%v/%x;", r.Tenant, r.Write, r.Page, r.Drive,
				r.CacheHit, r.Latency, r.Err, sha256.Sum256(r.Data))
		}
	}
	state := uint64(0x5eed0bad)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	n := a.VolumePages()
	hot := n / 8
	for batch := 0; batch < 12; batch++ {
		for i := 0; i < 96; i++ {
			page := next(n)
			if next(4) != 0 {
				page = next(hot)
			}
			op := Op{Tenant: "default", Page: page}
			switch {
			case next(2) == 0:
				op.Write = true
				op.Data = pagePattern(a, page, batch*96+i)
			case next(2) == 0:
				op.Buf = make([]byte, a.PageBytes())
			}
			if err := a.Submit(op); err != nil {
				t.Fatal(err)
			}
		}
		res, err := a.Drain()
		if err != nil {
			t.Fatal(err)
		}
		digest(res)
		if batch%4 == 3 {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < n; p += 3 {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := a.Drain()
	if err != nil {
		t.Fatal(err)
	}
	digest(res)
	js, err := json.Marshal(a.Report())
	if err != nil {
		t.Fatal(err)
	}
	return append(js, '\n'), tr.JSON(), fmt.Sprintf("%x", h.Sum(nil))
}

// TestArrayGolden pins each redundancy mode's whole observable output —
// the fleet report, the trace export and the completion stream — to
// committed fixtures, so a refactor of the round executor that changes
// any behaviour moves a fixture and fails loudly.
//
// Regenerate the fixtures after an INTENTIONAL behaviour change with:
//
//	UPDATE_ARRAY_GOLDEN=1 go test ./internal/array -run TestArrayGolden
//
// and review the fixture diff like any other behaviour diff.
func TestArrayGolden(t *testing.T) {
	update := os.Getenv("UPDATE_ARRAY_GOLDEN") != ""
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			report, trace, results := runGolden(t, sc)
			hashes := fmt.Sprintf("trace_sha256 %x\nresults_sha256 %s\n", sha256.Sum256(trace), results)
			reportPath := filepath.Join("testdata", "golden_"+sc.name+".json")
			hashPath := filepath.Join("testdata", "golden_"+sc.name+".sha256")
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				for path, b := range map[string][]byte{reportPath: report, hashPath: []byte(hashes)} {
					if err := os.WriteFile(path, b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			want, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatalf("missing fixture (run with UPDATE_ARRAY_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(report, want) {
				t.Fatalf("fleet report diverged from %s.\n--- got ---\n%s", reportPath, report)
			}
			wantHashes, err := os.ReadFile(hashPath)
			if err != nil {
				t.Fatalf("missing fixture: %v", err)
			}
			if hashes != string(wantHashes) {
				t.Fatalf("trace or completion stream diverged from %s:\n--- got ---\n%s--- want ---\n%s",
					hashPath, hashes, wantHashes)
			}
		})
	}
}
