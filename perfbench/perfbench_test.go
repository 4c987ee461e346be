package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// runJSON runs the benchmark in-process and parses its result line.
func runJSON(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: no result line (exit %d): %s %s", args, code, stdout.String(), stderr.String())
	}
	if code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	return res, stdout.String()
}

var reportUnits = map[string]string{
	"host_ops_per_s": "ops/s", "batch_wall_p50_ms": "ms", "batch_wall_p99_ms": "ms",
	"cpu_us_per_op": "us", "batch_cpu_p50_ms": "ms", "batch_cpu_p99_ms": "ms",
	"setup_s": "s", "setup_wall_s": "s", "allocs_per_op": "allocs/op", "peak_heap_mb": "MiB", "op_fail_ratio": "ratio",
	"sim_iops": "ops/s", "sim_read_p50_us": "us", "sim_read_p99_us": "us",
	"sim_write_p50_us": "us", "sim_uber": "ratio",
}

// TestEveryWorkloadSmall runs every workload at a tiny size and checks
// that every end-to-end metric prints by name with its unit,
// that the oracle passed and that the determinism check held.
func TestEveryWorkloadSmall(t *testing.T) {
	for _, wl := range workloads(true) {
		t.Run(wl.name, func(t *testing.T) {
			res, out := runJSON(t, "--workload", wl.name, "--small", "--seconds", "0.1", "--all-metrics")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range reportUnits {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
				}
				if !strings.Contains(out, name) {
					t.Errorf("report does not print %s", name)
				}
			}
			if !strings.Contains(out, "deterministic true") {
				t.Errorf("determinism check did not pass:\n%s", out)
			}
		})
	}
}

// TestFlippedByteFails corrupts one byte of one read result and checks
// that it counts as a failed op with wrong bytes: the oracle can fail.
func TestFlippedByteFails(t *testing.T) {
	for _, wl := range workloads(true) {
		if wl.name == "aged-soft-ldpc" {
			continue // same read path as aged-bch, and slow to set up
		}
		t.Run(wl.name, func(t *testing.T) {
			s, err := wl.build(1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			switch st := s.(type) {
			case *arrayStack:
				st.o.flip = true
			case *agedStack:
				st.o.flip = true
			}
			w, _, _, err := timedWindow(s, 4, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.failed != 1 || w.wrong != 1 {
				t.Fatalf("one flipped byte: %d failed ops, %d wrong reads; want 1 and 1", w.failed, w.wrong)
			}
		})
	}
}

// TestSameSeedSameDigest checks that the modelled figures and report
// digest repeat exactly for a seed and differ for another.
func TestSameSeedSameDigest(t *testing.T) {
	wl := workloads(true)[1] // mixed-degraded: cache, parity, fault and rebuild
	prefix := func(seed uint64) (string, modelledFigures) {
		s, err := wl.build(seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		w, _, _, err := timedWindow(s, wl.prefixBatches, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w.prefixDigest, modelled(w)
	}
	d1, f1 := prefix(7)
	d2, f2 := prefix(7)
	d3, _ := prefix(8)
	if d1 != d2 || f1 != f2 {
		t.Fatalf("same seed: digests %s/%s, figures %+v / %+v", d1, d2, f1, f2)
	}
	if d1 == d3 {
		t.Fatalf("seeds 7 and 8 gave the same digest %s", d1)
	}
}

// TestTracedSmall runs the traced pass and checks every per-layer metric
// prints, and that the LDPC workload's soft rung did work.
func TestTracedSmall(t *testing.T) {
	for _, name := range []string{"clean-read", "aged-soft-ldpc"} {
		t.Run(name, func(t *testing.T) {
			res, out := runJSON(t, "--workload", name, "--small", "--seconds", "0.2", "--trace", "1", "--out", t.TempDir())
			if !res.Correct {
				t.Fatalf("traced run incorrect:\n%s", out)
			}
			for _, k := range layerMetricNames {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("per-layer metric %s missing", k)
				}
			}
			if name == "aged-soft-ldpc" && res.Metrics["controller.soft_attempts_per_kread"].Value <= 0 {
				t.Errorf("no soft attempts:\n%s", out)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the code: workloads
// the code runs, and the metric names in the order the code prints them.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var cfg struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		return out
	}
	var wls []string
	for _, wl := range workloads(false) {
		wls = append(wls, wl.name)
	}
	for _, name := range names(cfg.Workloads) {
		if !slices.Contains(wls, name) {
			t.Errorf("workload %s is not one the code runs (%v)", name, wls)
		}
	}
	if got := names(cfg.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("end_to_end %v, code prints %v", got, endToEndNames)
	}
	if got := names(cfg.PerLayer); !slices.Equal(got, layerMetricNames) {
		t.Errorf("per_layer %v, code prints %v", got, layerMetricNames)
	}
	for _, m := range cfg.EndToEnd {
		if reportUnits[m.Name] != m.Unit {
			t.Errorf("end_to_end %s unit %s, code prints %s", m.Name, m.Unit, reportUnits[m.Name])
		}
	}
}

// TestQuartiles pins the spread's quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	sp := spreadOf(xs)
	if sp.Q1 != 2.75 || sp.Median != 5.5 || sp.Q3 != 8.25 || sp.Min != 1 || sp.Max != 10 {
		t.Fatalf("spread %+v", sp)
	}
}
