package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAll runs every workload runs times untraced, each run in a fresh
// process with its own seed, then once traced, and prints every
// metric's spread (median, quartiles, extremes) with the host
// fingerprint. Its last line is the whole summary as one JSON object.
func runAll(seed uint64, seconds float64, runs int, small bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	type summary struct {
		Correct  bool              `json:"correct"`
		Failed   int64             `json:"failed"`
		EndToEnd map[string]spread `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer"`
	}
	out := struct {
		Host      fingerprint         `json:"host"`
		Seconds   float64             `json:"seconds"`
		Workloads map[string]*summary `json:"workloads"`
	}{Host: hostFingerprint(), Seconds: seconds, Workloads: map[string]*summary{}}
	ok := true
	for _, wl := range workloads(small) {
		sum := &summary{Correct: true, EndToEnd: map[string]spread{}}
		out.Workloads[wl.name] = sum
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < runs; i++ {
			res, err := child(self, wl.name, seed+uint64(i), seconds, 0, small)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl.name, seed+uint64(i), err)
				return 1
			}
			sum.Correct = sum.Correct && res.Correct
			sum.Failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		res, err := child(self, wl.name, seed, seconds, 1, small)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", wl.name, err)
			return 1
		}
		sum.Correct = sum.Correct && res.Correct
		sum.PerLayer = res.Metrics
		ok = ok && sum.Correct

		fmt.Fprintf(stdout, "%s: %d runs of %gs from seed %d, correct %v, failed ops %d\n",
			wl.name, runs, seconds, seed, sum.Correct, sum.Failed)
		fmt.Fprintf(stdout, "  %-18s %-9s %12s %12s %12s %12s %12s\n", "metric", "unit", "median", "q1", "q3", "min", "max")
		for _, k := range reportOrder {
			sp := spreadOf(values[k])
			sum.EndToEnd[k] = sp
			fmt.Fprintf(stdout, "  %-18s %-9s %12.6g %12.6g %12.6g %12.6g %12.6g\n",
				k, units[k], sp.Median, sp.Q1, sp.Q3, sp.Min, sp.Max)
		}
		fmt.Fprintf(stdout, "  tracing overhead (traced / untraced host ops/s): %.3f\n",
			res.Metrics["trace.overhead_ratio"].Value)
	}
	fp := out.Host
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s %s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.OS)
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", js)
	if !ok {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process and parses its result
// line. Untraced children report every end-to-end metric.
func child(self, name string, seed uint64, seconds float64, trace int, small bool) (result, error) {
	args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--all-metrics"}
	if small {
		args = append(args, "--small")
	}
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return res, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return res, nil
}
