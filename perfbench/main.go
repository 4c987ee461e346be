// Command perfbench is the repository's end-to-end benchmark. It runs
// one closed-loop workload against the simulated stack from a single
// client goroutine, checks every read against its own record of what
// it wrote, and prints the workload's metrics, the last line of
// standard output being one JSON object. From the repository root:
//
//	bash perfbench/run.sh --workload clean-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// pass and prints the per-layer metrics. --workload all runs every
// workload --runs times in fresh processes and prints each metric's
// spread with the host fingerprint. See DESIGN.md for the workloads
// and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"xlnand/internal/obs"
)

// deviceSeed seeds every simulated device: the drives are the fixed
// hardware under test, and --seed varies only what the workload feeds
// them (the ops and the bytes written). Runs of different seeds then
// differ by their inputs, not by a different drive's aging history.
const deviceSeed = 0x5eed

// workload is one benchmark input: how to build its stack and how much
// work its modelled figures cover.
type workload struct {
	name string
	// build sets the workload up from seed. tr, when non-nil, collects
	// the program's virtual-time trace.
	build func(seed uint64, tr *obs.Tracer, heap *heapProbe) (stack, error)
	// prefixBatches is the fixed amount of work, in batches, the
	// modelled (sim_*) figures and the determinism digest cover.
	prefixBatches int
	// batchesPerSecond sizes the timed window: --seconds of it is the
	// work the reference host (2-vCPU Xeon, go1.24) completes in that
	// time. The window is a fixed amount of work, not a deadline, so
	// every run of a seed measures the same ops however fast the host.
	batchesPerSecond float64
	// tracedBatches caps the traced window, bounding trace memory.
	tracedBatches int
	// procs, when positive, is the GOMAXPROCS the workload runs at.
	// The aged workloads run one op at a time, so at most one die worker
	// is busy: a second P adds only cross-CPU hand-offs, whose cost swings
	// with the host's scheduler from run to run.
	procs int
	// replay builds the quiesced stack the layer-by-layer replay runs
	// on (the workload's own stack for the aged workloads, a standalone
	// drive for the array ones).
	replay func(seed uint64, s stack) (replayTarget, error)
}

func workloads(small bool) []workload {
	cr := arrayShape{drives: 16, dies: 2, blocks: 8, batch: 256, prefixBatches: 120}
	md := arrayShape{drives: 16, dies: 2, blocks: 8, batch: 64, prefixBatches: 300}
	ab := agedShape{dies: 8, blocks: 3, ws: 168, margin: 1.7, cycles: 3e5, bakeHours: 1e5,
		archiveCycles: 1e6, archivePages: 4, coldEvery: 100, batch: 1, prefixBatches: 3000}
	al := agedShape{dies: 1, blocks: 8, ws: 16, margin: 1.7, ldpc: true, cycles: 1e5, bakeHours: 1e5,
		archiveCycles: 2e7, archivePages: 4, coldEvery: 1000, batch: 1, prefixBatches: 1500}
	if small {
		cr = arrayShape{drives: 4, dies: 1, blocks: 4, batch: 32, prefixBatches: 8}
		md = arrayShape{drives: 4, dies: 1, blocks: 4, batch: 16, prefixBatches: 40}
		ab = agedShape{dies: 1, blocks: 8, ws: 32, margin: 1.7, cycles: 2e4, bakeHours: 1e5,
			archiveCycles: 2e5, archivePages: 1, coldEvery: 7, batch: 1, prefixBatches: 40}
		al = agedShape{dies: 1, blocks: 8, ws: 4, margin: 1.7, ldpc: true, cycles: 1e4, bakeHours: 1e5,
			archiveCycles: 2e7, archivePages: 1, coldEvery: 7, batch: 1, prefixBatches: 8}
	}
	return []workload{
		{
			name: "clean-read",
			build: func(seed uint64, tr *obs.Tracer, h *heapProbe) (stack, error) {
				return newCleanRead(seed, cr, tr, h)
			},
			prefixBatches: cr.prefixBatches, batchesPerSecond: 1700,
			tracedBatches: 600,
			replay:        arrayReplay(cr, 1),
		},
		{
			name: "mixed-degraded",
			build: func(seed uint64, tr *obs.Tracer, h *heapProbe) (stack, error) {
				return newMixedDegraded(seed, md, tr, h)
			},
			prefixBatches: md.prefixBatches, batchesPerSecond: 560,
			tracedBatches: 1000,
			replay:        arrayReplay(md, mixedFill),
		},
		{
			name: "aged-bch",
			build: func(seed uint64, tr *obs.Tracer, h *heapProbe) (stack, error) {
				return newAged(seed, ab, tr, h)
			},
			prefixBatches: ab.prefixBatches, batchesPerSecond: 3400,
			procs:         1,
			tracedBatches: 20000,
			replay:        agedReplay,
		},
		{
			name: "aged-soft-ldpc",
			build: func(seed uint64, tr *obs.Tracer, h *heapProbe) (stack, error) {
				return newAged(seed, al, tr, h)
			},
			prefixBatches: al.prefixBatches, batchesPerSecond: 370,
			procs:         1,
			tracedBatches: 2000,
			replay:        agedReplay,
		},
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window on the reference host")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	runs := fs.Int("runs", 5, "with --workload all: runs per workload")
	small := fs.Bool("small", false, "tiny shapes, for the benchmark's own tests")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for trace artifacts")
	allMetrics := fs.Bool("all-metrics", false, "untraced runs print every end-to-end metric in the JSON line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *runs, *small, stdout, stderr)
	}
	i := slices.IndexFunc(workloads(*small), func(w workload) bool { return w.name == *name })
	if i < 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	wl := workloads(*small)[i]
	length := time.Duration(*seconds * float64(time.Second))
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, *seed, length, *out, stdout)
	} else {
		res, err = runUntraced(wl, *seed, length, *allMetrics, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", js)
	if !res.Correct {
		return 1
	}
	return 0
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

// runUntraced measures the end-to-end metrics. The workload is set up
// setupRepeats times: the first stack runs the timed window, the second
// repeats the window's fixed prefix to check that the modelled figures
// and the report digest repeat exactly, the rest are only timed.
func runUntraced(wl workload, seed uint64, length time.Duration, allMetrics bool, stdout io.Writer) (result, error) {
	heap := newHeapProbe()
	var setups, setupWall []float64 // CPU and wall seconds
	var w, w2 *window
	var rt runtimeCounters
	for i := 0; i < setupRepeats; i++ {
		h := heap
		if i > 0 {
			h = nil // peak heap covers the measured stack alone
		}
		t0, c0 := time.Now(), cpuNow()
		s, err := wl.build(seed, nil, h)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		switch i {
		case 0:
			w, _, rt, err = timedWindow(s, wl.prefixBatches, wl.windowBatches(length), length, heap)
		case 1:
			// Determinism: a fresh stack from the same seed must
			// reproduce the prefix's modelled figures and digest.
			w2, _, _, err = timedWindow(s, wl.prefixBatches, wl.prefixBatches, 0, nil)
		}
		s.close()
		if err != nil {
			return result{}, err
		}
	}
	first, second := modelled(w), modelled(w2)
	deterministic := w.prefixDigest == w2.prefixDigest && first == second

	m := endToEnd(w, rt, median(setups), median(setupWall), heap)
	printReport(stdout, wl.name, seed, w, m, first, deterministic)
	if !deterministic {
		fmt.Fprintf(stdout, "determinism: FAILED: digest %s vs %s, modelled %+v vs %+v\n",
			w.prefixDigest, w2.prefixDigest, first, second)
	}
	res := result{
		Correct:   deterministic && w.wrong == 0 && w2.wrong == 0,
		Attempted: w.ops,
		Failed:    w.failed,
		Metrics:   map[string]metric{},
	}
	names := endToEndNames
	if allMetrics {
		names = reportOrder
	}
	for _, name := range names {
		res.Metrics[name] = m[name]
	}
	return res, nil
}

// rateSlices is how many slices a window's wall time is cut into:
// host_ops_per_s and cpu_us_per_op are medians over the slices, so a
// burst of interference from other tenants of the host moves a few
// slices, not the figure.
const rateSlices = 20

// windowBatches is the timed window's size for a run of length.
func (wl workload) windowBatches(length time.Duration) int {
	return max(wl.prefixBatches, int(length.Seconds()*wl.batchesPerSecond+0.5))
}

// timedWindow runs exactly max(prefixBatches, batches) batches on s,
// cutting its wall time into slices of length/rateSlices. It returns
// the window, its wall time (digest work excluded) and the runtime
// counters' difference.
func timedWindow(s stack, prefixBatches, batches int, length time.Duration, heap *heapProbe) (*window, time.Duration, runtimeCounters, error) {
	w := &window{prefixBatches: prefixBatches, inPrefix: true}
	w.prefixBefore = s.counters()
	w.simStart = s.simNow()
	rt0 := readRuntime()
	var excluded time.Duration
	slice := length / rateSlices
	sliceStart, sliceCPU, sliceOps := rt0.wall, cpuNow(), int64(0)
	for w.batches < max(prefixBatches, batches) {
		t0, c0 := time.Now(), cpuNow()
		if err := s.batch(w); err != nil {
			return w, 0, runtimeCounters{}, err
		}
		w.batchCPU = append(w.batchCPU, cpuNow()-c0)
		w.batchWall = append(w.batchWall, time.Since(t0))
		w.batches++
		heap.sample()
		if d := time.Since(sliceStart); d >= slice && w.ops > sliceOps {
			c := cpuNow()
			ops := float64(w.ops - sliceOps)
			w.sliceRates = append(w.sliceRates, ops/d.Seconds())
			w.sliceCPU = append(w.sliceCPU, float64(c-sliceCPU)/float64(time.Microsecond)/ops)
			sliceStart, sliceCPU, sliceOps = time.Now(), c, w.ops
		}
		if w.batches == prefixBatches {
			t, c := time.Now(), cpuNow()
			w.inPrefix = false
			w.simEnd = s.simNow()
			d, err := s.digest()
			if err != nil {
				return w, 0, runtimeCounters{}, err
			}
			w.prefixDigest = d
			excluded += time.Since(t)
			sliceStart = sliceStart.Add(time.Since(t))
			sliceCPU += cpuNow() - c
		}
	}
	if len(w.sliceRates) == 0 && w.ops > sliceOps {
		// A window shorter than one slice is one slice.
		d, ops := time.Since(sliceStart), float64(w.ops-sliceOps)
		w.sliceRates = append(w.sliceRates, ops/d.Seconds())
		w.sliceCPU = append(w.sliceCPU, float64(cpuNow()-sliceCPU)/float64(time.Microsecond)/ops)
	}
	rt1 := readRuntime()
	return w, rt1.wall.Sub(rt0.wall) - excluded, rt1.diff(rt0), nil
}

func (r runtimeCounters) diff(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		mallocs:  r.mallocs - o.mallocs,
		numGC:    r.numGC - o.numGC,
		gcCPU:    r.gcCPU - o.gcCPU,
		totalCPU: r.totalCPU - o.totalCPU,
	}
}

// modelledFigures are the sim_* metrics over a window's fixed prefix.
type modelledFigures struct {
	IOPS, ReadP50, ReadP99, WriteP50, UBER float64
	ReadSamples, WriteSamples              int
}

func modelled(w *window) modelledFigures {
	f := modelledFigures{ReadSamples: len(w.readLat), WriteSamples: len(w.writeLat)}
	if d := w.simEnd - w.simStart; d > 0 {
		f.IOPS = float64(w.prefixOps) / d.Seconds()
	}
	reads := durationsUs(w.readLat)
	f.ReadP50, f.ReadP99 = quantile(reads, 0.50), quantile(reads, 0.99)
	f.WriteP50 = quantile(durationsUs(w.writeLat), 0.50)
	if w.bitsRead > 0 {
		f.UBER = float64(w.bitsFailed) / float64(w.bitsRead)
	}
	return f
}

// endToEndNames are the metrics an untraced run puts in its JSON line,
// in BENCHMARK.json's order. See DESIGN.md for why the wall-clock and
// per-op modelled figures the report also prints are not among them.
var endToEndNames = []string{
	"cpu_us_per_op", "batch_cpu_p99_ms", "setup_s", "allocs_per_op", "peak_heap_mb", "sim_iops",
}

// endToEnd computes every end-to-end metric of an untraced window.
func endToEnd(w *window, rt runtimeCounters, setup, setupWall float64, heap *heapProbe) map[string]metric {
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / float64(time.Millisecond)
		}
		return out
	}
	wall, cpu := ms(w.batchWall), ms(w.batchCPU)
	f := modelled(w)
	m := map[string]metric{
		"cpu_us_per_op":     {median(w.sliceCPU), "us"},
		"batch_cpu_p50_ms":  {quantile(cpu, 0.50), "ms"},
		"batch_cpu_p99_ms":  {quantile(cpu, 0.99), "ms"},
		"host_ops_per_s":    {median(w.sliceRates), "ops/s"},
		"batch_wall_p50_ms": {quantile(wall, 0.50), "ms"},
		"batch_wall_p99_ms": {quantile(wall, 0.99), "ms"},
		"setup_s":           {setup, "s"},
		"setup_wall_s":      {setupWall, "s"},
		"allocs_per_op":     {float64(rt.mallocs) / float64(w.ops), "allocs/op"},
		"peak_heap_mb":      {float64(heap.peak) / (1 << 20), "MiB"},
		"op_fail_ratio":     {float64(w.failed) / float64(w.ops), "ratio"},
		"sim_iops":          {f.IOPS, "ops/s"},
		"sim_read_p50_us":   {f.ReadP50, "us"},
		"sim_read_p99_us":   {f.ReadP99, "us"},
		"sim_write_p50_us":  {f.WriteP50, "us"},
		"sim_uber":          {f.UBER, "ratio"},
	}
	return m
}

// reportOrder is every end-to-end metric the report prints.
var reportOrder = []string{
	"host_ops_per_s", "batch_wall_p50_ms", "batch_wall_p99_ms",
	"cpu_us_per_op", "batch_cpu_p50_ms", "batch_cpu_p99_ms", "setup_s", "setup_wall_s",
	"allocs_per_op", "peak_heap_mb", "op_fail_ratio", "sim_iops",
	"sim_read_p50_us", "sim_read_p99_us", "sim_write_p50_us", "sim_uber",
}

// printReport writes the human-readable table of every end-to-end metric.
func printReport(out io.Writer, name string, seed uint64, w *window, m map[string]metric, f modelledFigures, deterministic bool) {
	fp := hostFingerprint()
	fmt.Fprintf(out, "workload %s seed %d: %d ops (%d reads, %d writes) in %d batches; %d failed, %d wrong bytes\n",
		name, seed, w.ops, w.reads, w.writes, w.batches, w.failed, w.wrong)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go)
	for _, k := range reportOrder {
		note := ""
		switch k {
		case "batch_wall_p99_ms", "batch_cpu_p99_ms":
			note = fmt.Sprintf("  (%d batches, %d past p99)", len(w.batchWall), beyond(len(w.batchWall), 0.99))
		case "sim_read_p99_us":
			note = fmt.Sprintf("  (%d reads, %d past p99)", f.ReadSamples, beyond(f.ReadSamples, 0.99))
		case "sim_write_p50_us":
			note = fmt.Sprintf("  (%d writes)", f.WriteSamples)
		}
		fmt.Fprintf(out, "  %-18s %14.6g %-9s%s\n", k, m[k].Value, m[k].Unit, note)
	}
	fmt.Fprintf(out, "  prefix: %d batches, %d ops, report digest %s, deterministic %v\n",
		w.prefixBatches, w.prefixOps, w.prefixDigest, deterministic)
	fmt.Fprintf(out, "  host ops/s by slice:")
	for _, r := range w.sliceRates {
		fmt.Fprintf(out, " %.0f", r)
	}
	fmt.Fprintln(out)
}
