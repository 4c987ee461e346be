package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"xlnand/internal/obs"
)

// layerMetricNames is the per-layer metric set a traced run prints, in
// BENCHMARK.json's order.
var layerMetricNames = []string{
	"array.drain_wall_us_per_op", "array.cpu_self_share", "array.rounds_per_kop",
	"array.qos_stalls_per_kop", "array.cache_hit_ratio", "array.cache_writebacks_per_kop",
	"array.drive_reads_per_host_op", "array.drive_writes_per_host_op", "array.degraded_reads",
	"array.reconstructed_mb", "array.rebuilt_pages", "array.parity_stale_events",
	"array.sim_reconstruct_us_per_op",
	"dispatch.cpu_self_share", "dispatch.read_wall_us", "dispatch.sim_queue_wait_us_per_op",
	"dispatch.sim_transfer_us_per_op", "dispatch.sim_bus_busy_ratio", "dispatch.sim_codec_busy_ratio",
	"ftl.op_wall_us", "ftl.cpu_self_share", "ftl.gc_moves_per_write", "ftl.erases_per_kop",
	"ftl.sim_gc_us_per_op",
	"controller.read_wall_us", "controller.cpu_self_share", "controller.clean_short_circuit_ratio",
	"controller.retries_per_read", "controller.retry_recovered_ratio", "controller.mean_level",
	"controller.soft_attempts_per_kread", "controller.soft_recovered_ratio",
	"controller.uncorrectable_reads", "controller.silent_corruptions",
	"bch.decode_wall_us", "bch.cpu_self_share", "bch.sim_decode_us_per_read",
	"ldpc.decode_wall_us", "ldpc.soft_decode_wall_us", "ldpc.cpu_self_share", "ldpc.sim_decode_us_per_read",
	"nand.sense_wall_us", "nand.cpu_self_share", "nand.sim_sense_us_per_read",
	"nand.soft_senses_per_read", "nand.sim_program_us_per_write",
	"obs.cpu_self_share", "bench.cpu_self_share",
	"runtime.cpu_self_share", "runtime.gc_cycles_per_kop", "runtime.gc_cpu_share",
	"trace.overhead_ratio",
	"op_fail_ratio", "sim_read_p50_us", "sim_read_p99_us", "sim_write_p50_us", "sim_uber",
}

// profileHz is the traced window's CPU-profile sampling rate.
const profileHz = 500

// runTraced is the traced pass. It sets the workload up twice: the
// first stack runs an untraced window of half the run's work (capped
// at tracedBatches, which bounds the trace's memory) as the baseline;
// the second runs the same batches with every instrument on (the
// program's virtual-time tracer, benchmark-side spans and a CPU
// profile), then is replayed one layer at a time.
func runTraced(wl workload, seed uint64, length time.Duration, outDir string, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base, err := wl.build(seed, nil, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	batches := min(wl.windowBatches(length/2), wl.tracedBatches)
	wb, wallB, _, err := timedWindow(base, wl.prefixBatches, batches, length/2, nil)
	base.close()
	if err != nil {
		return result{}, err
	}
	untracedRate := float64(wb.ops) / wallB.Seconds()

	tr := obs.NewTracer()
	tr.SetStreamLimit(1 << 22)
	s, err := wl.build(seed, tr, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	before, err := stageTotals(tr)
	if err != nil {
		return result{}, err
	}
	spans := newSpanLog()
	s.setSpans(spans)
	profPath := filepath.Join(outDir, wl.name+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	// A window of a second or two gives too few samples at pprof's
	// default 100 Hz; setting the rate first raises it (the runtime
	// notes on stderr that StartCPUProfile could not lower it again).
	// Shares are ratios of sample counts, so the rate cancels out.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return result{}, err
	}
	// The traced window runs the baseline's batches: the same seeded
	// ops, so the two rates compare the same work.
	w, wall, rt, err := timedWindow(s, wl.prefixBatches, wb.batches, length/2, nil)
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	s.setSpans(nil)
	after, err := stageTotals(tr)
	if err != nil {
		return result{}, err
	}
	if err := spans.write(filepath.Join(outDir, wl.name+".spans.jsonl")); err != nil {
		return result{}, err
	}
	c := s.counters().sub(w.prefixBefore)

	tgt, err := wl.replay(seed, s)
	if err != nil {
		return result{}, fmt.Errorf("replay set-up: %w", err)
	}
	rp, err := replay(tgt, seed, max(time.Second, length/4))
	tgt.close()
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	shares, stacks, err := cpuShares(profPath)
	if err != nil {
		return result{}, fmt.Errorf("profile: %w", err)
	}

	st := after.sub(before)
	m := layerMetrics(w, c, st, rp, shares, rt, s.buses(), spans)
	m["trace.overhead_ratio"] = metric{float64(w.ops) / wall.Seconds() / untracedRate, "ratio"}
	f := modelled(w)
	m["op_fail_ratio"] = metric{float64(w.failed) / float64(w.ops), "ratio"}
	m["sim_read_p50_us"] = metric{f.ReadP50, "us"}
	m["sim_read_p99_us"] = metric{f.ReadP99, "us"}
	m["sim_write_p50_us"] = metric{f.WriteP50, "us"}
	m["sim_uber"] = metric{f.UBER, "ratio"}

	fmt.Fprintf(stdout, "workload %s seed %d (traced): %d ops in %d batches; untraced baseline %.0f ops/s, traced %.0f ops/s\n",
		wl.name, seed, w.ops, w.batches, untracedRate, float64(w.ops)/wall.Seconds())
	fmt.Fprintf(stdout, "  replay: %d pages sampled (%d soft); profile: %d stacks; trace events dropped: %d; spans: %s\n",
		rp.samples, rp.softSamples, stacks, st.dropped, filepath.Join(outDir, wl.name+".spans.jsonl"))
	for _, k := range layerMetricNames {
		fmt.Fprintf(stdout, "  %-38s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	res := result{Correct: w.wrong == 0 && wb.wrong == 0, Attempted: w.ops, Failed: w.failed, Metrics: map[string]metric{}}
	for _, k := range layerMetricNames {
		res.Metrics[k] = m[k]
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced window.
func layerMetrics(w *window, c layerCounters, st stageSums, rp replayFigures, shares map[string]float64, rt runtimeCounters, buses int, spans *spanLog) map[string]metric {
	ops := float64(w.ops)
	kop := ops / 1000
	ctrlReads := float64(c.ctrlReads)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	busy := float64(c.simClock) * float64(buses)
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Drive-level page traffic per host op is an array figure; the aged
	// workloads' host ops are their drive's ops.
	arrayOnly := func(v float64) float64 {
		if c.rounds == 0 {
			return 0
		}
		return v
	}
	set("array.drain_wall_us_per_op", ratio(us(spans.total[drainSpan]), ops), "us")
	set("array.rounds_per_kop", ratio(float64(c.rounds), kop), "1/kop")
	set("array.qos_stalls_per_kop", ratio(float64(c.stalls), kop), "1/kop")
	set("array.cache_hit_ratio", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), "ratio")
	set("array.cache_writebacks_per_kop", ratio(float64(c.cacheWritebacks), kop), "1/kop")
	set("array.drive_reads_per_host_op", arrayOnly(ratio(float64(c.driveReads), ops)), "reads/op")
	set("array.drive_writes_per_host_op", arrayOnly(ratio(float64(c.driveWrites), ops)), "writes/op")
	set("array.degraded_reads", float64(c.degradedReads), "count")
	set("array.reconstructed_mb", float64(c.reconBytes)/(1<<20), "MiB")
	set("array.rebuilt_pages", float64(c.rebuiltPages), "count")
	set("array.parity_stale_events", float64(c.parityStale), "count")
	set("array.sim_reconstruct_us_per_op", ratio(us(st.dur["reconstruct"]), ops), "us")

	set("dispatch.read_wall_us", rp.dispatchSelf, "us")
	set("dispatch.sim_queue_wait_us_per_op", ratio(us(st.dur["queue_wait"]), ops), "us")
	set("dispatch.sim_transfer_us_per_op", ratio(us(st.dur["transfer"]), ops), "us")
	set("dispatch.sim_bus_busy_ratio", ratio(float64(st.dur["transfer"]), busy), "ratio")
	set("dispatch.sim_codec_busy_ratio", ratio(float64(st.dur["decode"]+st.dur["encode"]), busy), "ratio")

	set("ftl.op_wall_us", rp.ftlSelf, "us")
	set("ftl.gc_moves_per_write", ratio(float64(c.gcMoves), float64(c.driveWrites)), "moves/write")
	set("ftl.erases_per_kop", ratio(float64(c.erases), kop), "1/kop")
	set("ftl.sim_gc_us_per_op", ratio(us(st.dur["gc"]), ops), "us")

	set("controller.read_wall_us", rp.controllerSelf, "us")
	set("controller.clean_short_circuit_ratio", ratio(float64(c.cleanReads), ctrlReads), "ratio")
	set("controller.retries_per_read", ratio(float64(c.retries), ctrlReads), "retries/read")
	set("controller.retry_recovered_ratio", ratio(float64(c.retryRecovered), float64(c.retriedReads)), "ratio")
	meanLevel := rp.meanLevel
	if c.levelReads > 0 {
		meanLevel = float64(c.levelSum) / float64(c.levelReads)
	}
	set("controller.mean_level", meanLevel, "level")
	set("controller.soft_attempts_per_kread", ratio(float64(c.softAttempts), ctrlReads/1000), "1/kread")
	set("controller.soft_recovered_ratio", ratio(float64(c.softRecovered), float64(c.softAttempts)), "ratio")
	set("controller.uncorrectable_reads", float64(c.uncorrectable), "count")
	set("controller.silent_corruptions", float64(w.wrong), "count")

	decodePerRead := ratio(us(st.dur["decode"]), ctrlReads)
	set("bch.decode_wall_us", rp.decode["bch"], "us")
	set("bch.sim_decode_us_per_read", 0, "us")
	set("ldpc.decode_wall_us", rp.decode["ldpc"], "us")
	set("ldpc.soft_decode_wall_us", rp.softDecode, "us")
	set("ldpc.sim_decode_us_per_read", 0, "us")
	set(rp.family+".sim_decode_us_per_read", decodePerRead, "us")

	set("nand.sense_wall_us", rp.sense, "us")
	set("nand.sim_sense_us_per_read", ratio(us(st.dur["sense"]+st.dur["soft_sense"]), ctrlReads), "us")
	set("nand.soft_senses_per_read", ratio(float64(st.softSenses), ctrlReads), "senses/read")
	set("nand.sim_program_us_per_write", ratio(us(st.dur["program"]), float64(c.driveWrites)), "us")

	for _, layer := range []string{"array", "dispatch", "ftl", "controller", "bch", "ldpc", "nand", "obs", "bench", "runtime"} {
		set(layer+".cpu_self_share", shares[layer], "ratio")
	}
	set("runtime.gc_cycles_per_kop", ratio(float64(rt.numGC), kop), "1/kop")
	set("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio")
	return m
}

// stageSums are the program's virtual-time trace totals by span name.
type stageSums struct {
	dur        map[string]time.Duration
	softSenses int64
	dropped    int64
}

func (a stageSums) sub(b stageSums) stageSums {
	out := stageSums{dur: map[string]time.Duration{}, softSenses: a.softSenses - b.softSenses, dropped: a.dropped - b.dropped}
	for k, v := range a.dur {
		out.dur[k] = v - b.dur[k]
	}
	return out
}

// stageTotals sums the tracer's span durations by name, streaming its
// Chrome trace-event export (one event per line) through a pipe so the
// export is never held in memory.
func stageTotals(tr *obs.Tracer) (stageSums, error) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := tr.WriteJSON(pw)
		pw.CloseWithError(err)
		done <- err
	}()
	sums := stageSums{dur: map[string]time.Duration{}}
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var ev struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
		Args struct {
			Senses int64 `json:"senses"`
			Count  int64 `json:"count"`
		} `json:"args"`
	}
	var perr error
	for sc.Scan() {
		line := bytes.TrimRight(sc.Bytes(), ",")
		if !bytes.HasPrefix(line, []byte(`{"name":`)) {
			continue
		}
		ev.Args.Senses, ev.Args.Count, ev.Dur = 0, 0, 0
		if err := json.Unmarshal(line, &ev); err != nil {
			perr = err
			break
		}
		switch {
		case ev.Ph == "X":
			sums.dur[ev.Name] += time.Duration(math.Round(ev.Dur * 1000))
			if ev.Name == "soft_sense" {
				sums.softSenses += ev.Args.Senses
			}
		case ev.Name == "events_dropped":
			sums.dropped += ev.Args.Count
		}
	}
	if perr == nil {
		perr = sc.Err()
	}
	// Drain the rest so the writer can finish, then wait for it.
	io.Copy(io.Discard, pr)
	if err := <-done; perr == nil {
		perr = err
	}
	return sums, perr
}

// layerOfPackage maps an internal package to the layer its CPU time is
// charged to. Helper packages (gf, stats, sim, timing, ecc) are not
// layers: their samples charge to the nearest layer frame above them.
var layerOfPackage = map[string]string{
	"array": "array", "dispatch": "dispatch", "ftl": "ftl", "controller": "controller",
	"bch": "bch", "ldpc": "ldpc", "nand": "nand", "obs": "obs",
}

// cpuShares folds a CPU profile with `go tool pprof -traces` and charges
// each sample to the deepest frame of a layer package, so that runtime
// work (memmove, mallocgc) charges to the layer that asked for it.
// Samples whose deepest non-runtime frame is the benchmark's own code
// charge to bench; samples with neither charge to runtime. It also
// returns how many distinct stacks the profile held.
func cpuShares(profile string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	totals := map[string]float64{}
	var all float64
	stacks := 0
	var value float64
	var layer string
	flush := func() {
		if value > 0 {
			if layer == "" {
				layer = "runtime"
			}
			totals[layer] += value
			all += value
			stacks++
		}
		value, layer = 0, ""
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[len(fields)-1]
		if len(fields) >= 2 && value == 0 && layer == "" {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				value = float64(d)
			}
		}
		if value == 0 || layer != "" {
			continue
		}
		if pkg, ok := strings.CutPrefix(fn, "xlnand/internal/"); ok {
			if i := strings.IndexByte(pkg, '.'); i > 0 {
				if l, ok := layerOfPackage[pkg[:i]]; ok {
					layer = l
				}
			}
		} else if strings.HasPrefix(fn, "main.") {
			layer = "bench"
		}
	}
	flush()
	shares := map[string]float64{}
	for k, v := range totals {
		if all > 0 {
			shares[k] = v / all
		}
	}
	return shares, stacks, nil
}
