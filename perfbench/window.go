package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// stack is one set-up instance of a workload: the program under test
// plus the generator and oracle that drive it.
type stack interface {
	// batch issues the next batch of generated ops, checks every read
	// against the oracle and records the outcome into w.
	batch(w *window) error
	// simNow is the program's modelled clock.
	simNow() time.Duration
	// digest hashes the program's own report (the array's FleetReport
	// or the partition stats), which must repeat exactly for a seed.
	digest() (string, error)
	// counters snapshots the per-layer counters the program reports.
	counters() layerCounters
	// setSpans attaches (or, with nil, detaches) the benchmark-side span log.
	setSpans(*spanLog)
	// buses is the number of flash buses the modelled time runs over.
	buses() int
	close()
}

// window accumulates one timed window. Host-side counts cover every op;
// the modelled (sim_*) figures cover only the first prefixBatches
// batches, a fixed amount of work, so they repeat exactly for a seed
// however fast the host is.
type window struct {
	prefixBatches int
	batches       int

	ops, reads, writes int64
	failed, wrong      int64 // ops that errored; reads with wrong bytes and no error
	batchWall          []time.Duration
	batchCPU           []time.Duration // process CPU time of each batch
	sliceRates         []float64       // host ops/s of each wall-time slice
	sliceCPU           []float64       // process CPU µs per host op of each slice

	// Modelled figures over the prefix.
	inPrefix             bool
	prefixOps            int64
	readLat, writeLat    []time.Duration
	bitsRead, bitsFailed int64
	simStart, simEnd     time.Duration
	prefixDigest         string
	prefixBefore         layerCounters // program counters when the window opened

}

// noteRead records one read's outcome. lat is its modelled latency as
// returned to the caller; ok reports the oracle's verdict.
func (w *window) noteRead(lat time.Duration, pageBits int64, err error, ok bool) {
	w.ops++
	w.reads++
	bad := err != nil || !ok
	if err != nil {
		w.failed++
	} else if !ok {
		w.failed++
		w.wrong++
	}
	if !w.inPrefix {
		return
	}
	w.prefixOps++
	w.bitsRead += pageBits
	if bad {
		w.bitsFailed += pageBits
	}
	if err == nil {
		w.readLat = append(w.readLat, lat)
	}
}

// noteWrite records one write's outcome.
func (w *window) noteWrite(lat time.Duration, err error) {
	w.ops++
	w.writes++
	if err != nil {
		w.failed++
	}
	if !w.inPrefix {
		return
	}
	w.prefixOps++
	if err == nil {
		w.writeLat = append(w.writeLat, lat)
	}
}

// heapProbe tracks the peak live heap (bytes the last GC marked live,
// runtime/metrics /gc/heap/live:bytes) at batch boundaries. Unlike
// in-use heap spans it does not swing with where a GC cycle happens to
// fall, and unlike ReadMemStats reading it does not stop the world.
type heapProbe struct {
	samples []metrics.Sample
	peak    uint64
}

func newHeapProbe() *heapProbe {
	return &heapProbe{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapProbe) sample() {
	if h == nil {
		return
	}
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// runtimeCounters are the Go runtime's cumulative counters a window
// differences.
type runtimeCounters struct {
	mallocs, numGC  uint64
	gcCPU, totalCPU float64
	wall            time.Time
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return runtimeCounters{
		mallocs:  ms.Mallocs,
		numGC:    uint64(ms.NumGC),
		gcCPU:    cpu[0].Value.Float64(),
		totalCPU: cpu[1].Value.Float64(),
		wall:     time.Now(),
	}
}

// cpuNow is the process's CPU time so far, user and system, all
// threads. The kernel leaves out time the host's hypervisor stole from
// this guest, which wall time cannot.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
