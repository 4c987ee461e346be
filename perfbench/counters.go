package main

import "time"

// layerCounters is a snapshot of the cumulative counters the program's
// own reports expose, layer by layer. A window's figures are the
// difference of two snapshots.
type layerCounters struct {
	simClock time.Duration

	// array
	rounds, stalls                          int64
	cacheHits, cacheMisses, cacheWritebacks int64
	degradedReads, reconBytes               int64
	rebuiltPages, parityStale               int64

	// ftl: host-facing page reads and writes of every drive's FTL, and
	// the background work they caused.
	driveReads, driveWrites int64
	gcMoves, erases         int64

	// controller: RetryHist-derived ladder depth over every read the
	// controllers served, and the recovery outcomes.
	ctrlReads                             int64
	retries, retriedReads, retryRecovered int64
	softAttempts, softRecovered           int64
	cleanReads, uncorrectable             int64
	// Capability level of the benchmark's own reads (aged workloads).
	levelSum, levelReads int64
}

func (c layerCounters) sub(o layerCounters) layerCounters {
	return layerCounters{
		simClock:        c.simClock - o.simClock,
		rounds:          c.rounds - o.rounds,
		stalls:          c.stalls - o.stalls,
		cacheHits:       c.cacheHits - o.cacheHits,
		cacheMisses:     c.cacheMisses - o.cacheMisses,
		cacheWritebacks: c.cacheWritebacks - o.cacheWritebacks,
		degradedReads:   c.degradedReads - o.degradedReads,
		reconBytes:      c.reconBytes - o.reconBytes,
		rebuiltPages:    c.rebuiltPages - o.rebuiltPages,
		parityStale:     c.parityStale - o.parityStale,
		driveReads:      c.driveReads - o.driveReads,
		driveWrites:     c.driveWrites - o.driveWrites,
		gcMoves:         c.gcMoves - o.gcMoves,
		erases:          c.erases - o.erases,
		ctrlReads:       c.ctrlReads - o.ctrlReads,
		retries:         c.retries - o.retries,
		retriedReads:    c.retriedReads - o.retriedReads,
		retryRecovered:  c.retryRecovered - o.retryRecovered,
		softAttempts:    c.softAttempts - o.softAttempts,
		softRecovered:   c.softRecovered - o.softRecovered,
		cleanReads:      c.cleanReads - o.cleanReads,
		uncorrectable:   c.uncorrectable - o.uncorrectable,
		levelSum:        c.levelSum - o.levelSum,
		levelReads:      c.levelReads - o.levelReads,
	}
}
