// Package array is the fleet-scale front end over the single-drive
// stack: an Array stripes a volume address space across N independent
// drives (each a full dispatcher + FTL instance with its own seeded RNG
// streams), serves reads through a host-side cache with pluggable
// eviction, buffers writes in a write-back buffer with deterministic
// flush ordering, and schedules tenants through token-bucket QoS.
// Cross-drive redundancy (rotating parity or mirroring), deterministic
// fault injection, degraded-mode operation, and background rebuild onto
// hot spares layer on top without giving up reproducibility.
//
// Determinism at scale is the design center. The front end runs in
// rounds: a single-threaded scheduler picks the round's ops, batches
// them per drive, the per-drive workers execute their batches
// concurrently, and a barrier joins them before any order-sensitive
// work (cache fills, parity math, telemetry merges, clock advance)
// happens — always in drive-index order, never completion order. Two
// runs with the same seed, submission sequence, and fault plan produce
// byte-identical fleet reports no matter how the goroutines interleave,
// even through drive deaths and rebuilds.
package array

import (
	"fmt"
	"math"
	"sync"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/ecc"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// Host-process trace thread ids (the front end is trace pid 0; drives
// are pid index+1). Tenants get tids from hostTidTenant0 in declared
// order, the rebuild tenant last.
const (
	hostTidSched   = 0 // scheduling rounds and QoS stalls
	hostTidCache   = 1 // cache hits/misses
	hostTidRecov   = 2 // degraded-read reconstructions
	hostTidRebuild = 3 // rebuild progress
	hostTidTenant0 = 10
)

// Config shapes an Array.
type Config struct {
	// Drives is the number of array slots (>= 1; parity needs >= 3,
	// mirror an even count >= 2).
	Drives int
	// DiesPerDrive and BlocksPerDie shape each drive (defaults 2 and 64).
	DiesPerDrive int
	BlocksPerDie int
	// Seed derives every drive's RNG streams (drive i runs at
	// Seed + i*driveSeedStride).
	Seed uint64
	// StripePages is the striping unit in volume pages (default 1:
	// consecutive pages land on consecutive drives).
	StripePages int
	// Redundancy selects cross-drive protection: "none" (default),
	// "parity" (RAID-5 rotating parity) or "mirror" (RAID-1 pairs).
	Redundancy string
	// Spares is the number of hot-spare drives standing by to replace
	// dead members (default 0). Spares only attach when Redundancy is
	// not "none" — without redundancy there is nothing to rebuild from.
	Spares int
	// Faults is the deterministic drive-fault schedule (zero = none).
	Faults FaultPlan
	// RebuildRate throttles background rebuild traffic, in pages per
	// modelled second through the reserved "rebuild" QoS tenant
	// (0 = unthrottled; rebuild still yields to the per-round budget).
	RebuildRate float64
	// Cache shapes the host cache; a zero-capacity cache disables both
	// read caching and write-back buffering.
	Cache CacheConfig
	// Tenants declares the QoS population (default: one unthrottled
	// tenant named "default"). The name "rebuild" is reserved when
	// redundancy is enabled.
	Tenants []TenantConfig
	// RoundOps bounds how many tenant ops one scheduling round admits
	// (default 8 per drive).
	RoundOps int
	// HitLatency is the modelled host-side service time of a cache hit
	// (default 1µs).
	HitLatency time.Duration
	// Family selects the drives' ECC codec family (zero = adaptive BCH).
	Family ecc.Family
	// Env overrides the model environment (nil = sim.DefaultEnv()).
	Env *sim.Env
	// Controller overrides the per-die controller config (nil = defaults).
	Controller *controller.Config
	// Trace, when non-nil, collects virtual-time spans from every layer:
	// the front end (rounds, QoS stalls, cache traffic, reconstructions,
	// rebuild progress) as trace process 0 and each drive's stack (dies,
	// bus, codec, FTL background work) as its own process. nil disables
	// tracing at zero per-op cost.
	Trace *obs.Tracer
}

// Op is one tenant operation against the volume address space.
type Op struct {
	Tenant string
	Write  bool
	Page   int // volume page address
	Data   []byte
	// Buf, for reads, is an optional caller-owned destination: the page
	// is decoded straight into it and Result.Data aliases it (no per-op
	// allocation). The caller must not touch Buf until the op's Result
	// has surfaced from Drain, and two in-flight reads must never share
	// one Buf: drive workers decode into their ops' buffers concurrently,
	// so a shared Buf is a data race, not just a stale result.
	Buf []byte
	// Tag is an opaque caller token echoed in the Result, mirroring
	// dispatch.Request.Tag one layer up.
	Tag uint64
}

// Result reports one completed Op in deterministic schedule order.
type Result struct {
	Tenant   string
	Write    bool
	Page     int
	Tag      uint64
	CacheHit bool
	Drive    int // serving slot; -1 for pure cache traffic
	Data     []byte
	Latency  time.Duration
	Err      error
}

// Array is the striped multi-drive front end. The scheduling front end
// (Submit, Drain, Flush, Report, Close) is confined to one caller
// goroutine; only the drive workers run concurrently, strictly between
// a phase's dispatch and its barrier.
type Array struct {
	cfg   Config
	code  stripeCode
	cache *hostCache
	sched *scheduler

	// slots are the logical array members; allDrives every physical
	// stack ever built (members + spares); sparePool the unattached
	// spares in attach order.
	slots      []*slot
	allDrives  []*drive
	sparePool  []*drive
	rebuildTen *tenant

	pageBytes    int
	stripes      int // stripe rows per drive
	perDriveLPAs int
	volumePages  int

	// written marks volume pages that have ever landed on a drive;
	// parityOK (codes whose writes read-modify-write the parity) marks
	// drive-local parity pages whose stored parity matches the row's data.
	written  []bool
	parityOK []bool

	clock        time.Duration // fleet modelled clock
	rounds       int64
	stalls       int64
	parityStale  int64
	rebuiltPages int64
	pendingWB    []writeback // dirty evictions carried into the next round

	// trace is the host front end's span stream (nil when tracing is
	// off); every hook through it is front-end confined.
	trace *obs.Stream

	// Front-end-owned op-class histograms: degraded reads served by
	// reconstruction and rebuild page copies (neither belongs to any one
	// drive). retired accumulates the per-class histograms of stacks
	// that died mid-run, so fleet-level summaries never lose history.
	latDegraded obs.LatencyHist
	latRebuild  obs.LatencyHist
	retired     [4]obs.LatencyHist // clean, retried, soft, write

	// scr is the round's reusable staging (front-end confined). The
	// results handed back from round are copied by Drain before the next
	// round recycles them.
	scr roundScratch
	// phaseWG is runPhase's reusable barrier: phases are strictly
	// sequential, so the group is always at zero between uses.
	phaseWG sync.WaitGroup

	rebuilds []*RebuildReport
	closed   bool
}

// fill records one cache-miss read whose data back-fills the cache
// after the round's barrier.
type fill struct{ slot, page int }

// roundScratch holds the per-round staging slices reused across rounds,
// so a steady-state round performs no allocations of its own: host
// results, drive-bound actions, cache fills, the per-slot phase batches,
// and the executor's host ops and read/write/reconstruction bookkeeping.
type roundScratch struct {
	results []Result
	acts    []action
	fills   []fill
	batches [][]driveOp
	host    []driveOp
	reads   []pendingRead
	writes  []hostWrite
	recs    []recRead
}

// phaseBatches returns the reusable per-slot batch staging, emptied.
// Phases run one at a time and a batch is dead once its barrier
// returns, so every phase of a round reuses the same slices.
func (a *Array) phaseBatches() [][]driveOp {
	if len(a.scr.batches) != len(a.slots) {
		a.scr.batches = make([][]driveOp, len(a.slots))
	}
	b := a.scr.batches
	for i := range b {
		b[i] = b[i][:0]
	}
	return b
}

// New opens an array of cfg.Drives fresh drives plus cfg.Spares hot
// spares.
func New(cfg Config) (*Array, error) {
	if cfg.Drives < 1 {
		return nil, fmt.Errorf("array: need >= 1 drive, got %d", cfg.Drives)
	}
	if cfg.DiesPerDrive == 0 {
		cfg.DiesPerDrive = 2
	}
	if cfg.BlocksPerDie == 0 {
		cfg.BlocksPerDie = 64
	}
	if cfg.StripePages == 0 {
		cfg.StripePages = 1
	}
	if cfg.StripePages < 1 {
		return nil, fmt.Errorf("array: bad stripe unit %d", cfg.StripePages)
	}
	if cfg.RoundOps == 0 {
		cfg.RoundOps = 8 * cfg.Drives
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = time.Microsecond
	}
	mode, code, err := normalizeRedundancy(cfg.Redundancy, cfg.Drives, cfg.StripePages)
	if err != nil {
		return nil, err
	}
	cfg.Redundancy = mode
	if cfg.Spares < 0 {
		return nil, fmt.Errorf("array: negative spare count %d", cfg.Spares)
	}
	if cfg.RebuildRate < 0 || math.IsNaN(cfg.RebuildRate) || math.IsInf(cfg.RebuildRate, 0) {
		return nil, fmt.Errorf("array: bad rebuild rate %v", cfg.RebuildRate)
	}
	if err := cfg.Faults.validate(cfg.Drives); err != nil {
		return nil, err
	}
	env := sim.DefaultEnv()
	if cfg.Env != nil {
		env = *cfg.Env
	}
	ctrlCfg := controller.DefaultConfig()
	if cfg.Controller != nil {
		ctrlCfg = *cfg.Controller
	}
	cache, err := newHostCache(cfg.Cache)
	if err != nil {
		return nil, err
	}
	sched, err := newScheduler(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, code: code, cache: cache, sched: sched}
	if a.code.m > 0 {
		if _, dup := sched.byName[rebuildTenant]; dup {
			return nil, fmt.Errorf("array: tenant name %q is reserved when redundancy is enabled", rebuildTenant)
		}
		t, err := newTenant(TenantConfig{Name: rebuildTenant, Rate: cfg.RebuildRate})
		if err != nil {
			return nil, err
		}
		sched.tenants = append(sched.tenants, t)
		sched.byName[rebuildTenant] = t
		a.rebuildTen = t
	}
	if cfg.Trace != nil {
		host := cfg.Trace.Process(0, "host")
		host.Thread(hostTidSched, "scheduler")
		host.Thread(hostTidCache, "cache")
		host.Thread(hostTidRecov, "recovery")
		host.Thread(hostTidRebuild, "rebuild")
		for i, t := range sched.tenants {
			t.tid = hostTidTenant0 + int32(i)
			host.Thread(t.tid, "tenant "+t.cfg.Name)
		}
		a.trace = host.Stream()
	}
	faults := make(map[int]DriveFault, len(cfg.Faults.Drives))
	for _, df := range cfg.Faults.Drives {
		faults[df.Drive] = df
	}
	for i := 0; i < cfg.Drives+cfg.Spares; i++ {
		d, err := newDrive(i, cfg, env, ctrlCfg)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.allDrives = append(a.allDrives, d)
	}
	for i := 0; i < cfg.Drives; i++ {
		s := &slot{id: i, d: a.allDrives[i]}
		if f, ok := faults[i]; ok {
			s.fault = f
			s.hasFault = true
			s.d.setFault(f, cfg.Faults.Seed)
		}
		a.slots = append(a.slots, s)
	}
	a.sparePool = append(a.sparePool, a.allDrives[cfg.Drives:]...)
	a.pageBytes = a.allDrives[0].disp.Geometry().PageDataBytes
	perDrive := a.allDrives[0].part.Capacity()
	a.stripes = perDrive / cfg.StripePages
	if a.stripes == 0 {
		a.Close()
		return nil, fmt.Errorf("array: stripe unit %d exceeds drive capacity %d pages",
			cfg.StripePages, perDrive)
	}
	a.perDriveLPAs = a.stripes * cfg.StripePages
	a.volumePages = a.perDriveLPAs * a.code.ds
	a.written = make([]bool, a.volumePages)
	if a.code.rmw() {
		a.parityOK = make([]bool, a.perDriveLPAs)
	}
	return a, nil
}

// VolumePages is the volume's capacity in pages (net of redundancy).
func (a *Array) VolumePages() int { return a.volumePages }

// PageBytes is the volume's page payload size.
func (a *Array) PageBytes() int { return a.pageBytes }

// Clock returns the fleet's modelled clock: the accumulated per-round
// critical path (slowest drive per phase) plus host-side service and
// QoS stall time.
func (a *Array) Clock() time.Duration { return a.clock }

// Submit queues one op on its tenant. Ops admit in QoS order, not
// submission order: one tenant's queue is FIFO, but the fair scheduler
// interleaves tenants, so an op that depends on another tenant's
// earlier op needs a Drain barrier between them. Results surface from
// Drain.
func (a *Array) Submit(op Op) error {
	if a.closed {
		return ErrClosed
	}
	if op.Page < 0 || op.Page >= a.volumePages {
		return fmt.Errorf("array: page %d outside volume [0,%d)", op.Page, a.volumePages)
	}
	if op.Write {
		if len(op.Data) != a.pageBytes {
			return fmt.Errorf("array: write needs %d bytes, got %d", a.pageBytes, len(op.Data))
		}
		// Copy: the caller may reuse its buffer; the op may sit queued
		// and then cached for many rounds.
		op.Data = append([]byte(nil), op.Data...)
	} else if op.Data != nil {
		return fmt.Errorf("array: read carries data")
	} else if op.Buf != nil && len(op.Buf) < a.pageBytes {
		return fmt.Errorf("array: read buffer needs %d bytes, got %d", a.pageBytes, len(op.Buf))
	}
	return a.sched.enqueue(op)
}

// Drain runs scheduling rounds until every tenant queue is empty and
// any active rebuild converged, returning completions in deterministic
// schedule order. A rebuild whose sources stay down (a second fault
// inside the repair window) is abandoned with its losses on record
// rather than spinning forever.
func (a *Array) Drain() ([]Result, error) {
	if a.closed {
		return nil, ErrClosed
	}
	var out []Result
	idle, idleLimit := 0, 4*a.perDriveLPAs+1024
	for a.sched.pending() > 0 || a.rebuildActive() {
		progress := a.rebuiltPages
		res, err := a.round()
		if err != nil {
			return out, err
		}
		out = append(out, res...)
		if a.sched.pending() == 0 && a.rebuildActive() {
			if a.rebuiltPages == progress {
				idle++
				if idle > idleLimit {
					a.abandonRebuild()
				}
			} else {
				idle = 0
			}
		}
	}
	// Dirty evictions raised by the last round's cache fills would
	// otherwise sit staged forever (they are already counted as
	// writebacks): land them before handing control back.
	a.drainPending()
	return out, nil
}

// drainPending executes any carried write-backs as one extra round.
func (a *Array) drainPending() {
	if len(a.pendingWB) == 0 {
		return
	}
	acts := a.wbActions(a.pendingWB)
	a.pendingWB = nil
	a.advance(a.execRound(acts, false))
}

// wbActions converts staged write-backs into round actions (no host
// result slot: they are the cache's own traffic).
func (a *Array) wbActions(wbs []writeback) []action {
	acts := make([]action, 0, len(wbs))
	for _, wb := range wbs {
		acts = append(acts, action{write: true, page: wb.page, data: wb.data})
	}
	return acts
}

// round runs one scheduling round: fire scheduled faults, refill
// buckets, pick fairly, serve from cache, then hand the drive-bound
// actions (plus any rebuild traffic) to the round executor
// and judge each faulted drive's UBER climate at the barrier.
func (a *Array) round() ([]Result, error) {
	a.rounds++
	roundStart := a.clock
	a.applyScheduledFaults()
	picked := a.sched.pick(a.cfg.RoundOps)
	if len(picked) == 0 && !a.rebuildActive() {
		// Every queued tenant is out of tokens: jump the fleet clock to
		// the earliest refill instead of spinning.
		wait := a.sched.stallWait()
		if wait <= 0 {
			return nil, fmt.Errorf("array: scheduler stalled with %d ops pending", a.sched.pending())
		}
		a.stalls++
		a.trace.Span1(hostTidSched, "qos_stall", a.clock, wait, "round", a.rounds)
		a.advance(wait)
		return nil, nil
	}

	if cap(a.scr.results) < len(picked) {
		a.scr.results = make([]Result, len(picked))
	}
	results := a.scr.results[:len(picked)]
	for i := range results {
		results[i] = Result{}
	}
	a.scr.results = results
	acts := a.scr.acts[:0]

	// Dirty evictions from the previous round's cache fills flush
	// first, preserving first-dirtied order ahead of new traffic.
	for _, wb := range a.pendingWB {
		acts = append(acts, action{write: true, page: wb.page, data: wb.data})
	}
	a.pendingWB = a.pendingWB[:0]

	fills := a.scr.fills[:0]
	var hostTime time.Duration

	for i, op := range picked {
		r := &results[i]
		r.Tenant, r.Write, r.Page, r.Tag = op.Tenant, op.Write, op.Page, op.Tag
		r.Drive = -1
		t := a.sched.byName[op.Tenant]
		if op.Write {
			t.stats.Writes++
			t.stats.BytesWrite += int64(len(op.Data))
			if a.cache.enabled() {
				// Write-back: ack into the buffer; the drive write
				// happens on eviction or flush.
				r.CacheHit = true
				r.Latency = a.cfg.HitLatency
				hostTime += a.cfg.HitLatency
				if wb := a.cache.put(op.Page, op.Data, true); wb != nil {
					acts = append(acts, a.wbActions([]writeback{*wb})...)
				}
				continue
			}
			acts = append(acts, action{write: true, page: op.Page, data: op.Data, res: r})
			continue
		}
		t.stats.Reads++
		if data, ok := a.cache.lookup(op.Page); ok {
			t.stats.CacheHits++
			t.stats.BytesRead += int64(len(data))
			a.trace.Instant1(hostTidCache, "cache_hit", a.clock, "page", int64(op.Page))
			r.CacheHit = true
			r.Data = copyInto(op.Buf, data)
			r.Latency = a.cfg.HitLatency
			hostTime += a.cfg.HitLatency
			continue
		}
		acts = append(acts, action{page: op.Page, res: r, buf: op.Buf})
		if a.cache.enabled() {
			a.trace.Instant1(hostTidCache, "cache_miss", a.clock, "page", int64(op.Page))
			fills = append(fills, fill{slot: i, page: op.Page})
		}
	}

	// Watermark flush: drain the write-back buffer down to the low
	// water once it crosses the high water, in first-dirtied order.
	high, low := a.watermarks()
	if a.cache.enabled() && a.cache.dirtyCount() >= high {
		acts = append(acts, a.wbActions(a.cache.flush(a.cache.dirtyCount()-low))...)
	}
	a.scr.acts, a.scr.fills = acts, fills

	progress := a.rebuiltPages
	crit := a.execRound(acts, true)
	a.judgeClimate()

	// Post-barrier, deterministic order: account read bytes, record
	// per-tenant latencies against any SLO, fill the cache with miss
	// data (evictions carry to the next round), and advance the fleet
	// clock by the round's critical path.
	for i := range results {
		r := &results[i]
		t := a.sched.byName[r.Tenant]
		if !r.Write && !r.CacheHit && r.Err == nil {
			t.stats.BytesRead += int64(len(r.Data))
		}
		if r.Err == nil {
			t.observe(r.Latency, a.rounds)
			if a.trace != nil {
				name := "read"
				if r.Write {
					name = "write"
				}
				a.trace.Span2(t.tid, name, roundStart, r.Latency,
					"page", int64(r.Page), "drive", int64(r.Drive))
			}
		}
	}
	for _, fl := range fills {
		r := &results[fl.slot]
		if r.Err != nil {
			continue
		}
		if wb := a.cache.fill(fl.page, r.Data); wb != nil {
			a.pendingWB = append(a.pendingWB, *wb)
		}
	}
	if len(picked) == 0 && crit == 0 && hostTime == 0 && a.rebuiltPages == progress && a.rebuildActive() {
		// Rebuild-only round that made no progress (token-starved or
		// sources deferred): jump the clock to the next rebuild token.
		wait := a.rebuildTen.tokenWait()
		if wait <= 0 {
			wait = time.Microsecond
		}
		a.stalls++
		a.trace.Span1(hostTidSched, "qos_stall", a.clock, wait, "round", a.rounds)
		a.advance(wait)
		return nil, nil
	}
	a.advance(crit + hostTime)
	if a.trace != nil && a.clock > roundStart {
		a.trace.Span2(hostTidSched, "round", roundStart, a.clock-roundStart,
			"round", a.rounds, "ops", int64(len(picked)))
	}
	return results, nil
}

// watermarks resolves the configured dirty watermarks against their
// defaults (3/4 and 1/4 of capacity).
func (a *Array) watermarks() (high, low int) {
	high, low = a.cfg.Cache.DirtyHighWater, a.cfg.Cache.DirtyLowWater
	if high <= 0 {
		high = a.cache.cap * 3 / 4
		if high < 1 {
			high = 1
		}
	}
	if low < 0 || low >= high {
		low = a.cache.cap / 4
		if low >= high {
			low = high - 1
		}
	}
	return high, low
}

// advance moves the fleet clock and refills every token bucket.
func (a *Array) advance(dt time.Duration) {
	if dt <= 0 {
		return
	}
	a.clock += dt
	a.sched.refill(dt)
}

// Flush writes back every dirty page, in first-dirtied order, through
// the drives. The write-back buffer is empty afterwards.
func (a *Array) Flush() error {
	if a.closed {
		return ErrClosed
	}
	wbs := append(a.pendingWB, a.cache.flush(0)...)
	a.pendingWB = nil
	if len(wbs) == 0 {
		return nil
	}
	a.advance(a.execRound(a.wbActions(wbs), false))
	return nil
}

// Close stops the drive workers and releases every drive (members,
// spares, and stacks already killed by faults). Dirty cache pages are
// NOT flushed — call Flush first if they matter. Idempotent; calls
// into the array after Close return ErrClosed.
func (a *Array) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for _, d := range a.allDrives {
		if d != nil {
			d.close()
		}
	}
}
