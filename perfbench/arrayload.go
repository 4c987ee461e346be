package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"xlnand/internal/array"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// arrayShape sizes the two array workloads. Every drive is
// Dies × BlocksPerDie of NAND behind its own dispatcher and FTL.
type arrayShape struct {
	drives, dies, blocks int
	batch                int // ops per Drain window
	prefixBatches        int // batches the modelled figures cover
}

// arrayStack drives an array.Array through Submit/Drain from one client
// goroutine.
type arrayStack struct {
	a     *array.Array
	o     *oracle
	rng   *rand.Rand
	shape arrayShape
	bufs  [][]byte // one destination per in-flight read
	ops   []array.Op
	used  []uint32 // per page: the batch generation that last drew it
	gen   uint32
	mixed *mixedGen // nil for the read-only workload
	spans *spanLog  // benchmark-side spans; nil when tracing is off
}

// mixedGen is the op generator of mixed-degraded: a skewed 70/30
// read/write mix over the working set, split between two tenants. The
// hot fifth of the working set is every fifth page, the same for every
// seed, so seeds vary the ops and not the skew.
type mixedGen struct {
	ws int // working-set pages
}

const (
	tenantApp   = "app"
	tenantBatch = "batch"
)

// drainSpan names the benchmark-side span around one Drain window
// (its Submits included).
const drainSpan = "Array.Drain window"

func (s *arrayStack) simNow() time.Duration { return s.a.Clock() }

func (s *arrayStack) setSpans(l *spanLog) { s.spans = l }

// buses counts the array members' flash buses, one per drive.
func (s *arrayStack) buses() int { return s.shape.drives }

func (s *arrayStack) close() { s.a.Close() }

func (s *arrayStack) digest() (string, error) {
	js, err := s.a.Report().JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:8]), nil
}

func (s *arrayStack) counters() layerCounters {
	rep := s.a.Report()
	c := layerCounters{
		simClock:        s.a.Clock(),
		rounds:          rep.Rounds,
		stalls:          rep.QoSStalls,
		cacheHits:       rep.Cache.Hits,
		cacheMisses:     rep.Cache.Misses,
		cacheWritebacks: rep.Cache.Writebacks,
		degradedReads:   rep.Totals.DegradedReads,
		reconBytes:      rep.Totals.ReconstructedBytes,
		parityStale:     rep.Totals.ParityStaleEvents,
	}
	for _, rb := range rep.Rebuilds {
		c.rebuiltPages += int64(rb.Pages)
	}
	for _, d := range append(rep.PerDrive, rep.Retired...) {
		c.addDrive(d)
	}
	return c
}

// addDrive folds one drive's report into the counters.
func (c *layerCounters) addDrive(d array.DriveReport) {
	c.driveReads += int64(d.HostReads)
	c.driveWrites += int64(d.HostWrites)
	c.gcMoves += int64(d.GCMoves)
	c.erases += int64(d.Erases)
	for i, n := range d.RetryHist {
		c.ctrlReads += int64(n)
		c.retries += int64(i * n)
		if i > 0 {
			c.retriedReads += int64(n)
		}
	}
	c.retryRecovered += int64(d.RetryRecovered)
	c.softAttempts += int64(d.SoftAttempts)
	c.softRecovered += int64(d.SoftRecovered)
	c.cleanReads += d.CleanReads
	c.uncorrectable += d.UncorrectableReads
}

// newCleanRead builds clean-read: a 16-drive array without redundancy
// and with the host cache off, written end to end and read once.
func newCleanRead(seed uint64, sz arrayShape, trace *obs.Tracer, heap *heapProbe) (stack, error) {
	a, err := array.New(array.Config{
		Drives: sz.drives, DiesPerDrive: sz.dies, BlocksPerDie: sz.blocks,
		Seed: deviceSeed, Redundancy: "none", Trace: trace,
	})
	if err != nil {
		return nil, err
	}
	s := newArrayStack(a, seed, sz)
	n := a.VolumePages()
	if err := s.fill(n, heap); err != nil {
		a.Close()
		return nil, err
	}
	// Warm pass: every page once, so each drive controller's first-read
	// decoder warm-up happens before the window.
	if err := s.readAll(n, heap); err != nil {
		a.Close()
		return nil, err
	}
	return s, nil
}

// mixedFill is the share of mixed-degraded's volume set-up writes and
// the window works on; the rest leaves every drive's FTL room to
// garbage-collect.
const mixedFill = 0.7

// mixedFailRound is the scheduling round, counted from the end of
// set-up, at which mixed-degraded's victim drive fail-stops.
const mixedFailRound = 20

// newMixedDegraded builds mixed-degraded: a 16-drive rotating-parity
// array with one hot spare, a host cache of 512 pages against a
// 70%-full volume, two tenants (one throttled, with an SLO), and one
// data drive that fail-stops mixedFailRound rounds into the window.
func newMixedDegraded(seed uint64, sz arrayShape, trace *obs.Tracer, heap *heapProbe) (stack, error) {
	cfg := array.Config{
		Drives: sz.drives, DiesPerDrive: sz.dies, BlocksPerDie: sz.blocks,
		Seed: deviceSeed, Redundancy: "parity", Spares: 1, Trace: trace,
		Cache: array.CacheConfig{Pages: 512},
		Tenants: []array.TenantConfig{
			{Name: tenantApp},
			{Name: tenantBatch, Rate: 20000, Burst: 64, SLOTarget: 2 * time.Millisecond},
		},
	}
	// The victim fail-stops mixedFailRound rounds after set-up. Set-up
	// writes the working set in batch-sized Drains to an unthrottled
	// tenant through the write-back cache, one round each, so its round
	// count follows from the shape; both figures are checked against the
	// array's own once it is built.
	env := sim.DefaultEnv()
	perDrive := (sz.dies*sz.blocks - 1) * env.Cal.PagesPerBlock
	ws := int(float64((sz.drives-1)*perDrive) * mixedFill)
	setupRounds := int64((ws + sz.batch - 1) / sz.batch)
	cfg.Faults = array.FaultPlan{Seed: deviceSeed, Drives: []array.DriveFault{
		{Drive: sz.drives / 3, FailStopRound: setupRounds + mixedFailRound},
	}}
	a, err := array.New(cfg)
	if err != nil {
		return nil, err
	}
	if got := a.VolumePages(); got != (sz.drives-1)*perDrive {
		a.Close()
		return nil, fmt.Errorf("mixed-degraded: volume has %d pages, the fault plan assumes %d", got, (sz.drives-1)*perDrive)
	}
	s := newArrayStack(a, seed, sz)
	s.mixed = &mixedGen{ws: ws}
	if err := s.fill(ws, heap); err != nil {
		a.Close()
		return nil, err
	}
	if err := s.a.Flush(); err != nil {
		a.Close()
		return nil, err
	}
	if got := a.Report().Rounds; got != setupRounds {
		a.Close()
		return nil, fmt.Errorf("mixed-degraded: set-up took %d rounds, the fault plan assumes %d", got, setupRounds)
	}
	return s, nil
}

func newArrayStack(a *array.Array, seed uint64, sz arrayShape) *arrayStack {
	s := &arrayStack{
		a:     a,
		o:     newOracle(seed, a.VolumePages(), a.PageBytes()),
		rng:   rand.New(rand.NewPCG(seed, 0x61727261)),
		shape: sz,
		bufs:  make([][]byte, sz.batch),
		ops:   make([]array.Op, 0, sz.batch),
		used:  make([]uint32, a.VolumePages()),
	}
	for i := range s.bufs {
		s.bufs[i] = make([]byte, a.PageBytes())
	}
	return s
}

// fill writes pages [0, n) sequentially, one batch per Drain.
func (s *arrayStack) fill(n int, heap *heapProbe) error {
	for p := 0; p < n; p++ {
		v, data := s.o.next(p)
		if err := s.a.Submit(array.Op{Tenant: s.tenant0(), Write: true, Page: p, Data: data}); err != nil {
			return err
		}
		s.o.wrote(p, v, true)
		if p%s.shape.batch == s.shape.batch-1 || p == n-1 {
			res, err := s.a.Drain()
			if err != nil {
				return err
			}
			for _, r := range res {
				if r.Err != nil {
					return fmt.Errorf("set-up write of page %d: %w", r.Page, r.Err)
				}
			}
			heap.sample()
		}
	}
	return nil
}

// readAll reads pages [0, n) once and checks each against the oracle.
func (s *arrayStack) readAll(n int, heap *heapProbe) error {
	for p := 0; p < n; p += s.shape.batch {
		end := min(p+s.shape.batch, n)
		for q := p; q < end; q++ {
			if err := s.a.Submit(array.Op{Tenant: s.tenant0(), Page: q, Buf: s.bufs[q-p]}); err != nil {
				return err
			}
		}
		res, err := s.a.Drain()
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("warm read of page %d: %w", r.Page, r.Err)
			}
			if !s.o.check(r.Page, r.Data) {
				return fmt.Errorf("warm read of page %d returned wrong bytes", r.Page)
			}
		}
		heap.sample()
	}
	return nil
}

func (s *arrayStack) tenant0() string {
	if s.mixed != nil {
		return tenantApp
	}
	return "default"
}

// batch generates one Drain window of ops, runs it and checks it.
func (s *arrayStack) batch(w *window) error {
	s.gen++
	s.ops = s.ops[:0]
	for i := 0; i < s.shape.batch; i++ {
		s.ops = append(s.ops, s.nextOp(i))
	}
	// Writes' versions are recorded only once the batch drains: ops in
	// one window never share a page, so every read sees the version
	// current when the window opened.
	span := s.spans.begin(drainSpan, 0, 0)
	for i := range s.ops {
		sub := s.spans.begin("Array.Submit", span, uint64(i))
		if err := s.a.Submit(s.ops[i]); err != nil {
			return err
		}
		s.spans.end(sub)
	}
	res, err := s.a.Drain()
	s.spans.end(span)
	if err != nil {
		return err
	}
	pageBits := int64(s.a.PageBytes()) * 8
	for i := range res {
		r := &res[i]
		if r.Write {
			v := s.o.versions[r.Page] + 1
			s.o.wrote(r.Page, v, r.Err == nil)
			w.noteWrite(r.Latency, r.Err)
			continue
		}
		ok := r.Err == nil && s.o.check(r.Page, r.Data)
		w.noteRead(r.Latency, pageBits, r.Err, ok)
	}
	return nil
}

// nextOp draws the i-th op of the current batch.
func (s *arrayStack) nextOp(i int) array.Op {
	if s.mixed == nil {
		// Uniform reads over the whole volume.
		return array.Op{Tenant: "default", Page: s.rng.IntN(len(s.used)), Buf: s.bufs[i], Tag: uint64(i)}
	}
	m := s.mixed
	var page int
	for {
		if s.rng.IntN(5) < 4 {
			page = 5 * s.rng.IntN(m.ws/5)
		} else {
			page = s.rng.IntN(m.ws)
		}
		if s.used[page] != s.gen {
			break
		}
	}
	s.used[page] = s.gen
	tenant := tenantApp
	if s.rng.IntN(4) == 0 {
		tenant = tenantBatch
	}
	if s.rng.IntN(10) < 3 {
		// The op's own buffer carries the payload: the oracle's scratch
		// is reused by the next draw, before the batch is submitted.
		v := s.o.versions[page] + 1
		data := s.bufs[i]
		copy(data, s.o.content(page, v))
		return array.Op{Tenant: tenant, Write: true, Page: page, Data: data, Tag: uint64(i)}
	}
	return array.Op{Tenant: tenant, Page: page, Buf: s.bufs[i], Tag: uint64(i)}
}
