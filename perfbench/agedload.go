package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"xlnand"
	"xlnand/internal/controller"
)

// agedShape sizes the two aged workloads, which enter through the root
// API: xlnand.Open plus NewStorage with one partition per service mode.
type agedShape struct {
	dies, blocks int     // per die; the partitions share them equally
	ws           int     // live pages per mode partition
	ldpc         bool    // LDPC codec, retry budget one past the hard ladder
	margin       float64 // reliability manager's RBER safety margin
	cycles       float64 // P/E wear every block reaches by stepped aging
	bakeHours    float64 // retention bake after aging
	// archiveCycles, when positive, adds an archive partition of
	// archivePages pages whose blocks keep aging, in the same steps, to
	// this wear before the bake. The window never rewrites it and reads
	// it on every coldEvery-th op.
	archiveCycles float64
	archivePages  int
	coldEvery     int
	batch         int // Storage calls per batch
	prefixBatches int
}

// The lifetime engine's aging discipline: wear advances by at most
// ageStepFactor per step (the first step lands at ageStepFloor) and every
// live page is rewritten between steps, as a background scrubber would.
const (
	ageStepFactor = 1.6
	ageStepFloor  = 1e3
	// hardLadderSteps is the default device's read-reference ladder
	// depth; a retry budget one past it arms the soft rung.
	hardLadderSteps = 6
)

type partition struct {
	name string
	mode xlnand.Mode
}

// modePartitions are the paper's three service modes, one partition
// each; the window reads and rewrites them.
var modePartitions = []partition{
	{"nominal", xlnand.ModeNominal},
	{"min-uber", xlnand.ModeMinUBER},
	{"max-read", xlnand.ModeMaxRead},
}

// agedStack drives a Storage from one client goroutine. Benchmark pages
// are numbered across partitions: page = partition*cap + lpa, the
// archive partition, when present, last.
type agedStack struct {
	sub   *xlnand.Subsystem
	st    *xlnand.Storage
	o     *oracle
	rng   *rand.Rand
	shape agedShape
	parts []partition
	per   int      // blocks per partition
	cap   int      // pages per partition
	spans *spanLog // benchmark-side spans; nil when tracing is off

	issued int64 // ops generated so far
	// Capability-level telemetry from the benchmark's own reads.
	levelSum, levelReads int64
}

func newAged(seed uint64, sz agedShape, tracer *xlnand.Tracer, heap *heapProbe) (stack, error) {
	opts := []xlnand.Option{
		xlnand.WithDies(sz.dies), xlnand.WithBlocks(sz.blocks), xlnand.WithSeed(deviceSeed),
	}
	if sz.ldpc {
		opts = append(opts, xlnand.WithCodec(xlnand.CodecLDPC), xlnand.WithReadRetry(hardLadderSteps+1))
	}
	if tracer != nil {
		opts = append(opts, xlnand.WithTrace(tracer))
	}
	sub, err := xlnand.Open(opts...)
	if err != nil {
		return nil, err
	}
	s := &agedStack{sub: sub, rng: rand.New(rand.NewPCG(seed, 0x61676564)), shape: sz}
	if err := s.build(seed, heap); err != nil {
		sub.Close()
		return nil, err
	}
	return s, nil
}

func (s *agedStack) build(seed uint64, heap *heapProbe) error {
	disp := s.sub.Dispatcher()
	for die := 0; die < s.sub.Dies(); die++ {
		if err := disp.WithController(die, func(c *controller.Controller) {
			c.Manager().SafetyMargin = s.shape.margin
		}); err != nil {
			return err
		}
	}
	s.parts = modePartitions
	if s.shape.archiveCycles > 0 {
		s.parts = append(s.parts[:len(s.parts):len(s.parts)], partition{"archive", xlnand.ModeNominal})
	}
	s.per = s.shape.dies * s.shape.blocks / len(s.parts)
	specs := make([]xlnand.PartitionSpec, len(s.parts))
	for i, p := range s.parts {
		specs[i] = xlnand.PartitionSpec{Name: p.name, Blocks: s.per, Mode: p.mode}
	}
	st, err := s.sub.NewStorage(specs)
	if err != nil {
		return err
	}
	s.st = st
	stats, err := st.Stats()
	if err != nil {
		return err
	}
	s.cap = stats[0].CapacityPages
	if s.shape.ws > s.cap || s.shape.archivePages > s.cap {
		return fmt.Errorf("working set exceeds the %d-page partitions", s.cap)
	}
	s.o = newOracle(seed, s.cap*len(s.parts), s.sub.PageSize())

	// Fill, age every block in steps with a refresh of every live page
	// between them, age the archive's blocks on alone, then bake.
	for part := range s.parts {
		for lpa := 0; lpa < s.live(part); lpa++ {
			page := part*s.cap + lpa
			v, data := s.o.next(page)
			if err := st.Write(s.parts[part].name, lpa, data); err != nil {
				return fmt.Errorf("fill %s/%d: %w", s.parts[part].name, lpa, err)
			}
			s.o.wrote(page, v, true)
		}
	}
	heap.sample()
	all := s.sub.Dies() * s.sub.Blocks()
	if err := s.ageTo(s.shape.cycles, 0, 0, all, 0, len(s.parts), heap); err != nil {
		return err
	}
	if s.shape.archiveCycles > 0 {
		a := len(s.parts) - 1
		if err := s.ageTo(s.shape.archiveCycles, s.shape.cycles, a*s.per, (a+1)*s.per, a, a+1, heap); err != nil {
			return err
		}
	}
	s.sub.AdvanceTime(s.shape.bakeHours)
	// Warm pass: read every live page of the mode partitions once, so
	// each die's calibration cache has learned the baked pages'
	// read-reference step before the window, from the same reads in the
	// same order whatever the seed. Left cold, whether the first reads
	// after the bake taught it or not split runs into a cheap and a dear
	// state.
	for part := range modePartitions {
		for lpa := 0; lpa < s.shape.ws; lpa++ {
			data, _, err := st.Read(s.parts[part].name, lpa)
			if err != nil {
				return fmt.Errorf("warm read %s/%d: %w", s.parts[part].name, lpa, err)
			}
			if !s.o.check(part*s.cap+lpa, data) {
				return fmt.Errorf("warm read %s/%d returned wrong bytes", s.parts[part].name, lpa)
			}
		}
	}
	heap.sample()
	return nil
}

// live is the number of live pages in partition part.
func (s *agedStack) live(part int) int {
	if part >= len(modePartitions) {
		return s.shape.archivePages
	}
	return s.shape.ws
}

// ageTo steps the wear of global blocks [b0, b1) from cur to target,
// refreshing the live pages of partitions [p0, p1) after every step.
// Global block g is block g/dies of die g%dies, as the FTL stripes them.
func (s *agedStack) ageTo(target, cur float64, b0, b1, p0, p1 int, heap *heapProbe) error {
	disp := s.sub.Dispatcher()
	dies := s.sub.Dies()
	for cur < target {
		next := min(max(cur*ageStepFactor, ageStepFloor), target)
		for g := b0; g < b1; g++ {
			c, err := disp.Cycles(g%dies, g/dies)
			if err != nil {
				return err
			}
			if err := disp.SetCycles(g%dies, g/dies, c+next-cur); err != nil {
				return err
			}
		}
		cur = next
		for part := p0; part < p1; part++ {
			if err := s.refresh(part); err != nil {
				return err
			}
		}
		heap.sample()
	}
	return nil
}

// refresh reads every live page of a partition, checks it against the
// oracle, and rewrites the decoded content (never the oracle's, so a
// miscorrection cannot be healed silently).
func (s *agedStack) refresh(part int) error {
	name := s.parts[part].name
	for lpa := 0; lpa < s.live(part); lpa++ {
		data, _, err := s.st.Read(name, lpa)
		if err != nil {
			return fmt.Errorf("refresh read %s/%d: %w", name, lpa, err)
		}
		if !s.o.check(part*s.cap+lpa, data) {
			return fmt.Errorf("refresh read %s/%d returned wrong bytes", name, lpa)
		}
		if err := s.st.Write(name, lpa, data); err != nil {
			return fmt.Errorf("refresh write %s/%d: %w", name, lpa, err)
		}
	}
	return nil
}

func (s *agedStack) simNow() time.Duration { return s.sub.Dispatcher().Now() }

func (s *agedStack) setSpans(l *spanLog) { s.spans = l }

// buses is 1: the dies of one subsystem share its flash bus.
func (s *agedStack) buses() int { return 1 }

func (s *agedStack) close() { s.sub.Close() }

func (s *agedStack) digest() (string, error) {
	stats, err := s.st.Stats()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v|now=%d|uncorrectable=%d", stats, s.simNow(), s.sub.Uncorrectables())
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func (s *agedStack) counters() layerCounters {
	c := layerCounters{simClock: s.simNow()}
	if stats, err := s.st.Stats(); err == nil {
		for _, p := range stats {
			c.driveReads += int64(p.HostReads)
			c.driveWrites += int64(p.HostWrites)
			c.gcMoves += int64(p.GCMoves)
			c.erases += int64(p.Erases)
		}
	}
	for die := 0; die < s.sub.Dies(); die++ {
		m := s.sub.DieController(die).Manager()
		for i, n := range m.RetryHistogram() {
			c.ctrlReads += int64(n)
			c.retries += int64(i * n)
			if i > 0 {
				c.retriedReads += int64(n)
			}
		}
		c.retryRecovered += int64(m.Recovered())
		att, rec := m.SoftStats()
		c.softAttempts += int64(att)
		c.softRecovered += int64(rec)
		c.uncorrectable += int64(m.Uncorrectables())
	}
	c.cleanReads = int64(s.sub.Dispatcher().CleanHits())
	c.levelSum, c.levelReads = s.levelSum, s.levelReads
	return c
}

// batch runs a fixed count of Storage calls: a 90/10 read/rewrite
// stream, uniform over the mode partitions' live pages, with every
// coldEvery-th op a read of the archive.
func (s *agedStack) batch(w *window) error {
	pageBits := int64(s.sub.PageSize()) * 8
	for i := 0; i < s.shape.batch; i++ {
		// The mix is exact, not sampled: op n is an archive read when
		// n%coldEvery == 5, else a rewrite when n%10 == 0.
		n := s.issued
		s.issued++
		part, lpa := s.rng.IntN(len(modePartitions)), s.rng.IntN(s.shape.ws)
		cold := s.shape.archiveCycles > 0 && n%int64(s.shape.coldEvery) == 5
		if cold {
			part, lpa = len(s.parts)-1, s.rng.IntN(s.shape.archivePages)
		}
		page := part*s.cap + lpa
		name := s.parts[part].name
		if !cold && n%10 == 0 {
			v, data := s.o.next(page)
			span := s.spans.begin("Storage.Write", 0, uint64(page))
			wr, err := s.st.WriteResult(name, lpa, data)
			s.spans.end(span)
			s.o.wrote(page, v, err == nil)
			var lat time.Duration
			if wr != nil {
				lat = wr.Latency.Total()
			}
			w.noteWrite(lat, err)
			continue
		}
		span := s.spans.begin("Storage.Read", 0, uint64(page))
		data, rr, err := s.st.Read(name, lpa)
		s.spans.end(span)
		if err != nil && !errors.Is(err, xlnand.ErrUncorrectable) {
			return fmt.Errorf("read %s/%d: %w", name, lpa, err)
		}
		var lat time.Duration
		if rr != nil {
			lat = rr.Latency.Total()
			s.levelSum += int64(rr.T)
			s.levelReads++
		}
		ok := err == nil && s.o.check(page, data)
		w.noteRead(lat, pageBits, err, ok)
	}
	return nil
}
