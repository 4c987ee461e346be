package main

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/ftl"
	"xlnand/internal/sim"
)

// replayTarget is a quiesced stack the layer-by-layer replay re-reads
// pages on: its dispatcher, the top-layer (FTL) read of a benchmark
// page, and the pages it may sample with their expected content.
type replayTarget struct {
	disp   *dispatch.Dispatcher
	read   func(page int) error
	expect func(page int) []byte
	pages  []int
	// cold pages are read by the workload with probability coldShare;
	// the replay samples them more often and weights them back down.
	cold      []int
	coldShare float64
	close     func()
}

// agedReplay replays on the aged workload's own stack after its window:
// the Storage read is the top layer.
func agedReplay(_ uint64, st stack) (replayTarget, error) {
	s := st.(*agedStack)
	var pages, cold []int
	for part := range s.parts {
		for lpa := 0; lpa < s.live(part); lpa++ {
			if part < len(modePartitions) {
				pages = append(pages, part*s.cap+lpa)
			} else {
				cold = append(cold, part*s.cap+lpa)
			}
		}
	}
	t := replayTarget{
		disp: s.sub.Dispatcher(),
		read: func(page int) error {
			_, _, err := s.st.Read(s.parts[page/s.cap].name, page%s.cap)
			return err
		},
		expect: s.o.current,
		pages:  pages,
		cold:   cold,
		close:  func() {},
	}
	if len(cold) > 0 {
		t.coldShare = 1 / float64(s.shape.coldEvery)
	}
	return t, nil
}

// arrayReplay returns the replay set-up of an array workload. The array
// does not expose its drives, so the replay runs on a standalone drive
// of the same per-drive shape, with the array's first drive's seed,
// written to the same fill level; its FTL read is the top layer.
func arrayReplay(sz arrayShape, fill float64) func(uint64, stack) (replayTarget, error) {
	return func(seed uint64, _ stack) (replayTarget, error) {
		env := sim.DefaultEnv()
		disp, err := dispatch.New(dispatch.Config{
			Dies: sz.dies, BlocksPerDie: sz.blocks, Seed: deviceSeed,
			Env: env, Controller: controller.DefaultConfig(),
		})
		if err != nil {
			return replayTarget{}, err
		}
		f, err := ftl.New(disp, env, []ftl.PartitionSpec{{Name: "vol", Blocks: sz.dies * sz.blocks}})
		if err != nil {
			disp.Close()
			return replayTarget{}, err
		}
		part, err := f.Partition("vol")
		if err != nil {
			disp.Close()
			return replayTarget{}, err
		}
		n := int(float64(part.Capacity()) * fill)
		o := newOracle(seed, part.Capacity(), disp.Geometry().PageDataBytes)
		pages := make([]int, n)
		for p := range pages {
			v, data := o.next(p)
			if _, err := f.Write("vol", p, data); err != nil {
				disp.Close()
				return replayTarget{}, err
			}
			o.wrote(p, v, true)
			pages[p] = p
		}
		dst := make([]byte, disp.Geometry().PageDataBytes)
		return replayTarget{
			disp: disp,
			read: func(page int) error {
				_, _, err := f.ReadInto("vol", page, dst)
				return err
			},
			expect: o.current,
			pages:  pages,
			close:  func() { disp.Close() },
		}, nil
	}
}

// replayFigures are the replay's per-layer wall-clock results, in µs
// per call. A layer's self time is its call's time minus the time of
// the layer calls beneath it.
type replayFigures struct {
	samples, softSamples int
	ftlSelf              float64
	dispatchSelf         float64
	controllerSelf       float64
	sense                float64            // one hard array sense
	decode               map[string]float64 // one hard decode, by codec family
	softDecode           float64            // one soft-input decode
	family               string
	meanLevel            float64
}

// physPage is a page's physical address.
type physPage struct{ die, block, page int }

// replay re-issues reads of a seeded sample of live pages one layer
// down at a time: the top-layer read, Queue.DoRead,
// Controller.ReadPageRetryInto, nand.Device.ReadInto (and ReadSoftN for
// pages that needed the soft rung), and the codec's Decode/DecodeSoft
// on the raw codeword that sense returned. It stops after budget.
func replay(t replayTarget, seed uint64, budget time.Duration) (replayFigures, error) {
	loc, err := locate(t)
	if err != nil {
		return replayFigures{}, err
	}
	located := func(ps []int) []int {
		var out []int
		for _, p := range ps {
			if _, ok := loc[p]; ok {
				out = append(out, p)
			}
		}
		return out
	}
	hot, cold := located(t.pages), located(t.cold)
	if len(hot) == 0 {
		return replayFigures{}, errors.New("no live page could be located")
	}
	rng := rand.New(rand.NewPCG(seed, 0x7265706c6179))
	geo := t.disp.Geometry()
	dst := make([]byte, geo.PageDataBytes)
	q := t.disp.NewQueue()
	fam := t.disp.Codec().Family().String()
	rf := replayFigures{decode: map[string]float64{}, family: fam}
	buf := make([]byte, 2*geo.PageDataBytes)
	llr := make([]int8, len(buf)*8)

	// Weighted sums (importance sampling): every tenth sample reads a
	// cold page when there are any, weighted back to the workload's
	// cold-read share.
	const coldSampling = 0.1
	var sumW, tSense, tDecode, levels float64
	var tSoftDecode time.Duration
	// Self times are differences of separate reads whose error patterns,
	// and so decode times, differ; their weighted medians resist the
	// heavy tail that differences of millisecond LDPC decodes have.
	var ftlSelf, dispSelf, ctrlSelf []weighted
	start := time.Now()
	for rf.samples < 4000 && (rf.samples < 20 || time.Since(start) < budget) {
		page, weight := hot[rng.IntN(len(hot))], 1.0
		coldSample := len(cold) > 0 && rf.samples%10 == 0
		switch {
		case coldSample:
			page, weight = cold[rf.samples/10%len(cold)], t.coldShare/coldSampling
		case len(cold) > 0:
			weight = (1 - t.coldShare) / (1 - coldSampling)
		}
		at := loc[page]
		sumW += weight
		secs := func(d time.Duration) float64 { return weight * d.Seconds() }
		var tFTL, tDisp, tCtrl time.Duration

		t0 := time.Now()
		if err := t.read(page); err != nil && !errors.Is(err, controller.ErrUncorrectable) {
			return rf, err
		}
		tFTL = time.Since(t0)

		var rr controller.ReadResult
		t0 = time.Now()
		_, err := q.DoRead(context.Background(), dispatch.Request{
			Op: dispatch.OpRead, Die: at.die, Block: at.block, Page: at.page,
		}, dst, &rr)
		tDisp = time.Since(t0)
		if err != nil && !errors.Is(err, controller.ErrUncorrectable) {
			return rf, err
		}

		var cerr error
		werr := t.disp.WithController(at.die, func(c *controller.Controller) {
			hits := c.CleanHits()
			t0 := time.Now()
			res, err := c.ReadPageRetryInto(at.block, at.page, c.ReadRetry(), dst)
			call := time.Since(t0)
			if err != nil && !errors.Is(err, controller.ErrUncorrectable) {
				cerr = err
				return
			}
			clean := int(c.CleanHits() - hits)
			soft, step := ladderShape(&res)
			hard := res.Retries + 1 - soft

			dev, codec := c.Device(), c.Codec()
			t0 = time.Now()
			nd, ns, err := dev.ReadInto(at.block, at.page, step, buf)
			sense := time.Since(t0)
			if err != nil {
				cerr = err
				return
			}
			t0 = time.Now()
			codec.Decode(res.T, buf[:nd+ns])
			dec := time.Since(t0)
			self := call - time.Duration(hard)*sense - time.Duration(hard-clean)*dec
			// Cold pages are where the soft rung works, so each cold sample
			// times one soft sense and decode whether or not this read
			// needed them.
			if codec.SupportsSoft() && (soft > 0 || coldSample) {
				softStep := max(dev.RetrySteps()-1, 0)
				t0 = time.Now()
				nd, ns, _, err := dev.ReadSoftN(at.block, at.page, softStep, dev.Stress().SoftSenses, buf, llr)
				softSense := time.Since(t0)
				if err != nil {
					cerr = err
					return
				}
				t0 = time.Now()
				codec.DecodeSoft(res.T, buf[:nd+ns], llr[:(nd+ns)*8])
				softDec := time.Since(t0)
				self -= time.Duration(soft) * (softSense + softDec)
				tSoftDecode += softDec
				rf.softSamples++
			}
			tCtrl = call
			ctrlSelf = append(ctrlSelf, weighted{self, weight})
			tSense += secs(sense)
			tDecode += secs(dec)
			levels += weight * float64(res.T)
		})
		if werr != nil {
			return rf, werr
		}
		if cerr != nil {
			return rf, cerr
		}
		ftlSelf = append(ftlSelf, weighted{tFTL - tDisp, weight})
		dispSelf = append(dispSelf, weighted{tDisp - tCtrl, weight})
		rf.samples++
	}
	us := func(sec float64) float64 { return sec * 1e6 / sumW }
	rf.ftlSelf = weightedMedianUs(ftlSelf)
	rf.dispatchSelf = weightedMedianUs(dispSelf)
	rf.controllerSelf = weightedMedianUs(ctrlSelf)
	rf.sense = us(tSense)
	rf.decode[fam] = us(tDecode)
	if rf.softSamples > 0 {
		rf.softDecode = float64(tSoftDecode) / float64(time.Microsecond) / float64(rf.softSamples)
	}
	rf.meanLevel = levels / sumW
	return rf, nil
}

// weighted is one replay sample's figure and its sampling weight.
type weighted struct {
	d time.Duration
	w float64
}

// weightedMedianUs is the weighted median of xs, in µs.
func weightedMedianUs(xs []weighted) float64 {
	slices.SortFunc(xs, func(a, b weighted) int { return cmp.Compare(a.d, b.d) })
	var total, acc float64
	for _, x := range xs {
		total += x.w
	}
	for _, x := range xs {
		acc += x.w
		if acc >= total/2 {
			return float64(x.d) / float64(time.Microsecond)
		}
	}
	return 0
}

// ladderShape returns how many soft attempts a read made and the
// reference step of its last hard attempt.
func ladderShape(res *controller.ReadResult) (soft, lastHardStep int) {
	if len(res.Stages) == 0 {
		if res.Soft {
			return 1, 0
		}
		return 0, res.AppliedOffset
	}
	for _, st := range res.Stages {
		if st.Soft {
			soft++
		} else {
			lastHardStep = st.Step
		}
	}
	return soft, lastHardStep
}

// locate finds the physical address of every live page the target may
// sample. The FTL does not expose its map, so each written physical
// page is sensed once, raw, and matched to the live page whose expected
// content it is closest to; a match must differ in under 30% of the
// compared bits (random content differs in half). Stale copies carry
// another version's payload and so match nothing.
func locate(t replayTarget) (map[int]physPage, error) {
	const sigBytes = 256
	type sig struct {
		page int
		b    []byte
	}
	var want []sig
	for _, p := range append(t.pages[:len(t.pages):len(t.pages)], t.cold...) {
		if e := t.expect(p); e != nil {
			want = append(want, sig{p, append([]byte(nil), e[:sigBytes]...)})
		}
	}
	geo := t.disp.Geometry()
	found := map[int]physPage{}
	for die := 0; die < geo.Dies; die++ {
		err := t.disp.WithController(die, func(c *controller.Controller) {
			dev := c.Device()
			buf := make([]byte, 2*geo.PageDataBytes)
			for blk := 0; blk < geo.BlocksPerDie; blk++ {
				for pg := 0; pg < geo.PagesPerBlock; pg++ {
					if _, _, err := dev.ReadInto(blk, pg, 0, buf); err != nil {
						continue // unwritten
					}
					best, bestDist := -1, sigBytes*8*3/10
					for _, w := range want {
						if d := hamming(buf[:sigBytes], w.b, bestDist); d < bestDist {
							best, bestDist = w.page, d
						}
					}
					if best >= 0 {
						found[best] = physPage{die, blk, pg}
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if len(found) < len(want)/2 {
		return found, fmt.Errorf("located %d of %d live pages", len(found), len(want))
	}
	return found, nil
}

// hamming counts the differing bits of a and b (equal lengths, a
// multiple of 8), giving up once the count reaches limit.
func hamming(a, b []byte, limit int) int {
	d := 0
	for i := 0; i < len(a) && d < limit; i += 8 {
		d += bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]))
	}
	return d
}
