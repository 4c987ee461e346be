// Redundancy as one stripe code, and the one phased round executor
// that runs over it.
//
// Every mode is an instance of the same code: the slots split into
// groups of width members, and in each stripe row a group holds k data
// chunks plus m ∈ {0, 1} parity chunks, the parity being the XOR of the
// group's data chunks. None is N+0, every slot a group of one; mirror is
// 1+1 over slot pairs, where the XOR of one member is a copy; parity is
// (N-1)+1 over the whole row, with the parity chunk rotating by row.
//
// The executor runs each round as a short sequence of barriers: reads
// (host reads, read-modify-write old values, reconstruction peers,
// rebuild sources), recovery reads for transient faults, data writes,
// then parity writes. Each phase batches per drive, executes
// concurrently, and joins before the next phase's order-sensitive
// planning. An op is staged in the first phase after the reads it
// depends on. A k+0 or 1+1 write depends on no read — its parity, if
// any, is the written data itself — so it rides the read phase, and
// reads and writes stay interleaved per drive in op order. A wider
// row's write needs its old value and the old parity first, so it
// waits for the data-write phase and its parity for the last phase; a
// read of a page such a write updates in the same round is answered
// host-side from the accepted write.
package array

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Redundancy modes.
const (
	// RedundancyNone stripes with no cross-drive protection.
	RedundancyNone = "none"
	// RedundancyParity rotates RAID-5 parity across the stripe: N-1
	// data chunks plus one parity chunk per row, parity drive = row mod N.
	RedundancyParity = "parity"
	// RedundancyMirror pairs drives (2k, 2k+1) as RAID-1 copies.
	RedundancyMirror = "mirror"
)

// stripeCode is the array's redundancy geometry: which slot and
// drive-local page hold each volume page, and which slot holds each
// row's parity chunk.
type stripeCode struct {
	sp     int  // stripe unit in pages
	width  int  // slots per group
	k, m   int  // data and parity chunks per group row
	rotate bool // parity member = row mod width (else the group's last)
	ds     int  // distinct data chunks per stripe row, over all groups
}

// normalizeRedundancy resolves the config string and builds its code.
func normalizeRedundancy(mode string, drives, stripePages int) (string, stripeCode, error) {
	c := stripeCode{sp: stripePages, width: 1, k: 1}
	switch mode {
	case "", RedundancyNone:
		mode = RedundancyNone
	case RedundancyParity:
		if drives < 3 {
			return "", c, fmt.Errorf("array: parity redundancy needs >= 3 drives, got %d", drives)
		}
		c.width, c.k, c.m, c.rotate = drives, drives-1, 1, true
	case RedundancyMirror:
		if drives < 2 || drives%2 != 0 {
			return "", c, fmt.Errorf("array: mirror redundancy needs an even drive count >= 2, got %d", drives)
		}
		c.width, c.m = 2, 1
	default:
		return "", c, fmt.Errorf("array: unknown redundancy mode %q", mode)
	}
	c.ds = drives / c.width * c.k
	return mode, c, nil
}

// rmw reports whether a write must read the row's old values to update
// its parity: true for any parity chunk wider than a copy.
func (c *stripeCode) rmw() bool { return c.m > 0 && c.k > 1 }

// group is the slot range [lo, hi) of the group holding slot s.
func (c *stripeCode) group(s int) (lo, hi int) {
	lo = s / c.width * c.width
	return lo, lo + c.width
}

// parityIdx is the parity member's index within its group at row.
func (c *stripeCode) parityIdx(row int) int {
	if c.rotate {
		return row % c.width
	}
	return c.width - 1
}

// parityLoc is the slot holding the parity chunk of slot s's group at
// drive-local page lpa, or -1 when the code keeps none.
func (c *stripeCode) parityLoc(s, lpa int) int {
	if c.m == 0 {
		return -1
	}
	lo, _ := c.group(s)
	return lo + c.parityIdx(lpa/c.sp)
}

// locate maps a volume page to its data (slot, drive-local LPA).
func (c *stripeCode) locate(page int) (drv, lpa int) {
	stripe, off := page/c.sp, page%c.sp
	row, k := stripe/c.ds, stripe%c.ds
	g, j := k/c.k, k%c.k
	if c.m > 0 && j >= c.parityIdx(row) {
		j++
	}
	return g*c.width + j, row*c.sp + off
}

// pageOf inverts locate: the volume page stored on slot s at lpa, or -1
// when the slot holds the row's parity chunk there.
func (c *stripeCode) pageOf(s, lpa int) int {
	row, off := lpa/c.sp, lpa%c.sp
	g, j := s/c.width, s%c.width
	if c.m > 0 {
		p := c.parityIdx(row)
		if j == p {
			return -1
		}
		if j > p {
			j--
		}
	}
	return (row*c.ds+g*c.k+j)*c.sp + off
}

// anyRowWritten reports whether any data page of slot s's group row at
// lpa has ever landed on a drive.
func (a *Array) anyRowWritten(s, lpa int) bool {
	lo, hi := a.code.group(s)
	for j := lo; j < hi; j++ {
		if pj := a.code.pageOf(j, lpa); pj >= 0 && a.written[pj] {
			return true
		}
	}
	return false
}

// xorInto accumulates src into dst. Parity accumulation and degraded-
// read reconstruction both funnel through here, so the loop runs
// word-parallel: uint64 8-byte chunks with a byte tail (the unaligned
// load/store pair compiles to single MOVs on the targets we care
// about). XOR is bitwise, so chunking cannot change the result.
func xorInto(dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// xorOf is the XOR of the given member values written into dst (a new
// page when dst is nil). It is both the code's encode and its
// reconstruct; for a single member it is a copy.
func (a *Array) xorOf(dst []byte, comps []*internalRead) []byte {
	if dst == nil {
		dst = make([]byte, a.pageBytes)
	}
	dst = dst[:a.pageBytes]
	copy(dst, comps[0].data)
	for _, c := range comps[1:] {
		xorInto(dst, c.data)
	}
	return dst
}

// copyInto returns src copied into buf (a fresh slice when buf is nil).
func copyInto(buf, src []byte) []byte {
	if buf == nil {
		return append([]byte(nil), src...)
	}
	buf = buf[:len(src)]
	copy(buf, src)
	return buf
}

// internalRead is a drive read or write with no host result slot: RMW
// old values, reconstruction peers, parity updates, rebuild traffic.
// Owned by exactly one worker between dispatch and barrier.
type internalRead struct {
	data []byte
	err  error
	lat  time.Duration
}

// readKey identifies one deduplicated internal read.
type readKey struct{ slot, lpa int }

// readSet collects the internal reads one phase needs, deduplicated,
// in deterministic first-want order. The zero value is empty and
// allocates nothing until the first want.
type readSet struct {
	order []readKey
	m     map[readKey]*internalRead
}

// want registers (slot, lpa) for the phase and returns its shared slot.
func (rs *readSet) want(slot, lpa int) *internalRead {
	k := readKey{slot, lpa}
	if ir, ok := rs.m[k]; ok {
		return ir
	}
	if rs.m == nil {
		rs.m = map[readKey]*internalRead{}
	}
	ir := &internalRead{}
	rs.m[k] = ir
	rs.order = append(rs.order, k)
	return ir
}

// readPhase runs one read phase — the read set in want order, then the
// host ops in op order, per slot — and resolves its reconstructions,
// leaving the plan empty for the next read phase.
func (a *Array) readPhase(x *roundExec) time.Duration {
	b := a.phaseBatches()
	for _, k := range x.rs.order {
		b[k.slot] = append(b[k.slot], driveOp{lpa: k.lpa, slot: k.slot, out: x.rs.m[k]})
	}
	for _, op := range x.host {
		b[op.slot] = append(b[op.slot], op)
	}
	crit := a.runPhase(b)
	for _, rec := range x.recs {
		a.resolveRecon(rec)
	}
	x.rs, x.host, x.recs = readSet{}, x.host[:0], x.recs[:0]
	return crit
}

// runPhase hands each slot's non-empty batch to its attached member and
// blocks at the barrier; returns the phase's critical path (the slowest
// member's modelled time). Batches for slots with no member are a
// planner bug.
func (a *Array) runPhase(batches [][]driveOp) time.Duration {
	any := false
	for _, b := range batches {
		if len(b) > 0 {
			any = true
			break
		}
	}
	if !any {
		return 0
	}
	// a.phaseWG is reusable: the barrier below returns only once the
	// count is back to zero, and phases never overlap on the front-end
	// goroutine — hoisting it off the stack saves one heap allocation
	// per phase (the pointer escapes through the job channel).
	wg := &a.phaseWG
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		d := a.slots[i].d
		if d == nil {
			panic(fmt.Sprintf("array: phase batch for detached slot %d", i))
		}
		wg.Add(1)
		d.jobs <- driveJob{batch: b, wg: wg}
	}
	wg.Wait()
	var crit time.Duration
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		if e := a.slots[i].d.roundElapsed; e > crit {
			crit = e
		}
	}
	return crit
}

// action is one drive-bound host operation in round order: a read miss
// or a write leaving the cache layer (res == nil for cache write-backs,
// which have no host result slot).
type action struct {
	write bool
	page  int
	data  []byte
	// buf is the read's caller-owned destination (Op.Buf): every path
	// that serves the read fills it, so Result.Data aliases it.
	buf []byte
	res *Result
}

// loseWrite accounts one unrecoverable write honestly: a result slot
// gets the typed error; a write-back bumps the cache-loss counter.
func (a *Array) loseWrite(s *slot, act *action, cause error) {
	s.lostWrites++
	if act.res != nil {
		act.res.Drive = s.id
		act.res.Err = fmt.Errorf("array: write page %d lost: %w", act.page, cause)
		return
	}
	s.wbErrors++
	a.cache.stats.WritebackLost++
}

// isFault reports whether an op error is an injected transient fault.
func isFault(err error) bool { return errors.Is(err, ErrDriveFault) }

// pendingRead tracks a host read served directly in phase 1 so a
// persistent transient fault can be recovered in phase 2.
type pendingRead struct {
	res  *Result
	page int
	buf  []byte
}

// hostWrite is one host write reaching the drives this round. A write
// staged with the reads fans out to its data slot and, for a copy code,
// the copy (up to two member writes, outcome settled after the read
// phases); a read-modify-write's single data write waits for phase 3.
type hostWrite struct {
	act      *action
	drv, lpa int
	n        int
	slots    [2]int
	outs     [2]*internalRead // nil where act.res carries the result
	landed   [2]bool
	degraded bool          // data slot unwritable: parity alone carries the content
	oldData  *internalRead // RMW: the page's old value
}

// err is member write i's outcome.
func (w *hostWrite) err(i int) error {
	if w.outs[i] != nil {
		return w.outs[i].err
	}
	return w.act.res.Err
}

// prow accumulates one touched parity page's update plan: either a
// delta chain (old parity ⊕ old data ⊕ new data per write) or an
// absolute recompute from the row's current values.
type prow struct {
	l, pd     int
	absolute  bool
	skip      bool // parity slot unwritable: updates are dropped, honestly
	oldParity *internalRead
	peers     []peerRead
	writes    []int // indexes into the round's writes, op order
	stage     *internalRead
}

// peerRead is one row member's current value wanted for an absolute
// parity recompute; ir == nil marks a member that cannot be read.
type peerRead struct {
	page int
	ir   *internalRead
}

// recRead is one host read served by reconstruction: the XOR of the
// row's other members, which for a copy is the copy itself.
type recRead struct {
	res   *Result
	page  int
	drv   int
	buf   []byte
	comps []*internalRead
}

// roundExec is one round's plan, built on the front-end goroutine.
type roundExec struct {
	rs      readSet
	host    []driveOp
	reads   []pendingRead
	writes  []hostWrite
	recs    []recRead
	items   []rbItem
	pending map[int][]byte // RMW writes accepted this round, by page
	prows   map[int]*prow
	porder  []int
}

// execRound executes one round's drive-bound actions, interleaving
// rebuild traffic when allowed, and returns the round's accumulated
// critical-path time.
func (a *Array) execRound(acts []action, allowRebuild bool) time.Duration {
	x := roundExec{
		host:   a.scr.host[:0],
		reads:  a.scr.reads[:0],
		writes: a.scr.writes[:0],
		recs:   a.scr.recs[:0],
	}
	if allowRebuild {
		x.items = a.planRebuild()
	}
	a.planRebuildSources(&x)
	for ai := range acts {
		act := &acts[ai]
		switch {
		case !act.write:
			a.planRead(&x, act)
		case a.code.rmw():
			a.planRMW(&x, act)
		default:
			a.planWrite(&x, act)
		}
	}

	crit := a.readPhase(&x)
	// Phase 2: transient-faulted direct reads recover through the row.
	for _, prd := range x.reads {
		if !isFault(prd.res.Err) {
			continue
		}
		drv, lpa := a.code.locate(prd.page)
		rec, err := a.planRecon(&x, prd.page, drv, lpa, prd.buf)
		if err != nil {
			continue // the injected fault stands as the honest error
		}
		prd.res.Err = nil
		rec.res = prd.res
		x.recs = append(x.recs, rec)
	}
	crit += a.readPhase(&x)
	a.settleMemberWrites(&x)
	crit += a.writePhase(&x)
	crit += a.parityPhase(&x)
	a.finishRebuild(x.items)
	a.scr.host, a.scr.reads, a.scr.writes, a.scr.recs = x.host, x.reads, x.writes, x.recs
	return crit
}

// planRebuildSources wants every rebuild item's sources in the phase-1
// read set: the row's other written data members plus, for a data
// chunk, the parity chunk. A parity chunk gone stale loses the page;
// an unreadable source defers the item, except that a copy code's one
// source is the only place the content lives, so the page is lost.
func (a *Array) planRebuildSources(x *roundExec) {
	for i := range x.items {
		it := &x.items[i]
		pd := a.code.parityLoc(it.s.id, it.lpa)
		it.parity = it.s.id == pd
		if !it.parity {
			if a.code.rmw() && !a.parityOK[it.lpa] {
				it.lost = true // content existed only on the dead member
				continue
			}
			if !a.wantSource(x, it, pd) {
				continue
			}
		}
		lo, hi := a.code.group(it.s.id)
		for j := lo; j < hi; j++ {
			if j == pd || j == it.s.id {
				continue
			}
			if pj := a.code.pageOf(j, it.lpa); pj >= 0 && a.written[pj] && !a.wantSource(x, it, j) {
				break
			}
		}
	}
}

// wantSource adds slot j's copy of the item's page to its sources, or
// marks the item deferred (or lost, for a copy code) when j cannot be
// read this round.
func (a *Array) wantSource(x *roundExec, it *rbItem, j int) bool {
	if !a.slots[j].readable(it.lpa) {
		if a.code.k == 1 {
			it.lost = true
		} else {
			it.skip = true
		}
		it.comps = nil
		return false
	}
	it.comps = append(it.comps, x.rs.want(j, it.lpa))
	return true
}

// planRead routes one host read: forwarded from a same-round RMW write,
// served by its data slot, or reconstructed from the row.
func (a *Array) planRead(x *roundExec, act *action) {
	drv, lpa := a.code.locate(act.page)
	if v, ok := x.pending[act.page]; ok {
		// The accepted write is the newest version; forward it host-side.
		act.res.Drive = drv
		act.res.Data = copyInto(act.buf, v)
		act.res.Latency = a.cfg.HitLatency
		return
	}
	if a.slots[drv].readable(lpa) {
		x.host = append(x.host, driveOp{lpa: lpa, slot: drv, dst: act.buf, res: act.res})
		x.reads = append(x.reads, pendingRead{res: act.res, page: act.page, buf: act.buf})
		return
	}
	rec, err := a.planRecon(x, act.page, drv, lpa, act.buf)
	if err != nil {
		act.res.Drive = drv
		act.res.Err = err
		return
	}
	rec.res = act.res
	x.recs = append(x.recs, rec)
}

// planRecon plans a reconstruction of one page whose data slot cannot
// serve it. A copy is read straight into the host buffer among the
// phase's host ops; a wider row wants every written peer plus the
// parity chunk, which must be current.
func (a *Array) planRecon(x *roundExec, page, drv, lpa int, buf []byte) (recRead, error) {
	pd := a.code.parityLoc(drv, lpa)
	rec := recRead{page: page, drv: drv, buf: buf}
	if !a.code.rmw() {
		if pd < 0 || !a.slots[pd].readable(lpa) {
			return recRead{}, fmt.Errorf("array: read page %d: %w", page, ErrDriveDead)
		}
		ir := &internalRead{}
		x.host = append(x.host, driveOp{lpa: lpa, slot: pd, dst: buf, out: ir})
		rec.comps = []*internalRead{ir}
		a.slots[drv].degradedReads++
		return rec, nil
	}
	if !a.written[page] {
		return recRead{}, fmt.Errorf("array: page %d never written (drive %d %s)", page, drv, a.slots[drv].state)
	}
	if !a.parityOK[lpa] {
		return recRead{}, fmt.Errorf("array: page %d unreconstructable: parity stale: %w", page, ErrDriveDead)
	}
	if !a.slots[pd].readable(lpa) {
		return recRead{}, fmt.Errorf("array: page %d unreconstructable: parity drive %d down too: %w", page, pd, ErrDriveDead)
	}
	rec.comps = append(rec.comps, x.rs.want(pd, lpa))
	lo, hi := a.code.group(drv)
	for j := lo; j < hi; j++ {
		if j == pd || j == drv {
			continue
		}
		pj := a.code.pageOf(j, lpa)
		if pj < 0 || !a.written[pj] {
			continue
		}
		if !a.slots[j].readable(lpa) {
			return recRead{}, fmt.Errorf("array: page %d unreconstructable: peer drive %d down too: %w", page, j, ErrDriveDead)
		}
		rec.comps = append(rec.comps, x.rs.want(j, lpa))
	}
	a.slots[drv].degradedReads++
	return rec, nil
}

// resolveRecon XORs a reconstruction's components into the host result.
// The degraded-read class histogram and trace span record here: the
// reconstruction costs its slowest component read plus the host-side
// XOR service time, starting at the round's clock (the fleet clock does
// not advance until the round ends, so the span nests inside the
// round's).
func (a *Array) resolveRecon(rec recRead) {
	var lat time.Duration
	for _, c := range rec.comps {
		if c.err != nil {
			// A copy's read error is the page read's own error; an XOR
			// component's needs the page it was read for.
			rec.res.Drive = rec.drv
			rec.res.Err = c.err
			if a.code.rmw() {
				rec.res.Err = fmt.Errorf("array: degraded read page %d: %w", rec.page, c.err)
			}
			return
		}
		if c.lat > lat {
			lat = c.lat
		}
	}
	rec.res.Drive = rec.drv
	// A copy code's one member was read into the host buffer (or a fresh
	// page) for this read alone; a wider row's members are shared with
	// the phase, so they are XORed into the buffer or a new page.
	rec.res.Data = rec.comps[0].data
	if a.code.rmw() {
		rec.res.Data = a.xorOf(rec.buf, rec.comps)
	}
	rec.res.Latency += lat + a.cfg.HitLatency
	a.slots[rec.drv].reconBytes += int64(a.pageBytes)
	a.latDegraded.Record(lat + a.cfg.HitLatency)
	// The span covers the component-read window only (the host-side XOR
	// service time is not part of any drive's timeline), which keeps it
	// nested inside the round span even when the reconstruction is the
	// round's entire critical path.
	a.trace.Span2(hostTidRecov, "reconstruct", a.clock, lat,
		"page", int64(rec.page), "slot", int64(rec.drv))
}

// planWrite stages a write that depends on no read among the phase-1
// host ops: the data slot and, for a copy code, the copy, each an
// independent member write. The first staged member carries act.res.
func (a *Array) planWrite(x *roundExec, act *action) {
	drv, lpa := a.code.locate(act.page)
	w := hostWrite{act: act, drv: drv, lpa: lpa}
	for _, t := range [2]int{drv, a.code.parityLoc(drv, lpa)} {
		if t < 0 || !a.slots[t].writable() {
			continue
		}
		op := driveOp{write: true, lpa: lpa, data: act.data, slot: t}
		if w.n == 0 && act.res != nil {
			op.res = act.res
		} else {
			w.outs[w.n] = &internalRead{}
			op.out = w.outs[w.n]
		}
		x.host = append(x.host, op)
		w.slots[w.n] = t
		w.n++
	}
	if w.n == 0 {
		a.loseWrite(a.slots[drv], act, ErrDriveDead)
		return
	}
	x.writes = append(x.writes, w)
}

// settleMemberWrites books the phase-1 member writes: a member whose
// write failed is marked stale (under mirror its partner may hold a
// newer version); the page counts as written once any member holds it,
// and lost only when none does.
func (a *Array) settleMemberWrites(x *roundExec) {
	if a.code.rmw() {
		return
	}
	for wi := range x.writes {
		w := &x.writes[wi]
		anyOK := false
		for i, t := range w.slots[:w.n] {
			s := a.slots[t]
			if w.err(i) == nil {
				anyOK = true
				w.landed[i] = true
				s.markFresh(w.lpa)
				continue
			}
			s.markStale(w.lpa)
			if w.outs[i] != nil {
				s.wbErrors++
			}
		}
		if anyOK {
			a.written[w.act.page] = true
			continue
		}
		if w.act.res == nil {
			a.cache.stats.WritebackLost++
		}
		a.slots[w.slots[0]].lostWrites++
	}
}

// planRMW plans a read-modify-write: the data write for phase 3 and its
// row's parity update for phase 4, wanting the old data and old parity
// (delta chain) or the whole row (absolute recompute) in phase 1.
func (a *Array) planRMW(x *roundExec, act *action) {
	drv, lpa := a.code.locate(act.page)
	st := a.slots[drv]
	w := hostWrite{act: act, drv: drv, lpa: lpa}
	pr := a.prowFor(x, drv, lpa)
	if st.writable() {
		if a.written[act.page] {
			if st.readable(lpa) {
				w.oldData = x.rs.want(drv, lpa)
			} else {
				a.makeAbsolute(x, pr) // old value only reachable through the row
			}
		}
		w.slots[0], w.n = drv, 1
		if act.res == nil {
			w.outs[0] = &internalRead{}
		}
	} else {
		w.degraded = true
		if pr.skip {
			a.loseWrite(st, act, ErrDriveDead)
			return
		}
		a.makeAbsolute(x, pr)
		if act.res != nil {
			act.res.Drive = drv
		}
	}
	if !pr.skip && !pr.absolute {
		if a.parityOK[pr.l] {
			if a.slots[pr.pd].readable(pr.l) {
				if pr.oldParity == nil {
					pr.oldParity = x.rs.want(pr.pd, pr.l)
				}
			} else {
				a.makeAbsolute(x, pr)
			}
		} else if a.anyRowWritten(pr.pd, pr.l) {
			a.makeAbsolute(x, pr) // stale parity: re-establish from the row
		}
	}
	pr.writes = append(pr.writes, len(x.writes))
	if x.pending == nil {
		x.pending = map[int][]byte{}
	}
	x.pending[act.page] = act.data
	x.writes = append(x.writes, w)
}

// prowFor returns the parity update plan of the row holding lpa.
func (a *Array) prowFor(x *roundExec, drv, lpa int) *prow {
	if pr, ok := x.prows[lpa]; ok {
		return pr
	}
	pd := a.code.parityLoc(drv, lpa)
	pr := &prow{l: lpa, pd: pd, skip: !a.slots[pd].writable()}
	if x.prows == nil {
		x.prows = map[int]*prow{}
	}
	x.prows[lpa] = pr
	x.porder = append(x.porder, lpa)
	return pr
}

// makeAbsolute switches a row to an absolute parity recompute, wanting
// every written, readable data member in phase 1.
func (a *Array) makeAbsolute(x *roundExec, pr *prow) {
	wasPlanned := pr.absolute || pr.skip
	pr.absolute = true
	pr.oldParity = nil
	if wasPlanned || pr.peers != nil {
		return
	}
	lo, hi := a.code.group(pr.pd)
	for j := lo; j < hi; j++ {
		pj := a.code.pageOf(j, pr.l)
		if pj < 0 || !a.written[pj] {
			continue
		}
		p := peerRead{page: pj}
		if a.slots[j].readable(pr.l) {
			p.ir = x.rs.want(j, pr.l)
		}
		pr.peers = append(pr.peers, p)
	}
}

// writePhase runs phase 3: every rebuild copy, then the RMW data
// writes. A copy sits ahead of any same-phase host write to its slot,
// so the host write wins by batch order; a copy whose page a host write
// already overwrote in an earlier phase (on the copy's slot or one of
// its sources) is dropped and retried from the fresh source. Settles
// the RMW data writes afterwards: only landed writes feed parity.
func (a *Array) writePhase(x *roundExec) time.Duration {
	b := a.phaseBatches()
	for i := range x.items {
		it := &x.items[i]
		if it.skip || it.lost {
			continue
		}
		if a.overwritten(x, it) {
			it.skip = true
			continue
		}
		bad := false
		for _, c := range it.comps {
			if c.err != nil {
				bad = true
				break
			}
		}
		if bad {
			it.skip = true
			continue
		}
		// A one-member row's chunk is its source's page, which the write
		// only reads.
		data := it.comps[0].data
		if len(it.comps) > 1 {
			data = a.xorOf(nil, it.comps)
		}
		it.write = &internalRead{}
		b[it.s.id] = append(b[it.s.id], driveOp{write: true, lpa: it.lpa, slot: it.s.id,
			data: data, out: it.write})
	}
	if a.code.rmw() {
		for i := range x.writes {
			w := &x.writes[i]
			if !w.degraded {
				b[w.drv] = append(b[w.drv], driveOp{write: true, lpa: w.lpa, slot: w.drv,
					data: w.act.data, res: w.act.res, out: w.outs[0]})
			}
		}
	}
	crit := a.runPhase(b)
	if !a.code.rmw() {
		return crit
	}
	for i := range x.writes {
		w := &x.writes[i]
		if w.degraded {
			continue
		}
		if w.err(0) == nil {
			w.landed[0] = true
			a.written[w.act.page] = true
			a.slots[w.drv].markFresh(w.lpa)
			continue
		}
		a.slots[w.drv].lostWrites++
		if w.outs[0] != nil {
			a.slots[w.drv].wbErrors++
			a.cache.stats.WritebackLost++
		}
	}
	return crit
}

// overwritten reports whether a host write settled before phase 3
// landed on the rebuild item's group at its lpa, making the source
// image read in phase 1 stale.
func (a *Array) overwritten(x *roundExec, it *rbItem) bool {
	lo, hi := a.code.group(it.s.id)
	for wi := range x.writes {
		w := &x.writes[wi]
		if w.lpa != it.lpa {
			continue
		}
		for i, t := range w.slots[:w.n] {
			if w.landed[i] && t >= lo && t < hi {
				return true
			}
		}
	}
	return false
}

// parityPhase computes and runs phase 4, the RMW rows' parity writes,
// from the data writes that landed, then settles them.
func (a *Array) parityPhase(x *roundExec) time.Duration {
	if len(x.porder) == 0 {
		return 0
	}
	fin := map[int][]byte{}
	for i := range x.writes {
		w := &x.writes[i]
		if w.degraded || w.landed[0] {
			fin[w.act.page] = w.act.data // degraded: resolved by the parity write
		}
	}
	b := a.phaseBatches()
	for _, l := range x.porder {
		pr := x.prows[l]
		if pr.skip {
			if a.parityOK[l] && a.rowChanged(pr, x.writes) {
				a.parityOK[l] = false
				a.parityStale++
			}
			continue
		}
		val, ok := a.parityValue(pr, x.writes, fin)
		if !ok {
			a.parityOK[l] = false
			a.parityStale++
			a.failDegraded(pr, x.writes)
			continue
		}
		if val == nil {
			continue // nothing landed on this row
		}
		pr.stage = &internalRead{}
		b[pr.pd] = append(b[pr.pd], driveOp{write: true, lpa: l, slot: pr.pd, data: val, out: pr.stage})
	}
	crit := a.runPhase(b)
	for _, l := range x.porder {
		pr := x.prows[l]
		if pr.stage == nil {
			continue
		}
		if pr.stage.err != nil {
			a.parityOK[l] = false
			a.parityStale++
			a.failDegraded(pr, x.writes)
			continue
		}
		a.parityOK[l] = true
		a.slots[pr.pd].markFresh(l)
		for _, wi := range pr.writes {
			w := &x.writes[wi]
			if !w.degraded {
				continue
			}
			a.written[w.act.page] = true
			if w.act.res != nil {
				w.act.res.Latency += pr.stage.lat
			}
		}
	}
	return crit
}

// rowChanged reports whether any of the prow's writes landed.
func (a *Array) rowChanged(pr *prow, ws []hostWrite) bool {
	for _, wi := range pr.writes {
		if ws[wi].landed[0] {
			return true
		}
	}
	return false
}

// failDegraded surfaces the loss of every degraded write on a parity
// row whose parity update could not land.
func (a *Array) failDegraded(pr *prow, ws []hostWrite) {
	for _, wi := range pr.writes {
		w := &ws[wi]
		if w.degraded {
			a.loseWrite(a.slots[w.drv], w.act, ErrDriveDead)
		}
	}
}

// parityValue computes the new parity for a touched row. Returns
// (nil, true) when nothing landed, (nil, false) when the update is
// uncomputable (stale parity results).
func (a *Array) parityValue(pr *prow, ws []hostWrite, fin map[int][]byte) ([]byte, bool) {
	if pr.absolute {
		val := make([]byte, a.pageBytes)
		covered := map[int]bool{}
		for _, p := range pr.peers {
			if v, ok := fin[p.page]; ok {
				xorInto(val, v)
				covered[p.page] = true
				continue
			}
			if p.ir == nil || p.ir.err != nil {
				return nil, false
			}
			xorInto(val, p.ir.data)
			covered[p.page] = true
		}
		for _, wi := range pr.writes {
			w := &ws[wi]
			if covered[w.act.page] {
				continue
			}
			if v, ok := fin[w.act.page]; ok {
				xorInto(val, v)
				covered[w.act.page] = true
			}
		}
		return val, true
	}
	// Delta chain over the writes that landed, in op order.
	if pr.oldParity != nil && pr.oldParity.err != nil {
		return nil, false
	}
	val := make([]byte, a.pageBytes)
	if pr.oldParity != nil {
		copy(val, pr.oldParity.data)
	}
	chain := map[int][]byte{}
	changed := false
	for _, wi := range pr.writes {
		w := &ws[wi]
		if !w.landed[0] {
			continue
		}
		old, seen := chain[w.act.page]
		if !seen {
			if w.oldData != nil {
				if w.oldData.err != nil {
					return nil, false
				}
				old = w.oldData.data
			}
		}
		if old != nil {
			xorInto(val, old)
		}
		xorInto(val, w.act.data)
		chain[w.act.page] = w.act.data
		changed = true
	}
	if !changed {
		return nil, true
	}
	return val, true
}
