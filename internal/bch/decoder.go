package bch

import (
	"errors"
	"fmt"

	"xlnand/internal/gf"
)

// ErrUncorrectable is returned when the decoder detects more errors than
// the configured correction capability can repair. The codeword is left
// unmodified in that case.
var ErrUncorrectable = errors.New("bch: uncorrectable error pattern")

// Decoder runs the three-stage BCH decoding flow of the paper's Fig. 2:
// syndrome computation, Berlekamp-Massey, Chien search. One Decoder is
// bound to one code (one t); the adaptive Codec multiplexes between them.
//
// Decoder is safe for concurrent use: all mutable per-decode state lives
// in free-listed scratch contexts, so concurrent dies sharing one codec
// hold a lock only to pop or push one and never allocate in steady
// state.
type Decoder struct {
	code *Code
	syn  *SyndromeCalc
	div  *divider // remainder-first syndrome engine; nil for toy geometries
	pool freeList[decodeScratch]
}

// decodeScratch is the reusable working set of one in-flight Decode: the
// syndrome vector, the Berlekamp-Massey polynomial buffers, the Chien
// lane arrays and the found-position list. One scratch serves decodes of
// any capability up to the decoder's t.
type decodeScratch struct {
	syn   []uint32
	delta []uint32 // re-check accumulator, one entry per odd syndrome
	reg   []uint64 // polynomial-division register (remainder-first path)
	rem   []byte   // serialised remainder, r/8 bytes
	bm    bmScratch
	chien chienScratch
	pos   []int
}

// NewDecoder creates a decoder for the code, sharing the given syndrome
// calculator (pass nil to create a private one). The calculator's lookup
// tables for the code's capability are built eagerly here, so the first
// Decode on a latency-sensitive path does table lookups only.
func NewDecoder(c *Code, syn *SyndromeCalc) *Decoder {
	if syn == nil {
		syn = NewSyndromeCalc(c.Field)
	}
	syn.Prepare(c.T)
	d := &Decoder{code: c, syn: syn, div: newDivider(c)}
	t := c.T
	d.pool.new = func() *decodeScratch {
		sc := &decodeScratch{
			syn:   make([]uint32, 2*t),
			delta: make([]uint32, t),
			pos:   make([]int, 0, t+1),
		}
		if d.div != nil {
			sc.reg = make([]uint64, d.div.rw)
			sc.rem = make([]byte, d.div.rb)
		}
		sc.bm.grow(2 * t)
		sc.chien.grow(t + 2)
		return sc
	}
	return d
}

// Code returns the code this decoder was built for.
func (d *Decoder) Code() *Code { return d.code }

// Decode corrects the codeword (msg ++ parity bytes, as produced by
// Encoder.EncodeCodeword) in place. It returns the number of bit errors
// corrected, or ErrUncorrectable (codeword untouched) when the pattern
// exceeds the code's capability in a detectable way.
//
// The steady-state hot path allocates nothing and walks the codeword
// exactly once: all odd syndromes advance together in one fused pass,
// and the post-correction verification updates the syndromes
// algebraically from the flipped positions (O(errors·t)) instead of
// re-reading the page.
func (d *Decoder) Decode(codeword []byte) (int, error) {
	nbits := d.code.CodewordBits()
	if nbits%8 != 0 {
		return 0, fmt.Errorf("bch: codeword bits %d not byte aligned; use DecodePoly", nbits)
	}
	if len(codeword) != nbits/8 {
		return 0, fmt.Errorf("bch: codeword is %d bytes, want %d", len(codeword), nbits/8)
	}
	sc := d.pool.get()
	defer d.pool.put(sc)
	f := d.code.Field
	t := d.code.T

	// Remainder-first syndromes: divide the page by g(x) with the cheap
	// byte-LFSR, then evaluate S_1..S_2t on the r-bit remainder only —
	// bit-identical to the direct walk (see remainder.go), but the
	// expensive per-syndrome evaluation no longer touches the full page.
	// Short codewords (remainder comparable to the word itself) keep the
	// direct path.
	var syn []uint32
	if d.div != nil && len(codeword) > 2*d.div.rb {
		d.div.remainderInto(sc.rem, sc.reg, codeword)
		syn = d.syn.SyndromesInto(sc.syn, sc.rem, t)
	} else {
		syn = d.syn.SyndromesInto(sc.syn, codeword, t)
	}
	if AllZero(syn) {
		return 0, nil
	}
	lambda, L := berlekampMasseyInto(f, syn, &sc.bm)
	if L > t || len(lambda)-1 != L {
		return 0, ErrUncorrectable
	}
	positions, ok := chienSearchInto(f, lambda, nbits, sc.pos[:0], &sc.chien)
	sc.pos = positions[:0]
	if !ok {
		return 0, ErrUncorrectable
	}
	for _, p := range positions {
		codeword[p/8] ^= 1 << uint(7-p%8)
	}
	// Defensive re-check: a miscorrection beyond capability can leave
	// nonzero syndromes; verify and roll back rather than hand corrupted
	// data upward. Syndromes are linear in the codeword, so instead of
	// re-walking the page the flips are applied to the syndromes directly:
	// an error at polynomial degree p contributes alpha^(j·p) to S_j. Only
	// odd syndromes need checking — for a binary word S_2j = S_j^2, so
	// every even syndrome vanishes whenever all odd ones do.
	if !d.recheckOK(syn, positions, nbits, sc.delta) {
		for _, p := range positions {
			codeword[p/8] ^= 1 << uint(7-p%8)
		}
		return 0, ErrUncorrectable
	}
	return len(positions), nil
}

// recheckOK reports whether the odd syndromes, updated algebraically with
// the corrected bit positions, all vanish: each corrected error's
// contribution alpha^(j·deg) is accumulated per odd j into delta (scratch,
// >= t entries), stepping j -> j+2 with one MulAlphaN by alpha^(2·deg),
// and the correction is sound iff delta_j == S_j for every odd j.
func (d *Decoder) recheckOK(syn []uint32, positions []int, nbits int, delta []uint32) bool {
	f := d.code.Field
	N := f.N()
	t := d.code.T
	dl := delta[:t] // dl[i] accumulates the flips' contribution to S_{2i+1}
	for i := range dl {
		dl[i] = 0
	}
	for _, p := range positions {
		deg := nbits - 1 - p
		cur := f.Alpha(deg)     // alpha^(1·deg)
		step := (deg + deg) % N // j advances by 2 between odd syndromes
		for i := 0; i < t; i++ {
			dl[i] ^= cur
			cur = f.MulAlphaN(cur, step)
		}
	}
	for i := 0; i < t; i++ {
		if syn[2*i] != dl[i] {
			return false
		}
	}
	return true
}

// DecodePoly is the polynomial-level reference decoder used for
// non-byte-aligned toy codes and cross-validation. It returns the
// corrected codeword polynomial and the number of errors corrected.
func DecodePoly(c *Code, cw gf.Poly2) (gf.Poly2, int, error) {
	nbits := c.CodewordBits()
	syn := SyndromesPoly(c.Field, cw, c.T)
	if AllZero(syn) {
		return cw, 0, nil
	}
	lambda, L := BerlekampMassey(c.Field, syn)
	if L > c.T || len(lambda)-1 != L {
		return cw, 0, ErrUncorrectable
	}
	positions, ok := ChienSearch(c.Field, lambda, nbits)
	if !ok {
		return cw, 0, ErrUncorrectable
	}
	fix := gf.Poly2{}
	for _, p := range positions {
		fix = fix.Add(gf.NewPoly2FromCoeffs(nbits - 1 - p))
	}
	corrected := cw.Add(fix)
	if !AllZero(SyndromesPoly(c.Field, corrected, c.T)) {
		return cw, 0, ErrUncorrectable
	}
	return corrected, len(positions), nil
}
