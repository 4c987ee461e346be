package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
)

// poolPages is the number of distinct random page bodies the oracle
// precomputes. A page's content is one pool body plus a 16-byte header
// naming the page and its version, so a read that returns another
// page, a stale version or any flipped byte fails the check, while the
// whole oracle stays a few hundred KiB however large the volume is.
const poolPages = 256

// headerBytes is the size of the (page, version) stamp at the start of
// every page the benchmark writes.
const headerBytes = 16

// oracle is the benchmark's own record of what it wrote: the current
// version of every page it tracks, and the pool the contents derive
// from. Versions are int32 so a million-page volume costs 4 MiB.
type oracle struct {
	pool     [][]byte
	versions []int32 // newest version written; -1 before the first write
	unknown  []bool  // the last write failed, so either version may be stored
	scratch  []byte
	// flip, when set, corrupts one byte of the next read presented to
	// check: the benchmark's own test uses it to prove the check can fail.
	flip bool
}

func newOracle(seed uint64, pages, pageBytes int) *oracle {
	rng := rand.New(rand.NewPCG(seed, 0x6f7261636c65))
	o := &oracle{
		pool:     make([][]byte, poolPages),
		versions: make([]int32, pages),
		unknown:  make([]bool, pages),
		scratch:  make([]byte, pageBytes),
	}
	for i := range o.pool {
		b := make([]byte, pageBytes)
		for j := 0; j+8 <= len(b); j += 8 {
			binary.LittleEndian.PutUint64(b[j:], rng.Uint64())
		}
		o.pool[i] = b
	}
	for i := range o.versions {
		o.versions[i] = -1
	}
	return o
}

// body picks the pool entry for (page, version) and the rotation its
// payload is stored at, so two pages sharing a pool entry still differ
// in almost every bit.
func (o *oracle) body(page int, version int32) (b []byte, rot int) {
	h := uint64(page)*0x9e3779b97f4a7c15 ^ uint64(version)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	b = o.pool[(h>>32)%poolPages]
	return b, int(h%uint64(len(b)-headerBytes)) + headerBytes
}

// content renders (page, version) into the oracle's scratch buffer. The
// buffer is reused by the next call, so callers hand it to a write that
// copies it before asking for another.
func (o *oracle) content(page int, version int32) []byte {
	b, rot := o.body(page, version)
	n := copy(o.scratch[headerBytes:], b[rot:])
	copy(o.scratch[headerBytes+n:], b[headerBytes:rot])
	binary.LittleEndian.PutUint64(o.scratch[0:], uint64(page))
	binary.LittleEndian.PutUint64(o.scratch[8:], uint64(version))
	return o.scratch
}

// next returns the content of page's next version, without yet
// recording it: call wrote once the write has landed.
func (o *oracle) next(page int) (int32, []byte) {
	v := o.versions[page] + 1
	return v, o.content(page, v)
}

// wrote records the outcome of a write of page at version: on success
// the version becomes the expected content; on failure either version
// may be on the media, so the page is not checked until written again.
func (o *oracle) wrote(page int, version int32, ok bool) {
	o.versions[page] = version
	o.unknown[page] = !ok
}

// check reports whether data is the content the oracle expects for
// page. Pages never written, or in an unknown state, pass.
func (o *oracle) check(page int, data []byte) bool {
	v := o.versions[page]
	if v < 0 || o.unknown[page] {
		return true
	}
	if o.flip && len(data) > headerBytes {
		o.flip = false
		data[len(data)/2] ^= 0x5a
	}
	if len(data) != len(o.scratch) ||
		binary.LittleEndian.Uint64(data[0:]) != uint64(page) ||
		binary.LittleEndian.Uint64(data[8:]) != uint64(v) {
		return false
	}
	b, rot := o.body(page, v)
	n := len(b) - rot
	return bytes.Equal(data[headerBytes:headerBytes+n], b[rot:]) &&
		bytes.Equal(data[headerBytes+n:], b[headerBytes:rot])
}

// current returns the content the oracle expects for page now, or nil
// for a page never written or in an unknown state.
func (o *oracle) current(page int) []byte {
	v := o.versions[page]
	if v < 0 || o.unknown[page] {
		return nil
	}
	return o.content(page, v)
}
