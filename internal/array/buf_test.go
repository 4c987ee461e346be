package array

import (
	"bytes"
	"testing"
)

// TestReadBufHonoured pins Op.Buf on every path that can serve a read:
// a direct drive read, a degraded read rebuilt from the row, a read
// recovered from the row after a persistent transient fault, and a read
// of a page written earlier in the same round. Each must fill the
// caller's buffer and hand it back as Result.Data.
func TestReadBufHonoured(t *testing.T) {
	const page = 5
	paths := []struct {
		name      string
		redundant bool // the path needs a redundancy code
		setup     func(a *Array, drv int)
		rewrite   bool // write version 1 in the read's own round
	}{
		{name: "direct", setup: func(*Array, int) {}},
		{name: "degraded", redundant: true, setup: func(a *Array, drv int) { a.kill(a.slots[drv]) }},
		{name: "transient-recovered", redundant: true, setup: func(a *Array, drv int) {
			a.slots[drv].d.errRate = 1 // every attempt refused: the fault escapes the drive
		}},
		{name: "read-after-write", setup: func(*Array, int) {}, rewrite: true},
	}
	for _, mode := range []string{RedundancyNone, RedundancyMirror, RedundancyParity} {
		for _, p := range paths {
			if p.redundant && mode == RedundancyNone {
				continue
			}
			t.Run(mode+"/"+p.name, func(t *testing.T) {
				cfg := testConfig(4)
				cfg.Redundancy = mode
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				for pg := 0; pg < 16; pg++ {
					if err := a.Submit(Op{Tenant: "default", Write: true, Page: pg, Data: pagePattern(a, pg, 0)}); err != nil {
						t.Fatal(err)
					}
				}
				mustDrain(t, a)
				drv, _ := a.code.locate(page)
				p.setup(a, drv)
				want := pagePattern(a, page, 0)
				if p.rewrite {
					want = pagePattern(a, page, 1)
					if err := a.Submit(Op{Tenant: "default", Write: true, Page: page, Data: want}); err != nil {
						t.Fatal(err)
					}
				}
				buf := make([]byte, a.PageBytes())
				if err := a.Submit(Op{Tenant: "default", Page: page, Buf: buf}); err != nil {
					t.Fatal(err)
				}
				res := mustDrain(t, a)
				r := res[len(res)-1]
				if r.Err != nil {
					t.Fatalf("read: %v", r.Err)
				}
				if len(r.Data) == 0 || &r.Data[0] != &buf[0] {
					t.Fatal("Result.Data does not alias Op.Buf")
				}
				if !bytes.Equal(r.Data, want) {
					t.Fatal("Op.Buf holds the wrong bytes")
				}
			})
		}
	}
}
