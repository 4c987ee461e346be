package array

import "testing"

// TestArrayRoundZeroAlloc pins the whole per-round hot path — QoS pick,
// round executor, dispatch lean reads, controller decode, result
// surfacing — at zero steady-state allocations. Ops carry caller-owned
// destination buffers (one per in-flight op; sharing would race) and
// every piece of round scratch is array-owned and reused.
func TestArrayRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	cfg := testConfig(4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n := a.VolumePages()
	data := make([]byte, a.PageBytes())
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}

	const batch = 16
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, a.PageBytes())
	}
	page := 0
	cycle := func() {
		for i := 0; i < batch; i++ {
			page = (page + 13) % n
			if err := a.Submit(Op{Tenant: "default", Page: page, Buf: bufs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		for a.sched.pending() > 0 {
			if _, err := a.round(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm all lazily-grown scratch: queue capacity, round scratch,
	// dispatch job pools, per-partition FTL buffers.
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(30, cycle); avg != 0 {
		t.Fatalf("steady-state array round allocates %.2f/batch, want 0", avg)
	}
}
