package xlnand

import (
	"bytes"
	"testing"
)

func openStorage(t *testing.T) (*Subsystem, *Storage) {
	t.Helper()
	sys, err := Open(WithBlocks(8), WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewStorage([]PartitionSpec{
		{Name: "critical", Blocks: 2, Mode: ModeMinUBER},
		{Name: "bulk", Blocks: 4, Mode: ModeMaxRead},
		{Name: "log", Blocks: 2, Mode: ModeNominal},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, st
}

func TestStorageRoundTripAllPartitions(t *testing.T) {
	sys, st := openStorage(t)
	data := pageOf(1, sys.PageSize())
	for _, part := range []string{"critical", "bulk", "log"} {
		if err := st.Write(part, 0, data); err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		got, res, err := st.Read(part, 0)
		if err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: corrupted", part)
		}
		if res == nil || res.T < 3 {
			t.Fatalf("%s: missing read result detail", part)
		}
	}
}

func TestStorageRejectsOversubscription(t *testing.T) {
	sys, err := Open(WithBlocks(3), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewStorage([]PartitionSpec{
		{Name: "a", Blocks: 2, Mode: ModeNominal},
		{Name: "b", Blocks: 2, Mode: ModeNominal},
	}); err == nil {
		t.Fatal("oversubscribed storage accepted")
	}
}

func TestStorageStats(t *testing.T) {
	sys, st := openStorage(t)
	data := pageOf(2, sys.PageSize())
	for i := 0; i < 10; i++ {
		if err := st.Write("log", i%4, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Read("log", 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Trim("log", 1); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("%d partitions in stats", len(stats))
	}
	var logStats *PartitionStats
	for i := range stats {
		if stats[i].Name == "log" {
			logStats = &stats[i]
		}
	}
	if logStats == nil {
		t.Fatal("log partition missing from stats")
	}
	if logStats.HostWrites != 10 || logStats.HostReads != 1 || logStats.Trims != 1 {
		t.Fatalf("log stats: %+v", logStats)
	}
	if logStats.Mode != ModeNominal {
		t.Fatal("mode lost in stats")
	}
	if logStats.ServiceTime <= 0 {
		t.Fatal("service time missing")
	}
}

func TestStorageTrimThenRewrite(t *testing.T) {
	sys, st := openStorage(t)
	data := pageOf(3, sys.PageSize())
	if err := st.Write("bulk", 9, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Trim("bulk", 9); err != nil {
		t.Fatal(err)
	}
	data2 := pageOf(4, sys.PageSize())
	if err := st.Write("bulk", 9, data2); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Read("bulk", 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data2) {
		t.Fatal("rewrite after trim lost data")
	}
}

func TestPublicScrubFlow(t *testing.T) {
	sys, st := openStorage(t)
	data := pageOf(9, sys.PageSize())
	if err := st.Write("log", 0, data); err != nil {
		t.Fatal(err)
	}
	_, res, err := st.Read("log", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Force an alarm with a synthetic degraded result.
	alarm := *res
	alarm.Corrected = alarm.T
	marked, err := st.CheckReadHealth("log", 0, &alarm, DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !marked {
		t.Fatal("degraded result did not mark the block")
	}
	rep, err := st.Scrub("log")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRefreshed != 1 || rep.PagesMoved != 1 {
		t.Fatalf("scrub report %+v", rep)
	}
	got, _, err := st.Read("log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("scrub lost data through the public API")
	}
}

func TestAdvanceTimeIncreasesCorrections(t *testing.T) {
	if testing.Short() {
		t.Skip("retention test skipped in -short mode")
	}
	sys, err := Open(WithBlocks(2), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AgeBlock(0, 1e5); err != nil {
		t.Fatal(err)
	}
	data := pageOf(5, sys.PageSize())
	if _, err := sys.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for i := 0; i < 10; i++ {
		rd, err := sys.ReadPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh += rd.Corrected
	}
	sys.AdvanceTime(5e4)
	baked := 0
	for i := 0; i < 10; i++ {
		rd, err := sys.ReadPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		baked += rd.Corrected
	}
	if baked <= fresh {
		t.Fatalf("bake did not increase corrected errors: %d vs %d", baked, fresh)
	}
}
