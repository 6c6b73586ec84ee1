package slot

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"upkit/internal/flash"
	"upkit/internal/platform"
	"upkit/internal/simclock"
)

// ringCost is everything a scripted run of the reception journal and the
// security counter leaves behind on a timed chip.
type ringCost struct {
	stats   flash.Stats
	erases  [4]int // per sector: journal sectors 0-1, counter sectors 2-3
	elapsed time.Duration
	digest  string // SHA-256 of both regions' bytes
}

// runRingScript drives both rings through more than two full wraps on a
// chip of geometry geo: the journal owns sectors 0-1, the counter 2-3.
func runRingScript(t *testing.T, geo flash.Geometry) ringCost {
	t.Helper()
	clock := simclock.New()
	mem, err := flash.New(geo, clock)
	if err != nil {
		t.Fatal(err)
	}
	sector := geo.SectorSize
	jr, err := flash.NewRegion(mem, 0, 2*sector)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := flash.NewRegion(mem, 2*sector, 2*sector)
	if err != nil {
		t.Fatal(err)
	}

	j, err := NewReceptionJournal(jr)
	if err != nil {
		t.Fatal(err)
	}
	saves := 2*(jr.Length/min(recFrameSize, sector)) + 1
	for i := 1; i <= saves; i++ {
		if err := j.Save(testRecord(i * 100)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if rec, err := j.Load(); err != nil || rec == nil || !sameRecord(rec, testRecord(saves*100)) {
		t.Fatalf("load after %d saves = %+v, %v", saves, rec, err)
	}
	if err := j.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if err := j.Save(testRecord(7)); err != nil {
		t.Fatal(err)
	}
	if !ReceptionPending(jr) {
		t.Fatal("journal not pending after save")
	}

	c, err := NewSecurityCounter(cr)
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Value(); v != 0 {
		t.Fatalf("factory counter = %d", v)
	}
	advances := uint32(2*(cr.Length/secFrameSize) + 1)
	for v := uint32(1); v <= advances; v++ {
		if err := c.Advance(v); err != nil {
			t.Fatalf("advance %d: %v", v, err)
		}
	}
	c2, err := NewSecurityCounter(cr)
	if err != nil {
		t.Fatal(err)
	}
	if v := c2.Value(); v != advances {
		t.Fatalf("reopened counter = %d, want %d", v, advances)
	}

	got := ringCost{stats: mem.Stats(), elapsed: clock.Now()}
	for s := range got.erases {
		got.erases[s] = mem.EraseCount(s)
	}
	sum := sha256.Sum256(mem.Snapshot()[:4*sector])
	got.digest = hex.EncodeToString(sum[:])
	return got
}

// TestRingFlashCostPinned pins the reads, programs, erases, virtual time
// and resulting bytes of both NOR rings on a 4 KiB-sector part (two
// journal frames per sector) and a 2 KiB-sector part (every journal
// frame erases its sector). A change to either ring's flash access
// pattern — merging or splitting a read included — moves these figures.
func TestRingFlashCostPinned(t *testing.T) {
	for _, tc := range []struct {
		mcu  platform.MCU
		want ringCost
	}{
		{platform.NRF52840(), ringCost{
			stats:   flash.Stats{SectorErases: 13, PagePrograms: 1035, BytesRead: 45584, BytesWritten: 17400},
			erases:  [4]int{5, 3, 3, 2},
			elapsed: 6018360 * time.Microsecond,
			digest:  "6f7684d5ff9a6fba4fe06047c5e74cc0ad725548308ca4e7f8f60a401979b0a9",
		}},
		{platform.CC2538(), ringCost{
			stats:   flash.Stats{SectorErases: 13, PagePrograms: 519, BytesRead: 20812, BytesWritten: 8808},
			erases:  [4]int{5, 3, 3, 2},
			elapsed: 1688475 * time.Microsecond,
			digest:  "a3e6ae83ec821aef80570889cac147d2d30445305b5e241f14a47aa3d04d3cbd",
		}},
	} {
		t.Run(tc.mcu.Name, func(t *testing.T) {
			got := runRingScript(t, tc.mcu.Internal)
			if got != tc.want {
				t.Errorf("ring flash cost\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
