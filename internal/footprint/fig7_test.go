package footprint_test

import (
	"testing"

	"upkit/internal/experiments"
)

// fig7Delta returns the "delta (baseline − UpKit)" row of a Fig. 7
// table as flash and RAM cells.
func fig7Delta(t *testing.T, gen experiments.Generator) (flash, ram string) {
	t.Helper()
	tab, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[2]
	if row[0] != "delta (baseline − UpKit)" {
		t.Fatalf("%s: row 2 is %q, want the delta row", tab.ID, row[0])
	}
	return row[1], row[2]
}

// Fig. 7a: UpKit's bootloader is 1600 B flash / 716 B RAM smaller than
// mcuboot.
func TestFig7aMCUBootDelta(t *testing.T) {
	if f, r := fig7Delta(t, experiments.Fig7a); f != "1600" || r != "716" {
		t.Fatalf("delta = %s/%s, want 1600/716", f, r)
	}
}

// Fig. 7b: UpKit's pull agent is 4.8 kB flash / 2.4 kB RAM smaller than
// LwM2M.
func TestFig7bLwM2MDelta(t *testing.T) {
	if f, r := fig7Delta(t, experiments.Fig7b); f != "4800" || r != "2400" {
		t.Fatalf("delta = %s/%s, want 4800/2400", f, r)
	}
}

// Fig. 7c: UpKit's push agent is 426 B flash smaller but 1200 B RAM
// larger than mcumgr.
func TestFig7cMCUMgrDelta(t *testing.T) {
	if f, r := fig7Delta(t, experiments.Fig7c); f != "426" || r != "-1200" {
		t.Fatalf("delta = %s/%s, want 426/-1200", f, r)
	}
}
