package slot

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"upkit/internal/flash"
)

// equalRegions reports whether two regions hold the same bytes, read
// sector-sized chunk by chunk.
func equalRegions(a, b flash.Region) (bool, error) {
	if a.Length != b.Length {
		return false, nil
	}
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	for off := 0; off < a.Length; off += len(bufA) {
		n := min(len(bufA), a.Length-off)
		if err := a.ReadAt(off, bufA[:n]); err != nil {
			return false, err
		}
		if err := b.ReadAt(off, bufB[:n]); err != nil {
			return false, err
		}
		if !bytes.Equal(bufA[:n], bufB[:n]) {
			return false, nil
		}
	}
	return true, nil
}

// swapRig builds two image-bearing slots plus scratch and journal
// regions on one chip.
type swapRig struct {
	mem      *flash.Memory
	a, b     *Slot
	scratch  flash.Region
	journal  flash.Region
	fwA, fwB []byte
}

func newSwapRig(t *testing.T) *swapRig {
	t.Helper()
	mem, err := flash.New(testGeometry(), nil) // 128 KiB chip
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := flash.NewRegion(mem, 0, 48*1024)
	rb, _ := flash.NewRegion(mem, 48*1024, 48*1024)
	scratch, _ := flash.NewRegion(mem, 96*1024, 4096)
	journal, _ := flash.NewRegion(mem, 100*1024, 4096)
	a, err := New("A", ra, Bootable, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("B", rb, NonBootable, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &swapRig{
		mem: mem, a: a, b: b, scratch: scratch, journal: journal,
		fwA: bytes.Repeat([]byte("image-in-slot-A!"), 1500),
		fwB: bytes.Repeat([]byte("image-in-slot-B?"), 2500),
	}
	writeImage(t, a, r.fwA)
	writeImage(t, b, r.fwB)
	return r
}

func (r *swapRig) verifySwapped(t *testing.T) {
	t.Helper()
	ra, err := r.a.FirmwareReader()
	if err != nil {
		t.Fatalf("slot A reader: %v", err)
	}
	gotA, _ := io.ReadAll(ra)
	if !bytes.Equal(gotA, r.fwB) {
		t.Fatal("slot A does not hold image B after safe swap")
	}
	rb, err := r.b.FirmwareReader()
	if err != nil {
		t.Fatalf("slot B reader: %v", err)
	}
	gotB, _ := io.ReadAll(rb)
	if !bytes.Equal(gotB, r.fwA) {
		t.Fatal("slot B does not hold image A after safe swap")
	}
	inProgress, err := SwapInProgress(r.journal)
	if err != nil {
		t.Fatal(err)
	}
	if inProgress {
		t.Fatal("journal still marks a swap in progress")
	}
}

func TestSafeSwapCompletes(t *testing.T) {
	r := newSwapRig(t)
	if err := SafeSwap(r.a, r.b, r.scratch, r.journal); err != nil {
		t.Fatalf("SafeSwap: %v", err)
	}
	r.verifySwapped(t)
}

func TestSafeSwapResumesAfterPowerLoss(t *testing.T) {
	// Inject a power loss after every possible number of flash
	// operations and verify the swap always completes on resume.
	// 12 sectors * 6 ops plus journal traffic ≈ 120 ops; probe a spread.
	for _, failAt := range []int{0, 1, 2, 3, 5, 10, 17, 33, 57, 80, 110} {
		r := newSwapRig(t)
		r.mem.FailAfter(failAt)
		err := SafeSwap(r.a, r.b, r.scratch, r.journal)
		if err == nil {
			// The fault landed after the swap finished; still verify.
			r.verifySwapped(t)
			continue
		}
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("failAt=%d: error = %v, want ErrPowerLoss", failAt, err)
		}
		// Power returns; the bootloader resumes the swap.
		r.mem.ClearFault()
		if err := SafeSwap(r.a, r.b, r.scratch, r.journal); err != nil {
			t.Fatalf("failAt=%d: resume: %v", failAt, err)
		}
		r.verifySwapped(t)
	}
}

func TestSafeSwapSurvivesRepeatedPowerLoss(t *testing.T) {
	// Crash-loop: power fails every few operations until the swap
	// finally completes. This is the strongest robustness property the
	// journal must provide.
	// One phase needs ~18 flash operations (erase + 16 page programs +
	// journal mark); granting 20 per power cycle guarantees at least one
	// phase of progress per attempt, which is the minimum the journal
	// can exploit.
	r := newSwapRig(t)
	for attempt := 0; attempt < 1000; attempt++ {
		r.mem.FailAfter(20)
		err := SafeSwap(r.a, r.b, r.scratch, r.journal)
		if err == nil {
			r.mem.ClearFault()
			r.verifySwapped(t)
			return
		}
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("attempt %d: error = %v, want ErrPowerLoss", attempt, err)
		}
	}
	t.Fatal("swap never completed despite 1000 resume attempts")
}

func TestSwapInProgressReflectsJournal(t *testing.T) {
	r := newSwapRig(t)
	inProgress, err := SwapInProgress(r.journal)
	if err != nil {
		t.Fatal(err)
	}
	if inProgress {
		t.Fatal("fresh journal must not report a swap in progress")
	}
	// Interrupt a swap mid-way.
	r.mem.FailAfter(20)
	if err := SafeSwap(r.a, r.b, r.scratch, r.journal); !errors.Is(err, flash.ErrPowerLoss) {
		t.Fatalf("error = %v, want ErrPowerLoss", err)
	}
	r.mem.ClearFault()
	inProgress, err = SwapInProgress(r.journal)
	if err != nil {
		t.Fatal(err)
	}
	if !inProgress {
		t.Fatal("interrupted swap must be visible in the journal")
	}
}

func TestSafeSwapRejectsMismatchedGeometry(t *testing.T) {
	r := newSwapRig(t)
	otherGeo := testGeometry()
	otherGeo.SectorSize = 2048
	otherGeo.Name = "other"
	otherMem, err := flash.New(otherGeo, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherScratch, _ := flash.NewRegion(otherMem, 0, 2048)
	if err := SafeSwap(r.a, r.b, otherScratch, r.journal); !errors.Is(err, ErrGeometry) {
		t.Fatalf("geometry mismatch error = %v, want ErrGeometry", err)
	}
}

func TestSafeSwapRejectsMismatchedSlotSizes(t *testing.T) {
	r := newSwapRig(t)
	smallRegion, _ := flash.NewRegion(r.mem, 104*1024, 8*1024)
	small, err := New("small", smallRegion, Bootable, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := SafeSwap(r.a, small, r.scratch, r.journal); err == nil {
		t.Fatal("SafeSwap with mismatched slot sizes must fail")
	}
}

func TestEqualRegionsHelper(t *testing.T) {
	r := newSwapRig(t)
	same, err := equalRegions(r.a.Region(), r.a.Region())
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("a region must equal itself")
	}
	diff, err := equalRegions(r.a.Region(), r.b.Region())
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatal("slots with different images must not compare equal")
	}
}
