package slot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"upkit/internal/flash"
	"upkit/internal/platform"
)

// ringUser drives one of the two ring users through numbered writes:
// write(k) persists the k-th state, read reports which k a freshly
// opened instance finds (0 for none).
type ringUser struct {
	name  string
	frame int
	write func(t *testing.T, region flash.Region, k int) error
	read  func(t *testing.T, region flash.Region) int
}

// sweepRecord is testRecord with a pipeline checkpoint long enough that
// its frame spans three pages, so a power loss can tear it mid-frame.
func sweepRecord(k int) *ReceptionRecord {
	rec := testRecord(k)
	rec.Pipeline = bytes.Repeat([]byte{byte(k)}, 600)
	return rec
}

var ringUsers = []ringUser{
	{
		name:  "journal",
		frame: recFrameSize,
		write: func(t *testing.T, region flash.Region, k int) error {
			j, err := NewReceptionJournal(region)
			if err != nil {
				t.Fatal(err)
			}
			return j.Save(sweepRecord(k))
		},
		read: func(t *testing.T, region flash.Region) int {
			j, err := NewReceptionJournal(region)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := j.Load()
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				return 0
			}
			if !sameRecord(rec, sweepRecord(rec.Received)) {
				t.Fatalf("journal returned a record that was never saved: %+v", rec)
			}
			return rec.Received
		},
	},
	{
		name:  "counter",
		frame: secFrameSize,
		write: func(t *testing.T, region flash.Region, k int) error {
			c, err := NewSecurityCounter(region)
			if err != nil {
				t.Fatal(err)
			}
			return c.Advance(uint32(k))
		},
		read: func(t *testing.T, region flash.Region) int {
			c, err := NewSecurityCounter(region)
			if err != nil {
				t.Fatal(err)
			}
			return int(c.Value())
		},
	},
}

// chipWith returns a fresh two-sector chip of geometry geo holding img.
func chipWith(t *testing.T, geo flash.Geometry, img []byte) (*flash.Memory, flash.Region) {
	t.Helper()
	geo.Size = 2 * geo.SectorSize
	mem, err := flash.New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	region, err := flash.NewRegion(mem, 0, geo.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.ProgramAt(0, img); err != nil {
		t.Fatal(err)
	}
	return mem, region
}

// TestRingPowerLossAcrossWrap cuts power at every flash operation of
// every write over two full wraps of each ring, on 4 KiB and 2 KiB
// sectors, so the faults land on the sector-entry erase as well as on
// first, middle and last frames. After each fault a reboot must find the
// previous or the new state, a retry must succeed, and the retried state
// must survive another reboot.
func TestRingPowerLossAcrossWrap(t *testing.T) {
	for _, mcu := range []platform.MCU{platform.NRF52840(), platform.CC2538()} {
		geo := mcu.Internal
		for _, u := range ringUsers {
			t.Run(mcu.Name+"/"+u.name, func(t *testing.T) {
				img := bytes.Repeat([]byte{0xFF}, 2*geo.SectorSize)
				frames := 2 * geo.SectorSize / min(u.frame, geo.SectorSize)
				for k := 1; k <= 2*frames; k++ {
					for n := 0; ; n++ {
						mem, region := chipWith(t, geo, img)
						mem.FailAfter(n)
						err := u.write(t, region, k)
						mem.ClearFault()
						if err == nil {
							if got := u.read(t, region); got != k {
								t.Fatalf("k=%d n=%d: read %d after a clean write", k, n, got)
							}
							if err := region.ReadAt(0, img); err != nil {
								t.Fatal(err)
							}
							break
						}
						if !errors.Is(err, flash.ErrPowerLoss) {
							t.Fatalf("k=%d n=%d: error = %v, want ErrPowerLoss", k, n, err)
						}
						if got := u.read(t, region); got != k-1 && got != k {
							t.Fatalf("k=%d n=%d: reboot found %d, want %d or %d", k, n, got, k-1, k)
						}
						if err := u.write(t, region, k); err != nil {
							t.Fatalf("k=%d n=%d: retry: %v", k, n, err)
						}
						if got := u.read(t, region); got != k {
							t.Fatalf("k=%d n=%d: retried state read back as %d", k, n, got)
						}
					}
				}
			})
		}
	}
}

// FuzzRingScan programs arbitrary bytes into an erased journal/counter
// region and checks that both scans survive them: no panic, a returned
// record is exactly what some frame stores, and a following write either
// lands or reports an error.
func FuzzRingScan(f *testing.F) {
	f.Add([]byte{})
	journalImg, counterImg := ringSeedImages(f)
	f.Add(journalImg)
	f.Add(counterImg)
	mixed := bytes.Clone(journalImg)
	copy(mixed[1024:], counterImg[:3*secFrameSize])
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, img []byte) {
		_, region := recRig(t)
		img = img[:min(len(img), region.Length)]
		if err := region.ProgramAt(0, img); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, region.Length)
		if err := region.ReadAt(0, raw); err != nil {
			t.Fatal(err)
		}

		j, err := NewReceptionJournal(region)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := j.Load()
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil && !frameStores(raw, recFrameSize, recMagic, recordPayload(t, rec)) {
			t.Fatalf("loaded record %+v is stored in no frame", rec)
		}
		if got := ReceptionPending(region); got != (rec != nil) {
			t.Fatalf("ReceptionPending = %v, Load found %v", got, rec != nil)
		}

		c, err := NewSecurityCounter(region)
		if err != nil {
			t.Fatal(err)
		}
		v := c.Value()
		if v != 0 && !frameStores(raw, secFrameSize, secMagic, binary.BigEndian.AppendUint32(nil, v)) {
			t.Fatalf("counter value %d is stored in no frame", v)
		}

		_ = j.Save(testRecord(1))
		_ = c.Advance(v + 1)
	})
}

func recordPayload(t *testing.T, rec *ReceptionRecord) []byte {
	t.Helper()
	p, err := encodeReceptionRecord(rec)
	if err != nil {
		t.Fatalf("loaded record does not re-encode: %v", err)
	}
	return p
}

// frameStores reports whether some frame of raw carries magic, a valid
// CRC and exactly payload as its body. A journal frame has a len field
// after seq; a counter frame's body is a fixed 4 bytes.
func frameStores(raw []byte, frameSize int, magic uint32, payload []byte) bool {
	hdr := 8
	if frameSize == recFrameSize {
		hdr = recHeaderSize
	}
	for off := 0; off+hdr+len(payload)+4 <= len(raw); off += frameSize {
		f := raw[off : off+hdr+len(payload)+4]
		body := f[:hdr+len(payload)]
		if binary.BigEndian.Uint32(f) != magic ||
			(hdr == recHeaderSize && binary.BigEndian.Uint32(f[8:]) != uint32(len(payload))) ||
			!bytes.Equal(body[hdr:], payload) ||
			crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(f[len(body):]) {
			continue
		}
		return true
	}
	return false
}

// ringSeedImages returns the region bytes after real journal saves and
// after real counter advances.
func ringSeedImages(f *testing.F) (journal, counter []byte) {
	snap := func(region flash.Region) []byte {
		buf := make([]byte, region.Length)
		if err := region.ReadAt(0, buf); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	region := func() flash.Region {
		mem, err := flash.New(testGeometry(), nil)
		if err != nil {
			f.Fatal(err)
		}
		r, err := flash.NewRegion(mem, 0, 2*testGeometry().SectorSize)
		if err != nil {
			f.Fatal(err)
		}
		return r
	}
	jr, cr := region(), region()
	j, err := NewReceptionJournal(jr)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewSecurityCounter(cr)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Save(testRecord(i)); err != nil {
			f.Fatal(err)
		}
		if err := c.Advance(uint32(i)); err != nil {
			f.Fatal(err)
		}
	}
	return snap(jr), snap(cr)
}
