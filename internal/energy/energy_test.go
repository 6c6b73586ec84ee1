package energy

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func testProfile() Profile {
	return Profile{
		RadioMW:  50,
		RebootUJ: 5000,
	}
}

func TestChargeRadio(t *testing.T) {
	m := NewMeter(testProfile())
	m.ChargeRadio(2 * time.Second)
	// 50 mW * 2 s = 100 mJ = 100000 µJ.
	if got := m.Component(Radio); got != 100000 {
		t.Fatalf("radio = %f µJ, want 100000", got)
	}
}

func TestChargeReboot(t *testing.T) {
	m := NewMeter(testProfile())
	m.ChargeReboot()
	m.ChargeReboot()
	if got := m.Component(Boot); got != 10000 {
		t.Fatalf("boot = %f µJ, want 10000", got)
	}
}

func TestTotalAndSnapshot(t *testing.T) {
	m := NewMeter(testProfile())
	m.ChargeRadio(time.Second) // 50000
	m.ChargeReboot()           // 5000
	snap := m.Snapshot()
	if len(snap) != 2 || snap[Radio] != 50000 || snap[Boot] != 5000 {
		t.Fatalf("snapshot = %v, want radio 50000 µJ and boot 5000 µJ", snap)
	}
	snap[Radio] = 0
	if m.Component(Radio) != 50000 {
		t.Fatal("snapshot mutation leaked into meter")
	}
}

func TestConcurrentCharges(t *testing.T) {
	m := NewMeter(testProfile())
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				m.ChargeRadio(time.Millisecond)
				m.ChargeReboot()
			}
		}()
	}
	wg.Wait()
	// 50 mW * 1 ms * 800 and 5000 µJ * 800: integer air time and reboot
	// counts lose no charge to a race or to rounding.
	if got := m.Component(Radio); got != 40000 {
		t.Fatalf("radio = %v µJ, want exactly 40000", got)
	}
	if got := m.Component(Boot); got != 4_000_000 {
		t.Fatalf("boot = %v µJ, want exactly 4000000", got)
	}
}

// TestPerFrameChargesMatchOneCharge pins that a link charging every
// radio frame on its own reads the same energy as one charge of the
// frames' summed air time, whatever the frame durations.
func TestPerFrameChargesMatchOneCharge(t *testing.T) {
	frames, whole := NewMeter(NRF52840Profile()), NewMeter(NRF52840Profile())
	var sum time.Duration
	for i := range 2000 {
		d := time.Millisecond + time.Duration(i%7)*7*time.Millisecond + time.Duration(i%3)*333*time.Nanosecond
		frames.ChargeRadio(d)
		sum += d
	}
	whole.ChargeRadio(sum)
	if got, want := frames.Component(Radio), whole.Component(Radio); got != want {
		t.Fatalf("2000 per-frame charges = %v µJ, one charge of their sum = %v µJ", got, want)
	}
}

func TestStringRendersComponents(t *testing.T) {
	m := NewMeter(testProfile())
	m.ChargeRadio(time.Second)
	m.ChargeReboot()
	s := m.String()
	if !strings.Contains(s, "radio=") || !strings.Contains(s, "boot=") {
		t.Fatalf("String() = %q", s)
	}
}

func TestNRF52840ProfilePlausible(t *testing.T) {
	p := NRF52840Profile()
	if p.RadioMW <= 0 || p.RebootUJ <= 0 {
		t.Fatal("profile has non-positive constants")
	}
	// A reboot must cost more than a second of radio time — the premise
	// of the paper's early-rejection argument.
	if p.RebootUJ < p.RadioMW*1000 {
		t.Fatal("reboot should dominate a second of radio")
	}
}
