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
			}
		}()
	}
	wg.Wait()
	want := 50.0 * 0.001 * 1000 * 800 // 50 mW * 1 ms * 800
	if got := m.Component(Radio); got < want*0.999 || got > want*1.001 {
		t.Fatalf("radio = %f µJ, want ≈ %f", got, want)
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
