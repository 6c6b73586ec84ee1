package transport

import (
	"errors"
	"testing"
	"time"

	"upkit/internal/energy"
	"upkit/internal/simclock"
)

func TestTransferTimeChunking(t *testing.T) {
	l := &Link{ChunkSize: 100, ChunkTime: 10 * time.Millisecond, PerMessage: 5 * time.Millisecond}
	cases := []struct {
		n    int
		want time.Duration
	}{
		{0, 5 * time.Millisecond},
		{1, 15 * time.Millisecond},
		{100, 15 * time.Millisecond},
		{101, 25 * time.Millisecond},
		{1000, 105 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := l.TransferTime(tc.n); got != tc.want {
			t.Errorf("TransferTime(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTransferAdvancesClockAndChargesRadio(t *testing.T) {
	clock := simclock.New()
	meter := energy.NewMeter(energy.Profile{RadioMW: 100})
	l := &Link{ChunkSize: 10, ChunkTime: time.Millisecond, Clock: clock, Meter: meter}
	d, err := l.Transfer(100)
	if err != nil {
		t.Fatal(err)
	}
	if d != 10*time.Millisecond {
		t.Fatalf("duration = %v, want 10ms", d)
	}
	if clock.Now() != d {
		t.Fatalf("clock = %v, want %v", clock.Now(), d)
	}
	// 100 mW for 10 ms = 1000 µJ.
	if got := meter.Component(energy.Radio); got != 1000 {
		t.Fatalf("radio energy = %f µJ, want 1000", got)
	}
}

func TestDownLink(t *testing.T) {
	l := &Link{ChunkSize: 10, ChunkTime: time.Millisecond, Down: true}
	if _, err := l.Transfer(10); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("error = %v, want ErrLinkDown", err)
	}
}

func TestCalibratedGoodputs(t *testing.T) {
	// Fig. 8a calibration. Push: one burst of write-without-response
	// commands, 100 kB of radio time ≈43.4 s (the rest of the 47.7 s
	// propagation phase is flash work while receiving).
	ble := BLE(nil, nil)
	pushTime := ble.TransferTime(100_000).Seconds()
	if pushTime < 41 || pushTime > 46 {
		t.Fatalf("BLE 100 kB burst = %.1fs, want ≈43.4s", pushTime)
	}
	// Pull: 100 kB in 64-byte CoAP blocks; each block exchange is a
	// ~45-byte request plus a ~78-byte response. Radio total ≈36 s.
	r154 := IEEE802154(nil, nil)
	blocks := (100_000 + 63) / 64
	var pullTime float64
	for range blocks {
		pullTime += r154.TransferTime(45).Seconds() + r154.TransferTime(78).Seconds()
	}
	if pullTime < 33 || pullTime > 39 {
		t.Fatalf("802.15.4 100 kB blockwise = %.1fs, want ≈36s", pullTime)
	}
	if ble.TransferTime(100_000) <= r154.TransferTime(100_000) {
		t.Fatal("pull link should have higher raw goodput than BLE (paper Fig. 8a)")
	}
}

func TestLossModel(t *testing.T) {
	l := &Link{ChunkSize: 10, ChunkTime: time.Millisecond}
	l.SetLoss(1.0, 1)
	if _, err := l.Transfer(10); !errors.Is(err, ErrLost) {
		t.Fatalf("error = %v, want ErrLost at 100%% loss", err)
	}
	// Air time is still charged on a dropped frame.
	clock := simclock.New()
	l.Clock = clock
	if _, err := l.Transfer(10); !errors.Is(err, ErrLost) {
		t.Fatal("expected loss")
	}
	if clock.Now() == 0 {
		t.Fatal("dropped frame charged no air time")
	}
	// Disabling restores a perfect link.
	l.SetLoss(0, 0)
	if _, err := l.Transfer(10); err != nil {
		t.Fatalf("transfer after disabling loss: %v", err)
	}
	// A mid-range rate drops roughly that share of frames.
	l.SetLoss(0.5, 42)
	lost := 0
	for range 1000 {
		if _, err := l.Transfer(10); errors.Is(err, ErrLost) {
			lost++
		}
	}
	if lost < 400 || lost > 600 {
		t.Fatalf("50%% loss dropped %d of 1000", lost)
	}
}
