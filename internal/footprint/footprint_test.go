package footprint

import (
	"testing"

	"upkit/internal/platform"
)

// Table I of the paper: bootloader memory footprint.
func TestTableIBootloaderFootprint(t *testing.T) {
	cases := []struct {
		os    platform.OS
		lib   string
		flash int
		ram   int
	}{
		{platform.Zephyr, "tinydtls", 13040, 8180},
		{platform.Zephyr, "tinycrypt", 14151, 8180},
		{platform.RIOT, "tinydtls", 15420, 6512},
		{platform.RIOT, "tinycrypt", 16552, 6512},
		{platform.Contiki, "tinydtls", 15454, 6637},
		{platform.Contiki, "tinycrypt", 16546, 6637},
		{platform.Contiki, "cryptoauthlib", 14078, 6553},
	}
	for _, tc := range cases {
		t.Run(tc.os.String()+"+"+tc.lib, func(t *testing.T) {
			b, err := UpKitBootloader(tc.os, tc.lib)
			if err != nil {
				t.Fatal(err)
			}
			got := b.Total()
			if got.Flash != tc.flash || got.RAM != tc.ram {
				t.Fatalf("total = %d/%d, want %d/%d (Table I)", got.Flash, got.RAM, tc.flash, tc.ram)
			}
		})
	}
}

// Table II of the paper: update-agent memory footprint.
func TestTableIIAgentFootprint(t *testing.T) {
	cases := []struct {
		os       platform.OS
		approach platform.Approach
		flash    int
		ram      int
	}{
		{platform.Zephyr, platform.Pull, 218472, 75204},
		{platform.RIOT, platform.Pull, 95780, 31244},
		{platform.Contiki, platform.Pull, 79445, 19934},
		{platform.Zephyr, platform.Push, 81918, 21856},
	}
	for _, tc := range cases {
		t.Run(tc.os.String()+"+"+tc.approach.String(), func(t *testing.T) {
			b, err := UpKitAgent(tc.os, tc.approach, "tinydtls")
			if err != nil {
				t.Fatal(err)
			}
			got := b.Total()
			if got.Flash != tc.flash || got.RAM != tc.ram {
				t.Fatalf("total = %d/%d, want %d/%d (Table II)", got.Flash, got.RAM, tc.flash, tc.ram)
			}
		})
	}
}

// Table I's within-row observations.
func TestTableIObservations(t *testing.T) {
	// TinyDTLS builds are ≈1.1 kB smaller than tinycrypt builds,
	// regardless of OS.
	for _, os := range platform.AllOSes() {
		td, err := UpKitBootloader(os, "tinydtls")
		if err != nil {
			t.Fatal(err)
		}
		tc, err := UpKitBootloader(os, "tinycrypt")
		if err != nil {
			t.Fatal(err)
		}
		delta := tc.Total().Flash - td.Total().Flash
		if delta < 1000 || delta > 1200 {
			t.Errorf("%v: tinycrypt−tinydtls = %d, want ≈1100", os, delta)
		}
	}
	// Zephyr's bootloader uses ~15% less flash but ~20% more RAM than
	// the others (§VI-A).
	z, _ := UpKitBootloader(platform.Zephyr, "tinydtls")
	r, _ := UpKitBootloader(platform.RIOT, "tinydtls")
	if z.Total().Flash >= r.Total().Flash {
		t.Error("Zephyr bootloader should be smallest in flash")
	}
	if z.Total().RAM <= r.Total().RAM {
		t.Error("Zephyr bootloader should use the most RAM")
	}
	// The HSM configuration is ~10% smaller than Contiki+TinyDTLS.
	cal, _ := UpKitBootloader(platform.Contiki, "cryptoauthlib")
	ctd, _ := UpKitBootloader(platform.Contiki, "tinydtls")
	saving := float64(ctd.Total().Flash-cal.Total().Flash) / float64(ctd.Total().Flash)
	if saving < 0.05 || saving > 0.15 {
		t.Errorf("HSM flash saving = %.1f%%, want ≈10%%", saving*100)
	}
}

// Table II's within-table observations (§VI-A).
func TestTableIIObservations(t *testing.T) {
	z, _ := UpKitAgent(platform.Zephyr, platform.Pull, "tinydtls")
	r, _ := UpKitAgent(platform.RIOT, platform.Pull, "tinydtls")
	c, _ := UpKitAgent(platform.Contiki, platform.Pull, "tinydtls")
	push, _ := UpKitAgent(platform.Zephyr, platform.Push, "tinydtls")

	// Contiki uses 64% and 17% less flash than Zephyr and RIOT.
	savedVsZephyr := 1 - float64(c.Total().Flash)/float64(z.Total().Flash)
	if savedVsZephyr < 0.60 || savedVsZephyr > 0.68 {
		t.Errorf("Contiki vs Zephyr flash saving = %.0f%%, want ≈64%%", savedVsZephyr*100)
	}
	savedVsRIOT := 1 - float64(c.Total().Flash)/float64(r.Total().Flash)
	if savedVsRIOT < 0.14 || savedVsRIOT > 0.20 {
		t.Errorf("Contiki vs RIOT flash saving = %.0f%%, want ≈17%%", savedVsRIOT*100)
	}
	// The push build is far smaller than the Zephyr pull build (BLE
	// stack instead of full IPv6 + CoAP).
	if push.Total().Flash >= z.Total().Flash/2 {
		t.Error("push build should be well under half the Zephyr pull build")
	}
}

func TestUnknownConfigurationsRejected(t *testing.T) {
	if _, err := UpKitBootloader(platform.OS(99), "tinydtls"); err == nil {
		t.Error("unknown OS accepted")
	}
	if _, err := UpKitBootloader(platform.Zephyr, "openssl"); err == nil {
		t.Error("unknown library accepted")
	}
	if _, err := UpKitBootloader(platform.Zephyr, "cryptoauthlib"); err == nil {
		t.Error("CryptoAuthLib is Contiki-only in the paper")
	}
	if _, err := UpKitAgent(platform.RIOT, platform.Push, "tinydtls"); err == nil {
		t.Error("push agent is Zephyr-only in the paper")
	}
	if _, err := UpKitAgent(platform.Zephyr, platform.Approach(9), "tinydtls"); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestBuildHelpers(t *testing.T) {
	b, err := UpKitAgent(platform.Zephyr, platform.Push, "tinydtls")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := b.Component("pipeline")
	if !ok {
		t.Fatal("pipeline component missing")
	}
	if p != sizePipeline {
		t.Fatalf("pipeline component = %+v, want %+v", p, sizePipeline)
	}
	if _, ok := b.Component("no-such-module"); ok {
		t.Fatal("Component found a module the build does not have")
	}
}

func TestPortabilityShares(t *testing.T) {
	if BootloaderPortableShare != 0.91 {
		t.Error("bootloader portable share should match §VI-A")
	}
	if AgentPortableShare != 0.765 {
		t.Error("agent portable share should match §VI-A")
	}
}
