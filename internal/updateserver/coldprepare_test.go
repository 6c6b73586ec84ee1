package updateserver_test

import (
	"testing"

	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// BenchmarkColdPrepare96k times one cold PrepareUpdate — a pair no tier
// holds, so bsdiff, LZSS and the signature all run — from a fixed
// 96 KiB base to a fresh target one 512-byte edit away. "built" is a
// server without a patch store, which builds the base's bsdiff index
// for every such diff; "stored" reads it back from its patch store, and
// also pays for persisting each new patch there.
func BenchmarkColdPrepare96k(b *testing.B) {
	const app = 0x96
	base := testbed.MakeFirmware("cold-prepare-96k", 96<<10)
	suite := security.NewTinyCrypt()
	vendor := vendorserver.New(suite, security.MustGenerateKey("cold-prepare-vendor"))
	for _, stored := range []bool{false, true} {
		name := "built"
		if stored {
			name = "stored"
		}
		b.Run(name, func(b *testing.B) {
			var opts []updateserver.Option
			if stored {
				ps, err := updateserver.OpenPatchStore(b.TempDir(), 0)
				if err != nil {
					b.Fatal(err)
				}
				defer ps.Close()
				opts = append(opts, updateserver.WithPatchStore(ps))
			}
			srv := updateserver.New(suite, security.MustGenerateKey("cold-prepare-server"), opts...)
			defer srv.Close()
			v := uint16(0)
			publish := func(fw []byte) {
				v++
				img, err := vendor.BuildImage(vendorserver.Release{AppID: app, Version: v, LinkOffset: 0xFFFFFFFF, Firmware: fw})
				if err == nil {
					err = srv.Publish(img)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			prepare := func() {
				u, err := srv.PrepareUpdate(app, manifest.DeviceToken{DeviceID: 1, Nonce: uint32(v), CurrentVersion: 1})
				if err != nil || !u.Differential {
					b.Fatalf("prepare v1→v%d: differential=%v, %v", v, u != nil && u.Differential, err)
				}
			}
			publish(base)
			if stored {
				publish(testbed.DeriveAppChangeN(base, 512, 1))
				prepare() // stores v1's index
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				publish(testbed.DeriveAppChangeN(base, 512, int(v)))
				b.StartTimer()
				prepare()
			}
			b.StopTimer()
			st := srv.Stats()
			b.ReportMetric(float64(st.IndexBuilds)/float64(st.Computations), "builds/diff")
		})
	}
}
