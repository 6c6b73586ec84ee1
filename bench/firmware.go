package main

import (
	"fmt"
	"math/rand"

	"upkit/internal/testbed"
)

// BaseFirmware is version 1 of a workload's image: firmware-like bytes
// (testbed.MakeFirmware's idiom/literal mix, so LZSS and bsdiff behave
// as on real images) determined by the seed and the workload name.
func BaseFirmware(seed int64, workload string, size int) []byte {
	return testbed.MakeFirmware(fmt.Sprintf("bench-%d-%s", seed, workload), size)
}

// Evolve derives firmware version `version` from its predecessor: sites
// runs of bytesPerSite fresh random bytes at random offsets, both drawn
// from (seed, version). Chaining testbed.DeriveAppChange instead would
// be wrong — it is idempotent (fixed rand source, fixed offset), so
// every version from v3 on would equal v2 and every later diff would be
// of identical images.
func Evolve(base []byte, seed int64, version, sites, bytesPerSite int) []byte {
	out := append([]byte(nil), base...)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(version)))
	if bytesPerSite > len(out) {
		bytesPerSite = len(out)
	}
	for s := 0; s < sites; s++ {
		off := rng.Intn(len(out) - bytesPerSite + 1)
		rng.Read(out[off : off+bytesPerSite])
	}
	return out
}
