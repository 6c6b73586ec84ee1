package testbed

import (
	"encoding/binary"
	"math/rand"
)

// Synthetic firmware generation. Real ARM firmware is a mix of
// structured, repetitive code (Thumb instruction idioms, vector tables,
// literal pools) and higher-entropy data; the generator below mimics
// that mix so compression and diffing behave like they do on real
// images. Derivation helpers model the two workloads of Fig. 8b.

// MakeFirmware produces size bytes of deterministic firmware-like
// content for seed.
func MakeFirmware(seed string, size int) []byte {
	rng := rand.New(rand.NewSource(int64(hashSeed(seed))))
	out := make([]byte, 0, size)
	// Vector table: 64 little-endian "addresses".
	for i := 0; i < 64 && len(out) < size; i++ {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], 0x0800_0000+uint32(rng.Intn(1<<16))*2)
		out = append(out, w[:]...)
	}
	// Code: repeated instruction idioms with occasional literals.
	idioms := [][]byte{
		{0x70, 0xB5},             // push {r4-r6, lr}
		{0x00, 0x20},             // movs r0, #0
		{0x04, 0x46},             // mov r4, r0
		{0xFF, 0xF7, 0x00, 0xF8}, // bl
		{0x70, 0xBD},             // pop {r4-r6, pc}
	}
	for len(out) < size {
		if rng.Intn(8) == 0 {
			var lit [4]byte
			rng.Read(lit[:])
			out = append(out, lit[:]...)
		} else {
			out = append(out, idioms[rng.Intn(len(idioms))]...)
		}
	}
	return out[:size]
}

// hashSeed derives a stable int from a string without crypto imports.
func hashSeed(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// DeriveAppChange models Fig. 8b's "change in application
// functionality": a localized modification of about editBytes
// (the paper uses 1000 bytes of difference). It is the first change
// of a release chain, DeriveAppChangeN(base, editBytes, 1).
func DeriveAppChange(base []byte, editBytes int) []byte {
	return DeriveAppChangeN(base, editBytes, 1)
}

// DeriveAppChangeN is the index-th application change of a release
// chain (index >= 1): each index draws its own bytes at its own offset,
// so v(n+1) = DeriveAppChangeN(vn, k, n) differs from every earlier
// version. Chaining DeriveAppChange instead repeats the first edit and
// leaves the image unchanged.
func DeriveAppChangeN(base []byte, editBytes, index int) []byte {
	out := make([]byte, len(base))
	copy(out, base)
	if len(out) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(int64(6 + index)))
	start := (len(out)/3 + (index-1)*len(out)/7) % len(out)
	for i := 0; i < editBytes && start+i < len(out); i++ {
		out[start+i] = byte(rng.Intn(256))
	}
	return out
}

// DeriveOSChange models Fig. 8b's "OS version change" (e.g. Zephyr
// v1.2 → v1.3): many scattered modifications across roughly a fifth of
// the image, plus relocated sections, producing a compressed patch
// around 20 % of the image — the scale of a real minor OS upgrade.
func DeriveOSChange(base []byte) []byte {
	rng := rand.New(rand.NewSource(11))
	out := make([]byte, len(base))
	copy(out, base)
	if len(base) < 4096 {
		return out
	}
	// Rewrite ~14% of 512-byte blocks with fresh content.
	const block = 512
	for b := 0; b+block <= len(out); b += block {
		if rng.Intn(100) < 14 {
			rng.Read(out[b : b+block])
		}
	}
	// Shift a section by a few bytes (relinking effect).
	cut := len(out) / 2
	shifted := append([]byte{0x4F, 0xF0, 0x00, 0x00}, out[cut:len(out)-4]...)
	copy(out[cut:], shifted)
	return out
}
