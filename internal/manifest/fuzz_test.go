package manifest

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the manifest decoder. The
// decoder sits directly behind the radio — the first parser an attacker
// reaches — so the contract is: never panic, reject with a typed error,
// and re-encode accepted input byte-for-byte (the encoding is
// canonical; no two wire forms decode to the same manifest).
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EncodedSize))
	f.Add([]byte{0x55, 0x50, 0x4B, 0x54}) // bare magic

	valid := Manifest{
		AppID:           0x2A,
		Version:         2,
		Size:            4096,
		LinkOffset:      0xFFFFFFFF,
		SecurityVersion: 3,
		NotAfter:        1_800_000_000,
		VendorKeyID:     1,
		DeviceID:        0xD1,
		Nonce:           0xC0FFEE,
		ServerKeyID:     1,
	}
	if enc, err := valid.MarshalBinary(); err == nil {
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		reenc, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded manifest failed to re-encode: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, reenc)
		}
	})
}

// FuzzDeviceTokenUnmarshal throws arbitrary bytes at the token decoder,
// which the pull server runs on every session request before anything
// is signed. Contract: never panic, and re-encode an accepted token to
// exactly the bytes it came from.
func FuzzDeviceTokenUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, TokenEncodedSize))
	f.Add(make([]byte, TokenEncodedSize+1))
	if enc, err := (DeviceToken{DeviceID: 0xD1, Nonce: 0xC0FFEE, CurrentVersion: 1}).MarshalBinary(); err == nil {
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var tok DeviceToken
		if err := tok.UnmarshalBinary(data); err != nil {
			return
		}
		reenc, err := tok.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded token failed to re-encode: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, reenc)
		}
	})
}
