package security

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testKey() []byte {
	return bytes.Repeat([]byte{0x42}, 16)
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	plain := []byte("confidential firmware bytes")
	enc, err := EncryptPayload(testKey(), plain, NewDeterministicReader("iv-1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(plain)+EncryptedOverhead {
		t.Fatalf("ciphertext = %d bytes, want %d", len(enc), len(plain)+EncryptedOverhead)
	}
	if bytes.Contains(enc, plain[:8]) {
		t.Fatal("ciphertext leaks plaintext")
	}
	dec, err := DecryptPayload(testKey(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, plain) {
		t.Fatal("round trip mismatch")
	}
}

func TestDistinctIVsPerPayload(t *testing.T) {
	plain := []byte("same plaintext twice")
	r := NewDeterministicReader("iv-stream")
	a, err := EncryptPayload(testKey(), plain, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncryptPayload(testKey(), plain, r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same plaintext must differ (fresh IVs)")
	}
}

func TestWrongKeyYieldsGarbage(t *testing.T) {
	plain := bytes.Repeat([]byte("secret"), 100)
	enc, err := EncryptPayload(testKey(), plain, NewDeterministicReader("iv-2"))
	if err != nil {
		t.Fatal(err)
	}
	other := bytes.Repeat([]byte{0x13}, 16)
	dec, err := DecryptPayload(other, enc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dec, plain) {
		t.Fatal("wrong key decrypted successfully")
	}
}

func TestBadKeysRejected(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 33} {
		if _, err := EncryptPayload(make([]byte, n), []byte("x"), NewDeterministicReader("iv")); !errors.Is(err, ErrBadPayloadKey) {
			t.Errorf("key length %d: error = %v, want ErrBadPayloadKey", n, err)
		}
		if _, err := NewPayloadDecrypter(make([]byte, n)); !errors.Is(err, ErrBadPayloadKey) {
			t.Errorf("decrypter key length %d: error = %v, want ErrBadPayloadKey", n, err)
		}
	}
	// 16, 24, 32 are all valid AES key sizes.
	for _, n := range []int{16, 24, 32} {
		if _, err := NewPayloadDecrypter(make([]byte, n)); err != nil {
			t.Errorf("key length %d rejected: %v", n, err)
		}
	}
}

func TestDecryptShortCiphertext(t *testing.T) {
	if _, err := DecryptPayload(testKey(), make([]byte, PayloadIVSize-1)); err == nil {
		t.Fatal("ciphertext shorter than the IV must be rejected")
	}
}

func TestStreamingDecrypterAllChunkings(t *testing.T) {
	plain := bytes.Repeat([]byte("streaming-payload"), 500)
	enc, err := EncryptPayload(testKey(), plain, NewDeterministicReader("iv-3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 15, 16, 17, 64, 1000, len(enc)} {
		d, err := NewPayloadDecrypter(testKey())
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for i := 0; i < len(enc); i += chunk {
			end := min(i+chunk, len(enc))
			if err := d.Feed(enc[i:end], func(p []byte) error {
				out = append(out, p...)
				return nil
			}); err != nil {
				t.Fatalf("chunk=%d: %v", chunk, err)
			}
		}
		if !bytes.Equal(out, plain) {
			t.Fatalf("chunk=%d: plaintext mismatch", chunk)
		}
	}
}

// Property: one-shot and streaming decryption agree for any payload and
// any split point.
func TestQuickStreamingEquivalence(t *testing.T) {
	f := func(plain []byte, cut uint16) bool {
		enc, err := EncryptPayload(testKey(), plain, NewDeterministicReader("iv-q"))
		if err != nil {
			return false
		}
		split := int(cut) % (len(enc) + 1)
		d, err := NewPayloadDecrypter(testKey())
		if err != nil {
			return false
		}
		var out []byte
		sink := func(p []byte) error { out = append(out, p...); return nil }
		if err := d.Feed(enc[:split], sink); err != nil {
			return false
		}
		if err := d.Feed(enc[split:], sink); err != nil {
			return false
		}
		return bytes.Equal(out, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
