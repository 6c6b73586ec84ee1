package security

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestDecrypterCheckpointEverySplit cuts a ciphertext at every byte
// boundary — including inside the IV — checkpoints the decrypter,
// restores into a fresh decrypter under the same key, and checks the
// spliced plaintext. Restore must fast-forward the CTR keystream to
// the exact interrupted position.
func TestDecrypterCheckpointEverySplit(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 16)
	rng := rand.New(rand.NewSource(30))
	plaintext := make([]byte, 3000)
	rng.Read(plaintext)
	ct, err := EncryptPayload(key, plaintext, rng)
	if err != nil {
		t.Fatal(err)
	}
	for split := 0; split <= len(ct); split++ {
		d1, err := NewPayloadDecrypter(key)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		sink := func(p []byte) error { out = append(out, p...); return nil }
		if err := d1.Feed(ct[:split], sink); err != nil {
			t.Fatalf("split=%d: first feed: %v", split, err)
		}
		cp := d1.Checkpoint()
		if len(cp) != DecrypterCheckpointSize {
			t.Fatalf("split=%d: checkpoint = %d bytes, want %d", split, len(cp), DecrypterCheckpointSize)
		}
		d2, err := NewPayloadDecrypter(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.Restore(cp); err != nil {
			t.Fatalf("split=%d: restore: %v", split, err)
		}
		if err := d2.Feed(ct[split:], sink); err != nil {
			t.Fatalf("split=%d: resumed feed: %v", split, err)
		}
		if !bytes.Equal(out, plaintext) {
			t.Fatalf("split=%d: spliced plaintext mismatch", split)
		}
	}
}

func TestDecrypterRestoreRejectsBadCheckpoints(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 16)
	d, err := NewPayloadDecrypter(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil blob: error = %v, want ErrBadCheckpoint", err)
	}
	cp := d.Checkpoint()
	cp[0] = 'X'
	if err := d.Restore(cp); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad magic: error = %v, want ErrBadCheckpoint", err)
	}
	// A nonzero offset with a partial IV is impossible.
	cp = d.Checkpoint()
	cp[5] = PayloadIVSize - 1
	cp[len(cp)-1] = 9
	if err := d.Restore(cp); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("offset before IV: error = %v, want ErrBadCheckpoint", err)
	}
}

// TestDecrypterRestoreSeeksAcrossCarries resumes at every split of a
// payload whose IV makes the counter carry into its high half, and one
// whose counter wraps around all 128 bits, as the CTR mode's own
// increment does.
func TestDecrypterRestoreSeeksAcrossCarries(t *testing.T) {
	key := bytes.Repeat([]byte{0x43}, 16)
	plaintext := bytes.Repeat([]byte("carry"), 40)
	for _, iv := range [][]byte{
		append(bytes.Repeat([]byte{0x00}, 8), bytes.Repeat([]byte{0xFF}, 8)...),
		bytes.Repeat([]byte{0xFF}, 16),
	} {
		ct, err := EncryptPayload(key, plaintext, bytes.NewReader(iv))
		if err != nil {
			t.Fatal(err)
		}
		for split := PayloadIVSize; split <= len(ct); split++ {
			d1, err := NewPayloadDecrypter(key)
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			sink := func(p []byte) error { out = append(out, p...); return nil }
			if err := d1.Feed(ct[:split], sink); err != nil {
				t.Fatal(err)
			}
			d2, err := NewPayloadDecrypter(key)
			if err != nil {
				t.Fatal(err)
			}
			if err := d2.Restore(d1.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			if err := d2.Feed(ct[split:], sink); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, plaintext) {
				t.Fatalf("iv %x split=%d: spliced plaintext mismatch", iv, split)
			}
		}
	}
}

// TestDecrypterRestoreFarOffset: a checkpoint read back from flash can
// claim any offset. Restore seeks to it at once instead of generating
// the keystream up to it, and the next byte is the keystream byte at
// that offset.
func TestDecrypterRestoreFarOffset(t *testing.T) {
	key := bytes.Repeat([]byte{0x44}, 16)
	d, err := NewPayloadDecrypter(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(bytes.Repeat([]byte{0x01}, PayloadIVSize), func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	cp := d.Checkpoint()
	const off = 1<<62 + 5
	binary.BigEndian.PutUint64(cp[len(cp)-8:], off)
	done := make(chan error, 1)
	go func() { done <- d.Restore(cp) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Restore at a far offset did not return")
	}
	var got []byte
	if err := d.Feed([]byte{0x00}, func(p []byte) error { got = append(got, p...); return nil }); err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	ctr := bytes.Repeat([]byte{0x01}, 16) // the IV, plus off/16 blocks
	binary.BigEndian.PutUint64(ctr[8:], binary.BigEndian.Uint64(ctr[8:])+off/16)
	var ks [16]byte
	block.Encrypt(ks[:], ctr)
	if len(got) != 1 || got[0] != ks[off%16] {
		t.Fatalf("byte at offset %d decrypts to %x, want %x", uint64(off), got, ks[off%16])
	}
}
