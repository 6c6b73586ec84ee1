package security

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Payload encryption implements the paper's future-work item (§VIII):
// "add a decryption stage in UpKit's pipeline module, in order to make
// confidentiality independent from the employed transport security
// layer". The update server encrypts the transfer payload (full image
// or compressed patch) under a symmetric image key provisioned on the
// device; intermediate hops — smartphones, gateways, the update CDN —
// only ever see ciphertext.
//
// The scheme is AES-128/256-CTR with a random IV prepended to the
// ciphertext. CTR keeps the device-side decrypter a pure streaming
// transform (no padding, no buffering), which is exactly what the
// pipeline needs. Confidentiality only — integrity and authenticity
// come from the digest and double signature, which cover the plaintext.

// PayloadIVSize is the per-payload initialisation vector size.
const PayloadIVSize = aes.BlockSize

// EncryptedOverhead is the size difference between ciphertext and
// plaintext (the prepended IV).
const EncryptedOverhead = PayloadIVSize

// ErrBadPayloadKey reports an unusable image key.
var ErrBadPayloadKey = errors.New("security: payload key must be 16, 24, or 32 bytes")

// EncryptPayload encrypts plaintext under key, drawing the IV from
// entropy (pass crypto/rand.Reader; tests may pass a deterministic
// reader). The result is IV || CTR(plaintext).
func EncryptPayload(key, plaintext []byte, entropy io.Reader) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayloadKey, err)
	}
	out := make([]byte, PayloadIVSize+len(plaintext))
	if _, err := io.ReadFull(entropy, out[:PayloadIVSize]); err != nil {
		return nil, fmt.Errorf("security: payload iv: %w", err)
	}
	cipher.NewCTR(block, out[:PayloadIVSize]).XORKeyStream(out[PayloadIVSize:], plaintext)
	return out, nil
}

// DecryptPayload is the one-shot inverse of EncryptPayload (host tools
// and tests; devices use the streaming PayloadDecrypter).
func DecryptPayload(key, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < PayloadIVSize {
		return nil, errors.New("security: ciphertext shorter than IV")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayloadKey, err)
	}
	out := make([]byte, len(ciphertext)-PayloadIVSize)
	cipher.NewCTR(block, ciphertext[:PayloadIVSize]).XORKeyStream(out, ciphertext[PayloadIVSize:])
	return out, nil
}

// PayloadDecrypter is the push-streaming decrypter for the pipeline's
// decryption stage: feed ciphertext chunks of any size; plaintext is
// emitted as soon as the IV has arrived.
type PayloadDecrypter struct {
	block  cipher.Block
	iv     [PayloadIVSize]byte
	ivN    int
	stream cipher.Stream
	// off counts plaintext bytes produced so far; a restored decrypter
	// seeks the CTR keystream to it.
	off uint64
}

// NewPayloadDecrypter returns a decrypter for key.
func NewPayloadDecrypter(key []byte) (*PayloadDecrypter, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayloadKey, err)
	}
	return &PayloadDecrypter{block: block}, nil
}

// Feed consumes ciphertext, invoking emit with plaintext. The slice
// passed to emit is only valid during the call.
func (d *PayloadDecrypter) Feed(chunk []byte, emit func([]byte) error) error {
	if d.stream == nil {
		n := copy(d.iv[d.ivN:], chunk)
		d.ivN += n
		chunk = chunk[n:]
		if d.ivN < PayloadIVSize {
			return nil
		}
		d.stream = cipher.NewCTR(d.block, d.iv[:])
	}
	if len(chunk) == 0 {
		return nil
	}
	out := make([]byte, len(chunk))
	d.stream.XORKeyStream(out, chunk)
	d.off += uint64(len(chunk))
	return emit(out)
}

// Decrypter checkpoint serialization (reception-journal support): the
// IV and the plaintext offset are enough to recreate the CTR stream at
// the exact position a power loss interrupted it.
const decrypterCkptVersion = 1

// DecrypterCheckpointSize is the exact serialized decrypter state size.
const DecrypterCheckpointSize = 4 + 1 + 1 + PayloadIVSize + 8

var decrypterCkptMagic = [4]byte{'P', 'D', 'C', 'K'}

// ErrBadCheckpoint reports an unusable serialized decrypter state.
var ErrBadCheckpoint = errors.New("security: bad decrypter checkpoint")

// Checkpoint serializes the decrypter's position. The key is not part
// of the snapshot: Restore into a decrypter built with the same key.
func (d *PayloadDecrypter) Checkpoint() []byte {
	buf := make([]byte, 0, DecrypterCheckpointSize)
	buf = append(buf, decrypterCkptMagic[:]...)
	buf = append(buf, decrypterCkptVersion, byte(d.ivN))
	buf = append(buf, d.iv[:]...)
	return binary.BigEndian.AppendUint64(buf, d.off)
}

// Restore overwrites the decrypter's state from a Checkpoint snapshot,
// seeking the keystream to the recorded plaintext offset.
func (d *PayloadDecrypter) Restore(blob []byte) error {
	if len(blob) != DecrypterCheckpointSize ||
		[4]byte(blob[:4]) != decrypterCkptMagic || blob[4] != decrypterCkptVersion {
		return ErrBadCheckpoint
	}
	ivN := int(blob[5])
	if ivN > PayloadIVSize {
		return fmt.Errorf("%w: ivN %d", ErrBadCheckpoint, ivN)
	}
	copy(d.iv[:], blob[6:6+PayloadIVSize])
	off := binary.BigEndian.Uint64(blob[6+PayloadIVSize:])
	d.ivN = ivN
	d.off = 0
	d.stream = nil
	if ivN == PayloadIVSize {
		d.stream = cipher.NewCTR(d.block, seekCounter(d.iv, off/aes.BlockSize))
		var sink [aes.BlockSize]byte
		n := off % aes.BlockSize
		d.stream.XORKeyStream(sink[:n], sink[:n])
		d.off = off
	} else if off != 0 {
		return fmt.Errorf("%w: offset before full IV", ErrBadCheckpoint)
	}
	return nil
}

// seekCounter returns the counter block CTR mode started at iv reaches
// after blocks blocks: iv plus blocks as 128-bit big-endian integers,
// wrapping as the mode's own increment does. Restore seeks with it in
// constant time, whatever offset a checkpoint read back from flash
// claims.
func seekCounter(iv [PayloadIVSize]byte, blocks uint64) []byte {
	lo, carry := bits.Add64(binary.BigEndian.Uint64(iv[8:]), blocks, 0)
	binary.BigEndian.PutUint64(iv[8:], lo)
	binary.BigEndian.PutUint64(iv[:8], binary.BigEndian.Uint64(iv[:8])+carry)
	return iv[:]
}
