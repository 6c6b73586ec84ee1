package security

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sync"
	"time"
)

// HSM-related errors.
var (
	// ErrKeySlotEmpty is returned when verification references a slot
	// that has not been provisioned.
	ErrKeySlotEmpty = errors.New("security: hsm key slot empty")
	// ErrKeySlotLocked is returned when writing to a slot that has been
	// locked during provisioning.
	ErrKeySlotLocked = errors.New("security: hsm key slot locked")
	// ErrBadKeySlot is returned for slot numbers outside the device range.
	ErrBadKeySlot = errors.New("security: hsm key slot out of range")
)

// HSMSlotCount is the number of key slots on the simulated ATECC508.
// The real part has 16 slots; UpKit uses two (vendor and update-server
// verification keys).
const HSMSlotCount = 16

// hsmSlot is one sealed key slot.
type hsmSlot struct {
	key    *PublicKey
	locked bool
}

// HSM simulates Atmel's ATECC508 CryptoAuthentication device: a hardware
// security module that stores public keys in lockable slots and performs
// ECDSA P-256 verification in hardware.
//
// Two properties of the real part matter to UpKit and are reproduced
// here: (1) once a slot is locked its key can never be changed by
// firmware, and (2) verification uses only provisioned keys, so a
// compromised application cannot substitute its own key.
type HSM struct {
	mu    sync.Mutex
	slots [HSMSlotCount]hsmSlot
}

// NewHSM returns an unprovisioned simulated ATECC508.
func NewHSM() *HSM { return &HSM{} }

// Provision writes key into slot and, if lock is true, permanently locks
// the slot.
func (h *HSM) Provision(slot int, key *PublicKey, lock bool) error {
	if slot < 0 || slot >= HSMSlotCount {
		return fmt.Errorf("%w: %d", ErrBadKeySlot, slot)
	}
	if key == nil {
		return errors.New("security: hsm provision: nil key")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.slots[slot].locked {
		return fmt.Errorf("%w: %d", ErrKeySlotLocked, slot)
	}
	h.slots[slot] = hsmSlot{key: key, locked: lock}
	return nil
}

// Key returns the public key stored in slot.
func (h *HSM) Key(slot int) (*PublicKey, error) {
	if slot < 0 || slot >= HSMSlotCount {
		return nil, fmt.Errorf("%w: %d", ErrBadKeySlot, slot)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.slots[slot].key == nil {
		return nil, fmt.Errorf("%w: %d", ErrKeySlotEmpty, slot)
	}
	return h.slots[slot].key, nil
}

// holds reports whether pub matches any provisioned slot.
func (h *HSM) holds(pub *PublicKey) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.slots {
		if h.slots[i].key != nil && h.slots[i].key.Equal(pub) {
			return true
		}
	}
	return false
}

// cryptoAuthSuite is the CryptoAuthLib-backed Suite: hashing stays in
// software (as on the CC2650 + ATECC508 pairing the paper evaluates),
// signature verification is delegated to the HSM.
type cryptoAuthSuite struct {
	hsm  *HSM
	cost CostProfile
}

// NewCryptoAuthLib returns a Suite backed by the given simulated
// ATECC508. Verification succeeds only for keys provisioned in the HSM.
func NewCryptoAuthLib(hsm *HSM) Suite {
	return &cryptoAuthSuite{
		hsm: hsm,
		// The ATECC508 verifies in ~58 ms over I2C including transfer
		// overhead — slightly faster than the software implementations
		// on a CC2650-class core, and it frees the flash otherwise
		// spent on ECC code (Table I).
		cost: CostProfile{
			HashPerByte: 4 * time.Microsecond,
			HashSetup:   40 * time.Microsecond,
			Verify:      58 * time.Millisecond,
			Sign:        58 * time.Millisecond,
		},
	}
}

func (s *cryptoAuthSuite) Name() string       { return "cryptoauthlib" }
func (s *cryptoAuthSuite) NewHash() hash.Hash { return sha256.New() }
func (s *cryptoAuthSuite) Cost() CostProfile  { return s.cost }
func (s *cryptoAuthSuite) Digest(data []byte) Digest {
	return Digest(sha256.Sum256(data))
}

// Sign is provided for completeness (the ATECC508 can sign with private
// key slots), but UpKit devices only ever verify.
func (s *cryptoAuthSuite) Sign(priv *PrivateKey, digest Digest) (Signature, error) {
	return signECDSA(priv, digest)
}

// Verify delegates to the HSM: the key must be provisioned, otherwise
// verification fails closed with no fallback to software.
func (s *cryptoAuthSuite) Verify(pub *PublicKey, digest Digest, sig Signature) bool {
	if s.hsm == nil || !s.hsm.holds(pub) {
		return false
	}
	return verifyECDSA(pub, digest, sig)
}

// SuiteByName constructs the named suite. The CryptoAuthLib suite needs
// an HSM; pass nil to get a fresh unprovisioned one.
func SuiteByName(name string, hsm *HSM) (Suite, error) {
	switch name {
	case "tinydtls":
		return NewTinyDTLS(), nil
	case "tinycrypt":
		return NewTinyCrypt(), nil
	case "cryptoauthlib":
		if hsm == nil {
			hsm = NewHSM()
		}
		return NewCryptoAuthLib(hsm), nil
	default:
		return nil, fmt.Errorf("security: unknown suite %q", name)
	}
}
