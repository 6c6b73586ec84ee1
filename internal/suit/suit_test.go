package suit

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"upkit/internal/manifest"
	"upkit/internal/security"
)

func testManifest() *manifest.Manifest {
	suite := security.NewTinyCrypt()
	fw := bytes.Repeat([]byte("fw"), 5000)
	return &manifest.Manifest{
		AppID:          0x2A,
		Version:        7,
		Size:           uint32(len(fw)),
		FirmwareDigest: suite.Digest(fw),
		LinkOffset:     0xFFFFFFFF,
	}
}

func TestExportParseRoundTrip(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-signer")
	m := testManifest()
	env, err := Export(m, suite, key)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	got, err := Parse(env, suite, key.Public())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.MatchesUpKit(m) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.SequenceNumber != 7 || got.ClassID != 0x2A || got.ImageSize != m.Size {
		t.Fatalf("fields: %+v", got)
	}
	if len(got.ComponentID) != 2 || got.ComponentID[0] != "app" {
		t.Fatalf("component id: %v", got.ComponentID)
	}
}

func TestParseRejectsWrongKey(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-signer")
	other := security.MustGenerateKey("suit-other")
	env, err := Export(testManifest(), suite, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(env, suite, other.Public()); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("error = %v, want ErrBadAuth", err)
	}
}

func TestParseRejectsTamperedManifest(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-signer")
	env, err := Export(testManifest(), suite, key)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte near the end (inside the manifest bstr).
	bad := bytes.Clone(env)
	bad[len(bad)-3] ^= 0x01
	if _, err := Parse(bad, suite, key.Public()); err == nil {
		t.Fatal("tampered envelope accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-signer")
	cases := [][]byte{
		nil,
		{0x00},
		{0xA0},             // empty map
		{0xA1, 0x02, 0x40}, // auth only, empty
	}
	for _, c := range cases {
		if _, err := Parse(c, suite, key.Public()); err == nil {
			t.Errorf("Parse(%x) accepted garbage", c)
		}
	}
}

func TestMatchesUpKitDetectsDrift(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-signer")
	m := testManifest()
	env, err := Export(m, suite, key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(env, suite, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*manifest.Manifest){
		func(m *manifest.Manifest) { m.Version++ },
		func(m *manifest.Manifest) { m.AppID++ },
		func(m *manifest.Manifest) { m.Size++ },
		func(m *manifest.Manifest) { m.FirmwareDigest[0] ^= 1 },
	} {
		cp := *m
		mut(&cp)
		if s.MatchesUpKit(&cp) {
			t.Fatal("MatchesUpKit missed a drifted field")
		}
	}
}

// CBOR codec round-trip properties.
func TestCBORIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		var e cborEncoder
		e.Int(v)
		d := &cborDecoder{buf: e.buf}
		got, err := d.Int()
		return err == nil && got == v && d.pos == len(d.buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCBORUintBoundaries(t *testing.T) {
	for _, v := range []uint64{0, 23, 24, 255, 256, 65535, 65536, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		var e cborEncoder
		e.Uint(v)
		d := &cborDecoder{buf: e.buf}
		got, err := d.Uint()
		if err != nil || got != v {
			t.Fatalf("uint %d: got %d, err %v", v, got, err)
		}
	}
}

// TestCBORBytesTextRoundTrip round-trips byte strings and skips a text
// string between them: the codec writes no text, but Skip must step
// over one in an envelope from elsewhere.
func TestCBORBytesTextRoundTrip(t *testing.T) {
	f := func(b []byte, s string) bool {
		var e cborEncoder
		e.Bytes(b)
		e.head(majorText, uint64(len(s)))
		e.buf = append(e.buf, s...)
		e.Bytes(b)
		d := &cborDecoder{buf: e.buf}
		gb, err := d.Bytes()
		if err != nil || !bytes.Equal(gb, b) {
			return false
		}
		if err := d.Skip(); err != nil {
			return false
		}
		gb, err = d.Bytes()
		return err == nil && bytes.Equal(gb, b) && d.pos == len(d.buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCBORSkipNested(t *testing.T) {
	var e cborEncoder
	e.Map(2)
	e.Uint(1)
	e.Array(3)
	e.Uint(1)
	e.Bytes([]byte("x"))
	e.Map(1)
	e.Uint(9)
	e.Null()
	e.Uint(2)
	e.Bytes([]byte("after"))

	d := &cborDecoder{buf: e.buf}
	pairs, err := d.Map()
	if err != nil || pairs != 2 {
		t.Fatal(err)
	}
	if _, err := d.Uint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Skip(); err != nil { // skip the whole nested array
		t.Fatal(err)
	}
	if _, err := d.Uint(); err != nil {
		t.Fatal(err)
	}
	b, err := d.Bytes()
	if err != nil || string(b) != "after" {
		t.Fatalf("got %q, %v", b, err)
	}
	if d.pos != len(d.buf) {
		t.Fatalf("remaining = %d", len(d.buf)-d.pos)
	}
}

func TestCBORDecoderRejectsTruncation(t *testing.T) {
	var e cborEncoder
	e.Bytes(bytes.Repeat([]byte("x"), 300))
	for _, cut := range []int{0, 1, 2, 10, len(e.buf) - 1} {
		d := &cborDecoder{buf: e.buf[:cut]}
		if _, err := d.Bytes(); err == nil {
			t.Errorf("cut=%d: truncated bstr accepted", cut)
		}
	}
}

// Fuzz-ish robustness: random byte strings never panic the envelope
// parser.
func TestQuickParseNeverPanics(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-fuzz")
	f := func(data []byte) bool {
		_, _ = Parse(data, suite, key.Public())
		return true // only panics fail (quick recovers them as errors)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagnosticRendersEnvelope(t *testing.T) {
	suite := security.NewTinyCrypt()
	key := security.MustGenerateKey("suit-diag")
	env, err := Export(testManifest(), suite, key)
	if err != nil {
		t.Fatal(err)
	}
	out := Diagnostic(env)
	for _, want := range []string{
		"SUIT envelope", "authentication-wrapper", "ES256",
		"sequence-number): 7", "class-id: 0x2a", "image-size: 10000",
		"image-digest: sha256",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Diagnostic missing %q:\n%s", want, out)
		}
	}
}

func TestDiagnosticHandlesGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0x01}, {0xA1, 0x02, 0x41, 0x00}} {
		out := Diagnostic(data)
		if out == "" {
			t.Errorf("Diagnostic(%x) produced empty output", data)
		}
	}
}
