// Package lzss implements the LZSS compression scheme UpKit uses for
// differential updates (§IV-C). The paper follows Stolikj et al. in
// choosing LZSS — an LZ77 refinement — because its decompressor needs
// almost no RAM or code space: the device-side working set here is a
// single 1 KiB ring buffer (1 KiB sliding window, 3–66 byte matches).
//
// The encoder is host-side (update server); the decoder is device-side
// and therefore push-streaming: the update agent feeds it network-sized
// chunks and it emits decompressed bytes incrementally into the write
// pipeline, so no full-image buffer ever exists in device RAM.
package lzss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Compression format parameters. Stolikj et al. (the paper's source
// for the algorithm choice) favour a small window with long matches:
// the dominant content in UpKit's use case is bsdiff output, whose long
// zero runs compress at the maximum-match ratio. A 1 KiB window keeps
// device RAM tiny while 66-byte matches give ≈29:1 on zero runs.
const (
	windowSize = 1024 // sliding-window size; distances are 10 bits
	minMatch   = 3    // shorter matches are emitted as literals
	maxMatch   = 66   // 6-bit length field encodes length-minMatch
)

// headerSize is the stream header: 4-byte magic + 4-byte decoded length.
const headerSize = 8

var magic = [4]byte{'L', 'Z', 'S', 'S'}

// Decoding errors.
var (
	ErrBadHeader  = errors.New("lzss: bad stream header")
	ErrCorrupt    = errors.New("lzss: corrupt stream")
	ErrTrailing   = errors.New("lzss: data after end of stream")
	ErrIncomplete = errors.New("lzss: stream ended before declared length")
)

// Encode compresses src. The output always begins with an 8-byte header
// carrying the decoded length, so the decoder knows when it is done
// without a sentinel token.
func Encode(src []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(src)/2+16)
	copy(out, magic[:])
	binary.BigEndian.PutUint32(out[4:], uint32(len(src)))

	// head maps a 3-byte prefix hash to the most recent position; prev
	// chains earlier positions, bounded by the window.
	const hashBits = 14
	head := make([]int32, 1<<hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(src))

	hash := func(i int) uint32 {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return (v * 2654435761) >> (32 - hashBits)
	}

	var (
		flagPos  = -1 // index of the current flag byte in out
		flagBit  = 8  // bits used in the current flag byte
		emitFlag = func(isLiteral bool) {
			if flagBit == 8 {
				out = append(out, 0)
				flagPos = len(out) - 1
				flagBit = 0
			}
			if isLiteral {
				out[flagPos] |= 1 << flagBit
			}
			flagBit++
		}
	)

	insert := func(i int) {
		if i+minMatch <= len(src) {
			h := hash(i)
			prev[i] = head[h]
			head[h] = int32(i)
		}
	}

	for i := 0; i < len(src); {
		bestLen, bestDist := 0, 0
		if i+minMatch <= len(src) {
			limit := maxMatch
			if rem := len(src) - i; rem < limit {
				limit = rem
			}
			// Walk the hash chain, bounded to keep encoding O(n).
			tries := 64
			for cand := head[hash(i)]; cand >= 0 && tries > 0; cand = prev[cand] {
				tries--
				dist := i - int(cand)
				if dist > windowSize {
					break
				}
				if dist == 0 {
					continue
				}
				l := 0
				for l < limit && src[int(cand)+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestDist = l, dist
					if l == limit {
						break
					}
				}
			}
		}
		if bestLen >= minMatch {
			emitFlag(false)
			// Two-byte token: dddddddd ddllllll
			// (10-bit distance-1, 6-bit length-minMatch).
			d := bestDist - 1
			out = append(out,
				byte(d>>2),
				byte(d&0x03)<<6|byte(bestLen-minMatch))
			for k := range bestLen {
				insert(i + k)
			}
			i += bestLen
		} else {
			emitFlag(true)
			out = append(out, src[i])
			insert(i)
			i++
		}
	}
	return out
}

// decoderState enumerates what the decoder expects next.
type decoderState int

const (
	stateHeader decoderState = iota + 1
	stateFlags
	stateToken
	stateDone
)

// Decoder is a push-streaming LZSS decompressor. Feed it input chunks of
// any size; it calls emit with decompressed output as soon as bytes are
// available. Its entire state is the 1 KiB window ring plus a few bytes
// — the same working set as the C routine on a constrained device.
type Decoder struct {
	state decoderState

	header  [headerSize]byte
	headerN int
	total   int // declared decoded length
	emitted int

	flags     byte
	flagsLeft int

	pending   [2]byte // partial match token
	pendingN  int
	isLiteral bool

	window [windowSize]byte
	wpos   int

	// scratch is the reusable output buffer handed to emit callbacks. It
	// is pure working memory — never part of a checkpoint — so reusing
	// it across Feed calls removes the per-call allocation without
	// touching the serialized state format.
	scratch []byte
}

// NewDecoder returns a decoder ready to receive the stream header.
func NewDecoder() *Decoder {
	return &Decoder{state: stateHeader}
}

// Done reports whether the full declared output has been produced.
func (d *Decoder) Done() bool { return d.state == stateDone }

// emitFlushThreshold bounds the decoded bytes accumulated between emit
// calls, capping the retained scratch buffer even for one-shot Feeds of
// highly compressed streams.
const emitFlushThreshold = 32 * 1024

// Feed consumes chunk, invoking emit zero or more times with decoded
// bytes. The slice passed to emit is only valid for the duration of the
// call. Feeding data after Done returns ErrTrailing.
//
// The hot path is batched: literal runs are copied with copy() straight
// from the input chunk, and window matches are replayed in dist-sized
// copy() chunks (a single fill for the distance-1 runs that dominate
// bsdiff zero blocks) instead of pushing one byte per state-machine
// step. Every state transition mirrors the retained ReferenceDecoder
// exactly, so checkpoints taken at any input split point serialize to
// identical bytes.
func (d *Decoder) Feed(chunk []byte, emit func([]byte) error) (err error) {
	if cap(d.scratch) == 0 {
		// One right-sized allocation instead of append-doubling toward
		// the flush threshold.
		d.scratch = make([]byte, 0, min(emitFlushThreshold, 2*len(chunk)+1024))
	}
	out := d.scratch[:0]
	defer func() { d.scratch = out[:0] }()
	flush := func() error {
		if len(out) == 0 {
			return nil
		}
		err := emit(out)
		out = out[:0]
		return err
	}

	for i := 0; i < len(chunk); {
		switch d.state {
		case stateHeader:
			n := copy(d.header[d.headerN:], chunk[i:])
			d.headerN += n
			i += n
			if d.headerN == headerSize {
				if [4]byte(d.header[:4]) != magic {
					return fmt.Errorf("%w: magic %q", ErrBadHeader, d.header[:4])
				}
				d.total = int(binary.BigEndian.Uint32(d.header[4:]))
				if d.total == 0 {
					d.state = stateDone
				} else {
					d.state = stateFlags
				}
			}
		case stateFlags:
			d.flags = chunk[i]
			i++
			d.flagsLeft = 8
			d.state = stateToken
			d.pendingN = 0
			d.isLiteral = d.flags&1 == 1
		case stateToken:
			if len(out) >= emitFlushThreshold {
				if err := flush(); err != nil {
					return err
				}
			}
			if d.isLiteral {
				// Batch the run of consecutive literal flag bits: all their
				// bytes come straight from the input, one copy() for the run.
				run := bits.TrailingZeros8(^d.flags)
				run = min(run, d.flagsLeft, len(chunk)-i, d.total-d.emitted)
				out = append(out, chunk[i:i+run]...)
				d.writeWindow(chunk[i : i+run])
				d.emitted += run
				i += run
				if d.emitted == d.total {
					// The final literal completes the stream before its flag
					// bit is retired — same as the per-byte machine.
					d.flags >>= uint(run - 1)
					d.flagsLeft -= run - 1
					d.state = stateDone
					if err := flush(); err != nil {
						return err
					}
					continue
				}
				d.flags >>= uint(run)
				d.flagsLeft -= run
				if d.flagsLeft == 0 {
					d.state = stateFlags
				} else {
					d.isLiteral = d.flags&1 == 1
				}
				continue
			}
			// Match token: two bytes, possibly split across Feed calls. The
			// pending buffer always holds the token bytes afterwards — the
			// checkpoint format serializes its contents.
			if d.pendingN == 0 && len(chunk)-i >= 2 {
				d.pending[0], d.pending[1] = chunk[i], chunk[i+1]
				i += 2
			} else {
				d.pending[d.pendingN] = chunk[i]
				d.pendingN++
				i++
				if d.pendingN < 2 {
					continue
				}
				d.pendingN = 0
			}
			dist := (int(d.pending[0])<<2 | int(d.pending[1])>>6) + 1
			length := int(d.pending[1]&0x3F) + minMatch
			if dist > d.emitted {
				return fmt.Errorf("%w: match distance %d exceeds output %d", ErrCorrupt, dist, d.emitted)
			}
			if d.emitted+length > d.total {
				return fmt.Errorf("%w: match overruns declared length", ErrCorrupt)
			}
			out = d.copyMatch(out, dist, length)
			if d.emitted == d.total {
				d.state = stateDone
				if err := flush(); err != nil {
					return err
				}
				continue
			}
			d.flags >>= 1
			d.flagsLeft--
			if d.flagsLeft == 0 {
				d.state = stateFlags
			} else {
				d.isLiteral = d.flags&1 == 1
			}
		case stateDone:
			return ErrTrailing
		}
	}
	return flush()
}

// writeWindow appends p (len(p) < windowSize) to the ring, wrapping at
// most once.
func (d *Decoder) writeWindow(p []byte) {
	for len(p) > 0 {
		n := copy(d.window[d.wpos:], p)
		d.wpos += n
		if d.wpos == windowSize {
			d.wpos = 0
		}
		p = p[n:]
	}
}

// copyMatch replays a back-reference of length bytes at distance dist
// through the window ring and appends the produced bytes to out.
// Overlapping matches (dist < length) are handled by bounding each
// copy() to dist bytes, so every chunk reads only already-produced
// positions; the dominant dist == 1 case (bsdiff zero runs) degenerates
// to a fill of a single byte.
func (d *Decoder) copyMatch(out []byte, dist, length int) []byte {
	if dist == 1 {
		b := d.window[(d.wpos-1+windowSize)%windowSize]
		start := len(out)
		out = append(out, make([]byte, length)...)
		fill := out[start:]
		for i := range fill {
			fill[i] = b
		}
		d.writeWindow(fill)
		d.emitted += length
		return out
	}
	src := (d.wpos - dist + windowSize*2) % windowSize
	for remaining := length; remaining > 0; {
		n := min(remaining, dist, windowSize-src, windowSize-d.wpos)
		copy(d.window[d.wpos:d.wpos+n], d.window[src:src+n])
		out = append(out, d.window[d.wpos:d.wpos+n]...)
		d.wpos += n
		if d.wpos == windowSize {
			d.wpos = 0
		}
		src += n
		if src == windowSize {
			src = 0
		}
		remaining -= n
	}
	d.emitted += length
	return out
}

// Checkpoint serialization. The decoder's complete state is small and
// flat — the ring window dominates — so a checkpoint is a fixed-size
// snapshot the reception journal can persist at every buffer flush and
// a rebooted device can Restore to continue the stream mid-token.
const (
	ckptVersion = 1
	// CheckpointSize is the exact size of a serialized decoder state.
	CheckpointSize = 4 + 1 + 1 + 1 + headerSize + 4 + 4 + 1 + 1 + 2 + 1 + 1 + 2 + windowSize
)

var ckptMagic = [4]byte{'L', 'Z', 'C', 'K'}

// ErrBadCheckpoint reports an unusable serialized decoder state.
var ErrBadCheckpoint = errors.New("lzss: bad checkpoint")

// Checkpoint serializes the decoder's full state: parser position,
// flag/token cursors, and the sliding window. The snapshot is only
// consistent with the output emitted so far — persist both or neither.
func (d *Decoder) Checkpoint() []byte {
	buf := make([]byte, 0, CheckpointSize)
	buf = append(buf, ckptMagic[:]...)
	buf = append(buf, ckptVersion, byte(d.state), byte(d.headerN))
	buf = append(buf, d.header[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.total))
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.emitted))
	buf = append(buf, d.flags, byte(d.flagsLeft))
	buf = append(buf, d.pending[:]...)
	buf = append(buf, byte(d.pendingN), boolByte(d.isLiteral))
	buf = binary.BigEndian.AppendUint16(buf, uint16(d.wpos))
	buf = append(buf, d.window[:]...)
	return buf
}

// Restore overwrites the decoder's state from a Checkpoint snapshot.
func (d *Decoder) Restore(blob []byte) error {
	if len(blob) != CheckpointSize || [4]byte(blob[:4]) != ckptMagic || blob[4] != ckptVersion {
		return ErrBadCheckpoint
	}
	state := decoderState(blob[5])
	if state < stateHeader || state > stateDone {
		return fmt.Errorf("%w: state %d", ErrBadCheckpoint, state)
	}
	headerN := int(blob[6])
	if headerN > headerSize {
		return fmt.Errorf("%w: headerN %d", ErrBadCheckpoint, headerN)
	}
	p := 7
	copy(d.header[:], blob[p:p+headerSize])
	p += headerSize
	total := int(binary.BigEndian.Uint32(blob[p:]))
	emitted := int(binary.BigEndian.Uint32(blob[p+4:]))
	p += 8
	flags := blob[p]
	flagsLeft := int(blob[p+1])
	p += 2
	copy(d.pending[:], blob[p:p+2])
	p += 2
	pendingN := int(blob[p])
	isLiteral := blob[p+1] != 0
	p += 2
	wpos := int(binary.BigEndian.Uint16(blob[p:]))
	p += 2
	// Before the header is parsed nothing has been emitted: parsing it
	// replaces total, which must not fall below emitted.
	if flagsLeft > 8 || pendingN > 1 || wpos >= windowSize || emitted > total ||
		state == stateHeader && emitted != 0 {
		return fmt.Errorf("%w: inconsistent cursors", ErrBadCheckpoint)
	}
	copy(d.window[:], blob[p:p+windowSize])
	d.state = state
	d.headerN = headerN
	d.total = total
	d.emitted = emitted
	d.flags = flags
	d.flagsLeft = flagsLeft
	d.pendingN = pendingN
	d.isLiteral = isLiteral
	d.wpos = wpos
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Close checks that the stream is complete.
func (d *Decoder) Close() error {
	if d.state != stateDone {
		return fmt.Errorf("%w: got %d of %d bytes", ErrIncomplete, d.emitted, d.total)
	}
	return nil
}

// Decode is the one-shot convenience used by tests and host tools.
func Decode(src []byte) ([]byte, error) {
	d := NewDecoder()
	var out []byte
	if err := d.Feed(src, func(p []byte) error {
		out = append(out, p...)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
