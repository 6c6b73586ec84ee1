// Package pipeline implements UpKit's configurable write pipeline
// (§IV-C, Fig. 5). Data received from the network passes through up to
// four stages before reaching persistent memory:
//
//	network → [decompression (lzss)] → [patching (bspatch)] → buffer → writer
//
// For full-image updates the first two stages are absent. For
// differential updates the update server sends an LZSS-compressed
// bsdiff patch; the pipeline decompresses and applies it on the fly,
// reading the old firmware from its slot, so the patch never occupies a
// memory slot of its own — the paper's key trick for supporting
// differential updates "without requiring extra flash space".
//
// The buffer stage batches output to the flash sector/page size:
// matching the buffer to the flash geometry "results in faster writes
// and fewer flash erasures".
//
// An optional decryption stage (EnableDecryption) sits in front of
// everything, realising the paper's future-work plan of making
// confidentiality independent from the transport security layer
// (§VIII): the wire payload is then AES-CTR ciphertext that only the
// device can open.
package pipeline

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
	"upkit/internal/security"
	"upkit/internal/telemetry"
)

// DefaultBufferSize is used when the caller passes no explicit size; it
// matches the 4 KiB flash sectors of all three evaluation platforms.
const DefaultBufferSize = 4096

// ErrClosed is returned by writes after Close.
var ErrClosed = errors.New("pipeline: closed")

// bufPool recycles sector buffers across pipelines: a fleet campaign
// builds one pipeline per device per update, and without pooling each
// construction pays a fresh sector-sized allocation.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a pooled buffer of exactly size bytes, allocating only
// when the pool has none large enough.
func getBuf(size int) []byte {
	b := bufPool.Get().(*[]byte)
	if cap(*b) >= size {
		return (*b)[:size]
	}
	bufPool.Put(b)
	return make([]byte, size)
}

// putBuf returns a buffer to the pool.
func putBuf(b []byte) {
	if b == nil {
		return
	}
	bufPool.Put(&b)
}

// Pipeline transforms incoming update payload bytes and writes the
// resulting firmware image to a sink. It implements io.Writer for the
// payload side.
type Pipeline struct {
	crypt *security.PayloadDecrypter // nil when payloads are cleartext

	dec *lzss.Decoder   // nil for full-image configuration
	app *bsdiff.Applier // nil for full-image configuration

	buf  []byte
	n    int
	sink io.Writer

	bytesIn  int
	bytesOut int
	closed   bool

	telIn  *telemetry.Counter
	telOut *telemetry.Counter
}

// SetTelemetry attaches a metrics registry: payload bytes entering the
// pipeline and firmware bytes reaching the sink are counted, labeled
// with the pipeline kind (full or differential) — the ratio is the
// differential traffic saving.
func (p *Pipeline) SetTelemetry(reg *telemetry.Registry) {
	kind := "full"
	if p.IsDifferential() {
		kind = "differential"
	}
	p.telIn = reg.Counter("upkit_pipeline_bytes_total",
		"Pipeline throughput by direction and pipeline kind.",
		telemetry.L("direction", "in"), telemetry.L("kind", kind))
	p.telOut = reg.Counter("upkit_pipeline_bytes_total",
		"Pipeline throughput by direction and pipeline kind.",
		telemetry.L("direction", "out"), telemetry.L("kind", kind))
}

// NewFull builds the full-image pipeline: buffer → writer.
// bufSize <= 0 selects DefaultBufferSize. The sector buffer comes from
// a shared pool; Close returns it.
func NewFull(sink io.Writer, bufSize int) *Pipeline {
	if bufSize <= 0 {
		bufSize = DefaultBufferSize
	}
	return &Pipeline{buf: getBuf(bufSize), sink: sink}
}

// NewDifferential builds the differential pipeline: decompression →
// patching → buffer → writer. old provides random access to the
// currently installed firmware (typically a slot.Reader).
func NewDifferential(old io.ReaderAt, sink io.Writer, bufSize int) *Pipeline {
	p := NewFull(sink, bufSize)
	p.dec = lzss.NewDecoder()
	p.app = bsdiff.NewApplier(old)
	return p
}

// EnableDecryption inserts the decryption stage in front of the
// pipeline. Must be called before the first Write.
func (p *Pipeline) EnableDecryption(key []byte) error {
	if p.bytesIn > 0 || p.closed {
		return errors.New("pipeline: EnableDecryption after data")
	}
	d, err := security.NewPayloadDecrypter(key)
	if err != nil {
		return err
	}
	p.crypt = d
	return nil
}

// IsDifferential reports whether the patch stages are active.
func (p *Pipeline) IsDifferential() bool { return p.dec != nil }

// IsEncrypted reports whether the decryption stage is active.
func (p *Pipeline) IsEncrypted() bool { return p.crypt != nil }

// BytesIn reports payload bytes consumed so far.
func (p *Pipeline) BytesIn() int { return p.bytesIn }

// DurableBytes reports firmware bytes delivered to the sink so far —
// the count that is safe against power loss once the sink is flash.
// This is the number the reception journal checkpoints and the number
// resume positions the slot writer at (always after a Sync, so the
// buffer is empty and DurableBytes is the full output position).
func (p *Pipeline) DurableBytes() int { return p.bytesOut }

// Write feeds payload bytes into the pipeline.
func (p *Pipeline) Write(data []byte) (int, error) {
	if p.closed {
		return 0, ErrClosed
	}
	p.bytesIn += len(data)
	p.telIn.Add(uint64(len(data)))
	if p.crypt != nil {
		if err := p.crypt.Feed(data, p.afterDecrypt); err != nil {
			return 0, fmt.Errorf("pipeline: decrypt stage: %w", err)
		}
		return len(data), nil
	}
	if err := p.afterDecrypt(data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// afterDecrypt routes plaintext payload bytes into the remaining
// stages.
func (p *Pipeline) afterDecrypt(data []byte) error {
	if p.dec == nil {
		return p.toBuffer(data)
	}
	err := p.dec.Feed(data, func(patchBytes []byte) error {
		return p.app.Feed(patchBytes, p.toBuffer)
	})
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
}

// toBuffer is the buffer stage: accumulate and emit in buffer-sized
// chunks. When the buffer is empty and the input spans whole sectors,
// those sectors bypass the copy entirely and go to the sink in a
// single Write — flash.Program takes the multi-sector span in one
// call, one lock acquisition instead of one per sector.
func (p *Pipeline) toBuffer(data []byte) error {
	if p.n == 0 && len(data) >= len(p.buf) {
		whole := len(data) / len(p.buf) * len(p.buf)
		if _, err := p.sink.Write(data[:whole]); err != nil {
			return fmt.Errorf("pipeline: writer stage: %w", err)
		}
		p.bytesOut += whole
		p.telOut.Add(uint64(whole))
		data = data[whole:]
	}
	for len(data) > 0 {
		n := copy(p.buf[p.n:], data)
		p.n += n
		data = data[n:]
		if p.n == len(p.buf) {
			if err := p.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush is the writer stage: push the buffered bytes to the sink.
func (p *Pipeline) flush() error {
	if p.n == 0 {
		return nil
	}
	if _, err := p.sink.Write(p.buf[:p.n]); err != nil {
		return fmt.Errorf("pipeline: writer stage: %w", err)
	}
	p.bytesOut += p.n
	p.telOut.Add(uint64(p.n))
	p.n = 0
	return nil
}

// Close flushes the buffer and verifies that any compressed/patch
// streams terminated cleanly. The pipeline must not be used afterwards;
// its sector buffer returns to the pool.
func (p *Pipeline) Close() error {
	if p.closed {
		return ErrClosed
	}
	p.closed = true
	defer func() {
		putBuf(p.buf)
		p.buf = nil
	}()
	if p.dec != nil {
		if err := p.dec.Close(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		if err := p.app.Close(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return p.flush()
}
