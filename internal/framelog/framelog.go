// Package framelog is the host side's one storage discipline: an
// append-only log of CRC-framed records, and the atomic file replace
// that both its compaction and whole-file writers use. The release
// store, the durable patch store and the campaign history each keep
// their records in one, under their own magic.
//
// A record is (big endian)
//
//	magic u32 | len u32 | payload (len bytes) | crc32
//
// where the CRC (IEEE) covers magic, length and payload. A crash tears
// at most the record being written, and a torn record fails its CRC
// instead of corrupting replay:
//
//   - Append writes the record and fsyncs before returning, so an
//     acknowledged record survives a crash. Buffer stages records in
//     memory for callers that make them durable in batches with Sync.
//   - Open replays the longest valid record prefix and truncates the
//     file there, so a torn tail costs exactly the unacknowledged
//     record and the log stays appendable.
//   - Compact rewrites the live records through WriteFile's step (temp
//     file, fsync, rename, directory fsync), so every crash leaves
//     either the complete old log or the complete new one. It runs under
//     one rule: the log holds at least 1 MiB and its dead bytes exceed
//     its live bytes.
//
// The device-side rings (internal/slot) use the same framing on
// simulated flash and are not built on this package.
package framelog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
)

const (
	header  = 4 + 4
	trailer = 4
	// maxPayload bounds a record's payload during replay: a larger
	// length is corruption, not an allocation request.
	maxPayload = 64 << 20
	// compactMinBytes is the smallest log Compact rewrites.
	compactMinBytes = 1 << 20
	// flushBytes caps the records Buffer holds in memory between Syncs.
	flushBytes = 256 << 10
)

// ErrCorrupt reports a record that no longer parses or fails its CRC.
var ErrCorrupt = errors.New("framelog: corrupt record")

// Frame locates one record in a log.
type Frame struct {
	// Off is the offset of the record's magic.
	Off int64
	// Len is the whole record length, framing included.
	Len int
}

// Log is one open framed log. It is not safe for concurrent use: each
// owner serialises its calls under its own lock.
type Log struct {
	path  string
	magic uint32
	f     *os.File
	size  int64  // bytes written to f
	buf   []byte // records staged by Buffer, not yet written
}

// syncDir fsyncs a directory so renames and creations in it are
// durable. Tests swap it to inject a failure.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens the log at path, creating it (and making its name
// durable) if needed, and replays it: replay is called with every
// valid record's payload and frame, in order. Replay stops at the first
// record that is incomplete, fails its CRC, or that replay rejects by
// returning false; the file is truncated there and torn reports that it
// was. A payload is only valid during its replay call.
func Open(path string, magic uint32, replay func(payload []byte, fr Frame) bool) (l *Log, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	switch {
	case err == nil:
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, false, err
		}
	case errors.Is(err, fs.ErrExist):
		if f, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
			return nil, false, err
		}
	default:
		return nil, false, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	valid := 0
	for valid < len(data) {
		p, n := parse(data[valid:], magic)
		if n == 0 || !replay(p, Frame{Off: int64(valid), Len: n}) {
			break
		}
		valid += n
	}
	if valid < len(data) {
		torn = true
		if err := f.Truncate(int64(valid)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, false, err
		}
	}
	return &Log{path: path, magic: magic, f: f, size: int64(valid)}, torn, nil
}

// parse returns the payload and length of the record at the start of
// buf, or n == 0 when there is no whole, CRC-valid record there.
func parse(buf []byte, magic uint32) (payload []byte, n int) {
	if len(buf) < header || binary.BigEndian.Uint32(buf) != magic {
		return nil, 0
	}
	plen := binary.BigEndian.Uint32(buf[4:])
	if plen > maxPayload || uint64(len(buf)) < header+uint64(plen)+trailer {
		return nil, 0
	}
	end := header + int(plen)
	if crc32.ChecksumIEEE(buf[:end]) != binary.BigEndian.Uint32(buf[end:]) {
		return nil, 0
	}
	return buf[header:end], end + trailer
}

// appendRecord frames the concatenation of parts onto dst.
func appendRecord(dst []byte, magic uint32, parts ...[]byte) []byte {
	start := len(dst)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	dst = slices.Grow(dst, header+n+trailer)
	dst = binary.BigEndian.AppendUint32(dst, magic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Append writes one record whose payload is the concatenation of parts
// and fsyncs the log before returning its frame: an acknowledged record
// survives a crash. A failed Append leaves no visible record; the next
// one overwrites whatever it left.
func (l *Log) Append(parts ...[]byte) (Frame, error) {
	rec := appendRecord(nil, l.magic, parts...)
	if _, err := l.f.WriteAt(rec, l.size); err != nil {
		return Frame{}, err
	}
	if err := l.f.Sync(); err != nil {
		return Frame{}, err
	}
	fr := Frame{Off: l.size, Len: len(rec)}
	l.size += int64(len(rec))
	return fr, nil
}

// Buffer stages one record in memory. Staged records reach the file at
// the next Sync, or earlier and unsynced once flushBytes are pending; a
// failed early write keeps them staged, and Sync reports it.
func (l *Log) Buffer(payload []byte) {
	l.buf = appendRecord(l.buf, l.magic, payload)
	if len(l.buf) >= flushBytes {
		_ = l.flush()
	}
}

// flush writes the staged records without syncing them.
func (l *Log) flush() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.WriteAt(l.buf, l.size); err != nil {
		return err
	}
	l.size += int64(len(l.buf))
	l.buf = l.buf[:0]
	return nil
}

// Sync writes every staged record and fsyncs the log.
func (l *Log) Sync() error {
	if err := l.flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// ReadAt reads the record at fr back from disk and re-checks its CRC.
// The payload is a fresh slice the caller owns.
func (l *Log) ReadAt(fr Frame) ([]byte, error) {
	buf := make([]byte, fr.Len)
	if _, err := l.f.ReadAt(buf, fr.Off); err != nil {
		return nil, err
	}
	p, n := parse(buf, l.magic)
	if n != fr.Len {
		return nil, ErrCorrupt
	}
	return p, nil
}

// Size reports the bytes in the log, dead records included.
func (l *Log) Size() int64 { return l.size + int64(len(l.buf)) }

// Compact rewrites the log to hold exactly the records at live, in
// order, when the compaction rule holds: the log is at least 1 MiB and
// its dead bytes exceed its live ones. It reports whether the log was
// replaced; if so, every live frame now points into the new file, and
// appends go there even when the directory sync that follows the
// rename fails (that error is still returned). Staged records must be
// synced first.
func (l *Log) Compact(live []Frame) (bool, error) {
	var liveBytes int64
	for _, fr := range live {
		liveBytes += int64(fr.Len)
	}
	if l.size < compactMinBytes || l.size-liveBytes <= liveBytes {
		return false, nil
	}
	offs := make([]int64, len(live))
	var size int64
	f, err := replace(l.path, func(w *os.File) error {
		for i, fr := range live {
			rec := make([]byte, fr.Len)
			if _, err := l.f.ReadAt(rec, fr.Off); err != nil {
				return err
			}
			if _, err := w.Write(rec); err != nil {
				return err
			}
			offs[i] = size
			size += int64(fr.Len)
		}
		return nil
	})
	if f == nil {
		return false, err
	}
	l.f.Close()
	l.f, l.size = f, size
	for i := range live {
		live[i].Off = offs[i]
	}
	return true, err
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile replaces the file at path with data atomically: a crash
// leaves either the old content or the new, never a mix or a truncated
// file.
func WriteFile(path string, data []byte) error {
	f, err := replace(path, func(w *os.File) error {
		_, err := w.Write(data)
		return err
	})
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// replace writes a new file through fill into a temporary sibling of
// path, fsyncs it, renames it over path and fsyncs the directory. Once
// the rename has happened it returns the open new file, even when the
// directory sync then fails; before that it cleans up and returns nil.
func replace(path string, fill func(*os.File) error) (*os.File, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	err = fill(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, syncDir(dir)
}
