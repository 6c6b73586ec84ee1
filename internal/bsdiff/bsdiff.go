// Package bsdiff implements binary differencing for UpKit's differential
// updates (§IV-C). The update server runs Diff (Colin Percival's bsdiff
// algorithm over a suffix array); the device runs the opposite bspatch
// routine as a push-streaming Applier that rebuilds the new firmware
// on the fly while the patch arrives, reading the old firmware from its
// flash slot — no staging buffer for the patch is ever needed.
//
// Unlike the original bsdiff40 container (three bzip2 streams, which
// would force the device to buffer the whole patch), the patch format
// here interleaves each control triple with its diff and extra bytes so
// it can be applied strictly sequentially. Compression is layered on
// top by package lzss, exactly as in the paper's pipeline.
package bsdiff

import "bytes"

// Diff computes a patch that transforms old into new. Apply the result
// with Apply or stream it through an Applier.
func Diff(old, new []byte) []byte {
	return DiffIndexed(BuildIndex(old), old, new)
}

// BuildIndex returns the index Diff builds over old before it scans:
// old's suffix array — the start offsets of all suffixes in
// lexicographic order, a suffix sorting before every longer suffix it
// is a prefix of. It takes 4 bytes per byte of old and the larger part
// of a diff's time, so a caller diffing several files against one old
// can build it once and pass it to DiffIndexed.
func BuildIndex(old []byte) []int32 {
	return sais(old, 255)
}

// DiffIndexed is Diff given an index over old. sa must hold len(old)
// entries, each in [0, len(old)). Any such array yields a patch that
// Apply turns into new: a match is only taken where old and new agree.
// Only BuildIndex(old) yields Diff's patch, byte for byte; another
// array can only make the patch larger.
func DiffIndexed(sa []int32, old, new []byte) []byte {
	var p patchWriter
	p.writeHeader(len(old), len(new))

	var (
		scan, length, pos             int
		lastscan, lastpos, lastoffset int
	)
	for scan < len(new) {
		oldscore := 0
		scan += length
		for scsc := scan; scan < len(new); scan++ {
			pos, length = search(sa, old, new[scan:])
			for ; scsc < scan+length; scsc++ {
				if scsc+lastoffset < len(old) && old[scsc+lastoffset] == new[scsc] {
					oldscore++
				}
			}
			if (length == oldscore && length != 0) || length > oldscore+8 {
				break
			}
			if scan+lastoffset < len(old) && old[scan+lastoffset] == new[scan] {
				oldscore--
			}
		}
		if length != oldscore || scan == len(new) {
			// Extend the unmatched region forward from lastscan and
			// backward from scan, maximising matched bytes.
			var s, lenf, bestF int
			for i := 0; lastscan+i < scan && lastpos+i < len(old); {
				if old[lastpos+i] == new[lastscan+i] {
					s++
				}
				i++
				if s*2-i > bestF*2-lenf {
					bestF = s
					lenf = i
				}
			}
			lenb := 0
			if scan < len(new) {
				s, bestB := 0, 0
				for i := 1; scan >= lastscan+i && pos >= i; i++ {
					if old[pos-i] == new[scan-i] {
						s++
					}
					if s*2-i > bestB*2-lenb {
						bestB = s
						lenb = i
					}
				}
			}
			if lastscan+lenf > scan-lenb {
				// The forward and backward extensions overlap; split the
				// overlap where it matches best.
				overlap := (lastscan + lenf) - (scan - lenb)
				s, best, lens := 0, 0, 0
				for i := range overlap {
					if new[lastscan+lenf-overlap+i] == old[lastpos+lenf-overlap+i] {
						s++
					}
					if new[scan-lenb+i] == old[pos-lenb+i] {
						s--
					}
					if s > best {
						best = s
						lens = i + 1
					}
				}
				lenf += lens - overlap
				lenb -= lens
			}

			diff := make([]byte, lenf)
			for i := range lenf {
				diff[i] = new[lastscan+i] - old[lastpos+i]
			}
			extraLen := (scan - lenb) - (lastscan + lenf)
			seek := (pos - lenb) - (lastpos + lenf)
			p.writeRecord(diff, new[lastscan+lenf:lastscan+lenf+extraLen], seek)

			lastscan = scan - lenb
			lastpos = pos - lenb
			lastoffset = pos - scan
		}
	}
	return p.buf.Bytes()
}

// matchLen returns the length of the common prefix of a and b.
func matchLen(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// search finds the suffix of old with the longest common prefix with
// target, via binary search over the suffix array. It returns the match
// position in old and its length.
func search(sa []int32, old, target []byte) (pos, length int) {
	if len(sa) == 0 {
		return 0, 0
	}
	st, en := 0, len(sa)-1
	for en-st >= 2 {
		x := st + (en-st)/2
		suf := old[sa[x]:]
		if bytes.Compare(suf[:min(len(suf), len(target))], target[:min(len(suf), len(target))]) < 0 {
			st = x
		} else {
			en = x
		}
	}
	lx := matchLen(old[sa[st]:], target)
	ly := matchLen(old[sa[en]:], target)
	if lx > ly {
		return int(sa[st]), lx
	}
	return int(sa[en]), ly
}

// Apply is the one-shot patch application used by tests and host tools.
// The device uses the streaming Applier instead.
func Apply(old, patch []byte) ([]byte, error) {
	a := NewApplier(bytes.NewReader(old))
	var out []byte
	if err := a.Feed(patch, func(p []byte) error {
		out = append(out, p...)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := a.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
