package bsdiff

// sais is SA-IS (Nong, Zhang and Chan, "Two Efficient Algorithms for
// Linear Time Suffix Array Construction", 2009): classify every suffix
// as L-type (larger than its right neighbour) or S-type, sort only the
// LMS suffixes — the S-type ones with an L-type left neighbour, at most
// half of all — and induce the order of the rest from them in two
// bucket scans. The LMS suffixes themselves are sorted by naming their
// LMS substrings and recursing on the string of names. Symbols of s lie
// in [0, upper].
func sais[T byte | int32](s []T, upper int) []int32 {
	n := len(s)
	switch n {
	case 0:
		return []int32{}
	case 1:
		return []int32{0}
	case 2:
		if s[0] < s[1] {
			return []int32{0, 1}
		}
		return []int32{1, 0}
	}

	// sType[i]: suffix i is smaller than suffix i+1. The last suffix is
	// L-type, as if a sentinel below every symbol followed it.
	sType := make([]bool, n)
	for i := n - 2; i >= 0; i-- {
		if s[i] == s[i+1] {
			sType[i] = sType[i+1]
		} else {
			sType[i] = s[i] < s[i+1]
		}
	}
	// Each symbol's bucket holds its L-type suffixes, then its S-type
	// ones: startL[c] and startS[c] are where the two runs begin.
	startL := make([]int32, upper+1)
	startS := make([]int32, upper+1)
	for i, c := range s {
		if sType[i] {
			startL[int(c)+1]++ // the largest symbol never heads an S-type suffix
		} else {
			startS[c]++
		}
	}
	for c := 0; c <= upper; c++ {
		startS[c] += startL[c]
		if c < upper {
			startL[c+1] += startS[c]
		}
	}

	sa := make([]int32, n)
	next := make([]int32, upper+1)
	// induce sorts all suffixes given the LMS suffixes in sorted order
	// (or, on the first call, in any order — which sorts the LMS
	// substrings instead).
	induce := func(lms []int32) {
		for i := range sa {
			sa[i] = -1
		}
		copy(next, startS)
		for _, p := range lms {
			sa[next[s[p]]] = p
			next[s[p]]++
		}
		copy(next, startL)
		sa[next[s[n-1]]] = int32(n - 1)
		next[s[n-1]]++
		for i := 0; i < n; i++ {
			if p := sa[i]; p >= 1 && !sType[p-1] {
				sa[next[s[p-1]]] = p - 1
				next[s[p-1]]++
			}
		}
		copy(next, startL)
		for i := n - 1; i >= 0; i-- {
			if p := sa[i]; p >= 1 && sType[p-1] {
				c := int(s[p-1]) + 1 // S-type suffixes fill their bucket from its end
				next[c]--
				sa[next[c]] = p - 1
			}
		}
	}

	// lmsIndex[p] numbers the LMS positions left to right, -1 elsewhere.
	lmsIndex := make([]int32, n+1)
	var lms []int32
	for i := range lmsIndex {
		lmsIndex[i] = -1
	}
	for i := 1; i < n; i++ {
		if !sType[i-1] && sType[i] {
			lmsIndex[i] = int32(len(lms))
			lms = append(lms, int32(i))
		}
	}
	induce(lms)
	m := len(lms)
	if m == 0 {
		return sa
	}

	// The scan left the LMS substrings in sorted order. Name them —
	// equal substrings share a name — and sort the LMS suffixes by
	// sorting the suffixes of the string of names.
	sorted := make([]int32, 0, m)
	for _, p := range sa {
		if lmsIndex[p] >= 0 {
			sorted = append(sorted, p)
		}
	}
	end := func(p int32) int32 { // where the LMS substring starting at p ends
		if k := lmsIndex[p] + 1; int(k) < m {
			return lms[k]
		}
		return int32(n)
	}
	names := make([]int32, m)
	name := int32(0)
	for i := 1; i < m; i++ {
		l, r := sorted[i-1], sorted[i]
		endL, endR := end(l), end(r)
		same := endL-l == endR-r
		if same {
			for l < endL && s[l] == s[r] {
				l++
				r++
			}
			same = int(l) < n && s[l] == s[r]
		}
		if !same {
			name++
		}
		names[lmsIndex[sorted[i]]] = name
	}
	for i, k := range sais(names, int(name)) {
		sorted[i] = lms[k]
	}
	induce(sorted)
	return sa
}
