package bsdiff

import "sort"

// referenceSuffixArray is the suffix sort Diff used before SA-IS —
// prefix doubling over sort.Slice, O(n log² n) with a closure call per
// comparison — kept as the reference: the suffix array of a string is
// unique, so the two must agree element for element.
func referenceSuffixArray(data []byte) []int32 {
	n := len(data)
	sa := make([]int32, n)
	rank := make([]int, n)
	tmp := make([]int, n)
	for i := range n {
		sa[i] = int32(i)
		rank[i] = int(data[i])
	}
	for k := 1; ; k *= 2 {
		key := func(i int) (int, int) {
			second := -1
			if i+k < n {
				second = rank[i+k]
			}
			return rank[i], second
		}
		sort.Slice(sa, func(a, b int) bool {
			ra1, ra2 := key(int(sa[a]))
			rb1, rb2 := key(int(sa[b]))
			if ra1 != rb1 {
				return ra1 < rb1
			}
			return ra2 < rb2
		})
		if n > 0 {
			tmp[sa[0]] = 0
			for i := 1; i < n; i++ {
				p1, p2 := key(int(sa[i-1]))
				c1, c2 := key(int(sa[i]))
				tmp[sa[i]] = tmp[sa[i-1]]
				if p1 != c1 || p2 != c2 {
					tmp[sa[i]]++
				}
			}
			copy(rank, tmp)
			if rank[sa[n-1]] == n-1 {
				break
			}
		} else {
			break
		}
	}
	return sa
}

// referenceDiff is Diff over the reference suffix array.
func referenceDiff(old, new []byte) []byte {
	return DiffIndexed(referenceSuffixArray(old), old, new)
}

// Exported to the external test package, which can import testbed for
// firmware-shaped inputs (an in-package test cannot: testbed reaches
// bsdiff through the update server).
var (
	ReferenceSuffixArray = referenceSuffixArray
	ReferenceDiff        = referenceDiff
)
