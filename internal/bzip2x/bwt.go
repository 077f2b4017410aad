package bzip2x

import "sort"

// bwt computes the Burrows-Wheeler transform of s: the last column of
// the sorted rotation matrix, plus the row index of the original
// string. Rotations are ordered with prefix-doubling on circular
// ranks — O(n log^2 n), robust against the highly repetitive inputs
// that defeat naive rotation sorting.
func bwt(s []byte) (last []byte, origPtr int) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	rank := make([]int, n)
	for i, b := range s {
		rank[i] = int(b)
	}
	sa := make([]int, n)
	for i := range sa {
		sa[i] = i
	}
	tmp := make([]int, n)
	for k := 1; ; k <<= 1 {
		key := func(i int) (int, int) { return rank[i], rank[(i+k)%n] }
		sort.Slice(sa, func(a, b int) bool {
			r1a, r2a := key(sa[a])
			r1b, r2b := key(sa[b])
			if r1a != r1b {
				return r1a < r1b
			}
			return r2a < r2b
		})
		tmp[sa[0]] = 0
		distinct := 1
		for i := 1; i < n; i++ {
			r1p, r2p := key(sa[i-1])
			r1c, r2c := key(sa[i])
			if r1p == r1c && r2p == r2c {
				tmp[sa[i]] = tmp[sa[i-1]]
			} else {
				tmp[sa[i]] = tmp[sa[i-1]] + 1
				distinct++
			}
		}
		copy(rank, tmp)
		if distinct == n || k >= n {
			break
		}
	}
	// Rotations with equal circular content (periodic strings) are
	// interchangeable: any stable order yields a valid transform.
	last = make([]byte, n)
	origPtr = -1
	for i, start := range sa {
		last[i] = s[(start+n-1)%n]
		if start == 0 {
			origPtr = i
		}
	}
	return last, origPtr
}
