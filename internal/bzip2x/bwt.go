package bzip2x

import (
	"encoding/binary"
	"slices"
	"sync"
)

// bwtScratch is what bwt sorts in, kept from one block to the next.
type bwtScratch struct {
	sa, rank, tmp []int32
	key           []uint32
	s4            []byte
	count         [1<<16 + 1]int32
	groups, next  [][2]int32
	keys          []uint64
}

var bwtScratches = sync.Pool{New: func() any { return new(bwtScratch) }}

// bwt computes the Burrows-Wheeler transform of s: the last column of
// the sorted rotation matrix, plus the row index of the original
// string. Rotations are ordered by prefix doubling on circular ranks,
// where a rotation's rank is where its group of rotations tied so far
// starts in the order: a radix sort by the first four bytes, then rounds
// that each order the ties by the rank of the rotation k bytes on, which
// orders them by twice as many bytes as the round before. While most
// rotations are tied a round is a counting sort of them all — the
// rotations in order, shifted back by k, are already in order of their
// second halves, so one stable pass by their own rank, into the slots
// the ranks name, orders them by 2k bytes; once few are, a round sorts
// only the groups still tied (Larsson and Sadakane's). O(n log n), robust
// against the highly repetitive inputs that defeat naive rotation
// sorting.
func bwt(s []byte) (last []byte, origPtr int) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	sc := bwtScratches.Get().(*bwtScratch)
	defer bwtScratches.Put(sc)
	if cap(sc.sa) < n {
		sc.sa, sc.rank, sc.tmp, sc.key = make([]int32, n), make([]int32, n), make([]int32, n), make([]uint32, n)
	}
	sa := sc.sa[:n]     // the rotations, in order of as many bytes as the rounds reached
	rank := sc.rank[:n] // rank[i]: where rotation i's group starts in sa
	tmp := sc.tmp[:n]

	// The radix sort, two bytes a pass from the fourth.
	key := sc.key[:n]
	s4 := append(append(sc.s4[:0], s...), s[:min(n, 3)]...)
	for len(s4) < n+3 {
		s4 = append(s4, s4[len(s4)-n])
	}
	sc.s4 = s4
	count := sc.count[:]
	for i := range key {
		key[i] = binary.BigEndian.Uint32(s4[i:])
		sa[i] = int32(i)
	}
	for shift := 0; shift < 32; shift += 16 {
		clear(count)
		for _, v := range key {
			count[v>>shift&0xffff+1]++
		}
		for c := 1; c < len(count); c++ {
			count[c] += count[c-1]
		}
		for _, i := range sa {
			c := key[i] >> shift & 0xffff
			tmp[count[c]] = i
			count[c]++
		}
		sa, tmp = tmp, sa
	}
	tied := 0
	for a := 0; a < n; {
		b := a + 1
		for b < n && key[sa[b]] == key[sa[a]] {
			b++
		}
		for _, r := range sa[a:b] {
			rank[r] = int32(a)
		}
		if b-a > 1 {
			tied += b - a
		}
		a = b
	}

	k := 4
	// Whole rounds while most rotations are tied (more than half: below
	// that, sorting the groups costs less than a pass over them all). slot[h] is where the
	// next rotation of the group starting at h goes.
	slot := key
	for ; tied > n/2 && k < n; k <<= 1 {
		for j, r := range sa {
			r -= int32(k)
			if r < 0 {
				r += int32(n)
			}
			tmp[j] = r
		}
		for h := range slot {
			slot[h] = uint32(h)
		}
		for _, r := range tmp {
			h := rank[r]
			sa[slot[h]] = r
			slot[h]++
		}
		// The new ranks, in tmp: a group starts where the pair of old
		// ranks changes.
		tied = 0
		start := 0
		for j := range n {
			if j > 0 {
				cur, prev := int(sa[j]), int(sa[j-1])
				c2, p2 := cur+k, prev+k
				if c2 >= n {
					c2 -= n
				}
				if p2 >= n {
					p2 -= n
				}
				if rank[cur] != rank[prev] || rank[c2] != rank[p2] {
					if j-start > 1 {
						tied += j - start
					}
					start = j
				}
			}
			tmp[sa[j]] = int32(start)
		}
		if n-start > 1 {
			tied += n - start
		}
		rank, tmp = tmp, rank
	}

	// Rounds over the groups still tied.
	groups, next, keys := sc.groups[:0], sc.next[:0], sc.keys[:0]
	defer func() { sc.groups, sc.next, sc.keys = groups, next, keys }()
	for a := 0; a < n; {
		b := a + 1
		for b < n && rank[sa[b]] == int32(a) {
			b++
		}
		if b-a > 1 {
			groups = append(groups, [2]int32{int32(a), int32(b)})
		}
		a = b
	}
	for ; len(groups) > 0 && k < n; k <<= 1 {
		next = next[:0]
		for _, g := range groups {
			// Every key of the group is read before any of its ranks moves;
			// a rank moved by a group before it is only finer.
			keys = keys[:0]
			for _, r := range sa[g[0]:g[1]] {
				j := int(r) + k
				if j >= n {
					j -= n
				}
				keys = append(keys, uint64(rank[j])<<32|uint64(r))
			}
			slices.Sort(keys)
			start := g[0]
			for x, kv := range keys {
				at := g[0] + int32(x)
				if x > 0 && kv>>32 != keys[x-1]>>32 {
					if at-start > 1 {
						next = append(next, [2]int32{start, at})
					}
					start = at
				}
				sa[at] = int32(kv)
				rank[int32(kv)] = start
			}
			if g[1]-start > 1 {
				next = append(next, [2]int32{start, g[1]})
			}
		}
		groups, next = next, groups
	}

	// Rotations with equal circular content (periodic strings) are
	// interchangeable: any order of them yields a valid transform.
	last = make([]byte, n)
	origPtr = -1
	for i, start := range sa {
		if start == 0 {
			origPtr = i
			last[i] = s[n-1]
		} else {
			last[i] = s[start-1]
		}
	}
	return last, origPtr
}
