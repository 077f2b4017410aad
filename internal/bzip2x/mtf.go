package bzip2x

import "slices"

// mtfRLE2 performs bzip2's second pipeline stage on the BWT output:
// move-to-front over the block's used-symbol alphabet, with zero runs
// encoded in bijective base 2 over the RUNA/RUNB symbols, terminated by
// the EOB symbol.
//
// The output alphabet is: 0 = RUNA, 1 = RUNB, v+1 for MTF value
// v in 1..len(used)-1, and EOB = len(used)+1.
func mtfRLE2(bwtOut []byte, used []byte) []uint16 {
	eob := uint16(len(used) + 1)
	out := make([]uint16, 0, len(bwtOut)/2+8)

	mtf := slices.Clone(used)

	zeroRun := 0
	flushRun := func() {
		// Bijective base 2: n = sum of (digit_i + 1) * 2^i with RUNA
		// encoding digit 0 and RUNB digit 1 (matches the decoder's
		// repeat += repeatPower << v accumulation).
		n := zeroRun
		for n > 0 {
			n--
			out = append(out, uint16(n&1))
			n >>= 1
		}
		zeroRun = 0
	}

	for _, b := range bwtOut {
		if mtf[0] == b {
			zeroRun++
			continue
		}
		flushRun()
		// Move b to the front, shifting what was before it back by one
		// on the way to where it was, p.
		p, prev := 0, mtf[0]
		mtf[0] = b
		for prev != b {
			p++
			prev, mtf[p] = mtf[p], prev
		}
		out = append(out, uint16(p)+1)
	}
	flushRun()
	return append(out, eob)
}

// usedBytes returns the sorted distinct byte values of s.
func usedBytes(s []byte) []byte {
	var present [256]bool
	for _, b := range s {
		present[b] = true
	}
	var used []byte
	for v := 0; v < 256; v++ {
		if present[v] {
			used = append(used, byte(v))
		}
	}
	return used
}
