package bzip2x

// rle1Encode applies bzip2's first run-length stage: runs of 4 to 255
// identical bytes become four copies plus a count byte (run-4). The
// stage exists to bound the quadratic worst cases of the original
// block-sorting implementation; it is mandatory in the format.
func rle1Encode(src []byte) []byte {
	out := make([]byte, 0, len(src)+len(src)/64+16)
	i := 0
	for i < len(src) {
		b := src[i]
		run := 1
		for i+run < len(src) && run < 255 && src[i+run] == b {
			run++
		}
		if run >= 4 {
			out = append(out, b, b, b, b, byte(run-4))
		} else {
			for k := 0; k < run; k++ {
				out = append(out, b)
			}
		}
		i += run
	}
	return out
}

// rle1SplitPoint returns the largest prefix length p of src such that
// rle1Encode(src[:p]) fits within limit bytes, without cutting a run in
// a way that changes the encoding. It returns len(src) when everything
// fits.
func rle1SplitPoint(src []byte, limit int) int {
	used := 0
	i := 0
	for i < len(src) {
		b := src[i]
		run := 1
		for i+run < len(src) && run < 255 && src[i+run] == b {
			run++
		}
		cost := run
		if run >= 4 {
			cost = 5
		}
		if used+cost > limit {
			return i
		}
		used += cost
		i += run
	}
	return len(src)
}
