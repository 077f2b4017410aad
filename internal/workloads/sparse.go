package workloads

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/crc32x"
	"repro/internal/xxhash"
)

// SparsePlan describes a synthetic sparse archive written by WriteSparse:
// a multi-gigabyte-shaped compressed file whose all-zero block payloads
// are filesystem holes, so the on-disk allocation stays megabytes while
// the logical file (and its decompressed content) can exceed RAM. The
// plan carries everything a test needs to verify decoded bytes without
// materializing the content.
type SparsePlan struct {
	// ContentSize is the total decompressed size.
	ContentSize int64
	// FrameContent is the decompressed bytes per frame (the last frame
	// may be shorter).
	FrameContent int64
	// NumFrames counts the frames written.
	NumFrames int
	// CompressedSize is the logical size of the written file.
	CompressedSize int64
	// DataFrames maps a frame index to the seed of its deterministic
	// random payload; every frame not present decodes to zeros (and
	// was written as a hole).
	DataFrames map[int]uint64
}

// ExpectedAt regenerates the decompressed bytes [off, off+n) from the
// plan — zeros for hole frames, seeded random payloads for data frames.
func (p *SparsePlan) ExpectedAt(off int64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		pos := off + int64(i)
		if pos >= p.ContentSize {
			break
		}
		fi := int(pos / p.FrameContent)
		fStart := int64(fi) * p.FrameContent
		fLen := min(p.FrameContent, p.ContentSize-fStart)
		within := pos - fStart
		chunk := min(int64(n-i), fLen-within)
		if seed, ok := p.DataFrames[fi]; ok {
			payload := Random(int(fLen), seed)
			copy(out[i:], payload[within:within+chunk])
		}
		i += int(chunk)
	}
	return out
}

// frameSeed derives a per-frame payload seed deterministically.
func frameSeed(seed uint64, frame int) uint64 {
	return seed ^ (uint64(frame)+1)*0x9E3779B97F4A7C15
}

// sparseFraming is what one format writes around the stored payloads of
// a sparse archive. Every frame is a header, a run of stored blocks each
// behind its block header, and a trailer; the file ends with end.
type sparseFraming struct {
	// blockSize returns the stored-block size for the one requested, or
	// why the format cannot carry these frames.
	blockSize func(requested int, frameContent int64) (int, error)
	header    func(content int64, blockSize int) []byte
	block     func(n int64, last bool) []byte
	// trailer closes a frame; crc is the CRC32 of its content when
	// checksummed is set.
	trailer     func(content int64, crc uint32) []byte
	checksummed bool
	end         []byte
}

var sparseFramings = map[string]sparseFraming{
	// LZ4: every frame declares its content size, blocks are stored
	// (uncompressed), and no checksums are written — holes would have to
	// be read back to hash them.
	"lz4": {
		blockSize: func(bs int, frameContent int64) (int, error) {
			if bs <= 0 || int64(bs) > frameContent || bs > 4<<20 {
				return 0, fmt.Errorf("workloads: bad LZ4 block size %d", bs)
			}
			return bs, nil
		},
		header: func(content int64, blockSize int) []byte {
			var bd byte
			switch {
			case blockSize <= 64<<10:
				bd = 4 << 4
			case blockSize <= 256<<10:
				bd = 5 << 4
			case blockSize <= 1<<20:
				bd = 6 << 4
			default:
				bd = 7 << 4
			}
			const flg = 0x40 | 0x20 | 0x08 // version 01, block-independent, content size
			desc := binary.LittleEndian.AppendUint64([]byte{flg, bd}, uint64(content))
			hdr := append(binary.LittleEndian.AppendUint32(nil, 0x184D2204), desc...)
			return append(hdr, byte(xxhash.Sum32(desc, 0)>>8)) // HC
		},
		block: func(n int64, _ bool) []byte {
			return binary.LittleEndian.AppendUint32(nil, uint32(n)|1<<31) // stored
		},
		trailer: func(int64, uint32) []byte { return []byte{0, 0, 0, 0} }, // EndMark
	},
	// gzip: every frame is one member whose deflate stream is stored
	// blocks (at most 65535 bytes each). Hole members still carry the
	// right CRC32 and ISIZE, so verified sequential reads pass.
	"gzip": {
		blockSize: func(bs int, _ int64) (int, error) {
			if bs <= 0 || bs > 65535 {
				return 0, fmt.Errorf("workloads: bad stored-block size %d (want 1..65535)", bs)
			}
			return bs, nil
		},
		header: func(int64, int) []byte {
			return []byte{0x1f, 0x8b, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0xff} // deflate, no flags, unknown OS
		},
		block:       storedDeflateHeader,
		trailer:     gzipTrailer,
		checksummed: true,
	},
	// BGZF: gzip with one stored block per member (at most 65280 bytes,
	// the format's payload cap), the member size in the header's "BC"
	// extra subfield, and the canonical empty EOF member at the end.
	"bgzf": {
		blockSize: func(_ int, frameContent int64) (int, error) {
			if frameContent > 65280 {
				return 0, fmt.Errorf("workloads: BGZF member content %d exceeds the 65280-byte cap", frameContent)
			}
			return 65535, nil
		},
		header: func(content int64, _ int) []byte {
			bsize := 18 + 5 + content + 8 // header + one stored block's framing + payload + footer
			return []byte{
				0x1f, 0x8b, 0x08, 0x04, 0, 0, 0, 0, 0x00, 0xff,
				0x06, 0x00, 'B', 'C', 0x02, 0x00,
				byte(bsize - 1), byte((bsize - 1) >> 8),
			}
		},
		block:       storedDeflateHeader,
		trailer:     gzipTrailer,
		checksummed: true,
		end: []byte{
			0x1f, 0x8b, 0x08, 0x04, 0, 0, 0, 0, 0x00, 0xff,
			0x06, 0x00, 'B', 'C', 0x02, 0x00, 0x1b, 0x00,
			0x03, 0x00,
			0, 0, 0, 0, 0, 0, 0, 0,
		},
	},
	// Zstandard: every frame declares its content size and holds raw
	// blocks of 128 KiB (the format's Block_Maximum_Size). No checksums.
	"zstd": {
		blockSize: func(int, int64) (int, error) { return 128 << 10, nil },
		header: func(content int64, _ int) []byte {
			// FHD: 8-byte FCS (flag 3), no checksum, no dict, not single-
			// segment — so a window descriptor follows: exponent 24 (16 MiB),
			// comfortably above any frame content this generator emits.
			hdr := binary.LittleEndian.AppendUint32(nil, 0xFD2FB528)
			return binary.LittleEndian.AppendUint64(append(hdr, 0xC0, 14<<3), uint64(content))
		},
		block: func(n int64, last bool) []byte {
			bh := uint32(n) << 3 // raw block
			if last {
				bh |= 1
			}
			return []byte{byte(bh), byte(bh >> 8), byte(bh >> 16)}
		},
	},
}

// storedDeflateHeader is a stored deflate block's 3-bit header (BFINAL,
// BTYPE=00) padded to the byte boundary, then LEN/NLEN.
func storedDeflateHeader(n int64, last bool) []byte {
	var b byte
	if last {
		b = 1
	}
	return []byte{b, byte(n), byte(n >> 8), ^byte(n), ^byte(n >> 8)}
}

func gzipTrailer(content int64, crc uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, crc), uint32(uint64(content)))
}

// zeroCRC returns the CRC32 (IEEE) of n zero bytes in O(log n) via
// GF(2) combine doubling — hole members need correct footers without
// reading the hole back.
func zeroCRC(n int64) uint32 {
	var crc uint32
	blockCRC := crc32x.Checksum([]byte{0})
	blockLen := int64(1)
	for n > 0 {
		if n&1 == 1 {
			crc = crc32x.Combine(crc, blockCRC, blockLen)
		}
		n >>= 1
		if n > 0 {
			blockCRC = crc32x.Combine(blockCRC, blockCRC, blockLen)
			blockLen <<= 1
		}
	}
	return crc
}

// WriteSparse writes to f a synthetic archive in format ("gzip", "bgzf",
// "lz4" or "zstd") of contentSize decompressed bytes: frames of
// frameContent bytes (the last may be shorter), each of stored blocks, so
// a frame's compressed extent is its content plus a few bytes of framing.
// blockSize sets the block size of LZ4 (at most frameContent and 4 MiB)
// and gzip (at most 65535); BGZF and zstd fix their own. Frames listed in
// dataFrames carry payloads seeded from seed; every other frame's payload
// is zeros, written as a hole.
//
// The result parses with the package's own scanners and any compliant
// decoder; generation cost scales with headers plus data frames, not with
// contentSize.
func WriteSparse(f *os.File, format string, contentSize, frameContent int64, blockSize int, seed uint64, dataFrames []int) (*SparsePlan, error) {
	fr, ok := sparseFramings[format]
	if !ok {
		return nil, fmt.Errorf("workloads: no sparse framing for %q", format)
	}
	if contentSize <= 0 || frameContent <= 0 {
		return nil, fmt.Errorf("workloads: non-positive sparse archive geometry (%d/%d)", contentSize, frameContent)
	}
	bs, err := fr.blockSize(blockSize, frameContent)
	if err != nil {
		return nil, err
	}
	p := &SparsePlan{
		ContentSize:  contentSize,
		FrameContent: frameContent,
		NumFrames:    int((contentSize + frameContent - 1) / frameContent),
		DataFrames:   map[int]uint64{},
	}
	for _, fi := range dataFrames {
		if fi < 0 || fi >= p.NumFrames {
			return nil, fmt.Errorf("workloads: data frame %d out of range [0,%d)", fi, p.NumFrames)
		}
		p.DataFrames[fi] = frameSeed(seed, fi)
	}

	var pos int64
	put := func(b []byte) {
		if err == nil && len(b) > 0 {
			_, err = f.WriteAt(b, pos)
		}
		pos += int64(len(b))
	}
	zeroCRCs := map[int64]uint32{} // by frame length; at most two distinct
	for fi := 0; fi < p.NumFrames; fi++ {
		content := min(frameContent, contentSize-int64(fi)*frameContent)
		var payload []byte
		if s, ok := p.DataFrames[fi]; ok {
			payload = Random(int(content), s)
		}
		put(fr.header(content, bs))
		for off := int64(0); off < content; off += int64(bs) {
			n := min(int64(bs), content-off)
			put(fr.block(n, off+n == content))
			if payload != nil {
				put(payload[off : off+n])
			} else {
				pos += n // a hole
			}
		}
		var crc uint32
		switch {
		case fr.checksummed && payload != nil:
			crc = crc32x.Checksum(payload)
		case fr.checksummed:
			if _, ok := zeroCRCs[content]; !ok {
				zeroCRCs[content] = zeroCRC(content)
			}
			crc = zeroCRCs[content]
		}
		if fr.trailer != nil {
			put(fr.trailer(content, crc))
		}
	}
	put(fr.end)
	if err != nil {
		return nil, err
	}
	p.CompressedSize = pos
	return p, f.Truncate(pos)
}
