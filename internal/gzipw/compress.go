package gzipw

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitio"
	"repro/internal/deflate"
	"repro/internal/gzformat"
)

// Strategy forces a block type; Auto picks the cheapest per block.
type Strategy uint8

const (
	Auto Strategy = iota
	StoredOnly
	FixedOnly
	DynamicOnly
)

// Options configures Compress. The zero value compresses like a plain
// gzip -6: one member, dynamic blocks of DefaultBlockSize input bytes.
type Options struct {
	// Level 0 stores without compression (bgzip -l 0 behaviour); 1..9
	// trade speed for ratio like zlib's levels.
	Level int
	// BlockSize is the uncompressed bytes per Deflate block. Compressors
	// differ in this choice, which Table 3 shows affects parallel
	// decompression; 0 means DefaultBlockSize.
	BlockSize int
	Strategy  Strategy
	// SingleBlock emits the entire input as one Deflate block — the
	// igzip -0 structure that defeats parallelization (paper §4.8).
	SingleBlock bool
	// IndependentChunks compresses every N input bytes with a reset
	// dictionary, joined by empty stored blocks — pigz's structure.
	IndependentChunks int
	// MemberSize splits the output into multiple gzip members every N
	// input bytes. BGZF implies members of BGZFChunkSize.
	MemberSize int
	// BGZF writes Blocked-GNU-Zip-Format framing: small members whose
	// headers carry the compressed size ("BC" extra subfield) plus the
	// canonical empty EOF member (paper §3.4.4).
	BGZF bool
	Name string
}

// DefaultBlockSize approximates common gzip deflate block sizes.
const DefaultBlockSize = 128 * 1024

// BGZFChunkSize is the uncompressed payload cap of one BGZF member.
const BGZFChunkSize = 65280

// BlockOffset records one emitted Deflate block (ground truth for the
// block finder tests and the experiment harnesses).
type BlockOffset struct {
	// Bit is the canonical bit offset of the block header in the output.
	Bit uint64
	// Decomp is the cumulative uncompressed offset where the block starts.
	Decomp uint64
	Type   deflate.BlockType
	Final  bool
}

// Meta describes the structure of a compressed output.
type Meta struct {
	Blocks  []BlockOffset
	Members []uint64 // byte offsets of gzip member headers
}

// Compress encodes data as a gzip file per opts and returns the file
// plus structural metadata.
func Compress(data []byte, opts Options) ([]byte, *Meta, error) {
	if opts.Level < 0 || opts.Level > 9 {
		return nil, nil, fmt.Errorf("gzipw: invalid level %d", opts.Level)
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.BGZF {
		return compressBGZF(data, opts)
	}
	memberSize := opts.MemberSize
	if memberSize <= 0 {
		memberSize = len(data)
	}

	var buf bytes.Buffer
	bw := bitio.NewBitWriter(&buf)
	meta := &Meta{}
	var m *matcher
	if opts.Level > 0 {
		m = newMatcher(opts.Level)
	}

	for mStart := 0; ; mStart += memberSize {
		mEnd := mStart + memberSize
		if mEnd > len(data) {
			mEnd = len(data)
		}
		meta.Members = append(meta.Members, bw.BitsWritten/8)
		hdr := buildHeaderBytes(opts, 0)
		bw.WriteBytes(hdr)
		if m != nil {
			m.reset()
		}
		if err := compressMember(bw, meta, m, data, mStart, mEnd, opts); err != nil {
			return nil, nil, err
		}
		bw.AlignToByte()
		var ftr [8]byte
		bw.WriteBytes(appendFooter(ftr[:0], gzformat.UpdateCRC(0, data[mStart:mEnd]), uint64(mEnd-mStart)))
		if mEnd >= len(data) {
			break
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), meta, nil
}

func buildHeaderBytes(opts Options, bsize int) []byte {
	var hb bytes.Buffer
	ho := gzformat.WriteHeaderOptions{Name: opts.Name, OS: 255}
	if bsize > 0 {
		ho.Extra = gzformat.BGZFExtra(bsize)
	}
	if _, err := gzformat.WriteHeader(&hb, ho); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return hb.Bytes()
}

// compressMember emits one member's Deflate stream.
func compressMember(bw *bitio.BitWriter, meta *Meta, m *matcher, data []byte, mStart, mEnd int, opts Options) error {
	if mStart == mEnd {
		// Empty member: one final fixed block containing only EOB.
		meta.Blocks = append(meta.Blocks, BlockOffset{bw.BitsWritten, uint64(mStart), deflate.BlockFixed, true})
		emitFixed(bw, nil, true)
		return nil
	}
	chunk := opts.IndependentChunks
	if chunk <= 0 {
		chunk = mEnd - mStart
	}
	for cStart := mStart; cStart < mEnd; cStart += chunk {
		cEnd := cStart + chunk
		if cEnd > mEnd {
			cEnd = mEnd
		}
		if opts.IndependentChunks > 0 && m != nil {
			m.reset()
		}
		blockSize := opts.BlockSize
		if opts.SingleBlock {
			blockSize = cEnd - cStart
		}
		for bStart := cStart; bStart < cEnd; bStart += blockSize {
			bEnd := bStart + blockSize
			if bEnd > cEnd {
				bEnd = cEnd
			}
			final := bEnd == mEnd
			if err := emitBlock(bw, meta, m, data, bStart, bEnd, cStart, final, opts); err != nil {
				return err
			}
		}
		if opts.IndependentChunks > 0 && cEnd < mEnd {
			canonical := emitEmptyStored(bw)
			meta.Blocks = append(meta.Blocks, BlockOffset{canonical, uint64(cEnd), deflate.BlockStored, false})
		}
	}
	return nil
}

// emitBlock tokenises and emits one Deflate block, choosing the block
// type per the strategy.
func emitBlock(bw *bitio.BitWriter, meta *Meta, m *matcher, data []byte, bStart, bEnd, windowStart int, final bool, opts Options) error {
	raw := data[bStart:bEnd]
	record := func(bit uint64, t deflate.BlockType) {
		meta.Blocks = append(meta.Blocks, BlockOffset{bit, uint64(bStart), t, final})
	}
	recordStored := func(canonical uint64, off int, fin bool) {
		meta.Blocks = append(meta.Blocks, BlockOffset{canonical, uint64(bStart + off), deflate.BlockStored, fin})
	}
	if opts.Level == 0 || opts.Strategy == StoredOnly {
		emitStored(bw, raw, final, recordStored)
		return nil
	}
	var tokens []token
	if m != nil {
		tokens = m.appendTokens(m.tok[:0], data, bStart, bEnd, windowStart)
		m.tok = tokens
	} else {
		for _, b := range raw {
			tokens = append(tokens, literalToken(b))
		}
	}
	switch opts.Strategy {
	case FixedOnly:
		record(bw.BitsWritten, deflate.BlockFixed)
		emitFixed(bw, tokens, final)
		return nil
	case DynamicOnly:
		plan, err := planDynamic(tokens)
		if err != nil {
			return err
		}
		record(bw.BitsWritten, deflate.BlockDynamic)
		emitDynamic(bw, plan, tokens, final)
		return nil
	}
	// Auto: compare exact dynamic cost, fixed cost and stored cost.
	plan, err := planDynamic(tokens)
	if err != nil {
		return err
	}
	dynBits := plan.headerBits + plan.bodyBits + 3
	fixBits := fixedCost(tokens) + 3
	storedBits := 8*len(raw) + 32 + 8 + 35*(len(raw)/65535+1)
	switch {
	case storedBits < dynBits && storedBits < fixBits:
		emitStored(bw, raw, final, recordStored)
	case fixBits <= dynBits:
		record(bw.BitsWritten, deflate.BlockFixed)
		emitFixed(bw, tokens, final)
	default:
		record(bw.BitsWritten, deflate.BlockDynamic)
		emitDynamic(bw, plan, tokens, final)
	}
	return nil
}

// compressBGZF emits BGZF framing: every member covers at most
// BGZFChunkSize input bytes, carries its compressed size in the header
// extra field, and the file ends with the canonical empty EOF member.
// The members come from the encoder a BGZF Writer uses.
func compressBGZF(data []byte, opts Options) ([]byte, *Meta, error) {
	var out []byte
	meta := &Meta{}
	var m *matcher
	if opts.Level > 0 {
		m = newMatcher(opts.Level)
	}
	mopts := Options{Level: opts.Level, BlockSize: opts.BlockSize, Strategy: opts.Strategy, Name: opts.Name}
	hdrBits := uint64(len(buildHeaderBytes(opts, 0))+8) * 8 // +8 for the extra field
	for start := 0; start < len(data) || start == 0; start += BGZFChunkSize {
		end := min(start+BGZFChunkSize, len(data))
		if m != nil {
			m.reset()
		}
		memberOff := uint64(len(out))
		sub := &Meta{}
		var err error
		if out, _, err = appendBGZFMember(out, sub, m, data[start:end], mopts); err != nil {
			return nil, nil, err
		}
		meta.Members = append(meta.Members, memberOff)
		for _, b := range sub.Blocks {
			meta.Blocks = append(meta.Blocks, BlockOffset{memberOff*8 + hdrBits + b.Bit, uint64(start) + b.Decomp, b.Type, b.Final})
		}
		if len(data) == 0 {
			break
		}
	}
	out = append(out, BGZFEOFMarker...)
	meta.Members = append(meta.Members, uint64(len(out)-len(BGZFEOFMarker)))
	return out, meta, nil
}

// BGZFEOFMarker is the canonical 28-byte empty BGZF member terminating
// every BGZF file (HTSlib specification).
var BGZFEOFMarker = []byte{
	0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
	0x06, 0x00, 0x42, 0x43, 0x02, 0x00, 0x1b, 0x00, 0x03, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
}

// Preset returns the Options emulating a known compressor invocation.
// Recognised names: "gzip -N" (1..9), "pigz -N", "bgzip -l N" (-1, 0..9),
// "igzip -N" (0..3). The emulations reproduce each tool's *structural*
// signature — block sizes, sync points, metadata — which is what drives
// the parallel decompression differences of Table 3.
func Preset(name string) (Options, error) {
	fields := strings.Fields(name)
	if len(fields) < 2 {
		return Options{}, fmt.Errorf("gzipw: unknown preset %q", name)
	}
	tool := fields[0]
	levelStr := strings.TrimPrefix(fields[len(fields)-1], "-")
	lvl, err := strconv.Atoi(levelStr)
	if err != nil {
		return Options{}, fmt.Errorf("gzipw: bad preset level in %q", name)
	}
	switch tool {
	case "gzip":
		if lvl < 1 || lvl > 9 {
			return Options{}, fmt.Errorf("gzipw: gzip level %d", lvl)
		}
		return Options{Level: lvl, BlockSize: 128 << 10}, nil
	case "pigz":
		if lvl < 1 || lvl > 9 {
			return Options{}, fmt.Errorf("gzipw: pigz level %d", lvl)
		}
		// pigz compresses 128 KiB chunks quasi-independently and joins
		// them with empty stored blocks.
		return Options{Level: lvl, BlockSize: 128 << 10, IndependentChunks: 128 << 10}, nil
	case "bgzip":
		if fields[1] == "-l" && len(fields) >= 3 {
			if lvl == -1 {
				lvl = 6
			}
			if lvl < 0 || lvl > 9 {
				return Options{}, fmt.Errorf("gzipw: bgzip level %d", lvl)
			}
			return Options{Level: lvl, BGZF: true}, nil
		}
		return Options{Level: 6, BGZF: true}, nil
	case "igzip":
		switch lvl {
		case 0:
			// igzip -0 puts all data in a single Dynamic Block (§4.8).
			return Options{Level: 1, SingleBlock: true, Strategy: DynamicOnly}, nil
		case 1, 2, 3:
			return Options{Level: lvl, BlockSize: 256 << 10}, nil
		}
		return Options{}, fmt.Errorf("gzipw: igzip level %d", lvl)
	}
	return Options{}, fmt.Errorf("gzipw: unknown tool %q", tool)
}
