package bzip2x

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/filereader"
	"repro/internal/spanengine"
)

// FormatTag identifies bzip2 checkpoint tables in persisted indexes.
const FormatTag = "bz2 "

// streamMagicLen is the prefix checked by FindStreamsReader: "BZh", a
// level digit, and the first block's 48-bit magic (or the footer magic of
// an empty stream).
const streamMagicLen = 10

var streamPrefix = []byte("BZh")

// streamMagicAt reports whether b (at least streamMagicLen bytes)
// spells a bzip2 stream header followed by a block or footer magic.
func streamMagicAt(b []byte) bool {
	if b[0] != 'B' || b[1] != 'Z' || b[2] != 'h' {
		return false
	}
	if b[3] < '1' || b[3] > '9' {
		return false
	}
	m := uint64(0)
	for _, c := range b[4:10] {
		m = m<<8 | uint64(c)
	}
	return m == blockMagic || m == footerMagic
}

// findWindow is the chunk size FindStreamsReader scans at a time.
// bzip2 declares nothing, so the magic scan must touch every byte of
// the file either way — the window only bounds how much of it is
// resident at once.
const findWindow = 1 << 20

// FindStreamsReader scans for byte offsets that look like bzip2 stream
// starts. Offset 0 is always included (the caller validates it by
// decompressing). Like the gzip block finder, this may return false
// positives — compressed payload bytes can spell the magic — so the
// caller must be ready to fall back (§3: trial and error). The file is
// scanned in findWindow-sized chunks overlapping by streamMagicLen-1
// bytes, so peak resident source stays one window regardless of file
// size, and a source held in memory is read the same way.
func FindStreamsReader(src filereader.FileReader) ([]int64, error) {
	return findStreams(src, findWindow)
}

// findStreams is FindStreamsReader with the window size as a parameter.
func findStreams(src filereader.FileReader, window int64) ([]int64, error) {
	offs := []int64{0}
	size := src.Size()
	buf := make([]byte, min(window, size))
	for base := int64(0); base+streamMagicLen <= size; {
		chunk := buf[:min(window, size-base)]
		if rn, err := src.ReadAt(chunk, base); rn < len(chunk) {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: bzip2 magic scan at offset %d: %w", filereader.ErrIO, base, err)
		}
		offs = scanWindow(offs, chunk, base)
		if base+int64(len(chunk)) == size {
			break
		}
		// Overlap by streamMagicLen-1 so a magic straddling the window
		// boundary is still seen exactly once.
		base += int64(len(chunk)) - (streamMagicLen - 1)
	}
	return offs, nil
}

// scanWindow appends to offs the file offset of every stream magic that
// lies whole inside win, the bytes of the file from offset base on, bar
// one at offset 0 of the file. bytes.Index finds the "BZh" candidates;
// nearly every byte of a file is not one.
func scanWindow(offs []int64, win []byte, base int64) []int64 {
	for p := 0; ; p++ {
		i := bytes.Index(win[p:], streamPrefix)
		if i < 0 || p+i+streamMagicLen > len(win) {
			return offs
		}
		if p += i; base+int64(p) != 0 && streamMagicAt(win[p:]) {
			offs = append(offs, base+int64(p))
		}
	}
}

// Codec is the bzip2 half of the shared span engine: the magic scan and
// the per-span decode. bzip2 declares no sizes anywhere, so the scan
// leaves them all open and the engine grows its table from the first
// decode of each stream (spanengine's deferred sizes).
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec: candidate stream boundaries come
// from FindStreamsReader (a bounded windowed magic scan) and nothing is
// decoded. The spans between consecutive candidates are what the engine
// decodes, merging one that a false-positive magic cut short with its
// successor, which converges on the true stream layout.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	cands, err := FindStreamsReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	res := spanengine.ScanResult{Candidates: true, Spans: make([]spanengine.Span, len(cands))}
	for i, off := range cands {
		end := src.Size()
		if i+1 < len(cands) {
			end = cands[i+1]
		}
		res.Spans[i] = spanengine.Span{CompOff: off, CompEnd: end, DecompSize: -1}
	}
	return res, nil
}

// DecodeSpan implements spanengine.Codec: one pread of the span's
// compressed extent, decoded whole — every stream in it — with every
// block and stream CRC checked, so span decodes always verify integrity.
func (Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := decode(ext)
	if err != nil {
		return nil, fmt.Errorf("bzip2x: span at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}
