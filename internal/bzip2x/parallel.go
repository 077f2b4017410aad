package bzip2x

import (
	"bytes"
	"compress/bzip2"
	"fmt"
	"io"

	"repro/internal/filereader"
	"repro/internal/pool"
	"repro/internal/spanengine"
)

// FormatTag identifies bzip2 checkpoint tables in persisted indexes.
const FormatTag = "bz2 "

// streamMagicLen is the prefix checked by FindStreams: "BZh", a level
// digit, and the first block's 48-bit magic (or the footer magic of an
// empty stream).
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

// FindStreams scans for byte offsets that look like bzip2 stream
// starts. Offset 0 is always included (the caller validates it by
// decompressing). Like the gzip block finder, this may return false
// positives — compressed payload bytes can spell the magic — so the
// caller must be ready to fall back (§3: trial and error).
func FindStreams(data []byte) []int {
	offs := scanWindow(nil, data, 0)
	ints := make([]int, len(offs)+1)
	for i, v := range offs {
		ints[i+1] = int(v)
	}
	return ints
}

// findWindow is the chunk size FindStreamsReader scans at a time.
// bzip2 declares nothing, so the magic scan must touch every byte of
// the file either way — the window only bounds how much of it is
// resident at once.
const findWindow = 1 << 20

// FindStreamsReader is FindStreams over a positional reader: the file
// is scanned in findWindow-sized chunks overlapping by
// streamMagicLen-1 bytes, so peak resident source stays one window
// regardless of file size. Memory-backed sources are one window, their
// whole buffer.
func FindStreamsReader(src filereader.FileReader) ([]int64, error) {
	return findStreams(src, findWindow)
}

// findStreams is FindStreamsReader with the window size as a parameter.
func findStreams(src filereader.FileReader, window int64) ([]int64, error) {
	offs := []int64{0}
	if data, ok := filereader.Bytes(src); ok {
		return scanWindow(offs, data, 0), nil
	}
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

// Decompress inflates a bzip2 file serially (any block/stream layout),
// delegating to the standard library decoder.
func Decompress(data []byte) ([]byte, error) {
	out, err := io.ReadAll(bzip2.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, fmt.Errorf("bzip2x: %w", err)
	}
	return out, nil
}

// DecompressParallel inflates a multi-stream bzip2 file with
// stream-level parallelism, the lbzip2 scheme of Table 4: candidate
// stream boundaries come from FindStreams, the spans between
// consecutive candidates decode concurrently on the worker pool, and
// any failure (for example a false-positive boundary splitting a real
// stream) falls back to the serial whole-file path, which is always
// correct.
func DecompressParallel(data []byte, threads int) ([]byte, error) {
	if threads < 1 {
		threads = 1
	}
	offs := FindStreams(data)
	if len(offs) == 1 || threads == 1 {
		return Decompress(data)
	}
	p := pool.New(threads)
	defer p.Close()
	futs := make([]*pool.Future[[]byte], len(offs))
	for i := range offs {
		start := offs[i]
		end := len(data)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		futs[i] = pool.Go(p, func() ([]byte, error) {
			return Decompress(data[start:end])
		})
	}
	var out []byte
	for _, fut := range futs {
		part, err := fut.Wait()
		if err != nil {
			// A span failed: at least one candidate was a false
			// positive. Serial decoding resolves the layout exactly.
			return Decompress(data)
		}
		out = append(out, part...)
	}
	return out, nil
}

// Codec is the bzip2 half of the shared span engine: the magic scan and
// the per-span decode. bzip2 declares no sizes anywhere, so the scan
// leaves them all open and the engine grows its table from the first
// decode of each stream (spanengine's deferred sizes).
type Codec struct {
	// Candidates is set by Scan: how many stream starts the magic scan
	// proposed, offset 0 included.
	Candidates int
}

// FormatTag implements spanengine.Codec.
func (*Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec: candidate stream boundaries come
// from FindStreamsReader (a bounded windowed magic scan) and nothing is
// decoded. The spans between consecutive candidates are what the engine
// decodes, merging one that a false-positive magic cut short with its
// successor, which converges on the true stream layout.
func (c *Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	cands, err := FindStreamsReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	c.Candidates = len(cands)
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
// compressed extent, decompressed with the stdlib decoder (which
// verifies block CRCs, so span decodes always verify integrity).
func (*Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := Decompress(ext)
	if err != nil {
		return nil, fmt.Errorf("bzip2x: span at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}

// Reader provides checkpointed random access into a bzip2 file — the
// Bzip2BlockFetcher instantiation the paper mentions under Figure 5,
// served by the shared span engine. Opening one costs the magic scan and
// decodes nothing: the checkpoint table grows as streams are first
// decoded, each decode sizing its stream and serving it, so a first pass
// over the file decodes it once and a ReadAt ahead of the table decodes up
// to where it lands (Size decodes to the end). A table persisted by
// ExportIndex comes back through NewReaderFromCheckpoints with no scan at
// all, and ReadAt then decodes only the streams a request touches, with
// the engine's LRU cache and prefetcher around it.
//
// All methods are safe for concurrent use.
type Reader struct {
	eng        *spanengine.Engine
	candidates int
}

// NewReader scans data for stream magics and returns a reader over it.
func NewReader(data []byte, threads int) (*Reader, error) {
	return NewReaderConfig(filereader.MemoryReader(data), spanengine.Config{Threads: threads})
}

// NewReaderConfig is NewReader with full engine tuning (cache size,
// prefetch depth, strategy), over any positional source — an open file
// serves random access without the compressed bytes ever being
// resident as a whole.
func NewReaderConfig(src filereader.FileReader, cfg spanengine.Config) (*Reader, error) {
	codec := &Codec{}
	eng, err := spanengine.New(src, codec, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{eng: eng, candidates: codec.Candidates}, nil
}

// NewReaderFromCheckpoints builds a reader from a persisted checkpoint
// table, skipping the scan entirely.
func NewReaderFromCheckpoints(src filereader.FileReader, spans []spanengine.Span, cfg spanengine.Config) (*Reader, error) {
	eng, err := spanengine.NewFromCheckpoints(src, &Codec{}, spans, 0, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{eng: eng}, nil
}

// Engine exposes the underlying span engine (stats, checkpoint export).
func (r *Reader) Engine() *spanengine.Engine { return r.eng }

// Close releases the engine's prefetch workers.
func (r *Reader) Close() error { return r.eng.Close() }

// Size returns the total decompressed size, decoding whatever part of
// the file no read has reached yet.
func (r *Reader) Size() (int64, error) { return r.eng.TotalSize() }

// NumStreams returns the number of checkpoints (validated stream spans)
// once the table is complete, and until then the number of candidates the
// magic scan found, which a false positive makes one too many. Files
// written by pbzip2/lbzip2 — or Compress with a StreamSize — have many;
// single-stream files have one, making every ReadAt a whole-file decode.
func (r *Reader) NumStreams() int {
	if r.eng.Complete() {
		return r.eng.NumSpans()
	}
	return r.candidates
}

// NumChunks, ChunkExtent and ChunkContent expose the checkpoint table
// as far as it has grown (one chunk = one validated stream span), so a
// consumer can pipeline ordered sequential reads with parallel decodes.
func (r *Reader) NumChunks() int { return r.eng.NumSpans() }

// ChunkExtent returns the decompressed offset and size of chunk i.
func (r *Reader) ChunkExtent(i int) (off, size int64) { return r.eng.SpanExtent(i) }

// ChunkContent returns the decompressed output of chunk i. The
// returned slice is shared with the engine's cache and must not be
// modified.
func (r *Reader) ChunkContent(i int) ([]byte, error) { return r.eng.SpanContent(i) }

// ReadAt implements io.ReaderAt over the decompressed stream.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) { return r.eng.ReadAt(p, off) }
