package lz4x

import (
	"fmt"

	"repro/internal/filereader"
	"repro/internal/pool"
	"repro/internal/spanengine"
)

// FormatTag identifies LZ4 checkpoint tables in persisted indexes.
const FormatTag = "lz4 "

// Codec capability flags persisted alongside the checkpoint table.
const (
	// FlagChecksummed marks files whose frames carry xxHash32 block or
	// content checksums, i.e. decoding verifies payload integrity.
	FlagChecksummed uint8 = 1 << 0
	// FlagBlockIndep marks files whose every frame declares independent
	// blocks.
	FlagBlockIndep uint8 = 1 << 1
)

// DecompressParallel inflates a multi-frame LZ4 file with frame-level
// parallelism — the pzstd scheme of §4.9: the content-size metadata in
// every frame header lets the scanner pre-compute all output positions,
// so frames decode into disjoint slices of one allocation with no
// inter-frame dependencies at all. (Contrast with gzip, where rapidgzip
// must discover chunk boundaries speculatively.)
func DecompressParallel(data []byte, threads int) ([]byte, error) {
	frames, err := ScanFrames(data)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, f := range frames {
		total += f.ContentSize
	}
	out := make([]byte, total)
	if threads < 1 {
		threads = 1
	}
	p := pool.New(threads)
	defer p.Close()
	futs := make([]*pool.Future[struct{}], len(frames))
	for i, f := range frames {
		futs[i] = pool.Go(p, func() (struct{}, error) {
			err := decompressFrame(data[f.Offset:f.End], out[f.ContentStart:f.ContentStart+f.ContentSize])
			return struct{}{}, err
		})
	}
	for i, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			return nil, fmt.Errorf("lz4x: frame %d: %w", i, err)
		}
	}
	return out, nil
}

// Codec is the LZ4 half of the shared span engine. LZ4 is the paper's
// best case, degenerate in the right way: every frame header declares
// its content size, so Scan is a pure header walk — zero sizing
// decodes — and the whole checkpoint table comes from metadata.
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec via ScanFramesReader (the §4.9
// metadata planning pass, windowed: only header bytes are ever read).
// It fails on anything the scan cannot plan — in particular frames
// that omit the content-size field.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	frames, err := ScanFramesReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	res := spanengine.ScanResult{Flags: FlagBlockIndep}
	for _, f := range frames {
		if f.flg&flgBlockIndep == 0 {
			res.Flags &^= FlagBlockIndep
		}
		if f.flg&(flgBlockCheck|flgContentCheck) != 0 {
			res.Flags |= FlagChecksummed
		}
		res.Spans = append(res.Spans, spanengine.Span{
			CompOff:    f.Offset,
			CompEnd:    f.End,
			DecompOff:  f.ContentStart,
			DecompSize: f.ContentSize,
		})
	}
	return res, nil
}

// maxExpansion bounds what LZ4 can make of its input: a match costs at
// least one length byte per 255 bytes it copies.
const maxExpansion = 255

// DecodeSpan implements spanengine.Codec: one span is one frame, read
// with one pread of its compressed extent and inflated as a unit
// (dependent blocks decode fine — the frame is the smallest seekable
// grain either way). The output is allocated from the table's size, and
// the table may come from an index file: a size no frame of that length
// can reach is refused before it is allocated.
func (Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	if s.DecompSize > maxExpansion*(s.CompEnd-s.CompOff) {
		return nil, fmt.Errorf("lz4x: frame at offset %d: %w: %d bytes declared for %d compressed",
			s.CompOff, ErrCorrupt, s.DecompSize, s.CompEnd-s.CompOff)
	}
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out := make([]byte, s.DecompSize)
	if err := decompressFrame(ext, out); err != nil {
		return nil, fmt.Errorf("lz4x: frame at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}

// Reader provides checkpointed random access into a (possibly
// multi-frame) LZ4 file, served by the shared span engine: the frame
// table from ScanFrames (or a persisted index) is the checkpoint
// database, and ReadAt inflates only the frames overlapping the
// request, with the engine's LRU cache and prefetcher around it.
//
// All methods are safe for concurrent use.
type Reader struct {
	eng *spanengine.Engine
}

// NewReader scans data and returns a random-access reader. It fails on
// anything ScanFrames cannot plan — in particular frames that omit the
// content-size field.
func NewReader(data []byte, threads int) (*Reader, error) {
	return NewReaderConfig(filereader.MemoryReader(data), spanengine.Config{Threads: threads})
}

// NewReaderConfig is NewReader with full engine tuning (cache size,
// prefetch depth, strategy), over any positional source — an open file
// serves random access with only headers read at open and one frame
// extent per decode.
func NewReaderConfig(src filereader.FileReader, cfg spanengine.Config) (*Reader, error) {
	eng, err := spanengine.New(src, Codec{}, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{eng: eng}, nil
}

// NewReaderFromCheckpoints builds a reader from a persisted checkpoint
// table, skipping even the header walk.
func NewReaderFromCheckpoints(src filereader.FileReader, spans []spanengine.Span, flags uint8, cfg spanengine.Config) (*Reader, error) {
	eng, err := spanengine.NewFromCheckpoints(src, Codec{}, spans, flags, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{eng: eng}, nil
}

// Engine exposes the underlying span engine (stats, checkpoint export).
func (r *Reader) Engine() *spanengine.Engine { return r.eng }

// Close releases the engine's prefetch workers.
func (r *Reader) Close() error { return r.eng.Close() }

// Size returns the total decompressed size (known up front from the
// frame headers).
func (r *Reader) Size() int64 { return r.eng.Size() }

// NumFrames returns the number of checkpoints (frames).
func (r *Reader) NumFrames() int { return r.eng.NumSpans() }

// BlockIndependent reports whether every frame declares independent
// blocks. Dependent blocks decode fine (the whole frame is always
// inflated as a unit) but make the frame the smallest seekable grain.
func (r *Reader) BlockIndependent() bool { return r.eng.Flags()&FlagBlockIndep != 0 }

// Checksummed reports whether any frame carries xxHash32 block or
// content checksums, i.e. whether decoding verifies payload integrity.
func (r *Reader) Checksummed() bool { return r.eng.Flags()&FlagChecksummed != 0 }

// NumChunks, ChunkExtent and ChunkContent expose the checkpoint table
// generically (one chunk = one frame), so a consumer can pipeline
// ordered sequential reads with parallel decodes.
func (r *Reader) NumChunks() int { return r.eng.NumSpans() }

// ChunkExtent returns the decompressed offset and size of chunk i.
func (r *Reader) ChunkExtent(i int) (off, size int64) { return r.eng.SpanExtent(i) }

// ChunkContent returns the decompressed content of chunk i. The
// returned slice is shared with the engine's cache and must not be
// modified.
func (r *Reader) ChunkContent(i int) ([]byte, error) { return r.eng.SpanContent(i) }

// ReadAt implements io.ReaderAt over the decompressed stream.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) { return r.eng.ReadAt(p, off) }
