package zstdx

import (
	"fmt"

	"repro/internal/filereader"
	"repro/internal/pool"
	"repro/internal/spanengine"
)

// FormatTag identifies Zstandard checkpoint tables in persisted
// indexes.
const FormatTag = "zstd"

// Codec capability flags persisted alongside the checkpoint table.
const (
	// FlagChecksummed marks files whose every data frame carries an
	// xxHash64 content checksum, i.e. every decode verifies integrity.
	FlagChecksummed uint8 = 1 << 0
	// FlagMetadataSized marks files whose every frame header declared
	// its content size — the checkpoint table came from metadata alone
	// (§4.9's trivially parallelizable shape).
	FlagMetadataSized uint8 = 1 << 1
)

// DecompressParallel inflates a multi-frame Zstandard file with
// frame-level parallelism — the paper's §4.9 pzstd case: frame
// metadata alone yields independent work units, so frames decode into
// disjoint slices of one allocation. Files whose frames omit the
// content size cannot be planned this way and fall back to the serial
// path.
func DecompressParallel(data []byte, threads int) ([]byte, error) {
	scan, err := ScanFrames(data)
	if err != nil {
		return nil, err
	}
	if !scan.Sized || threads < 2 || len(scan.Frames) < 2 {
		return Decompress(data)
	}
	var total int64
	for _, f := range scan.Frames {
		total += f.ContentSize
	}
	out := make([]byte, total)
	p := pool.New(threads)
	defer p.Close()
	futs := make([]*pool.Future[struct{}], len(scan.Frames))
	for i, f := range scan.Frames {
		futs[i] = pool.Go(p, func() (struct{}, error) {
			content, err := decodeFrame(data[f.Offset:f.End])
			if err == nil {
				copy(out[f.ContentStart:f.ContentStart+f.ContentSize], content)
			}
			return struct{}{}, err
		})
	}
	for i, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			return nil, fmt.Errorf("zstdx: frame %d: %w", i, err)
		}
	}
	return out, nil
}

// Codec is the Zstandard half of the shared span engine. Scan is a pure
// header-and-block walk that decodes nothing. When every frame declares
// its content size the table it returns is complete (the §4.9 metadata
// fast path); a frame without one leaves its size open, and the engine
// grows the table from the first decode of each such frame (spanengine's
// deferred sizes).
type Codec struct {
	// Frames and Skippable are set by Scan: the data frames it found, and
	// the skippable frames it ignored (they carry no content).
	Frames, Skippable int
}

// FormatTag implements spanengine.Codec.
func (*Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec via ScanFramesReader (a windowed
// header walk that never reads block payloads).
func (c *Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	scan, err := ScanFramesReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	c.Frames, c.Skippable = len(scan.Frames), scan.Skippable
	res := spanengine.ScanResult{}
	if scan.Sized {
		res.Flags |= FlagMetadataSized
	}
	if len(scan.Frames) > 0 {
		res.Flags |= FlagChecksummed
	}
	for _, f := range scan.Frames {
		if !f.HasChecksum {
			res.Flags &^= FlagChecksummed
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

// DecodeSpan implements spanengine.Codec: one span is one data frame,
// read with one pread of its compressed extent and verified against
// its content checksum when present. (The engine checks the decoded
// length against the table.)
func (*Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := decodeFrame(ext)
	if err != nil {
		return nil, fmt.Errorf("zstdx: frame at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}

// Reader provides checkpointed random access into a (possibly
// multi-frame) Zstandard file, served by the shared span engine. The
// frame table from ScanFrames is the checkpoint database; when every
// frame declares its content size the table is complete without
// decoding anything — the metadata fast path of §4.9. Otherwise opening
// still decodes nothing: the table grows as frames are first decoded, a
// frame without a content size being sized by the decode that serves it,
// so a first pass decodes the file once and a ReadAt ahead of the table
// decodes up to where it lands (Size decodes to the end). A reader built
// from a persisted checkpoint table skips even that: the index already
// carries every extent, so unsized files become seekable at no cost on
// reopen.
//
// All methods are safe for concurrent use.
type Reader struct {
	eng       *spanengine.Engine
	frames    int
	skippable int
	fromIndex bool
}

// NewReader scans data and returns a random-access reader. Frames
// without a content size demote the Sized (parallel-plannable)
// capability.
func NewReader(data []byte, threads int) (*Reader, error) {
	return NewReaderConfig(filereader.MemoryReader(data), spanengine.Config{Threads: threads})
}

// NewReaderConfig is NewReader with full engine tuning (cache size,
// prefetch depth, strategy), over any positional source — an open file
// serves random access with only headers read at open and one frame
// extent per decode.
func NewReaderConfig(src filereader.FileReader, cfg spanengine.Config) (*Reader, error) {
	codec := &Codec{}
	eng, err := spanengine.New(src, codec, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{eng: eng, frames: codec.Frames, skippable: codec.Skippable}, nil
}

// NewReaderFromCheckpoints builds a reader from a persisted checkpoint
// table, skipping the scan entirely.
func NewReaderFromCheckpoints(src filereader.FileReader, spans []spanengine.Span, flags uint8, cfg spanengine.Config) (*Reader, error) {
	eng, err := spanengine.NewFromCheckpoints(src, &Codec{}, spans, flags, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{eng: eng, frames: len(spans), fromIndex: true}, nil
}

// Engine exposes the underlying span engine (stats, checkpoint export).
func (r *Reader) Engine() *spanengine.Engine { return r.eng }

// Close releases the engine's prefetch workers.
func (r *Reader) Close() error { return r.eng.Close() }

// Size returns the total decompressed size, decoding whatever unsized
// frames no read has reached yet.
func (r *Reader) Size() (int64, error) { return r.eng.TotalSize() }

// NumFrames returns the number of data frames (the checkpoints of the
// complete table).
func (r *Reader) NumFrames() int { return r.frames }

// NumSkippable returns the count of skippable frames the scan ignored.
// Readers built from a persisted checkpoint table never scanned and
// report zero.
func (r *Reader) NumSkippable() int { return r.skippable }

// Sized reports whether the checkpoint table is complete metadata: every
// frame header declared its content size, or the table was imported
// from an index (which stores every extent). Files that are not Sized
// still read correctly, but a read costs the decode of every frame
// before it that nothing has decoded yet, so consumers should not
// advertise them as random-access.
func (r *Reader) Sized() bool { return r.fromIndex || r.eng.Flags()&FlagMetadataSized != 0 }

// Checksummed reports whether every data frame carries an xxHash64
// content checksum, i.e. whether every decode verifies integrity.
func (r *Reader) Checksummed() bool { return r.eng.Flags()&FlagChecksummed != 0 }

// NumChunks, ChunkExtent and ChunkContent expose the checkpoint table
// as far as it has grown (one chunk = one frame), so a consumer can
// pipeline ordered sequential reads with parallel decodes.
func (r *Reader) NumChunks() int { return r.eng.NumSpans() }

// ChunkExtent returns the decompressed offset and size of chunk i.
func (r *Reader) ChunkExtent(i int) (off, size int64) { return r.eng.SpanExtent(i) }

// ChunkContent returns the decompressed content of chunk i. The
// returned slice is shared with the engine's cache and must not be
// modified.
func (r *Reader) ChunkContent(i int) ([]byte, error) { return r.eng.SpanContent(i) }

// ReadAt implements io.ReaderAt over the decompressed stream.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) { return r.eng.ReadAt(p, off) }
