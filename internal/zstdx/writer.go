package zstdx

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/shardpipe"
)

// shardBufPool recycles input shard buffers across shards and Writers;
// a full shard is garbage the moment its frame is encoded, and letting
// the GC chew through one per shard costs the encode workers cores.
// frameBufPool does the same for the encoded output frames, which
// drain returns once they are written to the sink.
var (
	shardBufPool sync.Pool // []byte
	frameBufPool sync.Pool // []byte
)

func getShardBuf(n int) []byte {
	if v := shardBufPool.Get(); v != nil {
		if b := v.([]byte); cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, n)
}

func getFrameBuf() []byte {
	if v := frameBufPool.Get(); v != nil {
		return v.([]byte)[:0]
	}
	return nil
}

// WriterOptions configures a parallel multi-frame Writer.
type WriterOptions struct {
	// Level 0 stores raw blocks; any other value runs the LZ matcher.
	Level int
	// ShardSize is the uncompressed bytes per frame — the parallel work
	// unit and the random-access granularity. Zero selects
	// DefaultShardSize.
	ShardSize int
	// BlockSize is the uncompressed bytes per block within a frame
	// (capped at the format's 128 KiB ceiling); zero selects the cap.
	BlockSize int
	// Parallelism is the number of encode workers; zero selects
	// runtime.NumCPU().
	Parallelism int
	// ContentChecksum appends an xxHash64 checksum to every frame, so
	// every parallel decode verifies integrity.
	ContentChecksum bool
}

// DefaultShardSize is the uncompressed bytes per frame.
const DefaultShardSize = 1 << 20

// Checkpoint records one drained frame: its compressed extent in the
// output and the decompressed extent it encodes — exactly one span of
// the reopen checkpoint table.
type Checkpoint struct {
	CompOff, CompEnd      int64
	DecompOff, DecompSize int64
}

// Writer is a parallel multi-frame Zstandard encoder: input is cut
// into fixed-size shards, each compressed as one complete frame with
// its Frame_Content_Size header set, concurrently on a worker pool,
// and the frames concatenated in submit order — pzstd's structure,
// which §4.9 of the paper calls trivially parallelizable precisely
// because the frame headers alone describe the decode plan. ScanFrames
// over the output therefore reports Sized (every size declared), and
// the checkpoint table recorded here while encoding matches what a
// scan would recover.
//
// Not safe for concurrent use: one producer writes, the encoding
// parallelizes underneath.
type Writer struct {
	out  io.Writer
	opts WriterOptions
	pipe *shardpipe.Pipeline[frameResult]

	shard     []byte
	submitted int

	compOff     int64
	decompOff   int64
	checkpoints []Checkpoint

	closed bool
	err    error
}

type frameResult struct {
	frame  []byte
	rawLen int
}

// NewWriter constructs a parallel multi-frame writer over w.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.ShardSize < 0 {
		return nil, fmt.Errorf("zstdx: negative shard size %d", opts.ShardSize)
	}
	if opts.ShardSize == 0 {
		opts.ShardSize = DefaultShardSize
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	pw := &Writer{out: w, opts: opts}
	pw.pipe = shardpipe.New[frameResult](opts.Parallelism, 2*opts.Parallelism, pw.drain)
	return pw, nil
}

func (w *Writer) drain(fr frameResult) error {
	if _, err := w.out.Write(fr.frame); err != nil {
		return err
	}
	w.checkpoints = append(w.checkpoints, Checkpoint{
		CompOff:    w.compOff,
		CompEnd:    w.compOff + int64(len(fr.frame)),
		DecompOff:  w.decompOff,
		DecompSize: int64(fr.rawLen),
	})
	w.compOff += int64(len(fr.frame))
	w.decompOff += int64(fr.rawLen)
	frameBufPool.Put(fr.frame[:0])
	return nil
}

// Write implements io.Writer, buffering into the current shard and
// submitting full shards to the encode pool.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("zstdx: write after Close")
	}
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		if w.shard == nil {
			w.shard = getShardBuf(w.opts.ShardSize)
		}
		n := w.opts.ShardSize - len(w.shard)
		if n > len(p) {
			n = len(p)
		}
		w.shard = append(w.shard, p[:n]...)
		p = p[n:]
		if len(w.shard) == w.opts.ShardSize {
			if err := w.submitShard(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// ReadFrom implements io.ReaderFrom, filling shards straight from r.
func (w *Writer) ReadFrom(r io.Reader) (int64, error) {
	if w.closed {
		return 0, errors.New("zstdx: write after Close")
	}
	var total int64
	for {
		if w.shard == nil {
			w.shard = getShardBuf(w.opts.ShardSize)
		}
		n, err := r.Read(w.shard[len(w.shard):w.opts.ShardSize])
		w.shard = w.shard[:len(w.shard)+n]
		total += int64(n)
		if len(w.shard) == w.opts.ShardSize {
			if serr := w.submitShard(); serr != nil {
				return total, serr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

func (w *Writer) submitShard() error {
	data := w.shard
	w.shard = nil
	fo := FrameOptions{
		BlockSize:       w.opts.BlockSize,
		Level:           w.opts.Level,
		ContentChecksum: w.opts.ContentChecksum,
	}
	err := w.pipe.Submit(func() (frameResult, error) {
		// FrameSize 0 = the whole shard as one frame; the content-size
		// header is always written (OmitContentSize false), which is what
		// keeps the output metadata-sized.
		fr := frameResult{frame: AppendFrames(getFrameBuf(), data, fo), rawLen: len(data)}
		shardBufPool.Put(data[:0])
		return fr, nil
	})
	if err != nil {
		w.err = err
		return err
	}
	w.submitted++
	return nil
}

// Close flushes the pending shard and drains the pipeline. An empty
// input still produces one empty sized frame, so the output is always
// a valid Zstandard file. Close does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if (len(w.shard) > 0 || w.submitted == 0) && w.err == nil {
		if w.shard == nil {
			w.shard = []byte{}
		}
		w.submitShard()
	}
	if err := w.pipe.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Checkpoints returns the per-frame checkpoint table recorded while
// encoding. Complete only after Close.
func (w *Writer) Checkpoints() []Checkpoint { return w.checkpoints }

// Flags returns the codec capability flags describing the output:
// always FlagMetadataSized (every frame header carries its content
// size), plus FlagChecksummed when enabled.
func (w *Writer) Flags() uint8 {
	f := FlagMetadataSized
	if w.opts.ContentChecksum {
		f |= FlagChecksummed
	}
	return f
}

// CompressedSize returns the total bytes written. Final only after Close.
func (w *Writer) CompressedSize() int64 { return w.compOff }

// UncompressedSize returns the input bytes encoded so far.
func (w *Writer) UncompressedSize() int64 { return w.decompOff }
