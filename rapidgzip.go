// Package rapidgzip provides parallel decompression of, and constant-
// time random access ("seeking") into, compressed files — gzip first
// and foremost, plus BGZF, bzip2, LZ4 and Zstandard instantiations of
// the same cache-plus-prefetch chunk-fetcher architecture (all five
// formats run on one engine, internal/spanengine; gzip adds its
// speculative chunk pipeline as a codec on top).
//
// It is a from-scratch Go reproduction of the system described in
// "Rapidgzip: Parallel Decompression and Seeking in Gzip Files Using
// Cache Prefetching" (Knespel & Brunst, HPDC 2023): the compressed file
// is split into chunks, a false-positive-tolerant block finder locates
// Deflate block candidates inside each chunk, worker goroutines decode
// the chunks speculatively into a 16-bit intermediate format whose
// marker symbols stand in for the unknown 32 KiB LZ window, and a
// cache-plus-prefetcher architecture stitches the speculative results
// back into the exact decompressed stream — falling back to an
// on-demand decode whenever a speculative result turns out to have
// started at a false positive.
//
// Basic usage — Open sniffs the format from the content, so the same
// call handles gzip, BGZF, bzip2, LZ4 and zstd:
//
//	f, err := rapidgzip.Open("big.tar.gz")
//	if err != nil { ... }
//	defer f.Close()
//	io.Copy(dst, f) // decompresses on all cores
//
// A seek-point index is built on the fly. Once present (or imported
// from a previous run — a sibling "big.tar.gz.rgzidx" is picked up
// automatically), any offset of the decompressed stream is reachable
// in constant time:
//
//	f.Seek(1<<40, io.SeekStart)
//	f.Read(buf)
//
// Formats differ in what they can do; Capabilities reports it:
//
//	if f.Capabilities().RandomAccess { ... }
//
// Open takes functional options (WithParallelism, WithChunkSize,
// WithVerify, WithFormat, WithIndexFile, WithSharedPool, ...). The
// prefetcher is not among them: one adaptive strategy follows every
// sequential stream on an archive, and its depth and the span cache are
// sized from the parallelism.
//
// There is one read stack. Open resolves the options, sniffs the format
// and builds an archive: the source, the one sequential cursor and the
// current span engine (internal/spanengine: span table, cache,
// prefetcher, worker pool) over the format's codec. Every format builds
// it alike, cold or from an index: for bzip2, LZ4 and zstd the codec is
// a scan and a span decoder, for gzip/BGZF internal/core's, which also
// owns the window index, the CRC chain and the speculation counters and
// offers them through optional interfaces on the codec. Read, Seek,
// ReadAt, WriteTo, index import and export, CRC status and Stats are
// written once, over the engine, with no branch on the format.
package rapidgzip

import (
	"io"
	"io/fs"

	"repro/internal/spanengine"
	"repro/internal/tarfs"
)

// Stats counts an archive's activity: its span engine's counters, live
// for every format, and the gzip/BGZF chunk pipeline's. The fields are
// documented once, on spanengine.Stats, which this is. After ImportIndex
// it counts the new engine's activity.
type Stats = spanengine.Stats

// TarFS interprets any Archive's decompressed stream as a TAR archive
// and returns a read-only filesystem over its members. It works for
// every format Open handles — a .tar.bz2 or .tar.lz4 serves files the
// same way a .tar.gz does, at whatever random-access granularity the
// format's Capabilities admit.
func TarFS(a Archive) (fs.FS, error) { return tarfs.Open(a) }

// WriteTar streams src into w as a TAR archive — the write-side
// complement of TarFS. Pointed at a Writer from Create or NewWriter it
// produces a .tar.gz / .tar.zst whose members TarFS later serves with
// random access:
//
//	w, _ := rapidgzip.Create("backup.tar.gz")
//	rapidgzip.WriteTar(w, os.DirFS("/data"))
//	w.Close()
//
// WriteTar does not close w; call w.Close to finalize the archive and
// its index sidecar.
func WriteTar(w io.Writer, src fs.FS) error { return tarfs.Create(w, src) }
