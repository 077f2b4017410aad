package rapidgzip

import (
	"errors"
	"fmt"

	"repro/internal/gzformat"
)

// Format identifies a compression container format handled by Open.
type Format int

const (
	// FormatUnknown means the content matched no supported magic (or,
	// as an Open option default, "sniff the content").
	FormatUnknown Format = iota
	// FormatGzip is plain gzip (RFC 1952), decompressed by the paper's
	// speculative chunked architecture.
	FormatGzip
	// FormatBGZF is blocked gzip (bgzip/htslib): gzip whose members
	// carry their compressed size in a "BC" extra subfield, enabling
	// the metadata fast path of §3.4.4.
	FormatBGZF
	// FormatBzip2 is bzip2, decompressed with lbzip2-style stream-level
	// parallelism and checkpointed per-stream random access.
	FormatBzip2
	// FormatLZ4 is the LZ4 frame format, with frame-level parallelism
	// and checkpointed per-frame random access.
	FormatLZ4
	// FormatZstd is Zstandard (RFC 8878), with pzstd-style frame-level
	// parallelism for multi-frame files (§4.9's trivially
	// parallelizable case) and checkpointed per-frame random access.
	FormatZstd
)

// String returns the name the CLI's --format flag uses.
func (f Format) String() string {
	switch f {
	case FormatGzip:
		return "gzip"
	case FormatBGZF:
		return "bgzf"
	case FormatBzip2:
		return "bzip2"
	case FormatLZ4:
		return "lz4"
	case FormatZstd:
		return "zstd"
	}
	return "unknown"
}

// ParseFormat is the inverse of Format.String, for flag parsing.
// "auto" and "" map to FormatUnknown (sniff the content).
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "auto":
		return FormatUnknown, nil
	case "gzip", "gz":
		return FormatGzip, nil
	case "bgzf":
		return FormatBGZF, nil
	case "bzip2", "bz2":
		return FormatBzip2, nil
	case "lz4":
		return FormatLZ4, nil
	case "zstd", "zst":
		return FormatZstd, nil
	}
	return FormatUnknown, fmt.Errorf("%w: %q (want auto, gzip, bgzf, bzip2, lz4 or zstd)", ErrUnsupportedFormat, s)
}

// ErrUnsupportedFormat reports content that matched no supported
// format magic (or a format name/value outside the supported set).
// Test with errors.Is.
var ErrUnsupportedFormat = errors.New("rapidgzip: unsupported format")

// ErrSourceRead reports that the compressed source itself could not be
// read — a directory opened as a file, a short pread from a truncated
// or vanished file, permissions yanked between stat and read. It is
// distinct from ErrUnsupportedFormat (the bytes were readable but match
// no magic) and from format corruption errors (the bytes were readable
// but malformed): callers branching on it know the storage failed, not
// the content. Test with errors.Is.
var ErrSourceRead = errors.New("rapidgzip: reading compressed source failed")

// ErrClosed reports an operation on an archive whose Close has been
// called (or began concurrently: a ReadAt racing Close loses cleanly
// with this error instead of surfacing a pread on a closed file
// descriptor). Test with errors.Is.
var ErrClosed = errors.New("rapidgzip: archive is closed")

// ErrNoIndexSupport reports an index operation (Build/Export/Import,
// WithIndexFile) unsupported by the archive's format or backing. Since
// the span engine landed, every supported format persists an index
// (seek points for gzip/BGZF, checkpoint tables for bzip2/LZ4/zstd);
// the error remains for mismatched imports — e.g. handing a bzip2
// archive a seek-point index that carries no checkpoint table. Test
// with errors.Is.
var ErrNoIndexSupport = errors.New("rapidgzip: format does not support seek-point indexes")

// DetectFormat sniffs the magic bytes of a content prefix. Pass at
// least SniffLen bytes when available; shorter prefixes degrade to the
// formats they can still prove.
func DetectFormat(prefix []byte) Format {
	switch gzformat.Sniff(prefix) {
	case gzformat.KindGzip:
		return FormatGzip
	case gzformat.KindBGZF:
		return FormatBGZF
	case gzformat.KindBzip2:
		return FormatBzip2
	case gzformat.KindLZ4:
		return FormatLZ4
	case gzformat.KindZstd:
		return FormatZstd
	}
	return FormatUnknown
}

// SniffLen is the content prefix size DetectFormat wants for a
// definitive answer.
const SniffLen = gzformat.SniffLen

// Capabilities reports what an Archive's format/backing can actually
// do, so callers can branch instead of discovering limitations as
// runtime errors. Fields are per-archive, not per-format: a
// single-frame LZ4 file reports no random access while a multi-frame
// one does.
type Capabilities struct {
	// Seek reports working Seek/ReadAt over the decompressed stream.
	Seek bool
	// RandomAccess reports sub-linear seeking: the archive reaches an
	// arbitrary offset via checkpoints or an index without decoding
	// everything before it. Seek without RandomAccess means a seek may
	// cost a full decode (e.g. single-stream bzip2).
	RandomAccess bool
	// Parallel reports multi-core decompression for this archive.
	Parallel bool
	// Index reports BuildIndex/ExportIndex/ImportIndex support. Every
	// format has it: gzip/BGZF persist seek points with windows, and
	// bzip2/LZ4/zstd persist their checkpoint tables (RGZIDX05), so
	// reopening with an index skips the sizing pass.
	Index bool
	// Verify reports integrity verification: either opt-in sequential
	// CRC checking (gzip, WithVerify) or checksums validated during
	// every decode (bzip2 always; LZ4/zstd when the frames carry them).
	Verify bool
	// Prefetch reports that sequential or strided access triggers
	// speculative decodes ahead of the cursor (the cache-prefetch
	// architecture of the paper). True whenever the archive has more
	// than one independently decodable chunk; a single-chunk archive
	// has nothing to prefetch.
	Prefetch bool
}
