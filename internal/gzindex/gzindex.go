// Package gzindex implements the seek-point database of the paper
// (§1.3 "Index for Seeking", §3.3): for each chunk start it stores the
// compressed bit offset, the decompressed byte offset and the preceding
// 32 KiB window, enabling constant-time seeking and window-primed
// (single-stage) decompression. Indexes can be exported and imported so
// later runs skip the initial decompression pass, like indexed_gzip's
// .gzi files; the on-disk format here is this package's own versioned
// binary layout with flate-compressed windows.
//
// The paper cuts a file only where a Deflate block starts, so a block of
// a megabyte is a seek point's worth of output on its own. A point here
// may also lie inside a Huffman block, between two elements: it then
// also records where the block's header is, which a decode from it reads
// again to rebuild the block's tables. Deflate carries nothing else from
// one element to the next but the window.
//
// A table-first index (flag bit 4, what every writer emits) keeps its
// windows out of the table: behind the header come the seek-point
// records, each with its window's lengths and CRC32, then a CRC32 over
// all of that, and then the windows themselves, one after the other.
// Opening an index file (ReadAt) reads its head and its table, in at
// most two reads, and not one window byte: a window is read from the
// file, checked against its CRC32 and inflated with the deflate
// kernel's single-stage decoder the first time Window.Bytes asks for
// it, and kept, so a cold seek through the index reads one window and a
// handle that touches three spans holds three. A stream (Read) is read
// byte-exact, each window checked as it goes by and kept as its flate
// bytes, inflated on first use alike. An index of the older layout,
// windows inline and one CRC32 at the end, is still read: whole, into
// one buffer. A window that fails its CRC32, or does not inflate to
// exactly its declared length, is reported as ErrCorrupt by Bytes (a
// stream's window that fails its CRC32 fails the Read). Writing an
// imported index back out copies the stored bytes unchanged.
package gzindex

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitio"
	"repro/internal/deflate"
)

// SeekPoint marks a position where decompression can resume.
type SeekPoint struct {
	// CompressedBitOffset is the exact bit offset of a Deflate block
	// header (canonicalised for stored blocks), of a gzip member header
	// (flagged by AtMemberStart), or of an element inside a Huffman block
	// (flagged by a nonzero BlockHeaderBit).
	CompressedBitOffset uint64
	// UncompressedOffset is the decompressed position of this point.
	UncompressedOffset uint64
	// AtMemberStart marks points that sit on a gzip member boundary
	// (e.g. BGZF members), where decoding must begin with header parsing
	// and an empty window.
	AtMemberStart bool
	// BlockHeaderBit, when nonzero, makes this a point inside a Huffman
	// block: it is the bit offset of that block's header, which lies
	// before the point and not before the last point that is not inside
	// a block. (No block header is at bit 0: a gzip member header is.)
	BlockHeaderBit uint64
}

// MemberEnd marks a gzip member ending inside the span of a seek
// point: the decompressed offset relative to the point and the CRC32
// the member's footer declares. Persisting these with the index keeps
// full member-checksum verification available after an import without
// waiting for each span's decode to reach its footers.
type MemberEnd struct {
	RelEnd uint64
	CRC32  uint32
}

// Fingerprint identifies the source file an index was built for beyond
// its length: CRC32s of the file's first and last FingerprintSpan
// bytes. Together with CompressedSize it rejects an import whose index
// belongs to a different file of identical size — which would
// otherwise decode garbage from the recorded offsets.
type Fingerprint struct {
	Head uint32 // CRC32 (IEEE) of the first min(FingerprintSpan, size) bytes
	Tail uint32 // CRC32 (IEEE) of the last min(FingerprintSpan, size) bytes
}

// FingerprintSpan is the number of bytes hashed at each end of the
// source file. It is part of the on-disk format: changing it would make
// every stored fingerprint mismatch its file.
const FingerprintSpan = 4 << 10

// ComputeFingerprint hashes the head and tail of a source file. The two
// spans overlap for files shorter than 2*FingerprintSpan; that is fine,
// the comparison just needs determinism.
func ComputeFingerprint(r io.ReaderAt, size int64) (Fingerprint, error) {
	span := int64(FingerprintSpan)
	if span > size {
		span = size
	}
	read := func(off int64) (uint32, error) {
		buf := make([]byte, span)
		n, err := r.ReadAt(buf, off)
		if int64(n) < span {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("gzindex: fingerprinting source: %w", err)
		}
		return crc32.ChecksumIEEE(buf), nil
	}
	head, err := read(0)
	if err != nil {
		return Fingerprint{}, err
	}
	tail, err := read(size - span)
	if err != nil {
		return Fingerprint{}, err
	}
	return Fingerprint{Head: head, Tail: tail}, nil
}

// CheckSource reports why ix cannot be installed over an open source:
// it must be finalized, recorded for a file of this size and
// fingerprint, and a checkpoint table in it must have been written by a
// codec that answers to one of tags. It is the one identity check every
// format's import goes through.
func (ix *Index) CheckSource(size int64, fp Fingerprint, tags ...string) error {
	if !ix.Finalized {
		return errors.New("gzindex: can only import finalized indexes")
	}
	if ct := ix.Checkpoints; ct != nil && !slices.Contains(tags, ct.Format) {
		return fmt.Errorf("gzindex: index checkpoint table is for format %q, want one of %q", ct.Format, tags)
	}
	if ix.CompressedSize != uint64(size) {
		return fmt.Errorf("gzindex: index is for a %d-byte file, have %d bytes", ix.CompressedSize, size)
	}
	if ix.SourceFP == nil {
		// Every writer records one; an index without it predates them.
		return fmt.Errorf("%w: index carries no source fingerprint; re-export it", ErrUnsupportedVersion)
	}
	if *ix.SourceFP != fp {
		return fmt.Errorf("gzindex: index fingerprint %08x/%08x does not match the open file's %08x/%08x (index built for a different file of the same size)",
			ix.SourceFP.Head, ix.SourceFP.Tail, fp.Head, fp.Tail)
	}
	return nil
}

// Checkpoint is one span of a per-format checkpoint table (the
// non-gzip analogue of a SeekPoint): a compressed byte extent that
// decodes independently, and the decompressed extent it produces.
// Decompressed extents are contiguous from 0; the compressed side may
// have gaps (zstd skippable frames).
type Checkpoint struct {
	CompOff, CompEnd      int64
	DecompOff, DecompSize int64
}

// CheckpointTable is the optional per-format section of an index: the
// complete span table of a bzip2/LZ4/zstd file, persisted so a reopen
// can skip the sizing pass entirely (the ROADMAP follow-up from the
// format-agnostic-API and zstd PRs).
type CheckpointTable struct {
	// Format is the owning codec's 4-byte tag ("bz2 ", "lz4 ", "zstd").
	Format string
	// Flags carries codec-specific capability bits (checksummed, block
	// independence, metadata-sized, ...), opaque to this package.
	Flags uint8
	// Spans is the checkpoint table in stream order.
	Spans []Checkpoint
}

// Index is the seek-point database. It is not goroutine-safe; the chunk
// fetcher serialises access.
type Index struct {
	points []SeekPoint
	// floorBit is the lowest bit an in-block point's header may be at:
	// that of the last point not inside a block, or the last in-block
	// point's header, whichever comes later.
	floorBit   uint64
	windows    map[uint64]*Window     // keyed by CompressedBitOffset
	memberEnds map[uint64][]MemberEnd // keyed by CompressedBitOffset

	// Checkpoints is the optional per-format checkpoint-table section;
	// nil for gzip/BGZF seek-point indexes.
	Checkpoints *CheckpointTable

	// Finalized is set once the whole file has been scanned, making
	// sizes authoritative.
	Finalized        bool
	CompressedSize   uint64 // bytes
	UncompressedSize uint64
	ChunkSize        int // compressed chunk size used during creation
	// MemberMarksComplete asserts that every member boundary in the
	// file is recorded via AddMemberEnd — i.e. the absence of marks for
	// a point means "no member ends there", not "unknown".
	MemberMarksComplete bool
	// SourceFP is the source-file fingerprint. CheckSource refuses an
	// index without one.
	SourceFP *Fingerprint

	// readsWindows is set when windows are read from the io.ReaderAt the
	// index was parsed from (see ReadsWindows).
	readsWindows bool
}

// Window is one seek point's window: the bytes Add was given, or what an
// import knows of it — its flate bytes, held, or where they lie in the
// index file with their CRC32 — inflated to rawLen bytes by the first
// call of Bytes, with internal/deflate's single-stage decoder. Unlike the
// Index it came from, a Window is safe for concurrent use, so a decoder
// can inflate one without holding up the others.
type Window struct {
	mu   sync.Mutex // guards what Bytes and Restore set, and comp and src
	done bool
	raw  []byte
	err  error
	// An imported window's flate bytes are comp or, when the windows
	// trail the table of an index file, the compLen bytes at off in src,
	// which must match crc. A window Add was given, or one restored, has
	// neither.
	comp    []byte
	src     io.ReaderAt
	off     int64
	compLen int
	crc     uint32
	rawLen  int
}

// Bytes returns the window. For an imported point the first call reads
// and inflates it; one that fails its CRC32 or does not inflate to its
// declared length is an error wrapping ErrCorrupt, on that call and
// every later one, unless Restore replaces it.
func (w *Window) Bytes() ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.done && w.raw == nil {
		comp, err := w.flate()
		if err == nil {
			if w.raw, err = inflate(comp, w.rawLen); err != nil {
				err = fmt.Errorf("%w: seek point window: %v", ErrCorrupt, err)
			}
		}
		w.err = err
	}
	w.done = true
	return w.raw, w.err
}

// Len is the window's length in bytes, known before it is read.
func (w *Window) Len() int { return w.rawLen }

// Check reports whether the window can still be had, without inflating
// it: it is in memory, or its index file holds its bytes as their CRC32
// says. It reports the error Bytes gave, if Bytes failed.
func (w *Window) Check() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.raw != nil {
		return w.err
	}
	_, err := w.flate()
	return err
}

// Restore replaces the window by raw, the same bytes decoded again from
// the compressed file, where its index file no longer gives them: later
// calls of Bytes return raw, and WriteTo compresses it anew. raw must be
// as long as the window is (Len).
func (w *Window) Restore(raw []byte) error {
	if len(raw) != w.rawLen {
		return fmt.Errorf("gzindex: a restored window of %d bytes for one of %d", len(raw), w.rawLen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.raw, w.err, w.done = raw, nil, true
	w.comp, w.src = nil, nil
	return nil
}

// flate returns an imported window's flate bytes, read from the index
// file when they trail its table and checked against their CRC32 there.
// The caller holds w.mu.
func (w *Window) flate() ([]byte, error) {
	if w.src == nil {
		return w.comp, nil
	}
	comp := make([]byte, w.compLen)
	if n, err := w.src.ReadAt(comp, w.off); n < len(comp) {
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("%w: the index file ends inside a window", ErrCorrupt)
		}
		return nil, fmt.Errorf("gzindex: reading the window at byte %d: %w", w.off, err)
	}
	if crc32.ChecksumIEEE(comp) != w.crc {
		return nil, fmt.Errorf("%w: the window at byte %d fails its CRC32", ErrCorrupt, w.off)
	}
	return comp, nil
}

// stored returns the window's flate bytes and the length they inflate
// to: an imported window's, or the compression of what Add or Restore
// was given, of which an empty window needs no bytes at all. An imported
// window already inflated is compressed anew where its index file no
// longer gives its bytes.
func (w *Window) stored() ([]byte, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.comp != nil || w.src != nil {
		comp, err := w.flate()
		if err == nil || w.raw == nil {
			return comp, w.rawLen, err
		}
	}
	if len(w.raw) == 0 {
		return nil, 0, nil
	}
	comp, err := flateCompress(w.raw)
	return comp, len(w.raw), err
}

// New returns an empty index.
func New(chunkSize int) *Index {
	return &Index{
		windows:    map[uint64]*Window{},
		memberEnds: map[uint64][]MemberEnd{},
		ChunkSize:  chunkSize,
	}
}

// Add appends a seek point; points must be added in stream order. win
// is the decompressed data preceding the point (nil for member starts,
// up to 32 KiB otherwise).
func (ix *Index) Add(p SeekPoint, win []byte) error {
	if err := ix.push(p); err != nil {
		return err
	}
	if win != nil {
		ix.windows[p.CompressedBitOffset] = &Window{raw: win, rawLen: len(win)}
	}
	return nil
}

// push appends p after checking that it may follow the points so far:
// offsets in stream order, and the header of an in-block point before
// it, at or after floorBit. Errors wrap ErrCorrupt.
func (ix *Index) push(p SeekPoint) error {
	n := len(ix.points)
	if n > 0 {
		last := ix.points[n-1]
		if p.UncompressedOffset < last.UncompressedOffset ||
			p.CompressedBitOffset <= last.CompressedBitOffset {
			return fmt.Errorf("%w: out-of-order seek point %+v after %+v", ErrCorrupt, p, last)
		}
	}
	if h := p.BlockHeaderBit; h == 0 {
		ix.floorBit = p.CompressedBitOffset
	} else {
		if n == 0 || p.AtMemberStart || h >= p.CompressedBitOffset || h < ix.floorBit {
			return fmt.Errorf("%w: seek point %+v has its block header out of place (from bit %d)", ErrCorrupt, p, ix.floorBit)
		}
		ix.floorBit = h
	}
	ix.points = append(ix.points, p)
	return nil
}

// Truncate keeps the first n seek points and drops the rest, with their
// windows and member marks.
func (ix *Index) Truncate(n int) {
	for _, p := range ix.points[n:] {
		delete(ix.windows, p.CompressedBitOffset)
		delete(ix.memberEnds, p.CompressedBitOffset)
	}
	ix.points = ix.points[:n]
	ix.floorBit = 0
	if n > 0 {
		// As push left it after the point that is now the last.
		last := ix.points[n-1]
		ix.floorBit = last.BlockHeaderBit
		if ix.floorBit == 0 {
			ix.floorBit = last.CompressedBitOffset
		}
	}
}

// Len returns the number of seek points.
func (ix *Index) Len() int { return len(ix.points) }

// Point returns the i-th seek point.
func (ix *Index) Point(i int) SeekPoint { return ix.points[i] }

// Window returns the stored window for a compressed offset, if there is
// one.
func (ix *Index) Window(compressedBitOffset uint64) (*Window, bool) {
	w, ok := ix.windows[compressedBitOffset]
	return w, ok
}

// ReadsWindows reports whether the index reads its windows, on first
// use, from the io.ReaderAt it was parsed from: ReadAt of an index whose
// windows trail its table. That reader must then stay open, and its
// bytes as they were, for as long as the index is used, a WriteTo of it
// included. An index file rewritten in place — os.Create truncates it —
// fails every window not read yet with ErrCorrupt; one replaced by
// renaming a new file over it leaves an open descriptor reading the old.
func (ix *Index) ReadsWindows() bool { return ix.readsWindows }

// AddMemberEnd records a member boundary within the seek point at the
// given compressed offset. Marks must be added in increasing RelEnd
// order per point.
func (ix *Index) AddMemberEnd(compressedBitOffset uint64, m MemberEnd) {
	ix.memberEnds[compressedBitOffset] = append(ix.memberEnds[compressedBitOffset], m)
}

// AddMember records the next member of a file whose members are sized
// by their metadata, as BGZF's are, without a decode: the member whose
// header is at byte off, which decodes to size bytes and whose footer
// holds crc. Members are grouped under member-start seek points, the
// first member opening the first group. A group closes before the first
// member with output once it holds target bytes of output or more: a
// member without output (the EOF marker, an empty member) joins the
// group before it, so that no point covers no bytes but an empty file's.
func (ix *Index) AddMember(off, size uint64, crc uint32, target uint64) error {
	var p SeekPoint // the open group's
	var held uint64 // the output it holds
	if n := len(ix.points); n > 0 {
		p = ix.points[n-1]
		if m := ix.memberEnds[p.CompressedBitOffset]; len(m) > 0 {
			held = m[len(m)-1].RelEnd
		}
	}
	if len(ix.points) == 0 || size > 0 && held >= target {
		p = SeekPoint{CompressedBitOffset: off * 8, UncompressedOffset: p.UncompressedOffset + held, AtMemberStart: true}
		if err := ix.Add(p, nil); err != nil {
			return err
		}
		held = 0
	}
	ix.AddMemberEnd(p.CompressedBitOffset, MemberEnd{RelEnd: held + size, CRC32: crc})
	return nil
}

// MemberEnds returns the member boundaries recorded for a seek point.
func (ix *Index) MemberEnds(compressedBitOffset uint64) []MemberEnd {
	return ix.memberEnds[compressedBitOffset]
}

// Find returns the index of the last seek point whose uncompressed
// offset is <= target, or false when no point qualifies (empty index).
func (ix *Index) Find(target uint64) (int, bool) {
	if len(ix.points) == 0 {
		return 0, false
	}
	// First point with UncompressedOffset > target, minus one.
	i := sort.Search(len(ix.points), func(i int) bool {
		return ix.points[i].UncompressedOffset > target
	})
	if i == 0 {
		return 0, false
	}
	return i - 1, true
}

// --- serialization -------------------------------------------------------
//
// On-disk layout (version 5, the one format read; all integers
// little-endian or unsigned LEB128 varints). Every writer emits it with
// flag bit 4 set, its windows behind the table:
//
//	offset  size      field
//	0       8         magic "RGZIDX05"
//	8       1         flags (bit 0: finalized, bit 1: member marks
//	                  complete, bit 2: source fingerprint present,
//	                  bit 3: checkpoint table present, bit 4: windows
//	                  trail the table)
//	9       varint    chunk size used during creation
//	...     varint    compressed file size (bytes)
//	...     varint    uncompressed file size (bytes)
//	...     4+4       head and tail CRC32 of the source file (only when
//	                  flag bit 2 is set)
//	...     varint    table length: the bytes that follow this field up
//	                  to and including the table CRC32 (only when flag
//	                  bit 4 is set)
//	...     varint    number of seek-point records
//	...               seek-point records (see below)
//	...               checkpoint-table section (only when flag bit 3 is
//	                  set, see below)
//	...     4         CRC32 (IEEE) of every preceding byte: the table CRC32
//	...               the windows' flate bytes, concatenated in record
//	                  order; the file ends where the last one ends (only
//	                  when flag bit 4 is set)
//
// Without flag bit 4, the layout before it, there is no table length,
// each window's bytes sit inside its record, and the CRC32 of every
// preceding byte ends the file.
//
// Each seek-point record is:
//
//	varint    compressed bit offset, delta-coded against the previous
//	          record (absolute for the first record)
//	varint    uncompressed byte offset, delta-coded likewise
//	1         flags (bit 0: at member start, bit 1: window present,
//	          bit 2: member marks present, bit 3: inside a block)
//	varint    distance back from the point to its block's header, in
//	          bits (only when bit 3 is set; nonzero)
//	varint    raw window length        | only when bit 1 is set; the
//	varint    compressed window length | window's bytes are at the
//	4         CRC32 of those bytes     | sum of the compressed lengths
//	          (flag bit 4 only)        | before it past the table CRC32,
//	...       the window's bytes       | or follow here (no flag bit 4)
//	varint    member mark count                   | only when
//	...       per mark: varint relative offset    | bit 2
//	          (delta-coded within the record)     | is
//	          plus 4 bytes footer CRC32           | set
//
// Seek points are strictly increasing in compressed offset, so the
// deltas are non-negative and small; windows are the bulk of the file
// and flate-compress well (often 3-10x). The table CRC32 makes any
// single-byte corruption of the table detectable before an import trusts
// it, and each window's CRC32 any of that window before it is inflated.
// A table that lies about a window's lengths fails there too: its bytes
// are then some other bytes of the file, or lie past its end.
//
// A flag bit this version does not know, in the header or in a record,
// is ErrUnsupportedVersion: a field added later comes as a flag bit, not
// as another magic, and an older reader refuses what it cannot parse.
//
// The checkpoint-table section (the persisted span table of a
// bzip2/LZ4/zstd file) is:
//
//	4         format tag ("bz2 ", "lz4 ", "zstd")
//	1         codec capability flags (opaque to this package)
//	varint    number of spans
//	per span:
//	varint    compressed gap: span start minus the previous span's end
//	          (absolute offset for the first span; usually 0 — only
//	          zstd skippable frames leave gaps)
//	varint    compressed length of the span
//	varint    decompressed size of the span
//
// Decompressed offsets are not stored: spans are contiguous from 0, so
// each offset is the running sum of the preceding sizes.

// magic opens every index file; its last two digits are the version.
const magic = "RGZIDX05"

// The flag bits this version knows, in the header and in a record.
const (
	knownFlags      = 0x1F
	knownPointFlags = 0x0F
)

// windowsTrail is the header flag bit of the table-first layout.
const windowsTrail = 0x10

// maxWindowRaw bounds a stored window. Real windows are at most the
// Deflate history size of 32 KiB; the margin is kept tight because the
// bound is what caps decompression amplification when importing an
// untrusted index (a future format carrying more context would bump
// the version magic anyway).
const maxWindowRaw = 64 << 10

// Serialization errors. All of them (and any io error) abort an import.
var (
	// ErrBadMagic reports that the input is not a rapidgzip index.
	ErrBadMagic = errors.New("gzindex: bad magic (not a rapidgzip index)")
	// ErrUnsupportedVersion reports an index this version does not read:
	// another format version, or one without what every writer records
	// (CheckSource, and core for gzip member marks).
	ErrUnsupportedVersion = errors.New("gzindex: unsupported index version")
	// ErrChecksum reports that the CRC32 of the table (of the whole file
	// in the old layout) does not match. A window that fails its own
	// CRC32 is ErrCorrupt.
	ErrChecksum = errors.New("gzindex: index checksum mismatch")
	// ErrCorrupt reports a structurally invalid index.
	ErrCorrupt = errors.New("gzindex: corrupt index")
)

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// WriteTo serialises the index in the version-5 format, its windows
// behind its table. An index that reads its windows from its file (see
// ReadsWindows) reads each one again here, checked against its CRC32.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.Checkpoints != nil && len(ix.Checkpoints.Format) != 4 {
		return 0, fmt.Errorf("gzindex: checkpoint table format tag %q is not 4 bytes", ix.Checkpoints.Format)
	}
	// The table, from the point count on; the windows' flate bytes go
	// behind it, and each record carries their lengths and CRC32.
	var table bytes.Buffer
	var windows [][]byte
	writeUvarint(&table, uint64(len(ix.points)))
	var prev SeekPoint
	for _, p := range ix.points {
		writeUvarint(&table, p.CompressedBitOffset-prev.CompressedBitOffset)
		writeUvarint(&table, p.UncompressedOffset-prev.UncompressedOffset)
		prev = p
		win, hasWin := ix.windows[p.CompressedBitOffset]
		marks := ix.memberEnds[p.CompressedBitOffset]
		var pflags uint8
		if p.AtMemberStart {
			pflags |= 1
		}
		if hasWin {
			pflags |= 2
		}
		if len(marks) > 0 {
			pflags |= 4
		}
		if p.BlockHeaderBit != 0 {
			pflags |= 8
		}
		table.WriteByte(pflags)
		if p.BlockHeaderBit != 0 {
			writeUvarint(&table, p.CompressedBitOffset-p.BlockHeaderBit)
		}
		if hasWin {
			comp, rawLen, err := win.stored()
			if err != nil {
				return 0, err
			}
			writeUvarint(&table, uint64(rawLen))
			writeUvarint(&table, uint64(len(comp)))
			binary.Write(&table, binary.LittleEndian, crc32.ChecksumIEEE(comp))
			windows = append(windows, comp)
		}
		if len(marks) > 0 {
			writeUvarint(&table, uint64(len(marks)))
			var prevEnd uint64
			for _, m := range marks {
				writeUvarint(&table, m.RelEnd-prevEnd)
				prevEnd = m.RelEnd
				binary.Write(&table, binary.LittleEndian, m.CRC32)
			}
		}
	}
	if ct := ix.Checkpoints; ct != nil {
		table.WriteString(ct.Format)
		table.WriteByte(ct.Flags)
		writeUvarint(&table, uint64(len(ct.Spans)))
		var prevEnd, decomp int64
		for i, s := range ct.Spans {
			// DecompOff is reconstructed as the running size sum on
			// read, so a non-contiguous table must fail here rather
			// than silently round-trip to different extents.
			if s.CompOff < prevEnd || s.CompEnd <= s.CompOff || s.DecompSize < 0 || s.DecompOff != decomp {
				return 0, fmt.Errorf("gzindex: checkpoint span %d is not serialisable: %+v", i, s)
			}
			writeUvarint(&table, uint64(s.CompOff-prevEnd))
			writeUvarint(&table, uint64(s.CompEnd-s.CompOff))
			writeUvarint(&table, uint64(s.DecompSize))
			prevEnd = s.CompEnd
			decomp += s.DecompSize
		}
	}

	var buf bytes.Buffer
	buf.WriteString(magic)
	flags := uint8(windowsTrail)
	if ix.Finalized {
		flags |= 1
	}
	if ix.MemberMarksComplete {
		flags |= 2
	}
	if ix.SourceFP != nil {
		flags |= 4
	}
	if ix.Checkpoints != nil {
		flags |= 8
	}
	buf.WriteByte(flags)
	writeUvarint(&buf, uint64(ix.ChunkSize))
	writeUvarint(&buf, ix.CompressedSize)
	writeUvarint(&buf, ix.UncompressedSize)
	if ix.SourceFP != nil {
		binary.Write(&buf, binary.LittleEndian, ix.SourceFP.Head)
		binary.Write(&buf, binary.LittleEndian, ix.SourceFP.Tail)
	}
	writeUvarint(&buf, uint64(table.Len()+4))
	buf.Write(table.Bytes())
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
	for _, comp := range windows {
		buf.Write(comp)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// headRead is the first read of an index file: the magic and every
// header field before the first point, the table length included, take
// at most 57 bytes, so a check can dismiss the index from this read
// alone, and a table-first index knows from it where its table ends.
const headRead = 64

// Read deserialises an index written by WriteTo. The table CRC32, and
// every window's, is verified; any mismatch or structural problem rejects
// the whole index — a partially imported index would silently disable
// seeking into the missing region. Another version's magic is
// ErrUnsupportedVersion: versions 1 to 3 came before the fingerprint and
// the checkpoint table, version 4 before points inside blocks, and an
// index in one of them has to be exported again.
//
// Read consumes nothing past the index: it reads as far as the parse
// needs, a varint a byte at a time, so buffer r if it holds nothing
// else. An index file is better read with ReadAt.
func Read(r io.Reader) (*Index, error) {
	ix, _, err := read(r)
	return ix, err
}

// ReadAt parses the index in the first size bytes of r, such as an index
// file, in at most two reads: a head of headRead bytes, whose header
// check, when non-nil, sees — flags, chunk size, file sizes and
// fingerprint, before any point — and may refuse, and then the rest of
// the table. Where the windows trail the table, as they do in what every
// writer emits, none of them is read: each is read from r, and checked,
// on its first use, so r must stay open while the index is used (see
// ReadsWindows). An index of the older layout is read whole, and its
// windows are slices of the one buffer.
func ReadAt(r io.ReaderAt, size int64, check func(header *Index) error) (*Index, error) {
	p := &parser{src: r, size: size}
	p.fill = func(buf []byte, _ int) ([]byte, error) {
		n := min(size, headRead)
		if len(buf) > 0 {
			n = size
			if p.end > 0 {
				n = min(n, int64(p.end))
			}
		}
		if int64(len(buf)) >= n {
			return buf, io.ErrUnexpectedEOF
		}
		next := make([]byte, n)
		copy(next, buf)
		k, err := r.ReadAt(next[len(buf):], int64(len(buf)))
		if k == len(next)-len(buf) {
			err = nil
		}
		return next, err
	}
	return p.index(check)
}

// ReadFrom replaces the index contents with a serialised index read
// from r, implementing io.ReaderFrom. The count is the bytes of r the
// index took, which is also what Read consumes.
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	read, n, err := read(r)
	if err != nil {
		return n, err
	}
	*ix = *read
	return n, nil
}

// streamScratch is the size of the array a stream's small reads — a
// varint's bytes, a flag — go to; a larger read, such as a window's
// bytes, gets an array of its own.
const streamScratch = 64

// read is Read, which also reports how many bytes of r it consumed.
func read(r io.Reader) (*Index, int64, error) {
	scratch := make([]byte, streamScratch)
	p := &parser{stream: true, fill: func(buf []byte, n int) ([]byte, error) {
		if cap(buf)-len(buf) < n {
			// No room behind buf: move it to the front of scratch, or
			// of an array of its own.
			next := scratch
			if len(buf)+n > len(scratch) {
				next = make([]byte, len(buf)+n)
			}
			buf = next[:copy(next, buf)]
		}
		k, err := io.ReadFull(r, buf[len(buf):len(buf)+n])
		return buf[:len(buf)+k], err
	}}
	ix, err := p.index(nil)
	return ix, int64(p.dropped + len(p.buf)), err
}

// parser reads an index out of buf, which holds the bytes from the
// magic on (a stream's from the last bytes it dropped on). When the
// parse runs past what buf holds, fill is given buf and the bytes
// missing and returns buf with more behind it: exactly those bytes from
// a stream, everything that is left of the table from a file.
type parser struct {
	buf  []byte
	off  int
	fill func(buf []byte, n int) ([]byte, error)
	// stream is set where fill reuses a scratch array for small reads:
	// when buf has no room behind it for a fill, the parse drops what it
	// has parsed, summing it into sum and counting it in dropped, and a
	// window that may lie in the scratch array is copied out of it.
	stream  bool
	sum     uint32
	dropped int
	// src and size are an index file's (ReadAt), whose trailing windows
	// stay in it.
	src  io.ReaderAt
	size int64
	// end, once the header of a table-first index is read, is where its
	// table ends: the parse of the table reads no byte past it. Past it,
	// windows is set, and what the parse drops needs no sum.
	end     int
	windows bool
	err     error
}

// errPastTable is what the parse of a table that runs past its declared
// length fails with.
var errPastTable = errors.New("a record runs past the table's declared length")

// need reports whether n bytes from off are in buf, filling it if not.
func (p *parser) need(n int) bool {
	if p.err != nil {
		return false
	}
	if len(p.buf)-p.off >= n {
		return true
	}
	if p.end > 0 && p.dropped+p.off+n > p.end {
		p.err = errPastTable
		return false
	}
	missing := n - (len(p.buf) - p.off)
	if p.stream && cap(p.buf)-len(p.buf) < missing {
		if !p.windows {
			p.sum = crc32.Update(p.sum, crc32.IEEETable, p.buf[:p.off])
		}
		p.dropped += p.off
		p.buf, p.off = p.buf[p.off:], 0
	}
	p.buf, p.err = p.fill(p.buf, missing)
	if p.err == nil && len(p.buf)-p.off < n {
		p.err = io.ErrUnexpectedEOF
	}
	return p.err == nil
}

// bytes returns the next n bytes, a slice of buf, or nil once the input
// runs out.
func (p *parser) bytes(n int) []byte {
	if !p.need(n) {
		return nil
	}
	b := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	return b
}

func (p *parser) byte() byte {
	if b := p.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (p *parser) uvarint() uint64 {
	for p.err == nil {
		v, n := binary.Uvarint(p.buf[p.off:])
		if n > 0 {
			p.off += n
			return v
		}
		if n < 0 {
			p.err = errors.New("varint overflows a 64-bit integer")
			return 0
		}
		p.need(len(p.buf) - p.off + 1)
	}
	return 0
}

// corrupt is ErrCorrupt with the input error that caused it.
func (p *parser) corrupt() error { return fmt.Errorf("%w: %w", ErrCorrupt, p.err) }

// index parses the whole index; check, when non-nil, sees its header
// first.
func (p *parser) index(check func(*Index) error) (*Index, error) {
	m := p.bytes(len(magic))
	if m == nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, p.err)
	}
	if string(m) != magic {
		if string(m[:6]) == magic[:6] {
			return nil, fmt.Errorf("%w: %q (this version reads %s; re-export the index)", ErrUnsupportedVersion, m, magic)
		}
		return nil, ErrBadMagic
	}
	flags := p.byte()
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("%w: index flags %#x (this version knows %#x; re-export the index)", ErrUnsupportedVersion, flags, knownFlags)
	}
	trail := flags&windowsTrail != 0
	ix := New(int(p.uvarint()))
	ix.Finalized = flags&1 != 0
	ix.MemberMarksComplete = flags&2 != 0
	ix.CompressedSize = p.uvarint()
	ix.UncompressedSize = p.uvarint()
	if flags&4 != 0 {
		if raw := p.bytes(8); raw != nil {
			ix.SourceFP = &Fingerprint{
				Head: binary.LittleEndian.Uint32(raw[0:4]),
				Tail: binary.LittleEndian.Uint32(raw[4:8]),
			}
		}
	}
	var tableLen uint64
	if trail {
		tableLen = p.uvarint()
	}
	if p.err != nil {
		return nil, p.corrupt()
	}
	if check != nil {
		if err := check(ix); err != nil {
			return nil, err
		}
	}
	if trail {
		if tableLen < 5 || tableLen > 1<<40 {
			return nil, fmt.Errorf("%w: implausible table length %d", ErrCorrupt, tableLen)
		}
		p.end = p.dropped + p.off + int(tableLen)
		// An index file's head may hold bytes past a short table.
		p.buf = p.buf[:min(len(p.buf), p.end-p.dropped)]
	}
	n := p.uvarint()
	if p.err != nil {
		return nil, p.corrupt()
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("%w: implausible point count %d", ErrCorrupt, n)
	}
	var windows []*Window // in record order
	var prev SeekPoint
	for i := uint64(0); i < n; i++ {
		var pt SeekPoint
		pt.CompressedBitOffset = prev.CompressedBitOffset + p.uvarint()
		pt.UncompressedOffset = prev.UncompressedOffset + p.uvarint()
		pflags := p.byte()
		if pflags&^knownPointFlags != 0 {
			return nil, fmt.Errorf("%w: seek point %d flags %#x (this version knows %#x; re-export the index)", ErrUnsupportedVersion, i, pflags, knownPointFlags)
		}
		pt.AtMemberStart = pflags&1 != 0
		if pflags&8 != 0 {
			// A zero distance puts the header on the point, one as long
			// as the point's offset at bit 0, where no block header is,
			// and a longer one wraps; push checks the rest.
			dist := p.uvarint()
			if p.err == nil && (dist == 0 || dist >= pt.CompressedBitOffset) {
				return nil, fmt.Errorf("%w: block header %d bits before point %d at bit %d", ErrCorrupt, dist, i, pt.CompressedBitOffset)
			}
			pt.BlockHeaderBit = pt.CompressedBitOffset - dist
		}
		var win *Window
		if pflags&2 != 0 {
			rawLen := p.uvarint()
			compLen := p.uvarint()
			var crc uint32
			if trail {
				if b := p.bytes(4); b != nil {
					crc = binary.LittleEndian.Uint32(b)
				}
			}
			// The error check must precede the bounds check: a failed
			// varint leaves a partial value behind.
			if p.err != nil {
				return nil, p.corrupt()
			}
			// The bound on rawLen is what caps the inflate of an untrusted
			// window (Window.Bytes), and the one on compLen its read.
			if rawLen > maxWindowRaw || compLen > rawLen+rawLen/255+64 {
				return nil, fmt.Errorf("%w: window %d/%d bytes at point %d", ErrCorrupt, compLen, rawLen, i)
			}
			win = &Window{rawLen: int(rawLen), compLen: int(compLen), crc: crc}
			if trail {
				windows = append(windows, win)
			} else {
				win.comp = p.bytes(int(compLen))
				if p.stream && len(win.comp) <= streamScratch {
					win.comp = bytes.Clone(win.comp)
				}
			}
		}
		var marks []MemberEnd
		if pflags&4 != 0 {
			mn := p.uvarint()
			if p.err != nil {
				return nil, p.corrupt()
			}
			if mn > 1<<32 {
				return nil, fmt.Errorf("%w: implausible mark count %d at point %d", ErrCorrupt, mn, i)
			}
			var prevEnd uint64
			for j := uint64(0); j < mn && p.err == nil; j++ {
				relEnd := prevEnd + p.uvarint()
				// A wrapping delta would sneak a huge intermediate mark
				// past validate's last-mark span check, and the member-CRC
				// check downstream would slice a span past its end.
				if relEnd < prevEnd {
					return nil, fmt.Errorf("%w: member mark delta wraps at point %d", ErrCorrupt, i)
				}
				prevEnd = relEnd
				if crc := p.bytes(4); crc != nil {
					marks = append(marks, MemberEnd{RelEnd: relEnd, CRC32: binary.LittleEndian.Uint32(crc)})
				}
			}
		}
		if p.err != nil {
			return nil, p.corrupt()
		}
		if err := ix.push(pt); err != nil {
			return nil, err
		}
		prev = pt
		if win != nil {
			ix.windows[pt.CompressedBitOffset] = win
		}
		if marks != nil {
			ix.memberEnds[pt.CompressedBitOffset] = marks
		}
	}
	if flags&8 != 0 {
		ct, err := p.checkpointTable()
		if err != nil {
			return nil, err
		}
		ix.Checkpoints = ct
	}
	want := crc32.Update(p.sum, crc32.IEEETable, p.buf[:p.off]) // the trailer itself is not part of the checksum
	trailer := p.bytes(4)
	if trailer == nil {
		return nil, fmt.Errorf("%w: missing checksum: %w", ErrCorrupt, p.err)
	}
	if binary.LittleEndian.Uint32(trailer) != want {
		return nil, ErrChecksum
	}
	if trail {
		if at := p.dropped + p.off; at != p.end {
			return nil, fmt.Errorf("%w: the table ends at byte %d, its header says %d", ErrCorrupt, at, p.end)
		}
		if err := p.trailingWindows(ix, windows); err != nil {
			return nil, err
		}
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// trailingWindows places the windows behind a table, in record order:
// an index file's stay in it, to be read on first use, and must lie
// inside it; a stream's are read now, each checked against its CRC32. A
// window of no bytes, as the writer's empty ones are, is not read at all.
func (p *parser) trailingWindows(ix *Index, windows []*Window) error {
	start := int64(p.end)
	off := start
	p.end, p.windows = 0, true
	for i, w := range windows {
		if w.compLen == 0 && w.crc == 0 { // the CRC32 of no bytes
			w.comp = []byte{}
			continue
		}
		if p.src != nil {
			w.src, w.off = p.src, off
			off += int64(w.compLen)
			continue
		}
		comp := p.bytes(w.compLen)
		if comp == nil {
			return p.corrupt()
		}
		if len(comp) <= streamScratch {
			comp = bytes.Clone(comp)
		}
		if crc32.ChecksumIEEE(comp) != w.crc {
			return fmt.Errorf("%w: window %d fails its CRC32", ErrCorrupt, i)
		}
		w.comp = comp
	}
	if p.src != nil && off > p.size {
		return fmt.Errorf("%w: the windows end at byte %d, the index file has %d", ErrCorrupt, off, p.size)
	}
	ix.readsWindows = p.src != nil && off > start
	return nil
}

// checkpointTable parses the per-format span-table section of an
// index. Spans are reconstructed from (gap, compressed length,
// decompressed size) triples; the decompressed offsets are the running
// sum of the sizes, so they are contiguous by construction.
func (p *parser) checkpointTable() (*CheckpointTable, error) {
	tag := string(p.bytes(4)) // a copy: a stream's next fill reuses buf
	flags := p.byte()
	n := p.uvarint()
	if p.err != nil {
		return nil, p.corrupt()
	}
	ct := &CheckpointTable{Format: tag, Flags: flags}
	if n > 1<<40 {
		return nil, fmt.Errorf("%w: implausible span count %d", ErrCorrupt, n)
	}
	var compEnd, decomp int64
	for i := uint64(0); i < n; i++ {
		gap := p.uvarint()
		compLen := p.uvarint()
		size := p.uvarint()
		if p.err != nil {
			return nil, p.corrupt()
		}
		// Each field must keep the running offsets inside int64: a
		// forged varint wrapping the accumulator would otherwise slip
		// a negative extent past the span-level checks downstream.
		const maxOff = 1 << 62
		if gap > maxOff || compLen == 0 || compLen > maxOff || size > maxOff ||
			uint64(compEnd)+gap+compLen > maxOff || uint64(decomp)+size > maxOff {
			return nil, fmt.Errorf("%w: checkpoint span %d extents overflow", ErrCorrupt, i)
		}
		s := Checkpoint{
			CompOff:    compEnd + int64(gap),
			DecompOff:  decomp,
			DecompSize: int64(size),
		}
		s.CompEnd = s.CompOff + int64(compLen)
		compEnd = s.CompEnd
		decomp += int64(size)
		ct.Spans = append(ct.Spans, s)
	}
	return ct, nil
}

// validate applies the structural sanity checks Read runs once the
// checksum holds: the declared file sizes must bound the seek points (an
// importer derives the final chunk's extent from them by subtraction,
// which must not underflow), and member marks must stay within their
// point's span (they feed the member-CRC part arithmetic, where an
// out-of-span offset would turn into spurious verification results
// instead of a clean import error).
func (ix *Index) validate() error {
	if n := len(ix.points); n > 0 && ix.Finalized {
		last := ix.points[n-1]
		if last.UncompressedOffset > ix.UncompressedSize {
			return fmt.Errorf("%w: last point at offset %d exceeds uncompressed size %d",
				ErrCorrupt, last.UncompressedOffset, ix.UncompressedSize)
		}
		if last.CompressedBitOffset >= ix.CompressedSize*8 {
			return fmt.Errorf("%w: last point at bit %d exceeds compressed size %d bytes",
				ErrCorrupt, last.CompressedBitOffset, ix.CompressedSize)
		}
	}
	for i, p := range ix.points {
		marks := ix.memberEnds[p.CompressedBitOffset]
		if len(marks) == 0 {
			continue
		}
		var span uint64
		if i+1 < len(ix.points) {
			span = ix.points[i+1].UncompressedOffset - p.UncompressedOffset
		} else if !ix.Finalized {
			// The last point's span is unknown until the scan completes;
			// rejecting here would make Read refuse WriteTo's own output
			// for an in-progress index.
			continue
		} else {
			// Safe: the finalized-size check above already established
			// UncompressedSize >= the last point's offset.
			span = ix.UncompressedSize - p.UncompressedOffset
		}
		if last := marks[len(marks)-1].RelEnd; last > span {
			return fmt.Errorf("%w: member mark at +%d overruns point %d (span %d)",
				ErrCorrupt, last, i, span)
		}
	}
	if ct := ix.Checkpoints; ct != nil && ix.Finalized {
		// The declared file sizes must bound the span table: an importer
		// slices the compressed source by these extents and trusts the
		// decompressed total as the stream size.
		if n := len(ct.Spans); n > 0 {
			if last := ct.Spans[n-1]; uint64(last.CompEnd) > ix.CompressedSize {
				return fmt.Errorf("%w: checkpoint span ends at byte %d, compressed size is %d",
					ErrCorrupt, last.CompEnd, ix.CompressedSize)
			}
		}
		if len(ix.points) == 0 {
			var total uint64
			for _, s := range ct.Spans {
				total += uint64(s.DecompSize)
			}
			if total != ix.UncompressedSize {
				return fmt.Errorf("%w: checkpoint spans cover %d bytes, uncompressed size is %d",
					ErrCorrupt, total, ix.UncompressedSize)
			}
		}
	}
	return nil
}

// flateWriters keeps level-6 writers between windows: a writer costs
// most of a megabyte to build and nothing to Reset.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, 6) // a valid level
	return fw
}}

func flateCompress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(fw)
	fw.Reset(&buf)
	if _, err := fw.Write(data); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decoders keeps deflate decoders, whose Huffman tables are allocated on
// first use, between window inflates.
var decoders = sync.Pool{New: func() any { return new(deflate.Decoder) }}

// inflate decodes a window's flate bytes with the deflate kernel's
// single-stage decoder from an empty window, and holds the stream to
// its declared length: one that ends short of rawLen or runs past it is
// an error. The output limit one byte past rawLen, checked after every
// element, is also what caps the inflate of a forged stream.
func inflate(comp []byte, rawLen int) ([]byte, error) {
	if rawLen == 0 {
		return []byte{}, nil
	}
	d := decoders.Get().(*deflate.Decoder)
	defer decoders.Put(d)
	res, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), deflate.ChunkConfig{
		Stop:         deflate.StopAtEOF,
		Bare:         true,
		SizeHint:     rawLen + 1,
		StopAtOutput: uint64(rawLen) + 1,
	})
	if err != nil {
		return nil, err
	}
	if res.Paused {
		return nil, fmt.Errorf("window runs past its declared %d bytes", rawLen)
	}
	if len(res.Raw) != rawLen {
		return nil, fmt.Errorf("window inflates to %d bytes, declared %d", len(res.Raw), rawLen)
	}
	return res.Raw, nil
}
