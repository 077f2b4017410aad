package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/blockfinder"
	"repro/internal/crc32x"
	"repro/internal/deflate"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/spanengine"
)

// gzipCodec is the deflate chunk pipeline expressed as a
// spanengine.GrowingCodec: the engine owns the cache, the prefetch
// strategy and the speculation past the frontier — which cells are
// guessed, the guesses running, the tentative store; the codec owns the
// gzip-specific parts — what a guess at a grid cell decodes (block
// finder plus two-stage decode), serial window propagation, chunk
// splitting, the seek-point index, and the member-CRC chain. BGZF files
// take the complete-table path instead (Scan enumerates members from
// metadata), which makes them an exact span source like bzip2/LZ4/zstd.
type gzipCodec struct {
	cfg      Config
	src      *filereader.SharedFileReader
	fileBits uint64
	bgzf     bool
	cnt      counters

	// mu guards the chunk geometry: the seek-point index and the frontier
	// behind its last point, which are the span table. Span i is point i
	// and ends at point i+1, or at the frontier for the last point (at the
	// end of the file once eof is set); its member marks are the point's.
	// Lock order: an engine-mutex holder may take mu (Slot); crcMu holders
	// may take mu (SpanAccessed). Nothing holding mu may call engine
	// methods.
	mu             sync.Mutex
	index          *gzindex.Index
	frontierBit    uint64
	frontierDecomp uint64
	frontierWindow []byte
	memberStart    uint64 // decompressed offset where the current member began
	eof            bool
	// A frontier decode pauses where the file's first entry is out, once
	// firstEntry bytes are (zero: it does not), so that a cold reader's
	// first bytes wait for that much decoding and not for a whole cell;
	// and inside a block once it has read capBits past its stop (long),
	// so that no unit outgrows the span cache, however long the file's
	// blocks. What it made is confirmed as a unit of its own. While paused
	// is set the frontier stands inside the unit, which the next GrowNext
	// decodes on from there: in the Huffman block whose header is at
	// frontierHeader, if nonzero.
	firstEntry     uint64
	paused, long   bool
	frontierHeader uint64

	// Sequential CRC verification state (valid while consumption stays
	// in table order from span 0). crcMu holders may take mu; never the
	// reverse.
	crcMu     sync.Mutex
	crcNext   int
	crcAcc    uint32
	crcBroken bool
	consumed  map[int]bool

	// rebuildMu serialises rebuildWindow. Its holders may take mu.
	rebuildMu sync.Mutex
}

// newGzipCodec returns a codec over src, whose fingerprint is fp, with
// the empty index a first pass starts from.
func newGzipCodec(cfg Config, src *filereader.SharedFileReader, bgzf bool, fp *gzindex.Fingerprint) *gzipCodec {
	return &gzipCodec{
		cfg:      cfg,
		src:      src,
		fileBits: uint64(src.Size()) * 8,
		bgzf:     bgzf,
		index:    newIndex(cfg, src.Size(), fp),
		consumed: map[int]bool{},
		// The first entry is what a stream's first round asks for, or a
		// quarter chunk where that is less: a reader that streams has the
		// rest of the cell confirmed while it writes those bytes.
		firstEntry: uint64(max(min(cfg.ChunkSize/4, spanengine.FirstRound), 1)),
	}
}

// newIndex returns the empty index a first pass over a file of size
// bytes, whose fingerprint is fp, starts from.
func newIndex(cfg Config, size int64, fp *gzindex.Fingerprint) *gzindex.Index {
	ix := gzindex.New(cfg.ChunkSize)
	ix.CompressedSize = uint64(size)
	ix.SourceFP = fp
	// A first pass observes every footer, so the index it builds carries
	// the complete set of member marks.
	ix.MemberMarksComplete = true
	return ix
}

func (c *gzipCodec) chunkBits() uint64 { return uint64(c.cfg.ChunkSize) * 8 }

// capBits is how far past its stop a frontier decode reads inside a
// block before it pauses there: half a cell, or guessScan where that is
// more. A unit decoded on from such a pause starts half a cell into its
// cell and pauses half a cell into the next one, so that inside a long
// block every unit spans a cell, as an ordinary unit does, and confirms
// as many spans. No block of an ordinary file reaches that far past a
// cell's end: only a block that runs on over cells is cut.
func (c *gzipCodec) capBits() uint64 { return max(c.chunkBits()/2, guessScan*8) }

// FormatTag identifies the codec in persisted checkpoint tables.
func (c *gzipCodec) FormatTag() string {
	if c.bgzf {
		return "bgzf"
	}
	return "gzip"
}

// BitAddressed marks the codec's spans as starting at bits, so that an
// engine built from an index takes the empty byte extent of a span that
// starts in the same byte as the next (engineSpan).
func (c *gzipCodec) BitAddressed() {}

// Scan is the sizing pass. Only the BGZF metadata walk implements it
// (see bgzf.go); generic gzip runs in growing mode, where Scan is never
// called. A walk that fails leaves the codec as it found it, for the
// growing engine to start from.
func (c *gzipCodec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	if !c.bgzf {
		return spanengine.ScanResult{}, errors.New("core: gzip has no metadata sizing pass (growing mode only)")
	}
	ix, err := c.scanBGZF(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	return spanengine.ScanResult{Spans: c.install(ix)}, nil
}

// install makes ix, an index of the whole file, the codec's table, its
// frontier the end of the file, and returns the engine's spans: span i
// is point i.
func (c *gzipCodec) install(ix *gzindex.Index) []spanengine.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index, c.eof = ix, true
	c.frontierBit, c.frontierDecomp = ix.CompressedSize*8, ix.UncompressedSize
	spans := make([]spanengine.Span, ix.Len())
	for i := range spans {
		p, next, _ := c.spanLocked(i)
		spans[i] = engineSpan(p, next)
	}
	return spans
}

// DecodeSpan decodes one confirmed span whole. The engine asks through
// DecodeSpanPrefix, which this is the whole-span case of.
func (c *gzipCodec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	data, _, err := c.DecodeSpanPrefix(src, s, nil, s.DecompSize)
	return data, err
}

// prefixWindow is how much of the file a decode that stops short of its
// span reads at a time, and so how far past its stopping point it may
// have read. What a 64 KiB request needs of a span compresses to one or
// a few of these; a whole extent is five to forty.
const prefixWindow = 32 << 10

// blockHeaderRead is what a decode from a point inside a block reads at
// the block's header: a Dynamic header takes at most about 570 bytes.
const blockHeaderRead = 1 << 10

// pointsPerChunk is how many points inside blocks a first-pass decode
// records per ChunkSize of output, for splitPoints to cut at: the finer,
// the closer to ChunkSize a cut inside a block lands.
const pointsPerChunk = 16

// DecodeSpanPrefix decodes one confirmed span with its stored window —
// the fast path used for prefetches and random access once the entry
// exists (§3.3, §4.4: "the output buffer can be allocated beforehand ...
// marker replacement can be skipped") — as far as upTo, or continues the
// decode that stopped short of that: parked is its *spanDecode, the
// decoder's state (see Decoder.Resume) and the reader over the file,
// which has read as far as the decode went. It runs the custom
// single-stage decoder: the paper delegates indexed decodes to zlib
// (§3.3) because its marker decoder lost to zlib's inner loops, but the
// wide-refill kernels outrun compress/flate, handle every chunk shape —
// member boundaries included — and stop at any element, which is what
// lets a seek cost the bytes it asked for. A whole span from its seek
// point reads its compressed extent in one bounded read; a prefix reads
// as far as it decodes, a window at a time, and its continuation to the
// span's end reads the rest of the extent in one read. The
// IndexedDecodes count, which needs the whole result, is taken when the
// span completes. Safe for concurrent calls on different spans.
func (c *gzipCodec) DecodeSpanPrefix(src filereader.FileReader, s spanengine.Span, parked any, upTo int64) ([]byte, any, error) {
	// A span's point is the last at its offset: only a span of no bytes,
	// which nothing decodes, shares its offset with the point after it.
	c.mu.Lock()
	i, _ := c.index.Find(uint64(s.DecompOff))
	p, next, endIsEOF := c.spanLocked(i)
	c.mu.Unlock()
	if p.UncompressedOffset != uint64(s.DecompOff) {
		return nil, nil, fmt.Errorf("core: no seek point at offset %d", s.DecompOff)
	}

	size := uint64(s.DecompSize)
	var res *deflate.ChunkResult
	var err error
	d, _ := parked.(*spanDecode)
	if d != nil {
		// The rest of the span is read at once: the decode's first
		// round read only as far as its request.
		d.rest = upTo == s.DecompSize
		res, err = d.Resume(stopAt(next, endIsEOF, size, uint64(upTo)))
		if d.done != nil {
			d.done()
		}
	} else {
		d = new(spanDecode)
		var window []byte
		if window, err = c.pointWindow(i); err == nil {
			res, err = c.startSpan(d, p, window, next, endIsEOF, size, uint64(upTo))
		}
	}
	if err == nil && (res.TotalOut() < uint64(upTo) || res.TotalOut() > size) {
		err = fmt.Errorf("decoded %d bytes, index says %d", res.TotalOut(), size)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: indexed chunk at bit %d: %w", p.CompressedBitOffset, d.failed(err))
	}
	if res.TotalOut() < size {
		return res.Raw, d, nil
	}

	c.cnt.indexed.Add(1)
	// Single-stage output is all raw and becomes the span's content as
	// it is: the decode stopped at exactly the index size.
	return res.Raw, nil, nil
}

// spanLocked returns span i: point i, where the span ends — point i+1,
// or for the last point the frontier as a point — and whether that is
// the end of the file. Caller holds c.mu.
func (c *gzipCodec) spanLocked(i int) (p, next gzindex.SeekPoint, endIsEOF bool) {
	if i+1 < c.index.Len() {
		return c.index.Point(i), c.index.Point(i + 1), false
	}
	return c.index.Point(i), gzindex.SeekPoint{CompressedBitOffset: c.frontierBit, UncompressedOffset: c.frontierDecomp}, c.eof
}

// engineSpan is the span the engine keeps for seek point p, which ends
// at next: the byte extents and sizes of what the index has in bits,
// each offset rounded down to its byte, so that the extent of a span
// that ends in the byte it starts in is empty.
func engineSpan(p, next gzindex.SeekPoint) spanengine.Span {
	return spanengine.Span{
		CompOff:    int64(p.CompressedBitOffset / 8),
		CompEnd:    int64(next.CompressedBitOffset / 8),
		DecompOff:  int64(p.UncompressedOffset),
		DecompSize: int64(next.UncompressedOffset - p.UncompressedOffset),
	}
}

// pointWindow returns the window span i decodes from: none for a point
// at a member start that has none, else the index's, which an imported
// index inflates here, the first time its span is decoded, outside the
// codec's lock, and keeps. A window its index file fails to give is
// decoded again from the compressed file where cfg.RebuildWindows says
// so (rebuildWindow).
func (c *gzipCodec) pointWindow(i int) ([]byte, error) {
	c.mu.Lock()
	p := c.index.Point(i)
	win, hasWin := c.index.Window(p.CompressedBitOffset)
	c.mu.Unlock()
	if !hasWin {
		if !p.AtMemberStart {
			return nil, errors.New("no window for chunk")
		}
		return nil, nil
	}
	window, err := win.Bytes()
	if err != nil && c.cfg.RebuildWindows {
		if rerr := c.rebuildWindow(i); rerr != nil {
			return nil, fmt.Errorf("%w; decoding it again: %v", err, rerr)
		}
		return win.Bytes()
	}
	return window, err
}

// rebuildWindow decodes the window of point i again from the compressed
// file, as the first pass made it: a point's window is the last bytes of
// the window before it and of the span between. From the nearest point
// before i whose window holds, or that needs none, every span up to i is
// decoded whole, and each window on the way that its index file failed
// to give is restored. Rebuilds run one at a time, so one that finds its
// window restored by another has nothing to do.
func (c *gzipCodec) rebuildWindow(i int) error {
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()
	c.mu.Lock()
	wins := make([]*gzindex.Window, i+1)
	for k := range wins {
		wins[k], _ = c.index.Window(c.index.Point(k).CompressedBitOffset)
	}
	memberStart := c.index.Point(0).AtMemberStart
	c.mu.Unlock()
	if wins[i].Check() == nil {
		return nil
	}
	from := i - 1
	var hist []byte
	for ; from >= 0; from-- {
		if wins[from] == nil {
			if from == 0 && memberStart {
				break
			}
			continue
		}
		var err error
		if hist, err = wins[from].Bytes(); err == nil {
			break
		}
	}
	if from < 0 {
		return errors.New("no seek point before it to decode from")
	}
	for k := from; k < i; k++ {
		c.mu.Lock()
		p, next, endIsEOF := c.spanLocked(k)
		c.mu.Unlock()
		size := next.UncompressedOffset - p.UncompressedOffset
		res, err := c.startSpan(new(spanDecode), p, hist, next, endIsEOF, size, size)
		if err != nil {
			return fmt.Errorf("span at bit %d: %w", p.CompressedBitOffset, err)
		}
		if res.TotalOut() != size {
			return fmt.Errorf("span at bit %d decoded %d bytes, index says %d", p.CompressedBitOffset, res.TotalOut(), size)
		}
		// The output is single-stage, all raw (see DecodeSpanPrefix).
		hist = append(hist[:len(hist):len(hist)], res.Raw...)
		hist = hist[len(hist)-min(len(hist), deflate.WindowSize):]
		w := wins[k+1]
		if w == nil || w.Check() == nil {
			continue
		}
		if w.Len() > len(hist) {
			return fmt.Errorf("a window of %d bytes after %d", w.Len(), p.UncompressedOffset+size)
		}
		if err := w.Restore(bytes.Clone(hist[len(hist)-w.Len():])); err != nil {
			return err
		}
	}
	return nil
}

// rebuildWindows decodes again from the compressed file every window of
// the index that its index file fails to give, where cfg.RebuildWindows
// says so, so that an export writes them all. A window that is in memory
// or that its file still holds as its CRC32 says is not touched.
func (c *gzipCodec) rebuildWindows() error {
	if !c.cfg.RebuildWindows {
		return nil
	}
	c.mu.Lock()
	n := c.index.Len()
	c.mu.Unlock()
	for i := range n {
		c.mu.Lock()
		win, hasWin := c.index.Window(c.index.Point(i).CompressedBitOffset)
		c.mu.Unlock()
		if hasWin && win.Check() != nil {
			if err := c.rebuildWindow(i); err != nil {
				return fmt.Errorf("core: the window of seek point %d: %w", i, err)
			}
		}
	}
	return nil
}

// startSpan begins d, the decode of the span of size bytes at point p,
// whose window is window, which ends at point next (at the end of the
// file if endIsEOF), bounded by upTo bytes of output.
func (c *gzipCodec) startSpan(d *spanDecode, p gzindex.SeekPoint, window []byte, next gzindex.SeekPoint, endIsEOF bool, size, upTo uint64) (*deflate.ChunkResult, error) {
	fileSize := int64(c.fileBits / 8)
	endBit := next.CompressedBitOffset
	byteStart := int64(p.CompressedBitOffset / 8)
	// The decoder reads the next block's header fields before checking
	// the stop condition (up to ~6 bytes past the entry for a stored
	// block's LEN/NLEN), so the read window carries a small slack margin
	// past the entry's last bit.
	byteEnd := int64((endBit+7)/8) + 64
	if endIsEOF || byteEnd > fileSize {
		byteEnd = fileSize
	}
	d.src = c.src
	// Bit offsets are relative to what the reader is over: the extent's
	// buffer for a whole span, the file for a prefix.
	var br *bitio.BitReader
	base := uint64(0)
	if upTo == size {
		buf, release, err := filereader.Extent(c.src, byteStart, byteEnd)
		if err != nil {
			return nil, err
		}
		defer release()
		br, base = bitio.NewBitReaderBytes(buf), uint64(byteStart)*8
	} else {
		d.end = byteEnd
		br = bitio.NewBitReaderSize(d, byteEnd, prefixWindow)
	}
	stop := endBit - base
	if endIsEOF {
		stop = deflate.StopAtEOF
	}
	// A point inside a block reads its block's header again, with one
	// small read: it lies before the extent, as far back as the block is
	// long.
	var header *bitio.BitReader
	if p.BlockHeaderBit != 0 {
		header = bitio.NewBitReaderSize(d, fileSize, blockHeaderRead)
		if err := header.SeekBits(p.BlockHeaderBit); err != nil {
			return nil, d.failed(err)
		}
	}
	res, err := d.DecodeChunk(br, deflate.ChunkConfig{
		Start:              p.CompressedBitOffset - base,
		Header:             header,
		Stop:               stop,
		StopBeforeMember:   stop,
		Window:             window,
		StartsAtGzipHeader: p.AtMemberStart,
		SizeHint:           int(size),
		StopAtOutput:       stopAt(next, endIsEOF, size, upTo),
	})
	return res, d.failed(err)
}

// stopAt is the output limit of a decode, to make upTo bytes, of a span
// of size bytes that ends at point next (at the end of the file if
// endIsEOF). A span that ends inside a member, at a point a sharded
// writer recorded, stops at its size: the block at its end bit need not
// be stop-eligible (a shard can open with a final or Fixed block). A
// whole span that ends where a member starts, or at the end of the file,
// is decoded on to that end, and fails (DecodeSpanPrefix) unless it made
// size bytes: a size the table got wrong is an error, not the bytes of
// a member the span does not reach.
func stopAt(next gzindex.SeekPoint, endIsEOF bool, size, upTo uint64) uint64 {
	if upTo == size && (next.AtMemberStart || endIsEOF) {
		return 0
	}
	return upTo
}

// spanDecode is the decode of one span from its seek point, and what it
// reads the file through where it does not read its extent whole. One
// that stops short of its span is parked as it is and resumed from there
// (DecodeSpanPrefix). A bit reader takes a read that fails for the end of
// its input, which the decoder then reports as a cut stream: spanDecode
// keeps the first failure, so that a decode that fails reports it as the
// read error it is. Once rest is set, its next read takes the file up to
// end at once and serves the windows after it.
type spanDecode struct {
	deflate.Decoder
	src  filereader.FileReader
	end  int64 // where the prefix's bit reader ends
	rest bool
	buf  []byte // the file from off on, as rest read it
	off  int64
	done func() // gives buf back
	err  error
}

// ReadAt implements io.ReaderAt for the bit readers of the decode.
func (d *spanDecode) ReadAt(p []byte, off int64) (int, error) {
	if d.rest && d.buf == nil && d.err == nil && off < d.end {
		var err error
		if d.buf, d.done, err = filereader.Extent(d.src, off, d.end); err != nil {
			d.err = err
			return 0, err
		}
		d.off = off
	}
	if k := off - d.off; d.buf != nil && k >= 0 && k+int64(len(p)) <= int64(len(d.buf)) {
		return copy(p, d.buf[k:]), nil
	}
	n, err := d.src.ReadAt(p, off)
	if n < len(p) && d.err == nil {
		d.err = fmt.Errorf("%w: [%d,%d) read short: %w", filereader.ErrIO, off, off+int64(len(p)), err)
	}
	return n, err
}

// failed is the error the decode ends with: the first read that failed,
// if one did and so did the decode, else err.
func (d *spanDecode) failed(err error) error {
	if err != nil && d.err != nil {
		return d.err
	}
	return err
}

// --- growing mode --------------------------------------------------------

// GrowNext confirms the next decode unit: it obtains the result for the
// exact frontier offset (the engine's guess, or an on-demand decode),
// propagates the window serially, verifies member sizes, splits
// oversized units into seek points, appends the resulting spans, and
// primes their contents — paper Figure 4 steps 5-6, with the engine's
// tentative store playing the role of the result cache keyed by exact
// start offset. A unit whose decode paused (see firstEntry) is confirmed
// as far as it went, and the next call decodes on from there. Everything
// the unit adds is worked out first and committed at once: a unit that
// fails leaves the codec as it found it, so a retry fails the same way.
func (c *gzipCodec) GrowNext(e *spanengine.Engine) (bool, error) {
	c.mu.Lock()
	if c.eof {
		c.mu.Unlock()
		return true, nil
	}
	E, header, paused := c.frontierBit, c.frontierHeader, c.paused
	atMember := c.index.Len() == 0 // unit 0 starts at the gzip header
	window, decomp, memberStart := c.frontierWindow, c.frontierDecomp, c.memberStart
	c.mu.Unlock()

	// The unit ends at the first stop-eligible block at or past the end of
	// E's cell, or where its decode pauses.
	stop := (E/c.chunkBits() + 1) * c.chunkBits()
	res, pausedIn, err := c.obtainFrontier(e, E, stop, header, paused, atMember, window)
	if err != nil {
		return false, err
	}
	total := res.TotalOut()
	if res.EndBit > stop && (res.EndBit-stop)/8 > c.cnt.maxPastStop.Load() {
		c.cnt.maxPastStop.Store((res.EndBit - stop) / 8)
	}

	// Serial window propagation: resolve only the final <=32 KiB
	// (paper §2.2 — the non-parallelizable Amdahl term).
	newWindow, err := res.WindowAt(total, window)
	if err != nil {
		return false, fmt.Errorf("core: window propagation: %w", err)
	}

	// ISIZE verification for every member ending inside this unit.
	for i := range res.Members {
		ev := &res.Members[i]
		absEnd := decomp + ev.DecompOffset
		if size := absEnd - memberStart; uint32(size) != ev.Footer.ISize {
			return false, fmt.Errorf("core: gzip ISIZE mismatch at offset %d: footer %d, decoded %d",
				absEnd, ev.Footer.ISize, uint32(size))
		}
		memberStart = absEnd
	}

	// Cut the unit into seek points, one about every ChunkSize of output
	// so that decompressed chunk sizes stay comparable (§1.4), each with
	// its window, its member marks and its span. A member ending at
	// decompressed offset X belongs to the point whose span (start,
	// start+size] holds X; one ending right at the unit start, to the
	// first.
	splits := c.splitPoints(res)
	points := make([]gzindex.SeekPoint, len(splits))
	windows := make([][]byte, len(splits))
	marks := make([][]gzindex.MemberEnd, len(splits))
	spans := make([]spanengine.Span, len(splits))
	fileSize := int64(c.fileBits / 8)
	members := res.Members
	p := gzindex.SeekPoint{CompressedBitOffset: E, UncompressedOffset: decomp, AtMemberStart: atMember, BlockHeaderBit: header}
	for i, sp := range splits {
		next := gzindex.SeekPoint{CompressedBitOffset: sp.endBit, UncompressedOffset: decomp + sp.endDecomp, BlockHeaderBit: sp.headerBit}
		// Windows are copies, as whatever outlives the result is (see the
		// package doc).
		if rel := p.UncompressedOffset - decomp; rel == 0 && !p.AtMemberStart {
			windows[i] = append([]byte{}, window...)
		} else if rel > 0 {
			if windows[i], err = res.WindowAt(rel, window); err != nil {
				// A window-less seek point would only fail much later, as "no
				// window for chunk" on random access or after an index export.
				return false, fmt.Errorf("core: window at split point %d: %w", p.UncompressedOffset, err)
			}
		}
		for len(members) > 0 && (decomp+members[0].DecompOffset <= next.UncompressedOffset || i == len(splits)-1) {
			marks[i] = append(marks[i], gzindex.MemberEnd{
				RelEnd: decomp + members[0].DecompOffset - p.UncompressedOffset,
				CRC32:  members[0].Footer.CRC32,
			})
			members = members[1:]
		}
		points[i], spans[i] = p, engineSpan(p, next)
		if res.EndIsEOF && i == len(splits)-1 {
			spans[i].CompEnd = fileSize
		}
		p = next
	}

	c.mu.Lock()
	n := c.index.Len()
	for i, pt := range points {
		if err := c.index.Add(pt, windows[i]); err != nil {
			c.index.Truncate(n)
			c.mu.Unlock()
			return false, err
		}
		for _, m := range marks[i] {
			c.index.AddMemberEnd(pt.CompressedBitOffset, m)
		}
	}
	c.memberStart = memberStart
	c.frontierWindow = newWindow
	c.frontierBit, c.frontierHeader, c.paused = res.EndBit, pausedIn, res.Paused
	c.long = pausedIn != 0 && res.EndBit >= stop+c.capBits()
	c.frontierDecomp += total
	eof := res.EndIsEOF
	if res.TrailingData {
		c.cnt.trailing.Store(uint64(fileSize) - res.EndBit/8)
	}
	if eof {
		c.eof = true
		c.index.Finalized = true
		c.index.UncompressedSize = c.frontierDecomp
	}
	c.mu.Unlock()
	c.chainEmpty() // it may stand at a span of no bytes this unit added

	base := e.AppendSpans(spans...)
	// Dispatch this unit's full marker replacement to the pool right
	// away (paper Figure 4, step 5) — confirmation of the next unit
	// does not wait for it, so replacements overlap. Each span is its
	// own task, writing its share of the unit straight into a buffer of
	// the span's exact size; whichever finishes last owns the unit's
	// scratch and releases it (see the package doc).
	pending := new(atomic.Int32)
	pending.Store(int32(len(spans)))
	next := uint64(0)
	for j, s := range spans {
		lo := next
		next += uint64(s.DecompSize)
		e.Prime(base+j, func() ([]byte, error) {
			data := make([]byte, s.DecompSize)
			err := res.ResolveRange(data, lo, window)
			if pending.Add(-1) == 0 {
				res.Release()
			}
			return data, err
		})
	}
	return eof, nil
}

// FrontierKey names the bit the next GrowNext confirms a unit at, until
// the end of file: a guess parked there lets the engine confirm it
// without blocking, which keeps the serial confirmation walk ahead of
// consumption.
func (c *gzipCodec) FrontierKey() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frontierBit, !c.eof
}

// obtainFrontier fetches the decode result starting exactly at bit E —
// paper Figure 4: the consumer requests chunks by the exact end offset
// of the previous chunk; a guess at E's cell that found its block
// elsewhere is a false start, and that and no guess at all fall back to
// an on-demand decode. The rest of a unit whose decode paused is neither:
// no guess begins inside a unit, and it is decoded on from where the
// pause left it, inside the block whose header is at bit header if that
// is nonzero.
func (c *gzipCodec) obtainFrontier(e *spanengine.Engine, E, stop, header uint64, paused, atMember bool, window []byte) (*deflate.ChunkResult, uint64, error) {
	if paused {
		return c.decodeFrontier(E, header, stop, false, window)
	}
	// A guess no worker has started runs here rather than behind the
	// tasks ahead of it in the queue.
	if v, ok, err := e.TakeGuess(E, E/c.chunkBits()); ok && err == nil {
		if res := v.(*deflate.ChunkResult); res.StartBit == E {
			return res, 0, nil
		}
		c.cnt.guessFalseStarts.Add(1)
	}
	c.cnt.onDemand.Add(1)
	return c.decodeFrontier(E, 0, stop, atMember, window)
}

// decodeFrontier is the on-demand exact decode from the frontier with
// its known window (single-stage), to the first block stop-eligible at or
// past stop: from inside the block whose header is at bit header if that
// is nonzero, and from the gzip header — the file's first decode, which
// pauses once firstEntry bytes are out — if atMember is set. Inside a
// block it has read capBits past stop in, it pauses at the next point it
// records. A decode that paused comes back Paused, with the header bit
// of the Huffman block it paused in, or zero for one that paused between
// blocks.
func (c *gzipCodec) decodeFrontier(E, header, stop uint64, atMember bool, window []byte) (*deflate.ChunkResult, uint64, error) {
	fileSize := int64(c.fileBits / 8)
	cfg := deflate.ChunkConfig{
		Start:              E,
		Stop:               stop,
		Window:             window,
		StartsAtGzipHeader: atMember,
		// A unit makes about four times the cell it reads, or what is
		// left of the file where that is less.
		SizeHint:         4 * int(min(int64(c.cfg.ChunkSize), fileSize-int64(E/8))),
		PointEvery:       c.pointEvery(),
		PauseAtPointPast: stop + c.capBits(),
	}
	if atMember {
		cfg.StopAtOutput = c.firstEntry
	}
	if header != 0 {
		cfg.Header = bitio.NewBitReaderSize(c.src, fileSize, blockHeaderRead)
		if err := cfg.Header.SeekBits(header); err != nil {
			return nil, 0, err
		}
	}
	var dec deflate.Decoder
	res, err := dec.DecodeChunk(bitio.NewBitReader(c.src, fileSize), cfg)
	if err == nil && res.Paused {
		// A decode cannot start again inside a stored block: one paused in
		// there copies the rest of it first. Where the first entry reached
		// past stop, the unit may end right behind it, and the decode
		// finishes the unit instead of pausing.
		if _, _, stored := dec.PausedIn(); stored > 0 {
			res, err = dec.Resume(res.TotalOut() + uint64(stored))
		}
		if err == nil && res.Paused && res.EndBit >= stop && res.EndBit < cfg.PauseAtPointPast {
			res, err = dec.Resume(0)
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: decode at bit %d: %w", E, err)
	}
	if inBlock, hb, _ := dec.PausedIn(); res.Paused && inBlock {
		return res, hb, nil
	}
	return res, 0, nil
}

// Slot implements spanengine.Grower: a candidate cand-len(table) spans
// past the frontier is a guess at the grid cell as many cells past the
// frontier's. The first entry, confirmed ahead of the rest of its unit,
// is left out of the count until that rest is confirmed: the mapping
// stays the one a whole first unit would give. While the frontier stands
// inside a long block there is nothing to guess: no block starts in the
// cells ahead until it ends.
func (c *gzipCodec) Slot(_ *spanengine.Engine, cand uint64) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.long {
		return 0, false
	}
	cb := c.chunkBits()
	n, cell := uint64(c.index.Len()), c.frontierBit/cb
	if c.paused {
		n, cell = 0, 0
	}
	gap := uint64(0)
	if cand > n {
		gap = cand - n
	}
	g := cell + 1 + gap
	return g, !c.eof && g*cb < c.fileBits
}

// Guess implements spanengine.Grower: a guess at cell g is guessTask,
// parked under the bit it found its block at.
func (c *gzipCodec) Guess(_ *spanengine.Engine, g uint64) func() (uint64, any, error) {
	c.cnt.guessTasks.Add(1)
	return func() (uint64, any, error) {
		res, err := c.guessTask(g)
		if err != nil {
			return 0, nil, err
		}
		return res.StartBit, res, nil
	}
}

// guessSlack is how far past its cell a guess task reads: the decode
// runs on to the first block header at or after the cell's end, so the
// buffer has to hold the block straddling that boundary and the header
// behind it. 64 KiB holds a stored block, the largest a compressor
// emits without choosing to; a block that still runs off is decoded
// again from the file.
const guessSlack = 64 << 10

// guessScan is how far into its cell a guess looks for a block start.
// Where a compressor ends blocks at all, one starts every few tens of
// KiB of compressed data (the benchmark's corpus: at most 33 KB apart;
// 128 KiB gzipw blocks of incompressible data: 105 KB); a cell with no
// block start that near has none at all, in all likelihood, and is left
// to the frontier.
const guessScan = 256 << 10

// guessTask searches cell g for a block start and decodes from it with
// markers (paper Figure 4, steps 4-5). The cell is read once, and only
// as far as the guess gets: the finder's bytes first, the rest of the
// cell and the slack behind it once the finder has a candidate for the
// decoder, which works on the bytes the finder scanned. It runs on a
// worker goroutine and touches no mutable codec state.
func (c *gzipCodec) guessTask(g uint64) (*deflate.ChunkResult, error) {
	cb := c.chunkBits()
	base := g * cb
	stop := base + cb
	end := min(stop, c.fileBits)
	fileSize := int64(c.fileBits / 8)
	bufEnd := min(int64((end+7)/8)+guessSlack, fileSize)
	// The finder sees what it may scan and a block header's length more,
	// so that a candidate right below the limit still parses whole.
	scanEnd := min(end-base, guessScan*8)
	// The cell is read from its front as far as the guess gets, each byte
	// once: into one pooled buffer, or sliced from a memory-backed file.
	off := int64(base / 8)
	mem, inMem := filereader.Bytes(c.src)
	bp := cellBuffers.Get().(*[]byte)
	defer cellBuffers.Put(bp)
	if !inMem && int64(cap(*bp)) < bufEnd-off {
		*bp = make([]byte, bufEnd-off)
	}
	var buf []byte
	readTo := func(to int64) error {
		from := off + int64(len(buf))
		if from >= to {
			return nil
		}
		if inMem {
			buf = mem[off:to]
			_, _, err := filereader.Extent(c.src, from, to) // counted, not copied
			return err
		}
		buf = (*bp)[:to-off]
		if n, err := c.src.ReadAt(buf[from-off:], from); n < int(to-from) {
			return fmt.Errorf("core: %w: cell [%d,%d): %w", filereader.ErrIO, from, to, err)
		}
		return nil
	}
	if err := readTo(min(off+int64(scanEnd/8)+blockHeaderRead, bufEnd)); err != nil {
		return nil, err
	}
	scanned := buf
	finder := blockfinder.NewCombinedFinder()
	var dec deflate.Decoder
	cfg := deflate.ChunkConfig{
		TwoStage:        true,
		MaxDecompressed: guessedRatioLimit * uint64(c.cfg.ChunkSize),
		SizeHint:        2 * c.cfg.ChunkSize,
		PointEvery:      c.pointEvery(),
	}
	for searchFrom := uint64(0); ; {
		c.cnt.finderProbes.Add(1)
		cand, ok := finder.Next(scanned, searchFrom)
		if !ok || cand >= scanEnd {
			c.cnt.finderBytes.Add((scanEnd - searchFrom) / 8)
			c.cnt.guessNoBlock.Add(1)
			return nil, errNoBlock
		}
		c.cnt.finderBytes.Add((cand - searchFrom) / 8)
		if err := readTo(bufEnd); err != nil {
			return nil, err
		}
		// While decoding from buf, bit offsets are relative to it.
		br := bitio.NewBitReaderBytes(buf)
		cfg.Start, cfg.Stop = cand, stop-base
		res, err := dec.DecodeChunk(br, cfg)
		if bufEnd < fileSize && (err != nil && br.RemainingBits() < 64 || err == nil && res.EndIsEOF) {
			// The decode ran off the slack: a failed read leaves less than
			// one refill unread, and a footer at the end of buf looks like
			// the end of the file. Decode this candidate from the file.
			if err == nil {
				res.Release()
			}
			cfg.Start, cfg.Stop = base+cand, stop
			res, err = dec.DecodeChunk(bitio.NewBitReader(c.src, fileSize), cfg)
		} else if err == nil {
			rebase(res, base)
		}
		if err == nil {
			return res, nil
		}
		searchFrom = cand + 1
	}
}

// cellBuffers recycles the buffers guesses read file-backed cells into.
var cellBuffers = sync.Pool{New: func() any { return new([]byte) }}

// rebase moves every bit offset of a result decoded from a buffer that
// starts at bit base of the file into file coordinates.
func rebase(res *deflate.ChunkResult, base uint64) {
	res.StartBit += base
	res.EndBit += base
	for i := range res.BlockStarts {
		res.BlockStarts[i].Bit += base
	}
	for i := range res.InBlock {
		res.InBlock[i].Bit += base
		res.InBlock[i].HeaderBit += base
	}
	for i := range res.Members {
		if !res.Members[i].AtEOF {
			res.Members[i].HeaderEndBit += base
		}
	}
}

// splitPoint delimits one index entry inside a decode unit.
type splitPoint struct {
	endBit    uint64 // compressed end of this entry
	endDecomp uint64 // decompressed end within the unit output
	// headerBit is the header of the block endBit is inside of, for a
	// cut between two elements; zero for one at a block start.
	headerBit uint64
}

// pointEvery is the spacing of the points inside blocks a first-pass
// decode records.
func (c *gzipCodec) pointEvery() uint64 {
	return uint64(max(c.cfg.ChunkSize/pointsPerChunk, 1))
}

// splitPoints returns entry boundaries for a decode unit: one about
// every ChunkSize of decompressed output, so that what a seek decodes
// before the bytes it wants is bounded by the chunk size, not by how
// long the compressor made its blocks. While more than target is left
// the next cut is due target on, or halfway through what is left when
// that is less than twice target, so that a unit's last entries come
// out even rather than one large and one small. It goes at the first
// non-final Dynamic or Stored block start or point inside a block at or
// past that offset, the block start when both are at the same one, and
// must leave more than target/2 behind it.
func (c *gzipCodec) splitPoints(res *deflate.ChunkResult) []splitPoint {
	total := res.TotalOut()
	target := uint64(c.cfg.ChunkSize)
	bs, ib := res.BlockStarts, res.InBlock
	var out []splitPoint
	for last := uint64(0); total-last > target; {
		due := last + min(target, (total-last)/2)
		for len(bs) > 0 && (bs[0].DecompOffset < due || bs[0].Final || bs[0].Type == deflate.BlockFixed) {
			bs = bs[1:]
		}
		for len(ib) > 0 && ib[0].DecompOffset < due {
			ib = ib[1:]
		}
		var cut splitPoint
		switch {
		case len(bs) > 0 && (len(ib) == 0 || bs[0].DecompOffset <= ib[0].DecompOffset):
			cut = splitPoint{endBit: bs[0].Bit, endDecomp: bs[0].DecompOffset}
		case len(ib) > 0:
			cut = splitPoint{endBit: ib[0].Bit, endDecomp: ib[0].DecompOffset, headerBit: ib[0].HeaderBit}
		}
		if cut.endDecomp == 0 || total-cut.endDecomp <= target/2 {
			break
		}
		out = append(out, cut)
		last = cut.endDecomp
	}
	return append(out, splitPoint{endBit: res.EndBit, endDecomp: total})
}

// --- consumption-order CRC chain -----------------------------------------

// SpanAccessed is the engine's consumption callback: it counts distinct
// span consumption and runs the member CRCs over the span while
// consumption stays in table order, a member-delimited slice at a time,
// comparing each member's against its gzip footer (§6 future work,
// implemented). Out-of-order access disables verification.
func (c *gzipCodec) SpanAccessed(i int, data []byte) {
	c.crcMu.Lock()
	defer c.crcMu.Unlock()
	if !c.consumed[i] {
		c.consumed[i] = true
		c.cnt.consumed.Add(1)
	}
	if !c.cfg.VerifyChecksums || c.crcBroken {
		return
	}
	if i < c.crcNext {
		return // already accounted (repeated access to a cached span)
	}
	if i != c.crcNext {
		c.crcBroken = true
		return
	}
	c.chainLocked(i, data)
}

// chainLocked runs the CRC chain over span i, whose bytes are data, and
// then over the spans of no bytes behind it. The engine hands none of
// those to a reader, and yet a member can end in one: a footer behind the
// last byte of a file, after an empty final block. Caller holds c.crcMu.
func (c *gzipCodec) chainLocked(i int, data []byte) {
	for ; ; i, data = i+1, nil {
		c.mu.Lock()
		p := c.index.Point(i)
		marks := c.index.MemberEnds(p.CompressedBitOffset)
		c.mu.Unlock()
		// The marks are in order and inside the span: the decode recorded
		// them, or the index reader checked them.
		from := uint64(0)
		for _, m := range marks {
			c.crcAcc = crc32x.Update(c.crcAcc, data[from:m.RelEnd])
			from = m.RelEnd
			if c.crcAcc != m.CRC32 {
				c.crcBroken = true
				c.cnt.crcFailures.Add(1)
				return
			}
			c.crcAcc = 0
		}
		c.crcAcc = crc32x.Update(c.crcAcc, data[from:])
		c.crcNext = i + 1
		if !c.emptyLocked(i + 1) {
			return
		}
	}
}

// emptyLocked reports whether span i is in the table and covers no
// bytes. Caller holds c.crcMu.
func (c *gzipCodec) emptyLocked(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= c.index.Len() {
		return false
	}
	p, next, _ := c.spanLocked(i)
	return next.UncompressedOffset == p.UncompressedOffset
}

// chainEmpty runs the CRC chain on from a span of no bytes it has come
// to stand at as the table grew, since no reader is handed that span.
func (c *gzipCodec) chainEmpty() {
	c.crcMu.Lock()
	defer c.crcMu.Unlock()
	if c.cfg.VerifyChecksums && !c.crcBroken && c.emptyLocked(c.crcNext) {
		c.chainLocked(c.crcNext, nil)
	}
}

// CRCStatus reports (verifiedSoFar, failures). verifiedSoFar is false
// once consumption left sequential order or a mismatch occurred.
func (c *gzipCodec) CRCStatus() (bool, uint64) {
	c.crcMu.Lock()
	defer c.crcMu.Unlock()
	return !c.crcBroken, c.cnt.crcFailures.Load()
}

// SeekIndex returns the seek-point index, which an export writes: it is
// complete once the engine's table is, and nothing writes it then, so
// concurrent exports share it. With Config.RebuildWindows, a window the
// index file no longer gives is decoded again first.
func (c *gzipCodec) SeekIndex() (*gzindex.Index, error) {
	if err := c.rebuildWindows(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index, nil
}

// Count implements spanengine.Counter: the chunk pipeline's counters.
func (c *gzipCodec) Count(s *spanengine.Stats) {
	s.GuessTasks = c.cnt.guessTasks.Load()
	s.GuessNoBlock = c.cnt.guessNoBlock.Load()
	s.GuessFalseStarts = c.cnt.guessFalseStarts.Load()
	s.FinderProbes = c.cnt.finderProbes.Load()
	s.FinderBytes = c.cnt.finderBytes.Load()
	s.OnDemandDecodes = c.cnt.onDemand.Load()
	s.IndexedDecodes = c.cnt.indexed.Load()
	s.ChunksConsumed = c.cnt.consumed.Load()
	s.CRCFailures = c.cnt.crcFailures.Load()
	s.MaxPastStop = c.cnt.maxPastStop.Load()
	s.TrailingBytes = c.cnt.trailing.Load()
}
