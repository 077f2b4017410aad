package core

import (
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

// spanMeta is the gzip-side metadata of one span-engine table entry:
// the exact bit extent (the span table itself only keeps byte extents),
// the window bookkeeping, and the member marks needed for CRC
// verification.
type spanMeta struct {
	startBit, endBit  uint64
	startDecomp, size uint64
	// headerBit, when nonzero, is the bit of the header of the Huffman
	// block the entry starts inside of: startBit is an element's.
	headerBit     uint64
	atMemberStart bool
	endIsEOF      bool
	// members records every gzip member end inside (or at the end of)
	// this entry, captured when the entry was confirmed. Re-decodes of
	// the entry verify against these marks.
	members []memberMark
}

// memberMark is the footer of a member ending inside a confirmed entry:
// the absolute decompressed offset where the member ends and the CRC32
// its footer declares.
type memberMark struct {
	absEnd uint64
	crc    uint32
}

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
	cnt      *counters

	// mu guards the chunk geometry. Lock order: an engine-mutex holder
	// may take mu (Slot); crcMu holders may take mu (SpanAccessed).
	// Nothing holding mu may call engine methods.
	mu             sync.Mutex
	metas          []spanMeta
	byOff          map[int64]int // span CompOff -> metas index
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
}

func newGzipCodec(cfg Config, src *filereader.SharedFileReader, cnt *counters, bgzf bool) *gzipCodec {
	return &gzipCodec{
		cfg:      cfg,
		src:      src,
		fileBits: uint64(src.Size()) * 8,
		bgzf:     bgzf,
		cnt:      cnt,
		byOff:    map[int64]int{},
		index:    gzindex.New(cfg.ChunkSize),
		consumed: map[int]bool{},
		// The first entry is what a stream's first round asks for, or a
		// quarter chunk where that is less: a reader that streams has the
		// rest of the cell confirmed while it writes those bytes.
		firstEntry: uint64(max(min(cfg.ChunkSize/4, spanengine.FirstRound), 1)),
	}
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

// Scan is the sizing pass. Only the BGZF metadata walk implements it
// (see bgzf.go); generic gzip runs in growing mode, where Scan is never
// called.
func (c *gzipCodec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	if c.bgzf {
		return c.scanBGZF()
	}
	return spanengine.ScanResult{}, errors.New("core: gzip has no metadata sizing pass (growing mode only)")
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
// decode that stopped short of that: parked is its *deflate.Decoder,
// which is the state (see Decoder.Resume), positioned in a reader over
// the file that has read as far as the decode went. It runs the custom
// single-stage decoder: the paper delegates indexed decodes to zlib
// (§3.3) because its marker decoder lost to zlib's inner loops, but the
// wide-refill kernels outrun compress/flate, handle every chunk shape —
// member boundaries included — and stop at any element, which is what
// lets a seek cost the bytes it asked for. A whole span from its seek
// point reads its compressed extent in one bounded read; a prefix reads
// as far as it decodes, a window at a time. The IndexedDecodes count,
// which needs the whole result, is taken when the span completes. Safe
// for concurrent calls on different spans.
func (c *gzipCodec) DecodeSpanPrefix(src filereader.FileReader, s spanengine.Span, parked any, upTo int64) ([]byte, any, error) {
	c.mu.Lock()
	i, ok := c.byOff[s.CompOff]
	if !ok || int64(c.metas[i].startDecomp) != s.DecompOff {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("core: no chunk metadata for span at byte %d", s.CompOff)
	}
	m := c.metas[i]
	c.mu.Unlock()

	var res *deflate.ChunkResult
	var err error
	dec, _ := parked.(*deflate.Decoder)
	if dec != nil {
		res, err = dec.Resume(uint64(upTo))
	} else {
		dec = new(deflate.Decoder)
		res, err = c.startSpan(dec, m, upTo)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: indexed chunk at bit %d: %w", m.startBit, err)
	}
	if n := res.TotalOut(); n < uint64(upTo) || n > m.size {
		return nil, nil, fmt.Errorf("core: indexed chunk at bit %d decoded %d bytes, index says %d",
			m.startBit, n, m.size)
	}
	if res.TotalOut() < m.size {
		return res.Raw, dec, nil
	}

	c.cnt.indexed.Add(1)
	// Single-stage output is all raw and becomes the span's content as
	// it is: the decode stopped at exactly the index size.
	return res.Raw, nil, nil
}

// startSpan begins the decode of one confirmed entry at its seek point,
// bounded by upTo bytes of output.
func (c *gzipCodec) startSpan(dec *deflate.Decoder, m spanMeta, upTo int64) (*deflate.ChunkResult, error) {
	c.mu.Lock()
	win, hasWin := c.index.Window(m.startBit)
	c.mu.Unlock()
	if !hasWin && !m.atMemberStart {
		return nil, errors.New("no window for chunk")
	}
	var window []byte
	if hasWin {
		// An imported window is inflated here, the first time its span is
		// decoded, outside the codec's lock, and stays inflated.
		var err error
		if window, err = win.Bytes(); err != nil {
			return nil, err
		}
	}
	fileSize := int64(c.fileBits / 8)
	byteStart := int64(m.startBit / 8)
	// The decoder reads the next block's header fields before checking
	// the stop condition (up to ~6 bytes past the entry for a stored
	// block's LEN/NLEN), so the read window carries a small slack margin
	// past the entry's last bit.
	byteEnd := int64((m.endBit+7)/8) + 64
	if m.endIsEOF || byteEnd > fileSize {
		byteEnd = fileSize
	}
	// Bit offsets are relative to what the reader is over: the extent's
	// buffer for a whole span, the file for a prefix.
	var br *bitio.BitReader
	base := uint64(0)
	if uint64(upTo) == m.size {
		buf, release, err := filereader.Extent(c.src, byteStart, byteEnd)
		if err != nil {
			return nil, err
		}
		defer release()
		br, base = bitio.NewBitReaderBytes(buf), uint64(byteStart)*8
	} else {
		br = bitio.NewBitReaderSize(c.src, byteEnd, prefixWindow)
	}
	stop := m.endBit - base
	if m.endIsEOF {
		stop = deflate.StopAtEOF
	}
	// A point inside a block reads its block's header again, with one
	// small read: it lies before the extent, as far back as the block is
	// long.
	var header *bitio.BitReader
	if m.headerBit != 0 {
		header = bitio.NewBitReaderSize(c.src, fileSize, blockHeaderRead)
		if err := header.SeekBits(m.headerBit); err != nil {
			return nil, err
		}
	}
	return dec.DecodeChunk(br, deflate.ChunkConfig{
		Start:              m.startBit - base,
		Header:             header,
		Stop:               stop,
		StopBeforeMember:   stop,
		Window:             window,
		StartsAtGzipHeader: m.atMemberStart,
		SizeHint:           int(m.size),
		// The block at the entry's end bit need not be stop-eligible
		// (sharded writers can open the next shard with a final or
		// Fixed block); the index size bounds the decode instead.
		StopAtOutput: uint64(upTo),
	})
}

// --- growing mode --------------------------------------------------------

// GrowNext confirms the next decode unit: it obtains the result for the
// exact frontier offset (the engine's guess, or an on-demand decode),
// propagates the window serially, verifies member sizes, splits
// oversized units into index entries, appends the resulting spans, and
// primes their contents — paper Figure 4 steps 5-6, with the engine's
// tentative store playing the role of the result cache keyed by exact
// start offset. A unit whose decode paused (see firstEntry) is confirmed
// as far as it went, and the next call decodes on from there.
func (c *gzipCodec) GrowNext(e *spanengine.Engine) (bool, error) {
	c.mu.Lock()
	if c.eof {
		c.mu.Unlock()
		return true, nil
	}
	E, header, paused := c.frontierBit, c.frontierHeader, c.paused
	atMember := len(c.metas) == 0 // unit 0 starts at the gzip header
	window := c.frontierWindow
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

	c.mu.Lock()
	// ISIZE verification for every member ending inside this unit.
	for i := range res.Members {
		ev := &res.Members[i]
		absEnd := c.frontierDecomp + ev.DecompOffset
		size := absEnd - c.memberStart
		if uint32(size) != ev.Footer.ISize {
			c.mu.Unlock()
			return false, fmt.Errorf("core: gzip ISIZE mismatch at offset %d: footer %d, decoded %d",
				absEnd, ev.Footer.ISize, uint32(size))
		}
		c.memberStart = absEnd
	}

	// Record the unit, splitting oversized outputs into multiple index
	// entries so decompressed chunk sizes stay comparable (§1.4). Every
	// entry's window is resolved before any entry is recorded: a split
	// point whose window does not resolve fails the unit as a whole.
	unitStart := len(c.metas)
	splits := c.splitPoints(res)
	unit := make([]spanMeta, len(splits))
	windows := make([][]byte, len(splits))
	startBit, headerBit := E, header
	startDecomp := c.frontierDecomp
	for i, sp := range splits {
		unit[i] = spanMeta{
			startBit:      startBit,
			endBit:        sp.endBit,
			startDecomp:   startDecomp,
			size:          c.frontierDecomp + sp.endDecomp - startDecomp,
			headerBit:     headerBit,
			atMemberStart: unitStart == 0 && startBit == 0,
		}
		if windows[i], err = c.windowForLocked(unit[i], res, window); err != nil {
			c.mu.Unlock()
			return false, err
		}
		startBit, headerBit = sp.endBit, sp.headerBit
		startDecomp = c.frontierDecomp + sp.endDecomp
	}
	for i, m := range unit {
		if err := c.index.Add(gzindex.SeekPoint{
			CompressedBitOffset: m.startBit,
			UncompressedOffset:  m.startDecomp,
			AtMemberStart:       m.atMemberStart,
			BlockHeaderBit:      m.headerBit,
		}, windows[i]); err != nil {
			c.mu.Unlock()
			return false, err
		}
		c.metas = append(c.metas, m)
	}
	c.metas[len(c.metas)-1].endIsEOF = res.EndIsEOF
	c.recordMemberMarksLocked(unitStart, res)

	// Byte-partition the unit into engine spans. Entry boundaries are
	// bit offsets; the span table carries byte extents, keyed back to
	// the metadata by the start byte (distinct for any realistic chunk
	// size: deflate's ~1032x ratio cap keeps entries > 1 byte apart).
	fileSize := int64(c.fileBits / 8)
	spans := make([]spanengine.Span, 0, len(c.metas)-unitStart)
	for i := unitStart; i < len(c.metas); i++ {
		m := &c.metas[i]
		compEnd := int64(m.endBit / 8)
		if m.endIsEOF {
			compEnd = fileSize
		}
		s := spanengine.Span{
			CompOff:    int64(m.startBit / 8),
			CompEnd:    compEnd,
			DecompOff:  int64(m.startDecomp),
			DecompSize: int64(m.size),
		}
		if _, dup := c.byOff[s.CompOff]; dup {
			c.mu.Unlock()
			return false, fmt.Errorf("core: two chunk entries share start byte %d (chunk size too small)", s.CompOff)
		}
		c.byOff[s.CompOff] = i
		spans = append(spans, s)
	}

	c.frontierWindow = newWindow
	c.frontierBit, c.frontierHeader, c.paused = res.EndBit, pausedIn, res.Paused
	c.long = pausedIn != 0 && res.EndBit >= stop+c.capBits()
	c.frontierDecomp += total
	eof := res.EndIsEOF
	if eof {
		c.eof = true
		c.index.Finalized = true
		c.index.UncompressedSize = c.frontierDecomp
	}
	c.mu.Unlock()

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
		SizeHint:           4 * c.cfg.ChunkSize,
		PointEvery:         c.pointEvery(),
		PauseAtPointPast:   stop + c.capBits(),
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
	n, cell := uint64(len(c.metas)), c.frontierBit/cb
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
// markers (paper Figure 4, steps 4-5). The cell is read once: the
// decoder works on the bytes the finder scanned. It runs on a worker
// goroutine and touches no mutable codec state.
func (c *gzipCodec) guessTask(g uint64) (*deflate.ChunkResult, error) {
	cb := c.chunkBits()
	base := g * cb
	stop := base + cb
	end := min(stop, c.fileBits)
	fileSize := int64(c.fileBits / 8)
	bufEnd := min(int64((end+7)/8)+guessSlack, fileSize)
	buf, release, err := filereader.Extent(c.src, int64(base/8), bufEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	// The finder sees what it may scan and a block header's length more,
	// so that a candidate right below the limit still parses whole.
	scanEnd := min(end-base, guessScan*8)
	scanned := buf[:min(len(buf), int(scanEnd/8)+blockHeaderRead)]
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

// windowForLocked computes the stored window for an index entry of the
// unit currently being confirmed. unitWindow is the frontier window at
// the unit start. Caller holds c.mu.
func (c *gzipCodec) windowForLocked(m spanMeta, res *deflate.ChunkResult, unitWindow []byte) ([]byte, error) {
	if m.atMemberStart {
		return nil, nil
	}
	if m.startDecomp == c.frontierDecomp {
		w := make([]byte, len(unitWindow))
		copy(w, unitWindow)
		return w, nil
	}
	w, err := res.WindowAt(m.startDecomp-c.frontierDecomp, unitWindow)
	if err != nil {
		// A window-less seek point would only fail much later, as "no
		// window for chunk" on random access or after an index export.
		return nil, fmt.Errorf("core: window at split point %d: %w", m.startDecomp, err)
	}
	return w, nil
}

// recordMemberMarksLocked distributes the footer events of a freshly
// confirmed decode unit over its entries [unitStart, len(metas)). A
// member ending at decompressed offset X belongs to the entry whose
// span (start, start+size] contains X; the zero-length edge case (a
// member boundary exactly at the unit start) attaches to the first
// entry. Caller holds c.mu; the frontier has not advanced yet.
func (c *gzipCodec) recordMemberMarksLocked(unitStart int, res *deflate.ChunkResult) {
	e := unitStart
	for i := range res.Members {
		absEnd := c.frontierDecomp + res.Members[i].DecompOffset
		for e < len(c.metas)-1 && absEnd > c.metas[e].startDecomp+c.metas[e].size {
			e++
		}
		crc := res.Members[i].Footer.CRC32
		c.metas[e].members = append(c.metas[e].members, memberMark{absEnd: absEnd, crc: crc})
		// Mirror the mark into the index so an export→import round trip
		// restores it (and with it, full member verification).
		c.index.AddMemberEnd(c.metas[e].startBit,
			gzindex.MemberEnd{RelEnd: absEnd - c.metas[e].startDecomp, CRC32: crc})
	}
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
	c.mu.Lock()
	m := c.metas[i]
	c.mu.Unlock()
	// The marks are in order and inside the span: the decode recorded
	// them, or the index reader checked them.
	from := uint64(0)
	for _, mm := range m.members {
		end := mm.absEnd - m.startDecomp
		c.crcAcc = crc32x.Update(c.crcAcc, data[from:end])
		from = end
		if c.crcAcc != mm.crc {
			c.crcBroken = true
			c.cnt.crcFailures.Add(1)
			return
		}
		c.crcAcc = 0
	}
	c.crcAcc = crc32x.Update(c.crcAcc, data[from:])
	c.crcNext = i + 1
}

// crcStatus reports (verifiedSoFar, failures).
func (c *gzipCodec) crcStatus() (bool, uint64) {
	c.crcMu.Lock()
	defer c.crcMu.Unlock()
	return !c.crcBroken, c.cnt.crcFailures.Load()
}
