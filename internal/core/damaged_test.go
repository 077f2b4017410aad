package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"testing"

	"repro/internal/bitio"
	"repro/internal/deflate"
)

// craft writes a gzip member block by block, with stored blocks and
// fixed-Huffman blocks whose matches the test chooses — including ones
// no compressor would emit.
type craft struct {
	buf   bytes.Buffer
	w     *bitio.BitWriter
	out   uint32 // decompressed bytes of the current member so far
	plain []byte // the stored blocks' share of all members' output
}

func newCraft() *craft {
	c := &craft{}
	c.w = bitio.NewBitWriter(&c.buf)
	c.header()
	return c
}

func (c *craft) header() {
	c.w.WriteBytes([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff})
	c.out = 0
}

// footer ends the member; the CRC is not checked by these tests.
func (c *craft) footer() {
	var footer [8]byte
	binary.LittleEndian.PutUint32(footer[4:], c.out)
	c.w.AlignToByte()
	c.w.WriteBytes(footer[:])
}

// pos returns the compressed byte offset of the next block header.
func (c *craft) pos() int { return int(c.w.BitsWritten / 8) }

// noisy returns n random bytes none of which has its top three bits
// clear, so that no stored-block header can be found among them.
func noisy(seed int64, n int) []byte {
	b := mkRandom(seed, n)
	for i := range b {
		b[i] |= 0x20
	}
	return b
}

func (c *craft) stored(final bool, data []byte) {
	var bfinal uint64
	if final {
		bfinal = 1
	}
	c.w.WriteBits(bfinal, 3) // BFINAL, BTYPE=00
	c.w.AlignToByte()
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(data)))
	binary.LittleEndian.PutUint16(hdr[2:], ^uint16(len(data)))
	c.w.WriteBytes(hdr[:])
	c.w.WriteBytes(data)
	c.out += uint32(len(data))
	c.plain = append(c.plain, data...)
}

// code writes an n-bit Huffman code (codes are packed MSB first).
func (c *craft) code(v uint16, n uint) {
	c.w.WriteBits(uint64(bits.Reverse16(v)>>(16-n)), n)
}

func (c *craft) fixedOpen()  { c.w.WriteBits(0b010, 3) } // non-final, BTYPE=01
func (c *craft) fixedClose() { c.code(0, 7) }            // end of block

func (c *craft) lit(b byte) {
	if b < 144 {
		c.code(0x30+uint16(b), 8)
	} else {
		c.code(0x190+uint16(b)-144, 9)
	}
	c.out++
}

// match10 emits a match of length 10 (symbol 264) at a distance of
// 16385 + extra (distance symbol 28, 13 extra bits).
func (c *craft) match10Far(extra uint64) {
	c.code(264-256, 7)
	c.code(28, 5)
	c.w.WriteBits(extra, 13)
	c.out += 10
}

// run emits a literal and n matches of length 258 at distance 1.
func (c *craft) run(b byte, n int) {
	c.lit(b)
	for i := 0; i < n; i++ {
		c.code(0xC0+285-280, 8)
		c.code(0, 5)
		c.out += 258
	}
}

func (c *craft) finish(t *testing.T) []byte {
	c.footer()
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return c.buf.Bytes()
}

// TestUnresolvableSplitWindowFailsGrowth damages a stream so that a
// back-reference early in the third decode unit reaches before the
// start of the stream. The unit is decoded speculatively (the reference
// becomes a marker), follows less than 32 KiB of output (its window is
// short, the marker falls before it), and is split; the marker lies in
// the window of the split point but not in the unit's final window.
// Confirming the unit has to fail there and then: it used to record the
// split point without a window, so building and exporting the index
// succeeded and only a later random access failed, as "no window for
// chunk".
func TestUnresolvableSplitWindowFailsGrowth(t *testing.T) {
	const chunk = 8 << 10
	c := newCraft()
	// Units 0 and 1 are decoded on demand (speculation starts two cells
	// past the frontier); each ends with a block straddling its cell's end.
	c.stored(false, mkRandom(1, 8000))
	c.stored(false, mkRandom(2, 500))
	c.stored(false, mkRandom(3, 7600))
	c.stored(false, mkRandom(4, 500))
	if c.pos() < 2*chunk || c.pos() >= 3*chunk {
		t.Fatalf("unit 2 must start in cell 2, not at byte %d", c.pos())
	}
	before := c.out // 16600: a short window
	c.stored(false, mkRandom(5, 10))
	c.fixedOpen()
	c.match10Far(20000 - 16385) // 20000 back from output position 16610
	c.fixedClose()
	c.stored(false, mkRandom(6, 4000))
	c.fixedOpen()
	c.run('a', 20) // 5 KiB
	c.fixedClose()
	split := c.out - before
	c.stored(false, mkRandom(7, 4000)) // the split point, 9 KiB into the unit
	c.fixedOpen()
	c.run('b', 160) // 40 KiB: the unit's final window is all run
	c.fixedClose()
	if c.pos() < 3*chunk {
		t.Fatalf("unit 2 must run past cell 2, not end at byte %d", c.pos())
	}
	c.stored(false, mkRandom(8, 1000))
	c.stored(true, mkRandom(9, 100))
	comp := c.finish(t)
	if split < chunk || split > deflate.WindowSize {
		t.Fatalf("split point %d bytes into unit 2: want it past one chunk and within a window of the bad reference", split)
	}

	r := open(t, comp, Config{Parallelism: 2, ChunkSize: chunk})
	err := r.eng.EnsureComplete()
	if !errors.Is(err, deflate.ErrBadMarker) {
		t.Fatalf("BuildIndex over the damaged stream: got %v, want the split point's window to fail with ErrBadMarker (%+v)", err, r.eng.Stats())
	}
	if err := r.exportIndex(&bytes.Buffer{}); err == nil {
		t.Fatal("ExportIndex succeeded over a stream whose index cannot be completed")
	}
}
