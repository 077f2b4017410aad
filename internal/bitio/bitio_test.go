package bitio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadSingleBits(t *testing.T) {
	// 0b10110100, 0b01101001 — LSB first yields 0,0,1,0,1,1,0,1 then 1,0,0,1,0,1,1,0.
	r := NewBitReaderBytes([]byte{0xB4, 0x96})
	want := []uint64{0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1}
	for i, w := range want {
		got, err := r.Read(1)
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("bit %d: got %d want %d", i, got, w)
		}
	}
	if _, err := r.Read(1); err != io.ErrUnexpectedEOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadMultiBit(t *testing.T) {
	r := NewBitReaderBytes([]byte{0xB4, 0x96, 0x5A})
	v, err := r.Read(3)
	if err != nil || v != 0b100 {
		t.Fatalf("got %b err %v", v, err)
	}
	v, err = r.Read(13)
	if err != nil {
		t.Fatal(err)
	}
	// Remaining bits of 0xB4 (10110) then 0x96 (10010110).
	want := uint64(0x96)<<5 | 0b10110
	if v != want {
		t.Fatalf("got %#x want %#x", v, want)
	}
	if r.BitPos() != 16 {
		t.Fatalf("BitPos = %d", r.BitPos())
	}
}

func TestBitPosAndSeek(t *testing.T) {
	data := make([]byte, 1024)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	r := NewBitReaderBytes(data)

	for trial := 0; trial < 2000; trial++ {
		off := uint64(rng.Intn(len(data)*8 - 64))
		if err := r.SeekBits(off); err != nil {
			t.Fatal(err)
		}
		if r.BitPos() != off {
			t.Fatalf("BitPos after seek = %d want %d", r.BitPos(), off)
		}
		n := uint(1 + rng.Intn(57))
		got, err := r.Read(n)
		if err != nil {
			t.Fatal(err)
		}
		want := extractBits(data, off, n)
		if got != want {
			t.Fatalf("off=%d n=%d: got %#x want %#x", off, n, got, want)
		}
		if r.BitPos() != off+uint64(n) {
			t.Fatalf("BitPos after read = %d want %d", r.BitPos(), off+uint64(n))
		}
	}
}

// extractBits is a trivially-correct reference implementation.
func extractBits(data []byte, off uint64, n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit := off + uint64(i)
		if data[bit/8]>>(bit%8)&1 == 1 {
			v |= 1 << i
		}
	}
	return v
}

func TestReaderAtSource(t *testing.T) {
	data := make([]byte, 300*1024) // spans multiple refill windows
	rng := rand.New(rand.NewSource(2))
	rng.Read(data)
	r := NewBitReader(bytes.NewReader(data), int64(len(data)))
	ref := NewBitReaderBytes(data)
	for {
		a, errA := r.Read(11)
		b, errB := ref.Read(11)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error mismatch: %v vs %v", errA, errB)
		}
		if errA != nil {
			break
		}
		if a != b {
			t.Fatalf("mismatch at pos %d: %#x vs %#x", ref.BitPos(), a, b)
		}
	}
}

func TestReaderAtSeek(t *testing.T) {
	data := make([]byte, 512*1024)
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	r := NewBitReader(bytes.NewReader(data), int64(len(data)))
	for trial := 0; trial < 500; trial++ {
		off := uint64(rng.Intn(len(data)*8 - 64))
		if err := r.SeekBits(off); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(33)
		if err != nil {
			t.Fatal(err)
		}
		if want := extractBits(data, off, 33); got != want {
			t.Fatalf("off=%d: got %#x want %#x", off, got, want)
		}
	}
}

func TestPeekAndSkip(t *testing.T) {
	data := []byte{0xAA, 0x55, 0xFF, 0x00, 0x12}
	r := NewBitReaderBytes(data)
	v, avail := r.Peek(16)
	if avail != 16 || v != 0x55AA {
		t.Fatalf("peek got %#x avail %d", v, avail)
	}
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	v, _ = r.Peek(8)
	if v != 0x5A {
		t.Fatalf("peek after skip got %#x", v)
	}
	// Peek near EOF zero-pads.
	if err := r.SeekBits(uint64(len(data)*8 - 3)); err != nil {
		t.Fatal(err)
	}
	v, avail = r.Peek(10)
	if avail != 3 {
		t.Fatalf("avail = %d", avail)
	}
	if v != 0 { // 0x12 = 00010010; top 3 bits are 000
		t.Fatalf("peek near EOF got %#x", v)
	}
}

func TestAlignAndReadFull(t *testing.T) {
	data := []byte{0xFF, 0x01, 0x02, 0x03, 0x04}
	r := NewBitReaderBytes(data)
	if _, err := r.Read(3); err != nil {
		t.Fatal(err)
	}
	if n := r.AlignToByte(); n != 5 {
		t.Fatalf("skipped %d padding bits", n)
	}
	got := make([]byte, 4)
	if err := r.ReadFull(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
	// Align when already aligned is a no-op.
	r.Reset(data)
	if n := r.AlignToByte(); n != 0 {
		t.Fatalf("skipped %d", n)
	}
}

func TestReadFullAcrossRefills(t *testing.T) {
	data := make([]byte, 400*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := NewBitReader(bytes.NewReader(data), int64(len(data)))
	if _, err := r.Read(8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data)-1)
	if err := r.ReadFull(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1:]) {
		t.Fatal("ReadFull across refills mismatch")
	}
}

func TestSeekOutOfRange(t *testing.T) {
	r := NewBitReaderBytes(make([]byte, 4))
	if err := r.SeekBits(33); err != ErrSeekOutOfRange {
		t.Fatalf("got %v", err)
	}
	if err := r.SeekBits(32); err != nil { // exactly EOF is fine
		t.Fatal(err)
	}
	if _, err := r.Read(1); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v", err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			v uint64
			n uint
		}
		var ops []op
		for i := 0; i < 200; i++ {
			n := uint(1 + rng.Intn(57))
			ops = append(ops, op{rng.Uint64() & (1<<n - 1), n})
		}
		var buf bytes.Buffer
		w := NewBitWriter(&buf)
		var total uint64
		for _, o := range ops {
			w.WriteBits(o.v, o.n)
			total += uint64(o.n)
		}
		if w.BitsWritten != total {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewBitReaderBytes(buf.Bytes())
		for _, o := range ops {
			v, err := r.Read(o.n)
			if err != nil || v != o.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterAlignAndBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewBitWriter(&buf)
	w.WriteBits(0b101, 3)
	if n := w.AlignToByte(); n != 5 {
		t.Fatalf("pad = %d", n)
	}
	w.WriteBytes([]byte{0xDE, 0xAD})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), []byte{0b101, 0xDE, 0xAD}) {
		t.Fatalf("got %x", buf.Bytes())
	}
	if w.BitsWritten != 24 {
		t.Fatalf("BitsWritten = %d", w.BitsWritten)
	}
}

func TestWriterLargeBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewBitWriter(&buf)
	big := make([]byte, 10000)
	for i := range big {
		big[i] = byte(i)
	}
	w.WriteBits(1, 1)
	w.AlignToByte()
	w.WriteBytes(big)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{1}, big...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("large WriteBytes mismatch")
	}
}

func TestRemainingBits(t *testing.T) {
	r := NewBitReaderBytes(make([]byte, 10))
	if r.RemainingBits() != 80 {
		t.Fatalf("got %d", r.RemainingBits())
	}
	r.Read(13)
	if r.RemainingBits() != 67 {
		t.Fatalf("got %d", r.RemainingBits())
	}
}

func BenchmarkBitReaderRead(b *testing.B) {
	// Figure 7: bandwidth of BitReader.Read for varying bits per call.
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(7)).Read(data)
	for _, bits := range []uint{1, 2, 4, 8, 12, 16, 24, 30} {
		b.Run(benchName(bits), func(b *testing.B) {
			r := NewBitReaderBytes(data)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				total := uint64(len(data)) * 8
				for read := uint64(0); read+uint64(bits) <= total; read += uint64(bits) {
					if _, err := r.Read(bits); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func benchName(bits uint) string {
	return "bits=" + string(rune('0'+bits/10)) + string(rune('0'+bits%10))
}

// BenchmarkViewCommitRefill isolates the wide-refill discipline the
// decode hot loops inline via View/Commit: one 8-byte load tops the
// accumulator up to 56..63 bits, then several variable-width takes
// drain it. Compare against BenchmarkBitReaderRead to see what the
// per-call Read overhead costs.
func BenchmarkViewCommitRefill(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 2654435761 >> 7)
	}
	r := NewBitReaderBytes(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		buf, pos, bits, nbits := r.View()
		for pos+8 <= len(buf) {
			bits |= binary.LittleEndian.Uint64(buf[pos:]) << nbits
			pos += int((63 - nbits) >> 3)
			nbits |= 56
			// Four 13-bit takes per refill, mirroring the Huffman
			// loop's symbols-per-refill budget.
			for k := 0; k < 4; k++ {
				sink += bits & (1<<13 - 1)
				bits >>= 13
				nbits -= 13
			}
		}
		r.Commit(pos, bits, nbits)
	}
	benchSink = sink
}

var benchSink uint64
