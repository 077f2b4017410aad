package gzformat

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func parse(t *testing.T, raw []byte) (Header, error) {
	t.Helper()
	return ParseHeader(bitio.NewBitReaderBytes(raw))
}

func TestHeaderRoundTrip(t *testing.T) {
	cases := []WriteHeaderOptions{
		{},
		{Name: "file.tar"},
		{Comment: "hello world"},
		{Name: "a", Comment: "b", ModTime: 123456, OS: 3},
		{Extra: BGZFExtra(1234)},
		{Name: "x.gz", Extra: []byte{'A', 'B', 2, 0, 0xFF, 0xFE}},
	}
	for i, opts := range cases {
		var buf bytes.Buffer
		n, err := WriteHeader(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n != buf.Len() {
			t.Fatalf("case %d: reported size %d, wrote %d", i, n, buf.Len())
		}
		h, err := parse(t, buf.Bytes())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if h.Name != opts.Name || h.Comment != opts.Comment || h.ModTime != opts.ModTime {
			t.Fatalf("case %d: round trip mismatch: %+v", i, h)
		}
		if h.HeaderSz != n {
			t.Fatalf("case %d: HeaderSz %d != written %d", i, h.HeaderSz, n)
		}
		if !bytes.Equal(h.Extra, opts.Extra) {
			t.Fatalf("case %d: extra mismatch", i)
		}
	}
}

func TestStdlibInterop(t *testing.T) {
	// Headers written by the stdlib gzip writer must parse, and our
	// headers must be accepted by the stdlib reader.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Name = "inner.txt"
	zw.Comment = "stdlib header"
	zw.Write([]byte("payload"))
	zw.Close()

	h, err := parse(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "inner.txt" || h.Comment != "stdlib header" {
		t.Fatalf("parsed %+v", h)
	}

	var ours bytes.Buffer
	WriteHeader(&ours, WriteHeaderOptions{Name: "n", OS: 255})
	// Complete the member with an empty deflate stream + footer.
	fw, _ := gzip.NewWriterLevel(io.Discard, gzip.NoCompression)
	_ = fw
	ours.Write([]byte{0x03, 0x00}) // final fixed empty block
	WriteFooter(&ours, 0, 0)
	zr, err := gzip.NewReader(bytes.NewReader(ours.Bytes()))
	if err != nil {
		t.Fatalf("stdlib rejected our header: %v", err)
	}
	if zr.Name != "n" {
		t.Fatalf("stdlib parsed name %q", zr.Name)
	}
	if _, err := io.ReadAll(zr); err != nil {
		t.Fatalf("stdlib decode: %v", err)
	}
}

func TestBGZFExtraRoundTrip(t *testing.T) {
	f := func(bsizeRaw uint16) bool {
		bsize := int(bsizeRaw)%65535 + 1
		var buf bytes.Buffer
		WriteHeader(&buf, WriteHeaderOptions{Extra: BGZFExtra(bsize)})
		h, err := parse(t, buf.Bytes())
		return err == nil && h.BGZFBlockSize == bsize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBGZFExtraAmongOtherSubfields(t *testing.T) {
	extra := append([]byte{'X', 'Y', 3, 0, 1, 2, 3}, BGZFExtra(999)...)
	extra = append(extra, 'Z', 'Z', 1, 0, 7)
	var buf bytes.Buffer
	WriteHeader(&buf, WriteHeaderOptions{Extra: extra})
	h, err := parse(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.BGZFBlockSize != 999 {
		t.Fatalf("BGZF size %d, want 999", h.BGZFBlockSize)
	}
}

func TestNotGzip(t *testing.T) {
	for _, raw := range [][]byte{
		[]byte("plain text, nothing like gzip"),
		{0x1F, 0x8B, 7, 0, 0, 0, 0, 0, 0, 0}, // wrong CM
		{0x1F, 0x8C, 8, 0, 0, 0, 0, 0, 0, 0}, // wrong ID2
		{0x50, 0x4B, 3, 4, 0, 0, 0, 0, 0, 0}, // ZIP local header
	} {
		if _, err := parse(t, raw); !errors.Is(err, ErrNotGzip) {
			t.Fatalf("%x: got %v, want ErrNotGzip", raw[:4], err)
		}
	}
}

// TestReservedFlagBitsIgnored: a header with a reserved flag bit set
// parses as compress/gzip reads it, the fields the other bits announce
// included.
func TestReservedFlagBitsIgnored(t *testing.T) {
	var full bytes.Buffer
	WriteHeader(&full, WriteHeaderOptions{Name: "abcdef", Extra: BGZFExtra(55)})
	for bit := 5; bit < 8; bit++ {
		raw := bytes.Clone(full.Bytes())
		raw[3] |= 1 << bit
		h, err := parse(t, raw)
		if err != nil || h.Name != "abcdef" || h.BGZFBlockSize != 55 {
			t.Fatalf("flag bit %d: %+v, %v", bit, h, err)
		}
		if _, err := gzip.NewReader(bytes.NewReader(raw)); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("flag bit %d: compress/gzip: %v", bit, err)
		}
	}
}

func TestTruncatedHeader(t *testing.T) {
	var full bytes.Buffer
	WriteHeader(&full, WriteHeaderOptions{Name: "abcdef", Extra: BGZFExtra(55)})
	raw := full.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := parse(t, raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFooterRoundTrip(t *testing.T) {
	f := func(crc uint32, isize uint32) bool {
		var buf bytes.Buffer
		WriteFooter(&buf, crc, uint64(isize))
		got, err := ParseFooter(bitio.NewBitReaderBytes(buf.Bytes()))
		return err == nil && got.CRC32 == crc && got.ISize == isize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFooterISizeModulo(t *testing.T) {
	// ISIZE is the size mod 2^32 (RFC 1952).
	var buf bytes.Buffer
	WriteFooter(&buf, 1, (1<<32)+7)
	got, err := ParseFooter(bitio.NewBitReaderBytes(buf.Bytes()))
	if err != nil || got.ISize != 7 {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func TestCRCMatchesStdlib(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	crc := UpdateCRC(0, data[:10])
	crc = UpdateCRC(crc, data[10:])
	if want := crc32.ChecksumIEEE(data); crc != want {
		t.Fatalf("crc %08x, want %08x", crc, want)
	}
}

func TestSniff(t *testing.T) {
	var gz bytes.Buffer
	WriteHeader(&gz, WriteHeaderOptions{Name: "x"})

	var bgzf bytes.Buffer
	WriteHeader(&bgzf, WriteHeaderOptions{Extra: BGZFExtra(100)})

	// BGZF with a foreign subfield before "BC" still classifies.
	foreign := append([]byte{'X', 'Y', 2, 0, 7, 7}, BGZFExtra(100)...)
	var bgzf2 bytes.Buffer
	WriteHeader(&bgzf2, WriteHeaderOptions{Extra: foreign})

	cases := []struct {
		name   string
		prefix []byte
		want   Kind
	}{
		{"gzip", gz.Bytes(), KindGzip},
		{"bgzf", bgzf.Bytes(), KindBGZF},
		{"bgzf-foreign-subfield", bgzf2.Bytes(), KindBGZF},
		{"gzip-extra-not-bgzf", append([]byte{ID1, ID2, CM, flagExtra, 0, 0, 0, 0, 0, 255, 4, 0}, 'Z', 'Z', 0, 0), KindGzip},
		{"bzip2", []byte("BZh91AY&SY"), KindBzip2},
		{"bzip2-bad-level", []byte("BZh01AY&SY"), KindUnknown},
		{"lz4", []byte{0x04, 0x22, 0x4D, 0x18, 0x40}, KindLZ4},
		{"zstd", []byte{0x28, 0xB5, 0x2F, 0xFD}, KindZstd},
		{"zstd-skippable-lead", []byte{0x50, 0x2A, 0x4D, 0x18, 4, 0, 0, 0}, KindZstd},
		{"zstd-skippable-max", []byte{0x5F, 0x2A, 0x4D, 0x18, 0, 0, 0, 0}, KindZstd},
		{"zstd-short", []byte{0x28, 0xB5, 0x2F}, KindUnknown},
		{"empty", nil, KindUnknown},
		{"short-gzip", []byte{ID1, ID2}, KindUnknown},
		{"text", []byte("hello world, definitely not compressed"), KindUnknown},
	}
	for _, c := range cases {
		if got := Sniff(c.prefix); got != c.want {
			t.Errorf("%s: Sniff = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSniffTruncatedBGZFHeaderIsGzip(t *testing.T) {
	var bgzf bytes.Buffer
	WriteHeader(&bgzf, WriteHeaderOptions{Extra: BGZFExtra(100)})
	// With the extra field cut off, the safe answer is plain gzip.
	if got := Sniff(bgzf.Bytes()[:11]); got != KindGzip {
		t.Fatalf("Sniff(truncated bgzf) = %v, want %v", got, KindGzip)
	}
}
