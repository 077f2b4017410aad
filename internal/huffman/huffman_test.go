package huffman

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func TestValidateFigure6(t *testing.T) {
	// The three example codes from the paper's Figure 6.
	cases := []struct {
		lengths []uint8
		want    error
	}{
		{[]uint8{1, 1, 1}, ErrOversubscribed}, // left: three 1-bit symbols
		{[]uint8{2, 2, 2}, ErrIncomplete},     // middle: code 11 unused
		{[]uint8{2, 2, 1}, nil},               // right: complete
	}
	for i, c := range cases {
		if got := Validate(c.lengths, false); got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestValidateSpecialCases(t *testing.T) {
	if err := Validate([]uint8{0, 0, 0}, false); err != ErrNoSymbols {
		t.Errorf("all-zero: %v", err)
	}
	// Single symbol of length 1 is incomplete, but allowed for distance codes.
	if err := Validate([]uint8{1, 0}, false); err != ErrIncomplete {
		t.Errorf("single strict: %v", err)
	}
	if err := Validate([]uint8{1, 0}, true); err != nil {
		t.Errorf("single lenient: %v", err)
	}
	// Two single-length-1 symbols form a complete code.
	if err := Validate([]uint8{1, 1}, false); err != nil {
		t.Errorf("two 1-bit: %v", err)
	}
	if err := Validate([]uint8{16}, false); err != ErrTooManyBits {
		t.Errorf("too long: %v", err)
	}
}

func TestDecoderKnownCode(t *testing.T) {
	// Lengths A=2, B=2, C=1 (Figure 6 right). Canonical: C=0, A=10, B=11.
	d, err := NewDecoder([]uint8{2, 2, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := bitio.NewBitWriter(&buf)
	// Emit C A B C. LSB-first writer wants bit-reversed codes:
	// C=0 (1 bit), A=10 -> reversed 01, B=11 -> reversed 11.
	w.WriteBits(0, 1)
	w.WriteBits(0b01, 2)
	w.WriteBits(0b11, 2)
	w.WriteBits(0, 1)
	w.Flush()
	r := bitio.NewBitReaderBytes(buf.Bytes())
	want := []uint16{2, 0, 1, 2}
	for i, sym := range want {
		got, err := d.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != sym {
			t.Fatalf("symbol %d: got %d want %d", i, got, sym)
		}
	}
}

func TestDecoderInvalidPrefix(t *testing.T) {
	// Single-symbol incomplete code: code "0" decodes, code "1" is invalid.
	d, err := NewDecoder([]uint8{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	r := bitio.NewBitReaderBytes([]byte{0xFF})
	if _, err := d.Decode(r); err != ErrBadSymbol {
		t.Fatalf("got %v", err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nsyms := 2 + rng.Intn(285)
		freqs := make([]int, nsyms)
		for i := range freqs {
			if rng.Intn(3) > 0 {
				freqs[i] = 1 + rng.Intn(10000)
			}
		}
		lengths, err := BuildLengths(freqs, MaxBits)
		if err != nil {
			t.Logf("BuildLengths: %v", err)
			return false
		}
		used := 0
		for _, l := range lengths {
			if l > 0 {
				used++
			}
		}
		if err := Validate(lengths, used <= 1); err != nil {
			t.Logf("Validate: %v (lengths %v)", err, lengths)
			return false
		}
		enc, err := NewEncoder(lengths)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(lengths, used <= 1)
		if err != nil {
			t.Logf("NewDecoder: %v", err)
			return false
		}
		// Encode a random symbol sequence (only used symbols).
		var symbols []uint16
		for i := 0; i < 500; i++ {
			s := rng.Intn(nsyms)
			if lengths[s] > 0 {
				symbols = append(symbols, uint16(s))
			}
		}
		var buf bytes.Buffer
		w := bitio.NewBitWriter(&buf)
		for _, s := range symbols {
			w.WriteBits(uint64(enc.Codes[s]), uint(lengths[s]))
		}
		w.Flush()
		r := bitio.NewBitReaderBytes(buf.Bytes())
		for _, s := range symbols {
			got, err := dec.Decode(r)
			if err != nil || got != s {
				t.Logf("decode got %d err %v want %d", got, err, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLengthsRespectsLimit(t *testing.T) {
	// Fibonacci-like frequencies force deep unlimited Huffman trees;
	// package-merge must cap the depth.
	freqs := make([]int, 30)
	a, b := 1, 1
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	for _, limit := range []uint{7, 9, 15} {
		lengths, err := BuildLengths(freqs, limit)
		if err != nil {
			t.Fatal(err)
		}
		for sym, l := range lengths {
			if uint(l) > limit {
				t.Fatalf("limit %d: symbol %d got length %d", limit, sym, l)
			}
		}
		if err := Validate(lengths, false); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
	}
}

func TestBuildLengthsOptimality(t *testing.T) {
	// For a power-of-two uniform distribution the optimal code is flat.
	freqs := []int{5, 5, 5, 5}
	lengths, err := BuildLengths(freqs, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if l != 2 {
			t.Fatalf("got %v", lengths)
		}
	}
}

func TestBuildLengthsDegenerate(t *testing.T) {
	lengths, err := BuildLengths([]int{0, 0, 7, 0}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[2] != 1 {
		t.Fatalf("single-symbol: %v", lengths)
	}
	lengths, err = BuildLengths([]int{0, 0, 0}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[0] != 1 {
		t.Fatalf("no-symbol: %v", lengths)
	}
}

func TestDecoderLongCodes(t *testing.T) {
	// Construct a code with lengths spanning the sub-table boundary
	// (root is 9 bits): lengths 1..15 in a complete code.
	lengths := make([]uint8, 16)
	for i := 1; i <= 14; i++ {
		lengths[i-1] = uint8(i)
	}
	lengths[14] = 15
	lengths[15] = 15
	if err := Validate(lengths, false); err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := bitio.NewBitWriter(&buf)
	for s := 0; s < 16; s++ {
		w.WriteBits(uint64(enc.Codes[s]), uint(lengths[s]))
	}
	w.Flush()
	r := bitio.NewBitReaderBytes(buf.Bytes())
	for s := 0; s < 16; s++ {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", s, err)
		}
		if got != uint16(s) {
			t.Fatalf("symbol %d: got %d", s, got)
		}
	}
}

func BenchmarkDecoderInit(b *testing.B) {
	// Cost of building the literal decoder for a typical Dynamic Block.
	rng := rand.New(rand.NewSource(1))
	freqs := make([]int, 286)
	for i := range freqs {
		freqs[i] = 1 + rng.Intn(1000)
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		b.Fatal(err)
	}
	var d Decoder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Init(lengths, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	freqs := make([]int, 286)
	for i := range freqs {
		freqs[i] = 1 + rng.Intn(1000)
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoder(lengths)
	dec, _ := NewDecoder(lengths, false)
	var buf bytes.Buffer
	w := bitio.NewBitWriter(&buf)
	const n = 100000
	for i := 0; i < n; i++ {
		s := rng.Intn(286)
		w.WriteBits(uint64(enc.Codes[s]), uint(lengths[s]))
	}
	w.Flush()
	data := buf.Bytes()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewBitReaderBytes(data)
		for j := 0; j < n; j++ {
			if _, err := dec.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The Deflate special case: a code with a single used symbol may be
// incomplete ("if only one distance code is used, it is encoded using
// one bit"). The decoder must build it when allowed, resolve the one
// code, reject the unused prefix, and still refuse the table when the
// caller demands completeness.
func TestIncompleteSingleCode(t *testing.T) {
	lengths := make([]uint8, 30)
	lengths[4] = 1 // one distance code, one bit: "0" means symbol 4

	if _, err := NewDecoder(lengths, false); err != ErrIncomplete {
		t.Fatalf("strict build: %v, want ErrIncomplete", err)
	}
	dec, err := NewDecoder(lengths, true)
	if err != nil {
		t.Fatal(err)
	}
	// Stream "0 1": the first bit decodes symbol 4, the second hits the
	// unused half of the table.
	r := bitio.NewBitReaderBytes([]byte{0b10})
	if got, err := dec.Decode(r); err != nil || got != 4 {
		t.Fatalf("decode: %d, %v", got, err)
	}
	if _, err := dec.Decode(r); err != ErrBadSymbol {
		t.Fatalf("unused prefix: %v, want ErrBadSymbol", err)
	}

	// A lone code longer than one bit is not that special case: zlib and
	// compress/flate reject it, and so codes longer than the root exist in
	// complete codes only, which Init's table sizing counts on.
	for _, l := range []uint8{2, RootBits + 1, MaxBits} {
		lengths[4] = l
		if _, err := NewDecoder(lengths, true); err != ErrIncomplete {
			t.Fatalf("lone %d-bit code: %v, want ErrIncomplete", l, err)
		}
	}

	// Multi-symbol incomplete codes stay invalid even when the
	// single-code exception is allowed.
	lengths[4] = 1
	lengths[7] = 2
	if _, err := NewDecoder(lengths, true); err != ErrIncomplete {
		t.Fatalf("two-symbol incomplete: %v, want ErrIncomplete", err)
	}
}
