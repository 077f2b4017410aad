package gzindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// windowBytes is Window and Bytes in one call.
func windowBytes(ix *Index, off uint64) ([]byte, bool, error) {
	w, ok := ix.Window(off)
	if !ok {
		return nil, false, nil
	}
	b, err := w.Bytes()
	return b, true, err
}

func serialized(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWindowsInflateOnFirstUse: an import keeps every window as the
// flate bytes of the file, Window inflates the one asked for, once, and
// writing the index back out gives the file it was read from.
func TestWindowsInflateOnFirstUse(t *testing.T) {
	want := goldenIndex(t)
	raw := serialized(t, want)
	ix, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.windows) < 2 {
		t.Fatalf("golden index has %d windows", len(ix.windows))
	}
	for off, w := range ix.windows {
		if w.raw != nil {
			t.Fatalf("import inflated the window at bit %d", off)
		}
	}
	var first uint64
	for off := range ix.windows {
		first = off
		break
	}
	w1, ok, err := windowBytes(ix, first)
	wantWin, _, _ := windowBytes(want, first)
	if err != nil || !ok || !bytes.Equal(w1, wantWin) {
		t.Fatalf("window at bit %d: ok=%v err=%v", first, ok, err)
	}
	w2, _, _ := windowBytes(ix, first)
	if len(w1) > 0 && &w1[0] != &w2[0] {
		t.Fatal("second Bytes call inflated again")
	}
	for off, w := range ix.windows {
		if (w.raw != nil) != (off == first) {
			t.Fatalf("after one Bytes call: window at bit %d inflated=%v", off, w.raw != nil)
		}
	}
	if out := serialized(t, ix); !bytes.Equal(out, raw) {
		t.Fatal("re-export of an imported index differs from the file it was read from")
	}
}

// TestBadWindowSurfacesOnFirstUse: window bytes that are not a flate
// stream of the declared length pass the import, whose checksum they
// were written under, and are ErrCorrupt when the window is asked for.
func TestBadWindowSurfacesOnFirstUse(t *testing.T) {
	raw := serialized(t, goldenIndex(t))
	clean, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var bad, good uint64
	for off, w := range clean.windows {
		if bad == 0 && len(w.comp) > 8 {
			bad = off
		} else {
			good = off
		}
	}
	// A zero byte opens a stored block, and zeros behind it fail its
	// length check.
	at := bytes.Index(raw, clean.windows[bad].comp)
	forged := bytes.Clone(raw)
	clear(forged[at : at+len(clean.windows[bad].comp)])
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.ChecksumIEEE(forged[:len(forged)-4]))

	ix, err := Read(bytes.NewReader(forged))
	if err != nil {
		t.Fatalf("import of an index with an uninflatable window: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := windowBytes(ix, bad); !ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("call %d: Bytes of the forged window: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := windowBytes(ix, good); !ok || err != nil {
		t.Fatalf("the window next to it: ok=%v err=%v", ok, err)
	}
}
