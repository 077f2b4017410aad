package gzindex

import (
	"bytes"
	"errors"
	"io"
	"strings"
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
// stream of the declared length pass the import, whose checksums they
// were written under, and are ErrCorrupt when the window is asked for.
func TestBadWindowSurfacesOnFirstUse(t *testing.T) {
	ix := goldenIndex(t)
	var bad, good uint64
	for off, w := range ix.windows {
		if bad == 0 && len(w.raw) > 8 {
			bad = off
		} else {
			good = off
		}
	}
	// A zero byte opens a stored block, and zeros behind it fail its
	// length check.
	ix.windows[bad] = &Window{comp: make([]byte, 40), rawLen: len(ix.windows[bad].raw)}
	forged := serialized(t, ix)
	for _, p := range readPaths {
		got, err := p.read(forged)
		if err != nil {
			t.Fatalf("%s: import of an index with an uninflatable window: %v", p.name, err)
		}
		for i := 0; i < 2; i++ {
			if _, ok, err := windowBytes(got, bad); !ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: call %d: Bytes of the forged window: ok=%v err=%v", p.name, i, ok, err)
			}
		}
		if _, ok, err := windowBytes(got, good); !ok || err != nil {
			t.Fatalf("%s: the window next to it: ok=%v err=%v", p.name, ok, err)
		}
	}
}

// TestWindowFailingItsCRCFromAFile: a byte of a window flipped in an
// index file passes the import, which reads no window, and fails that
// window's Bytes with ErrCorrupt on every call; the other windows still
// serve, and nothing inflates the flipped bytes.
func TestWindowFailingItsCRCFromAFile(t *testing.T) {
	raw := serialized(t, goldenIndex(t))
	raw[len(raw)-3] ^= 0x01 // in the last window, the short tail one
	ix, err := ReadAt(bytes.NewReader(raw), int64(len(raw)), nil)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := windowBytes(ix, 220_111); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "CRC32") {
			t.Fatalf("call %d: the flipped window: %v", i, err)
		}
	}
	if w, _, err := windowBytes(ix, 100_003); err != nil || len(w) != 32768 {
		t.Fatalf("the window before it: %d bytes, %v", len(w), err)
	}
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the same bytes from a stream: %v", err)
	}
}

// TestRestoredWindow: a window that fails its CRC32 in an index file
// fails Check as it fails Bytes; restored with its bytes, which must be
// as long as it is, it serves them, passes Check, and the index writes
// back to what it was before the flip. A window inflated before its file
// lost it is written back from memory.
func TestRestoredWindow(t *testing.T) {
	want := serialized(t, goldenIndex(t))
	raw := bytes.Clone(want)
	raw[len(raw)-3] ^= 0x01 // in the last window, the short tail one
	ix, err := ReadAt(bytes.NewReader(raw), int64(len(raw)), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ix.Window(220_111)
	if err := w.Check(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Check of the flipped window: %v", err)
	}
	if _, err := ix.WriteTo(io.Discard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WriteTo with the flipped window: %v", err)
	}
	tail := []byte("short tail window")
	if w.Len() != len(tail) {
		t.Fatalf("Len %d, want %d", w.Len(), len(tail))
	}
	if err := w.Restore(tail[1:]); err == nil {
		t.Fatal("a restore of the wrong length was taken")
	}
	if err := w.Restore(bytes.Clone(tail)); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Bytes(); err != nil || !bytes.Equal(got, tail) || w.Check() != nil {
		t.Fatalf("restored: %q, %v", got, err)
	}
	if out := serialized(t, ix); !bytes.Equal(out, want) {
		t.Fatalf("written back after the restore: %d bytes, want the %d before the flip", len(out), len(want))
	}

	// The other window, inflated, then its file cut short.
	cut := bytes.Clone(want)
	ix, err = ReadAt(bytes.NewReader(cut), int64(len(cut)), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ = ix.Window(100_003)
	if _, err := w.Bytes(); err != nil {
		t.Fatal(err)
	}
	for i := range cut {
		cut[i] = 0
	}
	if err := w.Check(); err != nil {
		t.Fatalf("Check of an inflated window: %v", err)
	}
	w2, _ := ix.Window(220_111)
	if err := w2.Restore([]byte("short tail window")); err != nil {
		t.Fatal(err)
	}
	if out := serialized(t, ix); !bytes.Equal(out, want) {
		t.Fatalf("written back from memory: %d bytes, want %d", len(out), len(want))
	}
}
