package filereader

import (
	"fmt"
	"io"
)

// Walker parses a FileReader sequentially with bounded memory: a
// Peek/Next request the buffered bytes cannot serve reads what it asks
// for and no more, and Skip advances past payloads without reading
// them. It is the primitive the span-engine sizing passes use to walk
// frame and block headers of a file larger than RAM — the windowed
// counterpart of slicing a whole-file buffer. A walk from header to
// header reads the headers alone, one read each, whatever the payloads
// between them weigh.
//
// A Walker is not safe for concurrent use; every sizing pass owns its
// own.
type Walker struct {
	src  FileReader
	size int64

	buf    []byte // buffered bytes, absolute range [bufOff, bufOff+len(buf))
	bufOff int64
	pos    int64
}

// NewWalker returns a Walker positioned at offset 0.
func NewWalker(src FileReader) *Walker {
	return &Walker{src: src, size: src.Size()}
}

// Pos returns the current absolute offset.
func (w *Walker) Pos() int64 { return w.pos }

// Size returns the source size.
func (w *Walker) Size() int64 { return w.size }

// Remaining returns the bytes between the current position and EOF
// (negative after a Skip past the end — the caller's truncation check).
func (w *Walker) Remaining() int64 { return w.size - w.pos }

// Peek returns exactly n bytes at the current position without
// advancing. The slice is valid until the next Walker call. Fewer than
// n bytes before EOF is io.ErrUnexpectedEOF; read failures are ErrIO.
func (w *Walker) Peek(n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	if w.pos < w.bufOff || w.pos+int64(n) > w.bufOff+int64(len(w.buf)) {
		if err := w.refill(n); err != nil {
			return nil, err
		}
	}
	i := int(w.pos - w.bufOff)
	return w.buf[i : i+n], nil
}

// Next returns exactly n bytes at the current position and advances
// past them. The slice is valid until the next Walker call.
func (w *Walker) Next(n int) ([]byte, error) {
	b, err := w.Peek(n)
	if err != nil {
		return nil, err
	}
	w.pos += int64(n)
	return b, nil
}

// Skip advances the position by n bytes without reading them. Skipping
// past EOF is allowed (a following Peek fails and Remaining goes
// negative), so callers can detect truncation where it is cheapest.
func (w *Walker) Skip(n int64) { w.pos += n }

// refill loads the need bytes at the current position into the buffer.
func (w *Walker) refill(need int) error {
	if w.pos < 0 || w.pos+int64(need) > w.size {
		return fmt.Errorf("walker at offset %d: need %d bytes, %d remain: %w", w.pos, need, w.size-w.pos, io.ErrUnexpectedEOF)
	}
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	} else {
		w.buf = w.buf[:need]
	}
	rn, err := w.src.ReadAt(w.buf, w.pos)
	if rn < need {
		w.buf = w.buf[:0]
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: walker refill at offset %d: %w", ErrIO, w.pos, err)
	}
	w.bufOff = w.pos
	return nil
}
