package spanengine

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/filereader"
)

// writeLog is a writer that keeps every slice it was handed, unmodified
// and uncopied.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

func (w *writeLog) joined() []byte { return bytes.Join(w.writes, nil) }

// writeAndCheck is readAndCheck through WriteRangeTo.
func writeAndCheck(t *testing.T, e *Engine, src []byte, off, n int64) {
	t.Helper()
	var w writeLog
	if k, err := e.WriteRangeTo(context.Background(), &w, off, n); err != nil || k != n {
		t.Errorf("WriteRangeTo(%d bytes at %d) = %d, %v", n, off, k, err)
	} else if !bytes.Equal(w.joined(), src[off:off+n]) {
		t.Errorf("WriteRangeTo(%d bytes at %d): wrong bytes", n, off)
	}
}

// TestWriteRangeToHandsOutCachedSpans: a range over cached spans costs no
// decode, and the writer gets one Write per span, of the cached content
// itself rather than a copy of it.
func TestWriteRangeToHandsOutCachedSpans(t *testing.T) {
	src := testSrc(32 << 10)
	codec := &fakeCodec{spanSize: 4 << 10}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, cacheSize: 8, strategy: noPrefetch{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var cached [][]byte
	for i := int64(2); i <= 5; i++ {
		var w writeLog
		if _, err := e.WriteRangeTo(context.Background(), &w, i<<12, 4<<10); err != nil || len(w.writes) != 1 {
			t.Fatalf("span %d: %d writes, %v", i, len(w.writes), err)
		}
		cached = append(cached, w.writes[0])
	}
	decodes := codec.decodes.Load()
	off, n := int64(2<<12+100), int64(3<<12)
	var w writeLog
	k, err := e.WriteRangeTo(context.Background(), &w, off, n)
	if err != nil || k != n || !bytes.Equal(w.joined(), src[off:off+n]) {
		t.Fatalf("WriteRangeTo = %d, %v; want %d right bytes", k, err, n)
	}
	if len(w.writes) != 4 || codec.decodes.Load() != decodes {
		t.Fatalf("%d writes and %d decodes for a range over four cached spans", len(w.writes), codec.decodes.Load()-decodes)
	}
	if &w.writes[0][0] != &cached[0][100] || &w.writes[3][0] != &cached[3][0] {
		t.Fatal("the writer got copies, not the cached spans")
	}
}

// TestWriteRangeToFirstRound: the first round of a cold range reaches at
// most 32 KiB into it, so the range's first bytes go out after a decode
// that far; the next round continues the parked decode. A range that
// jumps costs what ReadAt of it costs; a stream, which the next round
// decodes to the span's end, costs its first span one resume.
func TestWriteRangeToFirstRound(t *testing.T) {
	const span = 256 << 10
	src := testSrc(4 * span)
	t.Run("jump", func(t *testing.T) {
		codec := newPrefixCodec(span, false)
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		off, n := int64(span+44<<10), int64(100<<10)
		var w writeLog
		if k, err := e.WriteRangeTo(context.Background(), &w, off, n); err != nil || k != n || !bytes.Equal(w.joined(), src[off:off+n]) {
			t.Fatalf("WriteRangeTo = %d, %v; want %d right bytes", k, err, n)
		}
		if len(w.writes) != 2 || len(w.writes[0]) != FirstRound {
			t.Fatalf("writes of %d bytes, want 32 KiB and then the rest", len(w.joined()))
		}
		codec.mu.Lock()
		calls := codec.calls[span]
		codec.mu.Unlock()
		if len(calls) != 2 || calls[0] != [2]int64{0, 76 << 10} || calls[1] != [2]int64{76 << 10, 144 << 10} {
			t.Fatalf("decode calls %v, want [0,76K) then [76K,144K)", calls)
		}
		if s := e.Stats(); s.DecodedBytes != 144<<10 || s.SpanDecodes != 1 || s.SpanResumes != 1 {
			t.Fatalf("%+v: want the 144 KiB a ReadAt of the range decodes", s)
		}
		// Cached that far now, the range goes out in one Write.
		w = writeLog{}
		if k, err := e.WriteRangeTo(context.Background(), &w, off, n); err != nil || k != n || len(w.writes) != 1 {
			t.Fatalf("again: %d bytes in %d writes, %v", k, len(w.writes), err)
		}
	})
	t.Run("stream", func(t *testing.T) {
		// A cold WriteTo from offset 0: the strategy calls it a stream at
		// its first access, and its first Write still waits for 32 KiB.
		codec := newPrefixCodec(span, false)
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var w writeLog
		if k, err := e.WriteTo(&w, 0); err != nil || k != int64(len(src)) || !bytes.Equal(w.joined(), src) {
			t.Fatalf("WriteTo = %d, %v; want %d right bytes", k, err, len(src))
		}
		if len(w.writes[0]) != FirstRound {
			t.Fatalf("first write of %d bytes, want 32 KiB", len(w.writes[0]))
		}
		codec.mu.Lock()
		defer codec.mu.Unlock()
		for i := int64(0); i < 4; i++ {
			want := [][2]int64{{0, span}}
			if i == 0 {
				want = [][2]int64{{0, FirstRound}, {FirstRound, span}}
			}
			if got := codec.calls[i*span]; !slices.Equal(got, want) {
				t.Fatalf("span %d: decode calls %v, want %v", i, got, want)
			}
		}
		if s := e.Stats(); s.DecodedBytes != 4*span || s.SpanDecodes != 4 || s.SpanResumes != 1 {
			t.Fatalf("%+v: want every span decoded once, the first in two calls", s)
		}
	})
}

// TestWriteRangeToStopsWaitingOnCancel: a WriteRangeTo waiting for a
// decode that a worker runs returns once its context is canceled, before
// that decode finishes.
func TestWriteRangeToStopsWaitingOnCancel(t *testing.T) {
	src := testSrc(16 << 10)
	e, err := New(filereader.MemoryReader(src), &fakeCodec{spanSize: 4 << 10}, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	started, release := make(chan struct{}), make(chan struct{})
	e.Prime(1, func() ([]byte, error) {
		close(started)
		<-release
		return bytes.Clone(src[4<<10 : 8<<10]), nil
	})
	defer close(release)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var w writeLog
	go func() {
		_, err := e.WriteRangeTo(ctx, &w, 4<<10+10, 100)
		done <- err
	}()
	until(func() bool { return e.Stats().PrefetchJoined == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || len(w.writes) != 0 {
			t.Fatalf("WriteRangeTo = %v after %d writes; want context.Canceled and none", err, len(w.writes))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WriteRangeTo kept waiting for the decode after its context was canceled")
	}
}
