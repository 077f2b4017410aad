package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gzipw"
)

// TestChunkCoverageAfterRandomAccess is a regression test: what a
// random-access read is served must be the stream's bytes at its offset,
// and the table must cover the stream without gaps — the bespoke chunk
// path once cached unit payloads under entries they did not cover.
func TestChunkCoverageAfterRandomAccess(t *testing.T) {
	data := mkText(6, 600_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 100)
	for trial := 0; trial < 200; trial++ {
		off := rng.Intn(len(data) - 100)
		if _, err := r.eng.ReadAt(buf, int64(off)); err != nil {
			t.Fatalf("trial %d off %d: %v", trial, off, err)
		}
		if !bytes.Equal(buf, data[off:off+100]) {
			t.Fatalf("trial %d: wrong bytes at %d", trial, off)
		}
	}
	var next int64
	for i, s := range r.eng.CheckpointTable().Spans {
		if s.DecompOff != next || s.DecompSize <= 0 {
			t.Fatalf("span %d = [%d,+%d), want it to start at %d", i, s.DecompOff, s.DecompSize, next)
		}
		next += s.DecompSize
	}
}
