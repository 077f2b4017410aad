package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/deflate"
	"repro/internal/gzipw"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

// TestScratchOwnership runs the cold path with every released scratch
// buffer overwritten on release (and handed to the next decode right
// after), so anything that still reads a chunk result once its unit's
// resolution task gave the buffers back — a window propagation, a split
// point's window, a joined future, a result the tentative pool evicted
// or one that started at the wrong block — shows up as wrong output
// bytes, and under -race as a data race as well.
func TestScratchOwnership(t *testing.T) {
	deflate.PoisonReleasedScratch(true)
	t.Cleanup(func() { deflate.PoisonReleasedScratch(false) })

	// Long back-references keep markers alive for whole chunks, so most
	// of each result is marked scratch that a resolution task translates.
	size := 6 << 20
	if testing.Short() {
		size = 2 << 20
	}
	data := workloads.SilesiaLike(size, 3)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sequential WriteTo", func(t *testing.T) {
		// The second pass decodes into the scratch the first released.
		for pass := 0; pass < 2; pass++ {
			r := open(t, comp, Config{Parallelism: 3, ChunkSize: 128 << 10, VerifyChecksums: true})
			if got := readAll(t, r); !bytes.Equal(got, data) {
				t.Fatalf("pass %d: output differs from the plaintext", pass)
			}
			if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
				t.Fatalf("pass %d: CRC %v %d", pass, ok, fails)
			}
			if st := r.eng.Stats(); st.GuessTasks == 0 {
				t.Fatalf("pass %d did not speculate: %+v", pass, st)
			}
		}
	})

	t.Run("ReadAt during growth", func(t *testing.T) {
		// A pool of a few spans' bytes makes the random readers re-decode
		// confirmed spans through their stored windows while the
		// sequential reader grows the table and resolution tasks release
		// scratch.
		r := open(t, comp, Config{Parallelism: 3, ChunkSize: 128 << 10, Pool: spanengine.NewCachePool(384 << 10)})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]byte, 48<<10)
				for i := 0; i < 40; i++ {
					off := rng.Intn(len(data) - len(buf))
					if _, err := r.ReadAt(buf, int64(off)); err != nil {
						t.Errorf("ReadAt %d: %v", off, err)
						return
					}
					if !bytes.Equal(buf, data[off:off+len(buf)]) {
						t.Errorf("ReadAt %d: wrong bytes", off)
						return
					}
				}
			}(int64(g))
		}
		var out bytes.Buffer
		if _, err := r.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Errorf("WriteTo beside the readers: wrong output (err %v)", err)
		}
		wg.Wait()
	})

	t.Run("paused decodes through the index", func(t *testing.T) {
		// Reads that walk up a cold span in small steps pause its decode
		// and resume it, each piece handed to the reader while the decoder
		// keeps the buffer: its word copies reach a few bytes past the end
		// of what exists, into room later elements fill, and none of that
		// may ever show — in the piece just read, or in an earlier one
		// read again — while a cold pass beside it releases scratch.
		r := importedReader(t, comp, exportIndex(t, comp, 512<<10), Config{Parallelism: 2, Pool: spanengine.NewCachePool(1 << 20)})
		cold := open(t, comp, Config{Parallelism: 2, ChunkSize: 128 << 10})
		done := make(chan []byte)
		go func() {
			var out bytes.Buffer
			if _, err := cold.WriteTo(&out); err != nil {
				t.Errorf("cold pass: %v", err)
			}
			done <- out.Bytes()
		}()
		rng := rand.New(rand.NewSource(5))
		buf := make([]byte, 3000)
		for off := 0; off+len(buf) <= len(data); off += 1 + rng.Intn(40_000) {
			for _, at := range []int{off, rng.Intn(off + 1)} {
				if _, err := r.ReadAt(buf, int64(at)); err != nil || !bytes.Equal(buf, data[at:at+len(buf)]) {
					t.Fatalf("ReadAt %d: wrong bytes (err %v)", at, err)
				}
			}
		}
		if st := r.eng.Stats(); st.SpanResumes == 0 {
			t.Fatalf("no decode was paused and resumed: %+v", st)
		}
		if got := <-done; !bytes.Equal(got, data) {
			t.Fatal("cold pass beside the paused decodes: output differs from the plaintext")
		}
	})

	t.Run("tentative eviction and false starts", func(t *testing.T) {
		// Every stored block below begins 100 bytes before a cell boundary
		// and, in the cells marked fake, carries a stored-block header 50
		// bytes past the boundary whose length runs exactly to the block's
		// end. The finder meets that header first and the decode from it
		// succeeds, so the cell's guess starts at an offset the frontier
		// never asks for: it is parked, never taken, never released, and
		// more of them are parked than the tentative pool holds.
		const chunk, cells, fakes = 8 << 10, 16, 9
		rng := rand.New(rand.NewSource(4))
		c := newCraft()
		for k := 0; k < cells; k++ {
			payload := make([]byte, chunk-5)
			if k == 0 {
				payload = payload[:chunk-100-10-5] // behind the gzip header
			}
			copy(payload, noisy(rng.Int63(), len(payload)))
			if k >= 2 && k < 2+fakes {
				hdr := payload[100+50-5:]
				hdr[0] = 0
				binary.LittleEndian.PutUint16(hdr[1:], uint16(len(hdr)-5))
				binary.LittleEndian.PutUint16(hdr[3:], ^uint16(len(hdr)-5))
			}
			if k > 0 && c.pos() != k*chunk-100 {
				t.Fatalf("block %d starts at byte %d", k, c.pos())
			}
			c.stored(k == cells-1, payload)
		}
		stream := c.finish(t)

		// One worker holds the tentative pool at twice 2P = 4 results.
		r := open(t, stream, Config{Parallelism: 1, ChunkSize: chunk})
		if got := readAll(t, r); !bytes.Equal(got, c.plain) {
			t.Fatal("output differs from the stored payloads")
		}
		st := r.eng.Stats()
		if st.OnDemandDecodes < 2+fakes {
			t.Fatalf("every falsely started cell must fall back to an on-demand decode: %+v", st)
		}
		if st.GuessTasks <= fakes {
			t.Fatalf("some guesses must start right and be consumed: %+v", st)
		}
	})
}
