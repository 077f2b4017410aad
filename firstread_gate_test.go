package rapidgzip

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/filereader"
	"repro/internal/workloads"
)

// gatedSource is a compressed file whose reads can be held. Once armed,
// a read at any offset but 0 waits until open is closed, and held counts
// those reads, each announced on heldc; a read at offset 0, where span 0
// begins and the first Read's decode reads first, waits until workers
// reads are held, so that every worker is busy with a prefetch it cannot
// finish and none is left to run anything else while the Read decodes.
type gatedSource struct {
	filereader.FileReader
	workers int32
	armed   atomic.Bool
	held    atomic.Int32
	heldc   chan struct{} // one buffered announcement suffices: held is read on receipt
	busy    chan struct{} // closed once workers reads are held
	open    chan struct{}
}

func (g *gatedSource) ReadAt(p []byte, off int64) (int, error) {
	if g.armed.Load() {
		if off == 0 {
			<-g.busy
		} else {
			if g.held.Add(1) == g.workers {
				close(g.busy)
			}
			select {
			case g.heldc <- struct{}{}:
			default:
			}
			<-g.open
		}
	}
	return g.FileReader.ReadAt(p, off)
}

// TestFirstReadWaitsForItsBytes holds a first Read through an index to
// the bytes it asked for, without a clock. Every read of the compressed
// file but those at offset 0 is held at a gate, and those wait until each
// worker is held in a prefetch: no decode but the Read's own can run, and
// it gets no further than its first read of the file takes it. A Read
// whose decode needs more never returns, and the test sees every decoder
// — the reader and each worker — held. A Read of 1 byte and one of 512
// must return with span 0 decoded no further than the request plus one
// match, and nothing else decoded. Then the gate opens and a Read loop of
// 4 KiB or 128 KiB goes on from there: every byte is decoded once — the
// rest of span 0 continued from where the first Read parked it, never
// started over — and the member checksums verify. At one worker and two,
// through a sidecar that Create wrote and Open discovers, and through an
// index exported from a cold pass of a compress/gzip file.
func TestFirstReadWaitsForItsBytes(t *testing.T) {
	const spanBytes = 128 << 10
	plain := workloads.SilesiaLike(8*spanBytes, 42)

	dir := t.TempDir()
	created := filepath.Join(dir, "created.gz")
	w, err := Create(created, WithShardSize(spanBytes), WithWriterParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stdlib := build(t, "gzip-stdlib", plain, spanBytes)

	inputs := []struct {
		name string
		path string
		opts []Option
	}{
		{"created-sidecar", created, nil},
		{"gzip-stdlib-index", stdlib.path, []Option{WithoutIndexDiscovery(), WithIndexFile(stdlib.indexPath(t))}},
	}
	for _, in := range inputs {
		for _, p := range []int{1, 2} {
			for _, first := range []int{1, 512} {
				for _, loop := range []int{4 << 10, 128 << 10} {
					t.Run(fmt.Sprintf("%s/P%d/first%d/loop%d", in.name, p, first, loop), func(t *testing.T) {
						// The cache holds the file, so that the bytes decoded
						// count decodes started over and nothing else: at P=2
						// a gzip engine's span cache holds fewer spans than it
						// prefetches, and a Read loop has prefetched spans
						// evicted unread with this rule and without it.
						opts := append(in.opts, WithParallelism(p), WithVerify(true), WithSharedPool(NewCachePool(64<<20)))
						firstRead(t, in.path, plain, p, first, loop, opts)
					})
				}
			}
		}
	}
}

func firstRead(t *testing.T, path string, plain []byte, p, first, loop int, opts []Option) {
	cfg, err := resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := filereader.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := &gatedSource{FileReader: f, workers: int32(p), heldc: make(chan struct{}, 1), busy: make(chan struct{}), open: make(chan struct{})}
	a, err := openArchive(src, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if s := a.Stats(); s.SizingPasses != 0 {
		t.Fatalf("opened without its index: %+v", s)
	}

	src.armed.Store(true)
	opened := false
	release := func() {
		if !opened {
			opened = true
			close(src.open)
		}
	}
	defer release()
	buf := make([]byte, first)
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(a, buf)
		done <- err
	}()
wait:
	for {
		select {
		case err := <-done:
			if err != nil || !bytes.Equal(buf, plain[:first]) {
				t.Fatalf("first Read of %d bytes: err %v, bytes equal %v", first, err, bytes.Equal(buf, plain[:first]))
			}
			break wait
		case <-src.heldc:
			// Only the reader and the p workers read the file: with all
			// of them held the Read waits for bytes beyond its own.
			if held := src.held.Load(); held > int32(p) {
				release()
				<-done
				t.Fatalf("first Read of %d bytes: %d reads of the file held, the Read's own among them", first, held)
			}
		}
	}
	if s := a.Stats(); s.SpanDecodes != 1 || s.DecodedBytes < uint64(first) || s.DecodedBytes > uint64(first)+258 {
		t.Fatalf("first Read of %d bytes returned with %d decodes of %d bytes, want one of at most %d", first, s.SpanDecodes, s.DecodedBytes, first+258)
	}

	release()
	got := bytes.NewBuffer(bytes.Clone(buf))
	if _, err := io.CopyBuffer(struct{ io.Writer }{got}, struct{ io.Reader }{a}, make([]byte, loop)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), plain) {
		t.Fatal("the Read loop returned different bytes")
	}
	if ok, fails := crcVerified(a); !ok || fails != 0 {
		t.Fatalf("CRCVerified: ok=%v fails=%d", ok, fails)
	}
	if s := a.Stats(); s.DecodedBytes != uint64(len(plain)) || s.SpanResumes == 0 {
		t.Fatalf("%d bytes decoded for %d, %d decodes, %d resumes", s.DecodedBytes, len(plain), s.SpanDecodes, s.SpanResumes)
	}
}
