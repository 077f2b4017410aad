package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// frameBytes is the span size of the zstd fixture: every frame declares
// its content size, so the span table is complete at open and nothing is
// decoded before a body asks for it.
const frameBytes = 64 << 10

// zstdRoot writes content as 64 KiB zstd frames to dir/data.zst.
func zstdRoot(t *testing.T, dir string, content []byte) {
	t.Helper()
	comp := zstdx.CompressFrames(content, zstdx.FrameOptions{FrameSize: frameBytes, Level: 1})
	if err := os.WriteFile(filepath.Join(dir, "data.zst"), comp, 0o644); err != nil {
		t.Fatal(err)
	}
}

// archiveStats returns the backend counters of an open archive.
func archiveStats(t *testing.T, s *Server, name string) rapidgzip.Stats {
	t.Helper()
	h, err := s.acquire(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release(h)
	return h.a.Stats()
}

// cancelingWriter is a client whose request is canceled while the first
// body bytes are written; the writes themselves succeed.
type cancelingWriter struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (w *cancelingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.cancel()
	return w.ResponseRecorder.Write(p)
}

// TestCanceledBodyFreesSlot: a cold Range GET over several spans whose
// client goes away at the first body bytes stops within one more span,
// is counted as an abort and gives its read slot back.
func TestCanceledBodyFreesSlot(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(1<<20, 71)
	zstdRoot(t, dir, content)
	s, _ := newTestServer(t, Config{Root: dir, WarmupWorkers: -1,
		Options: []rapidgzip.Option{rapidgzip.WithParallelism(1)}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/archives/data.zst", nil).WithContext(ctx)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", frameBytes+100, 7*frameBytes)) // spans 1 to 7
	w := &cancelingWriter{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	if p := serveAborted(s, w, req); p != http.ErrAbortHandler {
		t.Fatalf("handler ended with %v, want it to abort the response", p)
	}
	if w.Code != http.StatusPartialContent || w.writes != 1 {
		t.Fatalf("status %d after %d body writes; want 206 and one", w.Code, w.writes)
	}
	if st := archiveStats(t, s, "data.zst"); st.SpanDecodes+st.SpanResumes > 2 {
		t.Fatalf("%d decodes for a body canceled at its first span: %+v", st.SpanDecodes+st.SpanResumes, st)
	}
	if m := s.Metrics(); m.BodyAborts != 1 || m.BodyErrors != 0 {
		t.Fatalf("BodyAborts = %d, BodyErrors = %d, want 1 and 0", m.BodyAborts, m.BodyErrors)
	}
	if n := len(s.readSem); n != 0 {
		t.Fatalf("%d read slots still held", n)
	}
}

// discardWriter is a ResponseWriter that drops the body, counting what
// it is handed. Its header map is reused, so it adds no allocation of
// its own to a request.
type discardWriter struct {
	hdr               http.Header
	status            int
	writes, readFroms int
	bytes             int64
}

func (w *discardWriter) Header() http.Header  { return w.hdr }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += int64(len(p))
	return len(p), nil
}

// ReadFrom is there to be noticed: net/http's writer has it, and a body
// served through it would be copied through a buffer.
func (w *discardWriter) ReadFrom(r io.Reader) (int64, error) {
	w.readFroms++
	return io.Copy(io.Discard, r)
}

// TestHotRangeGetAllocations: a 256 KiB Range GET of a cached region
// costs the server at most 1 KiB of allocation, and the body goes out as
// the cached spans themselves, at most one Write per span and never
// through ReadFrom. Clock-free: allocation is counted, not timed.
func TestHotRangeGetAllocations(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(1<<20, 73)
	zstdRoot(t, dir, content)
	s, _ := newTestServer(t, Config{Root: dir, WarmupWorkers: -1,
		Options: []rapidgzip.Option{rapidgzip.WithParallelism(1)}})

	const off, n = 100_000, 256 << 10
	spans := (off+n-1)/frameBytes - off/frameBytes + 1
	req := httptest.NewRequest(http.MethodGet, "/archives/data.zst", nil)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	w := &discardWriter{hdr: http.Header{}}
	get := func() {
		w.writes = 0
		s.handleArchive(w, req)
	}
	// Decode the whole file first: every span the strategy may propose
	// around the region is then cached, and no decode is left in flight.
	s.handleArchive(w, httptest.NewRequest(http.MethodGet, "/archives/data.zst", nil))
	if w.status != http.StatusOK || w.bytes != int64(len(content)) {
		t.Fatalf("full GET: status %d, %d body bytes", w.status, w.bytes)
	}
	w.bytes = 0
	get()
	if w.status != http.StatusPartialContent || w.bytes != n {
		t.Fatalf("range GET: status %d, %d body bytes", w.status, w.bytes)
	}
	decodes := archiveStats(t, s, "data.zst").SpanDecodes

	const runs = 200
	objects := testing.AllocsPerRun(runs, get)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perGet := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("hot 256 KiB GET: %.0f B and %.1f objects allocated, %d writes over %d spans", perGet, objects, w.writes, spans)
	if perGet > 1024 {
		t.Errorf("a hot GET allocates %.0f B, want at most 1 KiB", perGet)
	}
	if w.writes > spans || w.readFroms != 0 {
		t.Errorf("%d writes and %d ReadFroms for a range over %d cached spans", w.writes, w.readFroms, spans)
	}
	if st := archiveStats(t, s, "data.zst"); st.SpanDecodes != decodes {
		t.Errorf("%d decodes while serving a cached region", st.SpanDecodes-decodes)
	}
}
