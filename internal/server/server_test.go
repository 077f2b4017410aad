package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/workloads"
)

// writeGzipFile writes data gzip-compressed to dir/name and returns
// the full path.
func writeGzipFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, 6)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, name)
	if err := os.WriteFile(full, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

// newTestServer stands up a Server over dir plus an httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// get issues a GET with headers and returns the response; the caller
// owns the body.
func get(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeRangeGrammar drives the full HTTP range matrix against a
// real archive: plain 200, exact/suffix/open-ended 206s, multi-range
// and invalid ranges ignored to 200, 416 with Content-Range, If-Range
// fallback, HEAD, and name policy (sidecars, traversal, directories).
func TestServeRangeGrammar(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(300_000, 7)
	writeGzipFile(t, dir, "data.gz", content)
	if err := os.WriteFile(filepath.Join(dir, "data.gz"+rapidgzip.IndexSuffix), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Root: dir})
	u := ts.URL + "/archives/data.gz"
	size := len(content)

	t.Run("full-200", func(t *testing.T) {
		resp := get(t, u, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		if ar := resp.Header.Get("Accept-Ranges"); ar != "bytes" {
			t.Fatalf("Accept-Ranges %q, want bytes", ar)
		}
		if cl := resp.ContentLength; cl != int64(size) {
			t.Fatalf("Content-Length %d, want %d", cl, size)
		}
		if !bytes.Equal(body(t, resp), content) {
			t.Fatal("full body mismatch")
		}
	})

	t.Run("head", func(t *testing.T) {
		resp, err := http.Head(u)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		if resp.ContentLength != int64(size) {
			t.Fatalf("HEAD Content-Length %d, want %d", resp.ContentLength, size)
		}
		if b := body(t, resp); len(b) != 0 {
			t.Fatalf("HEAD returned %d body bytes", len(b))
		}
	})

	ranges := []struct {
		header string
		off, n int
	}{
		{"bytes=0-999", 0, 1000},
		{"bytes=100000-149999", 100000, 50000},
		{fmt.Sprintf("bytes=%d-%d", size-1, size-1), size - 1, 1},
		{"bytes=-2000", size - 2000, 2000},                               // suffix
		{fmt.Sprintf("bytes=-%d", size+5), 0, size},                      // suffix over size: whole entity as 206
		{"bytes=250000-", 250000, size - 250000},                         // open-ended
		{fmt.Sprintf("bytes=290000-%d", size+99), 290000, size - 290000}, // end clamped
	}
	for _, rc := range ranges {
		t.Run(rc.header, func(t *testing.T) {
			resp := get(t, u, map[string]string{"Range": rc.header})
			if resp.StatusCode != http.StatusPartialContent {
				t.Fatalf("status %d, want 206", resp.StatusCode)
			}
			wantCR := fmt.Sprintf("bytes %d-%d/%d", rc.off, rc.off+rc.n-1, size)
			if cr := resp.Header.Get("Content-Range"); cr != wantCR {
				t.Fatalf("Content-Range %q, want %q", cr, wantCR)
			}
			if !bytes.Equal(body(t, resp), content[rc.off:rc.off+rc.n]) {
				t.Fatalf("range %s: body mismatch", rc.header)
			}
		})
	}

	t.Run("unsatisfiable-416", func(t *testing.T) {
		for _, h := range []string{fmt.Sprintf("bytes=%d-", size), "bytes=99999999-", "bytes=-0"} {
			resp := get(t, u, map[string]string{"Range": h})
			if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
				t.Fatalf("range %q: status %d, want 416", h, resp.StatusCode)
			}
			wantCR := fmt.Sprintf("bytes */%d", size)
			if cr := resp.Header.Get("Content-Range"); cr != wantCR {
				t.Fatalf("range %q: Content-Range %q, want %q", h, cr, wantCR)
			}
			resp.Body.Close()
		}
	})

	t.Run("ignored-to-200", func(t *testing.T) {
		// Multi-range and malformed ranges are ignored per the server's
		// single-range policy: full 200, not multipart.
		for _, h := range []string{"bytes=0-99,200-299", "bytes=zz-10", "lines=1-2", "bytes=500-400"} {
			resp := get(t, u, map[string]string{"Range": h})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("range %q: status %d, want 200", h, resp.StatusCode)
			}
			if len(body(t, resp)) != size {
				t.Fatalf("range %q: partial body for ignored range", h)
			}
		}
	})

	t.Run("if-range", func(t *testing.T) {
		probe := get(t, u, nil)
		etag := probe.Header.Get("ETag")
		lastMod := probe.Header.Get("Last-Modified")
		probe.Body.Close()
		if etag == "" || lastMod == "" {
			t.Fatalf("missing validators: ETag=%q Last-Modified=%q", etag, lastMod)
		}
		// Matching validator (either form): the range is honored.
		for _, ir := range []string{etag, lastMod} {
			resp := get(t, u, map[string]string{"Range": "bytes=0-9", "If-Range": ir})
			if resp.StatusCode != http.StatusPartialContent {
				t.Fatalf("If-Range %q: status %d, want 206", ir, resp.StatusCode)
			}
			resp.Body.Close()
		}
		// Mismatch: fall back to the full representation.
		resp := get(t, u, map[string]string{"Range": "bytes=0-9", "If-Range": `"stale-etag"`})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stale If-Range: status %d, want 200", resp.StatusCode)
		}
		if len(body(t, resp)) != size {
			t.Fatal("stale If-Range: expected full body")
		}
	})

	t.Run("name-policy", func(t *testing.T) {
		for path, want := range map[string]int{
			"/archives/data.gz" + rapidgzip.IndexSuffix: http.StatusNotFound, // sidecars are not servable
			"/archives/missing.gz":                      http.StatusNotFound,
			"/archives/../server_test.go":               http.StatusNotFound, // traversal collapses into the root
			"/stats/missing.gz":                         http.StatusNotFound,
		} {
			resp := get(t, ts.URL+path, nil)
			if resp.StatusCode != want {
				t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
			}
			resp.Body.Close()
		}
		resp, err := http.Post(ts.URL+"/archives/data.gz", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	})

	t.Run("list-and-stats", func(t *testing.T) {
		resp := get(t, ts.URL+"/archives/", nil)
		var listing struct {
			Archives []string `json:"archives"`
		}
		if err := json.Unmarshal(body(t, resp), &listing); err != nil {
			t.Fatal(err)
		}
		if len(listing.Archives) != 1 || listing.Archives[0] != "data.gz" {
			t.Fatalf("listing = %v, want [data.gz] (sidecar excluded)", listing.Archives)
		}
		resp = get(t, ts.URL+"/stats/data.gz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		var st struct {
			Name   string `json:"name"`
			Format string `json:"format"`
			Size   int64  `json:"decompressed_size"`
		}
		if err := json.Unmarshal(body(t, resp), &st); err != nil {
			t.Fatal(err)
		}
		if st.Name != "data.gz" || st.Format != "gzip" || st.Size != int64(size) {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestServeNotAnArchive maps open failures to useful statuses: a file
// that is no recognized format answers 415, and the failure is not
// cached (a retry re-opens).
func TestServeNotAnArchive(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "plain.txt"), []byte("just text, no magic"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Root: dir})
	for i := 0; i < 2; i++ {
		resp := get(t, ts.URL+"/archives/plain.txt", nil)
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d, want 415", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if m := s.Metrics(); m.OpenFailures != 2 {
		t.Fatalf("OpenFailures = %d, want 2 (failures must not be cached)", m.OpenFailures)
	}
}

// sparseArchive is one archive of the concurrency workload: its name
// under the root and the plan to verify response bytes against.
type sparseArchive struct {
	name string
	plan *workloads.SparsePlan
}

// buildSparseRoot writes the mixed-format workload: three file-backed
// archives (LZ4, gzip, zstd), each with contentSize decompressed bytes
// — larger than the pool budget the acceptance test configures. An
// exported sidecar index makes reopens after handle eviction cheap
// (and exercises discovery through the server path).
func buildSparseRoot(t *testing.T, dir string, contentSize int64) []sparseArchive {
	t.Helper()
	const frame = 256 << 10
	data := []int{0, 3, 7, 11, 15}
	var out []sparseArchive
	for _, spec := range []struct {
		name, format string
		blockSize    int
		seed         uint64
	}{
		{"big.lz4", "lz4", 64 << 10, 101},
		{"big.gz", "gzip", 32 << 10, 202},
		{"big.zst", "zstd", 0, 303},
	} {
		full := filepath.Join(dir, spec.name)
		f, err := os.Create(full)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := workloads.WriteSparse(f, spec.format, contentSize, frame, spec.blockSize, spec.seed, data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		a, err := rapidgzip.Open(full)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		ixf, err := os.Create(full + rapidgzip.IndexSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.ExportIndex(ixf); err != nil {
			t.Fatalf("%s: export index: %v", spec.name, err)
		}
		ixf.Close()
		a.Close()
		out = append(out, sparseArchive{name: spec.name, plan: plan})
	}
	return out
}

// TestConcurrentRangedGets is the acceptance workload: ≥64 concurrent
// ranged GETs across three file-backed archives of mixed formats, each
// larger than the shared pool budget, through a handle cache too small
// to hold them all. Every response body is verified byte-exact against
// the sparse plan; afterwards the pool must never have exceeded its
// budget and handle evictions must have occurred.
func TestConcurrentRangedGets(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency workload")
	}
	dir := t.TempDir()
	const contentSize = 6 << 20
	const budget = 1 << 20 // every archive's content exceeds this
	archives := buildSparseRoot(t, dir, contentSize)

	s, ts := newTestServer(t, Config{
		Root:            dir,
		MaxOpenArchives: 2, // three archives: reopening churn is forced
		PoolBudget:      budget,
		ReadSlots:       128,
	})

	const workers = 96
	const perWorker = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			<-start
			for i := 0; i < perWorker; i++ {
				arc := archives[rng.Intn(len(archives))]
				n := int64(1+rng.Intn(96<<10)) + 1
				off := rng.Int63n(contentSize - n)
				var header string
				if i == 0 && w%3 == 0 {
					// Mix in suffix ranges so the grammar runs hot too.
					header = fmt.Sprintf("bytes=-%d", n)
					off = contentSize - n
				} else {
					header = fmt.Sprintf("bytes=%d-%d", off, off+n-1)
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+"/archives/"+arc.name, nil)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Range", header)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s %s: %w", arc.name, header, err)
					return
				}
				if resp.StatusCode != http.StatusPartialContent {
					errs <- fmt.Errorf("%s %s: status %d, want 206", arc.name, header, resp.StatusCode)
					return
				}
				want := arc.plan.ExpectedAt(off, int(n))
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s %s: body mismatch (%d bytes)", arc.name, header, len(got))
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ps := s.Pool().Stats()
	if ps.PeakBytes > ps.BudgetBytes {
		t.Errorf("pool peak %d exceeded budget %d", ps.PeakBytes, ps.BudgetBytes)
	}
	if ps.Evictions == 0 {
		t.Error("pool evictions = 0; budget smaller than the working set must evict")
	}
	m := s.Metrics()
	if m.HandleEvictions == 0 {
		t.Error("handle evictions = 0; 3 archives through a 2-slot handle cache must evict")
	}
	if m.RangeRequests != workers*perWorker {
		t.Errorf("range requests = %d, want %d", m.RangeRequests, workers*perWorker)
	}

	// The metrics endpoint reflects the same accounting.
	resp := get(t, ts.URL+"/metrics", nil)
	var metrics struct {
		Pool   rapidgzip.PoolStats `json:"pool"`
		Server Metrics             `json:"server"`
	}
	if err := json.Unmarshal(body(t, resp), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Pool.BudgetBytes != budget {
		t.Errorf("/metrics pool budget = %d, want %d", metrics.Pool.BudgetBytes, budget)
	}
	if metrics.Server.BytesServed == 0 || metrics.Server.HandleEvictions == 0 {
		t.Errorf("/metrics server counters flat: %+v", metrics.Server)
	}
}
