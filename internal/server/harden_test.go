package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/workloads"
)

// TestEtagMatches drives the If-None-Match scanner through the
// RFC 9110 §8.8.3.2 grammar: weak comparison, "*", comma lists, and
// quoted tags whose content itself contains commas.
func TestEtagMatches(t *testing.T) {
	const cur = `"abc-123"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{`"abc-123"`, true},
		{`W/"abc-123"`, true}, // weak comparison: W/ ignored
		{`*`, true},
		{`"other"`, false},
		{`"other", "abc-123"`, true},
		{`"other" , W/"abc-123" , "third"`, true},
		{`"oth,er", "abc-123"`, true}, // comma inside a quoted tag
		{`"oth,er", "nope"`, false},
		{`"abc-123`, false},  // unterminated
		{`abc-123`, false},   // unquoted: malformed, never matches
		{`"ABC-123"`, false}, // etags are case-sensitive
	} {
		if got := etagMatches(tc.header, cur); got != tc.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", tc.header, cur, got, tc.want)
		}
	}
	// A weak current etag also compares weakly.
	if !etagMatches(`"x"`, `W/"x"`) {
		t.Error(`W/"x" should weakly match "x"`)
	}
}

// TestConditionalGet is the HTTP-level table: 304 semantics for
// If-None-Match and If-Modified-Since, the §13.1.3 precedence between
// them, and the guarantee that a 304 never decodes body bytes.
func TestConditionalGet(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(100_000, 11)
	writeGzipFile(t, dir, "data.gz", content)
	s, ts := newTestServer(t, Config{Root: dir, WarmupWorkers: -1})
	u := ts.URL + "/archives/data.gz"

	probe := get(t, u, nil)
	etag := probe.Header.Get("ETag")
	lastMod := probe.Header.Get("Last-Modified")
	probe.Body.Close()
	if etag == "" || lastMod == "" {
		t.Fatalf("missing validators: ETag=%q Last-Modified=%q", etag, lastMod)
	}
	if cc := probe.Header.Get("Cache-Control"); cc != "public, max-age=60" {
		t.Fatalf("Cache-Control = %q, want default public, max-age=60", cc)
	}
	if v := probe.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("Vary = %q", v)
	}
	modTime, err := http.ParseTime(lastMod)
	if err != nil {
		t.Fatal(err)
	}
	earlier := modTime.Add(-time.Hour).Format(http.TimeFormat)
	later := modTime.Add(time.Hour).Format(http.TimeFormat)

	for _, tc := range []struct {
		name string
		hdr  map[string]string
		want int
	}{
		{"inm-match", map[string]string{"If-None-Match": etag}, http.StatusNotModified},
		{"inm-weak", map[string]string{"If-None-Match": "W/" + etag}, http.StatusNotModified},
		{"inm-star", map[string]string{"If-None-Match": "*"}, http.StatusNotModified},
		{"inm-list", map[string]string{"If-None-Match": `"a", ` + etag + `, "b"`}, http.StatusNotModified},
		{"inm-miss", map[string]string{"If-None-Match": `"stale"`}, http.StatusOK},
		{"ims-equal", map[string]string{"If-Modified-Since": lastMod}, http.StatusNotModified},
		{"ims-later", map[string]string{"If-Modified-Since": later}, http.StatusNotModified},
		{"ims-earlier", map[string]string{"If-Modified-Since": earlier}, http.StatusOK},
		{"ims-garbage", map[string]string{"If-Modified-Since": "not a date"}, http.StatusOK},
		// §13.1.3 precedence: a present If-None-Match decides alone.
		{"inm-miss-beats-ims-hit", map[string]string{
			"If-None-Match": `"stale"`, "If-Modified-Since": later}, http.StatusOK},
		{"inm-hit-beats-ims-miss", map[string]string{
			"If-None-Match": etag, "If-Modified-Since": earlier}, http.StatusNotModified},
		// A conditional range request that revalidates: 304, no range.
		{"inm-with-range", map[string]string{
			"If-None-Match": etag, "Range": "bytes=0-9"}, http.StatusNotModified},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.Metrics().BodyDecodes
			resp := get(t, u, tc.hdr)
			b := body(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusNotModified {
				if len(b) != 0 {
					t.Fatalf("304 carried %d body bytes", len(b))
				}
				if got := resp.Header.Get("ETag"); got != etag {
					t.Fatalf("304 ETag = %q, want %q", got, etag)
				}
				if got := s.Metrics().BodyDecodes; got != before {
					t.Fatalf("304 moved BodyDecodes %d → %d: decode slot touched", before, got)
				}
			} else if !bytes.Equal(b, content) {
				t.Fatal("200 body mismatch")
			}
		})
	}
}

// waitWarmups polls until the warm-up queue has fully drained (every
// accepted name completed or failed) or the deadline passes.
func waitWarmups(t *testing.T, s *Server, timeout time.Duration) Metrics {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		m := s.Metrics()
		if m.WarmupsCompleted+m.WarmupsFailed >= m.WarmupsQueued && m.WarmupsQueued > 0 {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm-up did not drain: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWarmupRoundTrip is the acceptance scenario: serve an archive
// with no sidecar, let the background warm-up export one, restart the
// server, and observe the next open skip its sizing pass — then
// revalidate with If-None-Match and get a bodiless 304 that acquires
// no read slot.
func TestWarmupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(200_000, 23)
	writeGzipFile(t, dir, "data.gz", content)
	sidecar := filepath.Join(dir, "data.gz"+rapidgzip.IndexSuffix)

	statsFor := func(ts *httptest.Server) (out struct {
		Stats rapidgzip.Stats `json:"stats"`
	}) {
		resp := get(t, ts.URL+"/stats/data.gz", nil)
		if err := json.Unmarshal(body(t, resp), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Round 1: cold, no sidecar anywhere. The open pays a sizing pass,
	// which queues the background export.
	s1, ts1 := newTestServer(t, Config{Root: dir})
	resp := get(t, ts1.URL+"/archives/data.gz", nil)
	etag := resp.Header.Get("ETag")
	if !bytes.Equal(body(t, resp), content) {
		t.Fatal("cold body mismatch")
	}
	if st := statsFor(ts1); st.Stats.SizingPasses == 0 {
		t.Fatal("cold open reported no sizing pass; test premise broken")
	}
	m := waitWarmups(t, s1, 10*time.Second)
	if m.WarmupsCompleted != 1 || m.WarmupsFailed != 0 {
		t.Fatalf("warm-up counters after drain: %+v", m)
	}
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	assertNoTempFiles(t, dir)
	// Re-requesting does not re-queue: the sidecar exists now.
	get(t, ts1.URL+"/archives/data.gz", nil).Body.Close()
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Round 2: a fresh server (fresh process, as far as the cache is
	// concerned) imports the warmed index — open is metadata-only.
	s2, ts2 := newTestServer(t, Config{Root: dir})
	if st := statsFor(ts2); st.Stats.SizingPasses != 0 {
		t.Fatalf("warmed open ran %d sizing passes, want 0", st.Stats.SizingPasses)
	}
	resp = get(t, ts2.URL+"/archives/data.gz", nil)
	if !bytes.Equal(body(t, resp), content) {
		t.Fatal("warmed body mismatch")
	}
	// The decode counters come through /stats: one span, decoded once.
	if st := statsFor(ts2).Stats; st.DecodedBytes != uint64(len(content)) || st.SpanDecodes+st.SpanResumes == 0 {
		t.Fatalf("after a whole-body GET of %d bytes: %+v", len(content), st)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("etag changed across restart: %q → %q", etag, got)
	}

	// Revalidation: 304, empty body, and the decode path untouched.
	before := s2.Metrics().BodyDecodes
	resp = get(t, ts2.URL+"/archives/data.gz", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp.StatusCode)
	}
	if b := body(t, resp); len(b) != 0 {
		t.Fatalf("304 carried %d body bytes", len(b))
	}
	if after := s2.Metrics().BodyDecodes; after != before {
		t.Fatalf("304 acquired a decode slot: BodyDecodes %d → %d", before, after)
	}
}

// assertNoTempFiles fails if any atomic-write temp file leaked.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmupIndexStore routes sidecars through a shared store
// directory: the archive root stays pristine (it may be read-only in
// production), the store mirrors the archive's directory layout, and a
// second server over the same store opens without a sizing pass.
func TestWarmupIndexStore(t *testing.T) {
	root := t.TempDir()
	store := t.TempDir()
	content := workloads.Base64(150_000, 31)
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeGzipFile(t, filepath.Join(root, "sub"), "data.gz", content)

	s1, ts1 := newTestServer(t, Config{Root: root, IndexStore: store})
	get(t, ts1.URL+"/archives/sub/data.gz", nil).Body.Close()
	waitWarmups(t, s1, 10*time.Second)

	want := filepath.Join(store, "sub", "data.gz"+rapidgzip.IndexSuffix)
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("store sidecar missing at %s: %v", want, err)
	}
	if _, err := os.Stat(filepath.Join(root, "sub", "data.gz"+rapidgzip.IndexSuffix)); err == nil {
		t.Fatal("sidecar written beside the archive despite an index store")
	}
	assertNoTempFiles(t, root)
	assertNoTempFiles(t, store)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{Root: root, IndexStore: store})
	resp := get(t, ts2.URL+"/stats/sub/data.gz", nil)
	var st struct {
		Stats rapidgzip.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.SizingPasses != 0 {
		t.Fatalf("store-indexed open ran %d sizing passes, want 0", st.Stats.SizingPasses)
	}
	resp = get(t, ts2.URL+"/archives/sub/data.gz", nil)
	if !bytes.Equal(body(t, resp), content) {
		t.Fatal("store-indexed body mismatch")
	}
}

// TestWarmupSingleFlight hammers enqueue for one name from many
// goroutines: exactly one export runs, the rest dedup into skips.
func TestWarmupSingleFlight(t *testing.T) {
	dir := t.TempDir()
	writeGzipFile(t, dir, "data.gz", workloads.Base64(120_000, 41))
	s, ts := newTestServer(t, Config{Root: dir})
	// Open the handle once so enqueue targets a cached archive.
	get(t, ts.URL+"/archives/data.gz", nil).Body.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.warm.enqueue("data.gz")
		}()
	}
	wg.Wait()
	m := waitWarmups(t, s, 10*time.Second)
	if m.WarmupsCompleted != 1 {
		t.Fatalf("WarmupsCompleted = %d, want exactly 1 (single-flight)", m.WarmupsCompleted)
	}
	if m.WarmupsFailed != 0 {
		t.Fatalf("WarmupsFailed = %d", m.WarmupsFailed)
	}
	if m.WarmupsSkipped == 0 {
		t.Fatal("no enqueue was deduplicated; single-flight untested")
	}
	assertNoTempFiles(t, dir)
}

// TestWarmupSkipsExistingSidecar: a name whose sidecar already exists
// (even a bogus one — it is the operator's file) is never rewritten.
func TestWarmupSkipsExistingSidecar(t *testing.T) {
	dir := t.TempDir()
	writeGzipFile(t, dir, "data.gz", workloads.Base64(80_000, 43))
	bogus := filepath.Join(dir, "data.gz"+rapidgzip.IndexSuffix)
	if err := os.WriteFile(bogus, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Root: dir})
	get(t, ts.URL+"/archives/data.gz", nil).Body.Close()
	s.warm.enqueue("data.gz")
	if m := s.Metrics(); m.WarmupsQueued != 0 || m.WarmupsSkipped == 0 {
		t.Fatalf("existing sidecar should skip enqueue: %+v", m)
	}
	if b, err := os.ReadFile(bogus); err != nil || string(b) != "not an index" {
		t.Fatalf("operator sidecar was modified: %q, %v", b, err)
	}
}

// TestWarmupReplacesStaleStoreSidecar: a store sidecar that no longer
// imports — here one of an earlier format version — is exported over by
// the warm-up that the open which could not use it queues, and the next
// server opens through it without a sizing pass.
func TestWarmupReplacesStaleStoreSidecar(t *testing.T) {
	root, store := t.TempDir(), t.TempDir()
	content := workloads.Base64(150_000, 47)
	writeGzipFile(t, root, "data.gz", content)
	sidecar := filepath.Join(store, "data.gz"+rapidgzip.IndexSuffix)
	if err := os.WriteFile(sidecar, []byte("RGZIDX03 an index of an earlier version"), 0o644); err != nil {
		t.Fatal(err)
	}

	s1, ts1 := newTestServer(t, Config{Root: root, IndexStore: store})
	if !bytes.Equal(body(t, get(t, ts1.URL+"/archives/data.gz", nil)), content) {
		t.Fatal("body mismatch beside a stale sidecar")
	}
	if m := waitWarmups(t, s1, 10*time.Second); m.WarmupsCompleted != 1 {
		t.Fatalf("stale store sidecar not replaced: %+v", m)
	}
	a, err := rapidgzip.Open(filepath.Join(root, "data.gz"), rapidgzip.WithIndexFile(sidecar))
	if err != nil {
		t.Fatalf("the replaced sidecar does not import: %v", err)
	}
	a.Close()
	assertNoTempFiles(t, store)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{Root: root, IndexStore: store})
	var st struct {
		Stats rapidgzip.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body(t, get(t, ts2.URL+"/stats/data.gz", nil)), &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.SizingPasses != 0 {
		t.Fatalf("open over the replaced sidecar ran %d sizing passes, want 0", st.Stats.SizingPasses)
	}
}

// TestCanceledWaitsReclaimSlots verifies the slot-pinning fix: a
// request whose context dies while queued for a read or open slot gets
// a 503 with Retry-After, frees its queue position, and the slots stay
// usable for the next request.
func TestCanceledWaitsReclaimSlots(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(50_000, 53)
	writeGzipFile(t, dir, "data.gz", content)
	s, _ := newTestServer(t, Config{Root: dir, ReadSlots: 1, OpenSlots: 1, WarmupWorkers: -1})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("read-slot", func(t *testing.T) {
		s.readSem <- struct{}{} // occupy the only decode slot
		req := httptest.NewRequest(http.MethodGet, "/archives/data.gz", nil).WithContext(canceled)
		rec := httptest.NewRecorder()
		s.handleArchive(rec, req)
		<-s.readSem
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
		if s.Metrics().CanceledWaits == 0 {
			t.Fatal("CanceledWaits not counted")
		}
		// The slot is free again: a live request succeeds.
		rec = httptest.NewRecorder()
		s.handleArchive(rec, httptest.NewRequest(http.MethodGet, "/archives/data.gz", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), content) {
			t.Fatalf("follow-up status %d, body %d bytes", rec.Code, rec.Body.Len())
		}
	})

	t.Run("open-slot", func(t *testing.T) {
		writeGzipFile(t, dir, "cold.gz", content)
		if err := s.adm.acquire(context.Background(), false); err != nil { // occupy the only open slot
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/archives/cold.gz", nil).WithContext(canceled)
		rec := httptest.NewRecorder()
		s.handleArchive(rec, req)
		s.adm.release(false)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
		// The abandoned open is not cached as a failure: a live request
		// opens the archive for real.
		rec = httptest.NewRecorder()
		s.handleArchive(rec, httptest.NewRequest(http.MethodGet, "/archives/cold.gz", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), content) {
			t.Fatalf("follow-up status %d, body %d bytes", rec.Code, rec.Body.Len())
		}
	})
}

// TestMetricsSkipsPendingOpen: /metrics and Metrics() must answer
// while a cold open is still in flight — pending handles are skipped,
// not waited on, and are not counted as open archives.
func TestMetricsSkipsPendingOpen(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(60_000, 59)
	writeGzipFile(t, dir, "data.gz", content)
	s, ts := newTestServer(t, Config{Root: dir, WarmupWorkers: -1})
	get(t, ts.URL+"/archives/data.gz", nil).Body.Close()

	// Plant a handle whose open never finishes, as a stuck sizing scan
	// would look: ready stays open.
	stuck := &handle{name: "stuck.bz2", ready: make(chan struct{}), refs: 1}
	s.mu.Lock()
	s.handles.Put("stuck.bz2", stuck)
	s.mu.Unlock()

	done := make(chan Metrics, 1)
	go func() {
		resp := get(t, ts.URL+"/metrics", nil)
		var out struct {
			Server   Metrics                    `json:"server"`
			Archives map[string]json.RawMessage `json:"archives"`
		}
		if err := json.Unmarshal(body(t, resp), &out); err != nil {
			t.Error(err)
		}
		if _, ok := out.Archives["stuck.bz2"]; ok {
			t.Error("pending handle reported in /metrics archives")
		}
		done <- out.Server
	}()
	select {
	case m := <-done:
		if m.OpenArchives != 1 {
			t.Fatalf("OpenArchives = %d, want 1 (ready handles only)", m.OpenArchives)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/metrics blocked behind a pending open")
	}

	// Unstick and withdraw the handle so Close does not wait on it.
	stuck.err = errors.New("never opened")
	close(stuck.ready)
	s.mu.Lock()
	s.handles.Delete("stuck.bz2")
	s.mu.Unlock()
	s.drainReleases()
}

// TestAdmissionFairness exercises the two-lane gate directly: heavy
// opens saturate at the heavy cap while light opens still pass, and a
// canceled wait leaks no token.
func TestAdmissionFairness(t *testing.T) {
	ad := newAdmission(3, 1)
	bg := context.Background()

	if err := ad.acquire(bg, true); err != nil { // heavy 1/1, slots 1/3
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if err := ad.acquire(short, true); err == nil { // heavy lane full
		t.Fatal("second heavy acquire passed; lane cap not enforced")
	}
	// Light opens are unaffected by the saturated heavy lane.
	for i := 0; i < 2; i++ {
		if err := ad.acquire(bg, false); err != nil {
			t.Fatalf("light acquire %d: %v", i, err)
		}
	}
	// All 3 slots held now; a light wait that cancels leaves no debris.
	short2, cancel2 := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel2()
	if err := ad.acquire(short2, false); err == nil {
		t.Fatal("acquire with all slots held should time out")
	}
	ad.release(true)
	ad.release(false)
	ad.release(false)
	// Full capacity restored: heavy + two lights fit again.
	for _, heavy := range []bool{true, false, false} {
		if err := ad.acquire(bg, heavy); err != nil {
			t.Fatalf("post-release acquire(heavy=%v): %v", heavy, err)
		}
	}
	ad.release(true)
	ad.release(false)
	ad.release(false)
}

// TestHeavyOpenClassification: a large unindexed gzip goes through the
// heavy lane (counted), while the same file with a sidecar — or a
// small file — rides light.
func TestHeavyOpenClassification(t *testing.T) {
	dir := t.TempDir()
	big := workloads.Base64(6<<20, 61)
	writeGzipFile(t, dir, "big.gz", big)
	writeGzipFile(t, dir, "small.gz", workloads.Base64(10_000, 67))

	s, ts := newTestServer(t, Config{Root: dir, HeavyOpenBytes: 1 << 20, WarmupWorkers: -1})
	get(t, ts.URL+"/archives/small.gz", nil).Body.Close()
	if m := s.Metrics(); m.HeavyOpens != 0 {
		t.Fatalf("small archive classified heavy: %+v", m)
	}
	resp := get(t, ts.URL+"/archives/big.gz", map[string]string{"Range": "bytes=0-99"})
	body(t, resp)
	if m := s.Metrics(); m.HeavyOpens != 1 {
		t.Fatalf("HeavyOpens = %d, want 1 after a cold multi-MiB gzip open", m.HeavyOpens)
	}

	// With a sidecar the same archive opens light.
	a, err := rapidgzip.Open(filepath.Join(dir, "big.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rapidgzip.ExportIndexFile(a, filepath.Join(dir, "big.gz"+rapidgzip.IndexSuffix)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	s2, ts2 := newTestServer(t, Config{Root: dir, HeavyOpenBytes: 1 << 20, WarmupWorkers: -1})
	get(t, ts2.URL+"/archives/big.gz", map[string]string{"Range": "bytes=0-99"}).Body.Close()
	if m := s2.Metrics(); m.HeavyOpens != 0 {
		t.Fatalf("indexed archive classified heavy: %+v", m)
	}
}

// TestBodyErrorsCounted: once the status line is out, a decode failure
// can only cut the body short, and it must not pass unseen. The source
// is truncated after the archive was opened, so the spans behind the
// cut can no longer be read — provided nothing decoded them before the
// cut. The archive opens through its index, so no sizing pass decodes
// the file (its resolutions could still be in flight at the cut), and
// the pool caches no span (a 1-byte budget; 0 would select the
// default), so an earlier range cannot leave one behind either.
func TestBodyErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(2_000_000, 61)
	path := writeGzipFile(t, dir, "data.gz", content)
	opts := []rapidgzip.Option{rapidgzip.WithChunkSize(64 << 10), rapidgzip.WithParallelism(1)}
	a, err := rapidgzip.Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rapidgzip.ExportIndexFile(a, path+rapidgzip.IndexSuffix); err != nil {
		t.Fatal(err)
	}
	a.Close()
	s, ts := newTestServer(t, Config{Root: dir, PoolBudget: 1, WarmupWorkers: -1, Options: opts})
	url := ts.URL + "/archives/data.gz"

	resp := get(t, url, map[string]string{"Range": "bytes=0-999"})
	if got := body(t, resp); resp.StatusCode != http.StatusPartialContent || !bytes.Equal(got, content[:1000]) {
		t.Fatalf("first range: status %d, %d bytes", resp.StatusCode, len(got))
	}
	// Bodies served whole are not counted as failed.
	resp = get(t, url, map[string]string{"Range": "bytes=600000-799999"})
	if got := body(t, resp); !bytes.Equal(got, content[600_000:800_000]) {
		t.Fatalf("second range: status %d, %d bytes", resp.StatusCode, len(got))
	}
	if m := s.Metrics(); m.BodyErrors != 0 || m.BodyAborts != 0 {
		t.Fatalf("a served body counted as failed: %+v", m)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	resp = get(t, url, map[string]string{"Range": "bytes=1900000-1999999"})
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status %d, want the 206 committed before the decode", resp.StatusCode)
	}
	// The response is aborted: the client's read fails, it does not
	// merely come up short.
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) >= 100_000 {
		t.Fatalf("read %d of 100000 bytes from a truncated source, err %v; want io.ErrUnexpectedEOF", len(got), err)
	}
	if m := s.Metrics(); m.BodyErrors != 1 || m.BodyAborts != 0 {
		t.Fatalf("BodyErrors = %d, BodyAborts = %d, want 1 and 0", m.BodyErrors, m.BodyAborts)
	}
}

// TestBodyAbortsCounted: a body cut short because the client is gone is
// counted apart from the archive's own failures.
func TestBodyAbortsCounted(t *testing.T) {
	dir := t.TempDir()
	content := workloads.Base64(300_000, 67)
	writeGzipFile(t, dir, "data.gz", content)
	s, _ := newTestServer(t, Config{Root: dir, WarmupWorkers: -1})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/archives/data.gz", nil).WithContext(ctx)
	if p := serveAborted(s, &goneWriter{ResponseRecorder: httptest.NewRecorder(), gone: cancel}, req); p != http.ErrAbortHandler {
		t.Fatalf("handler ended with %v, want it to abort the response", p)
	}
	if m := s.Metrics(); m.BodyAborts != 1 || m.BodyErrors != 0 {
		t.Fatalf("BodyAborts = %d, BodyErrors = %d, want 1 and 0", m.BodyAborts, m.BodyErrors)
	}
}

// goneWriter is a client that disconnects at the first body byte: the
// request context is canceled and the write fails, as net/http has it.
type goneWriter struct {
	*httptest.ResponseRecorder
	gone context.CancelFunc
}

func (w *goneWriter) Write([]byte) (int, error) {
	w.gone()
	return 0, errors.New("write: broken pipe")
}

// serveAborted runs the archive handler and returns what it panicked
// with: http.ErrAbortHandler when it aborted the response, nil when it
// returned.
func serveAborted(s *Server, w http.ResponseWriter, r *http.Request) (p any) {
	defer func() { p = recover() }()
	s.handleArchive(w, r)
	return nil
}
