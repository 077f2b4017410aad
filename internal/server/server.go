// Package server implements rgzserve's core: an HTTP handler that maps
// GET /archives/<name> with Range headers onto ReadAt calls against
// file-backed compressed archives, so clients address byte ranges of
// the *decompressed* stream of files that are never decompressed as a
// whole. Four pieces make that safe to run over a directory of
// archives bigger than RAM, under traffic:
//
//   - a shared rapidgzip.CachePool bounds the decompressed span bytes
//     cached across every open archive to one byte budget;
//   - an LRU handle cache bounds how many archives are open at once,
//     closing the coldest when a new name is requested;
//   - a two-lane admission gate bounds concurrent archive opens (each
//     may cost a sizing pass) while reserving slots that heavyweight
//     cold scans can never occupy, and a read semaphore bounds
//     concurrent body decodes — both waits honor the request context,
//     so a disconnected client stops occupying a slot immediately;
//   - a background warm-up subsystem exports the index sidecar of any
//     archive whose open needed a sizing pass, so the next open of
//     that name is metadata-only.
package server

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
)

// Config configures a Server. The zero value of every field selects a
// sensible default; Root is the only required field.
type Config struct {
	// Root is the directory whose files are served as archives.
	Root string
	// MaxOpenArchives caps concurrently open archives (the handle
	// cache's LRU capacity). Opening the N+1th closes the coldest.
	// Zero selects 64. An archive opened through a gzip index holds two
	// file descriptors, the compressed file and the index it reads
	// windows from, so the cap holds up to twice as many descriptors.
	MaxOpenArchives int
	// OpenSlots caps concurrent cold opens — each may run a sizing
	// pass over the whole compressed file. Zero selects NumCPU/2
	// (min 1).
	OpenSlots int
	// HeavyOpenSlots caps how many of the OpenSlots may run *heavy*
	// opens concurrently — cold opens of scan-to-size formats (bzip2,
	// gzip, zstd) at or above HeavyOpenBytes with no index sidecar.
	// Keeping this strictly below OpenSlots means a stampede of cold
	// multi-GiB scans can never occupy every open slot while KB-scale
	// archives queue behind them. Zero selects max(1, OpenSlots/2).
	HeavyOpenSlots int
	// HeavyOpenBytes is the compressed size at which an unindexed open
	// counts as heavy. Zero selects 4 MiB; below it even a full sizing
	// decode is quick enough to ride the light lane.
	HeavyOpenBytes int64
	// ReadSlots caps concurrent response bodies being decoded. Zero
	// selects 4×NumCPU.
	ReadSlots int
	// PoolBudget is the shared span-cache budget in bytes across all
	// open archives. Zero selects 256 MiB; negative disables the
	// shared pool (each archive keeps a private span-count cache and
	// memory is unbounded across archives).
	PoolBudget int64
	// IndexStore is the directory index sidecars are warmed into and
	// opens consult first: "<store>/<name>.rgzidx", parent directories
	// created as needed. Empty selects "beside the archive" — the
	// sibling "<archive>.rgzidx" layout Open auto-discovers. A shared
	// store keeps sidecars off read-only archive roots and lets a
	// fleet of servers share one warm index set.
	IndexStore string
	// WarmupWorkers bounds concurrent background index exports. Zero
	// selects 1; negative disables warm-up entirely.
	WarmupWorkers int
	// CacheControl is the Cache-Control header value sent on archive
	// responses. Empty selects "public, max-age=60"; "none" sends no
	// header.
	CacheControl string
	// Options are extra open options applied to every archive (e.g.
	// rapidgzip.WithParallelism). The server appends its own
	// WithSharedPool.
	Options []rapidgzip.Option
}

// Metrics is a snapshot of the server's request counters.
type Metrics struct {
	Requests      uint64 `json:"requests"`
	RangeRequests uint64 `json:"range_requests"`
	// NotModified counts conditional GET/HEADs answered 304 — served
	// from the handle's metadata alone, with no body decode.
	NotModified uint64 `json:"not_modified"`
	BytesServed uint64 `json:"bytes_served"`
	// BodyDecodes counts responses that acquired a read slot and
	// decoded body bytes; 304s and HEADs never move it.
	BodyDecodes uint64 `json:"body_decodes"`
	// BodyErrors counts bodies cut short after the status line by a
	// decode or source-read failure (each is logged); BodyAborts those
	// cut short because the client went away.
	BodyErrors      uint64 `json:"body_errors"`
	BodyAborts      uint64 `json:"body_aborts"`
	HandleHits      uint64 `json:"handle_hits"`
	HandleMisses    uint64 `json:"handle_misses"`
	HandleEvictions uint64 `json:"handle_evictions"`
	OpenFailures    uint64 `json:"open_failures"`
	// HeavyOpens counts cold opens classified into the heavy admission
	// lane (large scan-to-size archives with no sidecar).
	HeavyOpens uint64 `json:"heavy_opens"`
	// CanceledWaits counts slot waits abandoned because the client
	// disconnected (or timed out) before a slot freed up.
	CanceledWaits uint64 `json:"canceled_waits"`
	// OpenArchives counts ready, successfully opened handles in the
	// cache — pending cold opens and failed opens are excluded.
	OpenArchives int `json:"open_archives"`
	// Warm-up subsystem counters: sidecar exports accepted, finished,
	// errored, and skipped (dedup, sidecar already present, queue
	// full). Queued == Completed + Failed once the queue drains.
	WarmupsQueued    uint64 `json:"warmups_queued"`
	WarmupsCompleted uint64 `json:"warmups_completed"`
	WarmupsFailed    uint64 `json:"warmups_failed"`
	WarmupsSkipped   uint64 `json:"warmups_skipped"`
}

// Server serves decompressed byte ranges of the archives under a root
// directory. Create with New, mount via Handler, release with Close.
type Server struct {
	root           string
	pool           *rapidgzip.CachePool // nil when disabled
	adm            *admission
	readSem        chan struct{}
	openOpts       []rapidgzip.Option
	indexStore     string // "" = sidecars beside the archives
	heavyOpenBytes int64
	cacheControl   string  // "" = no header
	warm           *warmup // nil when disabled
	mu             sync.Mutex
	handles        *cache.Cache[string, *handle]
	releasing      []*handle // evicted handles pending release outside mu
	closed         bool

	requests        atomic.Uint64
	rangeRequests   atomic.Uint64
	notModified     atomic.Uint64
	bytesServed     atomic.Uint64
	bodyDecodes     atomic.Uint64
	bodyErrors      atomic.Uint64
	bodyAborts      atomic.Uint64
	handleHits      atomic.Uint64
	handleMisses    atomic.Uint64
	handleEvictions atomic.Uint64
	openFailures    atomic.Uint64
	heavyOpens      atomic.Uint64
	canceledWaits   atomic.Uint64
}

// handle is one open archive plus the response metadata derived from
// it. Opens are single-flight: the creating request inserts the handle
// with ready still open, opens the archive, then closes ready; every
// other request for the same name waits on ready instead of opening a
// second time.
//
// refs counts the cache's reference (1 while cached) plus one per
// request currently serving from the handle; the last release closes
// the archive. Eviction from the handle cache therefore never yanks an
// archive out from under an in-flight response — it only drops the
// cache's reference.
type handle struct {
	name  string
	ready chan struct{} // closed when open finished (a or err set)

	a       rapidgzip.Archive
	size    int64 // decompressed size, resolved at open
	etag    string
	modTime time.Time
	err     error // open failure; handle was removed from the cache
	// staleIndex is set when the store sidecar the open was given did
	// not import: the open ran without it.
	staleIndex bool

	refs int // guarded by the server's mu
}

// New constructs a Server over cfg.Root. The root must exist and be a
// directory.
func New(cfg Config) (*Server, error) {
	st, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return nil, errors.New("server: root is not a directory")
	}
	maxOpen := cfg.MaxOpenArchives
	if maxOpen <= 0 {
		maxOpen = 64
	}
	openSlots := cfg.OpenSlots
	if openSlots <= 0 {
		openSlots = max(1, runtime.NumCPU()/2)
	}
	heavySlots := cfg.HeavyOpenSlots
	if heavySlots <= 0 {
		heavySlots = max(1, openSlots/2)
	}
	heavyBytes := cfg.HeavyOpenBytes
	if heavyBytes <= 0 {
		heavyBytes = 4 << 20
	}
	readSlots := cfg.ReadSlots
	if readSlots <= 0 {
		readSlots = 4 * runtime.NumCPU()
	}
	budget := cfg.PoolBudget
	if budget == 0 {
		budget = 256 << 20
	}
	cacheControl := cfg.CacheControl
	switch cacheControl {
	case "":
		cacheControl = "public, max-age=60"
	case "none":
		cacheControl = ""
	}
	s := &Server{
		root:           cfg.Root,
		adm:            newAdmission(openSlots, heavySlots),
		readSem:        make(chan struct{}, readSlots),
		openOpts:       cfg.Options,
		indexStore:     cfg.IndexStore,
		heavyOpenBytes: heavyBytes,
		cacheControl:   cacheControl,
		handles:        cache.NewLRUCache[string, *handle](maxOpen),
	}
	if budget > 0 {
		s.pool = rapidgzip.NewCachePool(budget)
		s.openOpts = append(s.openOpts[:len(s.openOpts):len(s.openOpts)],
			rapidgzip.WithSharedPool(s.pool))
	}
	if cfg.WarmupWorkers >= 0 {
		s.warm = newWarmup(s, max(1, cfg.WarmupWorkers))
	}
	// Eviction only drops the cache's reference; the handle closes when
	// the last in-flight request releases it. The release itself (which
	// may close an archive and wait out its workers) runs after mu is
	// dropped — see drainReleases.
	s.handles.OnEvict = func(_ string, h *handle) {
		s.handleEvictions.Add(1)
		s.releasing = append(s.releasing, h)
	}
	return s, nil
}

// Pool returns the shared span-cache pool, or nil when disabled.
func (s *Server) Pool() *rapidgzip.CachePool { return s.pool }

// Metrics returns a snapshot of the request counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	open := 0
	for _, name := range s.handles.Keys() {
		h, ok := s.handles.Peek(name)
		if !ok {
			continue
		}
		// Only ready, successfully opened archives count as open:
		// handles mid-cold-open hold no archive yet, and failed opens
		// (still cached for the instant before acquire drops them)
		// never held one.
		select {
		case <-h.ready:
			if h.err == nil && h.a != nil {
				open++
			}
		default:
		}
	}
	s.mu.Unlock()
	m := Metrics{
		Requests:        s.requests.Load(),
		RangeRequests:   s.rangeRequests.Load(),
		NotModified:     s.notModified.Load(),
		BytesServed:     s.bytesServed.Load(),
		BodyDecodes:     s.bodyDecodes.Load(),
		BodyErrors:      s.bodyErrors.Load(),
		BodyAborts:      s.bodyAborts.Load(),
		HandleHits:      s.handleHits.Load(),
		HandleMisses:    s.handleMisses.Load(),
		HandleEvictions: s.handleEvictions.Load(),
		OpenFailures:    s.openFailures.Load(),
		HeavyOpens:      s.heavyOpens.Load(),
		CanceledWaits:   s.canceledWaits.Load(),
		OpenArchives:    open,
	}
	if s.warm != nil {
		m.WarmupsQueued = s.warm.queued.Load()
		m.WarmupsCompleted = s.warm.completed.Load()
		m.WarmupsFailed = s.warm.failed.Load()
		m.WarmupsSkipped = s.warm.skipped.Load()
	}
	return m
}

// Close stops the warm-up workers, then evicts and closes every open
// archive. In-flight requests holding references finish against their
// handles; the last release closes each archive.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Warm-up first: its workers acquire handles, and acquire refuses
	// new work once closed is set, so after shutdown no new references
	// appear behind the eviction sweep below.
	s.warm.shutdown()
	s.mu.Lock()
	for _, name := range s.handles.Keys() {
		if h, ok := s.handles.Peek(name); ok {
			s.releasing = append(s.releasing, h)
			s.handles.Delete(name)
		}
	}
	s.mu.Unlock()
	s.drainReleases()
	return nil
}

// errServerClosed reports acquire after Close.
var errServerClosed = errors.New("server: closed")

// cleanName validates and normalises an archive name from a URL path.
// It rejects anything that could escape the root (the name is resolved
// rooted, so ".." collapses harmlessly, but absolute/backslash forms
// are refused outright) and the server's own index sidecars.
func cleanName(raw string) (string, bool) {
	if raw == "" || strings.ContainsRune(raw, '\\') || strings.ContainsRune(raw, 0) {
		return "", false
	}
	name := path.Clean("/" + raw)[1:] // rooted clean: ".." cannot climb
	if name == "" || name == "." {
		return "", false
	}
	if strings.HasSuffix(name, rapidgzip.IndexSuffix) {
		return "", false // index sidecars are not archives
	}
	return name, true
}

// fullPath resolves an already-cleaned archive name under the root.
func (s *Server) fullPath(name string) string {
	return filepath.Join(s.root, filepath.FromSlash(name))
}

// indexPathFor returns where name's index sidecar lives (or belongs):
// under the index store when one is configured, beside the archive
// otherwise.
func (s *Server) indexPathFor(name string) string {
	if s.indexStore != "" {
		return filepath.Join(s.indexStore, filepath.FromSlash(name)+rapidgzip.IndexSuffix)
	}
	return s.fullPath(name) + rapidgzip.IndexSuffix
}

// classifyOpen decides the admission lane of a cold open and resolves
// the index to import, before any slot is held:
//
//   - a store sidecar exists → light, import it explicitly;
//   - a sibling sidecar exists → light, Open auto-discovers it;
//   - the file is small (below HeavyOpenBytes) → light, even a full
//     sizing decode of it is quick;
//   - otherwise the magic bytes decide: LZ4 and BGZF size themselves
//     by a metadata-only header walk and stay light, while gzip,
//     bzip2 and zstd may each cost a decode-everything pass cold —
//     the heavy lane exists exactly for them.
//
// The classification is a heuristic (a stale sidecar still falls back
// to a scan, a sized multi-frame zstd is cheaper than assumed); being
// wrong costs a little lane misallocation, never correctness.
func (s *Server) classifyOpen(name, full string) (heavy bool, indexPath string) {
	if s.indexStore != "" {
		if p := s.indexPathFor(name); isRegular(p) {
			return false, p
		}
	}
	if isRegular(full + rapidgzip.IndexSuffix) {
		return false, "" // sibling: Open's auto-discovery imports it
	}
	st, err := os.Stat(full)
	if err != nil || st.Size() < s.heavyOpenBytes {
		return false, ""
	}
	f, err := os.Open(full)
	if err != nil {
		return false, "" // the open proper will surface the error
	}
	prefix := make([]byte, rapidgzip.SniffLen)
	n, _ := io.ReadFull(f, prefix)
	f.Close()
	switch rapidgzip.DetectFormat(prefix[:n]) {
	case rapidgzip.FormatGzip, rapidgzip.FormatBzip2, rapidgzip.FormatZstd:
		return true, ""
	}
	return false, ""
}

// isRegular reports whether path exists and is a regular file.
func isRegular(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// acquire returns a ready handle for name, opening the archive if it
// is not cached. The caller must call s.release(h) when done. A handle
// with h.err != nil is returned for failed opens (already released
// from the cache so the next request retries).
//
// Both the wait for another request's in-flight open and the wait for
// an admission slot honor ctx: when the client disconnects, acquire
// returns ctx's error holding nothing.
func (s *Server) acquire(ctx context.Context, name string) (*handle, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errServerClosed
	}
	if h, ok := s.handles.Get(name); ok {
		h.refs++
		s.mu.Unlock()
		s.handleHits.Add(1)
		select {
		case <-h.ready:
			return h, nil
		case <-ctx.Done():
			// The opener still holds its own reference, so this release
			// can never be the one that closes the archive mid-open.
			s.canceledWaits.Add(1)
			s.release(h)
			return nil, ctx.Err()
		}
	}
	h := &handle{name: name, ready: make(chan struct{}), refs: 2} // cache + this request
	s.handles.Put(name, h)
	s.mu.Unlock()
	s.handleMisses.Add(1)
	s.drainReleases()

	// Cold open, bounded by the admission gate: a sizing pass over a
	// large archive is expensive, an unbounded stampede of distinct
	// names must not run one per request, and the heavy lane keeps the
	// expensive scans from occupying every slot.
	full := s.fullPath(name)
	heavy, indexPath := s.classifyOpen(name, full)
	if heavy {
		s.heavyOpens.Add(1)
	}
	if err := s.adm.acquire(ctx, heavy); err != nil {
		// Abandoned open: fail the handle so requests already waiting on
		// ready error out instead of hanging, and drop the cache's
		// reference so the next request retries with a fresh handle.
		s.canceledWaits.Add(1)
		h.err = err
		close(h.ready)
		s.mu.Lock()
		if cur, ok := s.handles.Peek(name); ok && cur == h {
			s.handles.Delete(name)
			h.refs--
		}
		s.mu.Unlock()
		s.release(h) // this request's reference
		return nil, err
	}
	h.open(s, full, indexPath)
	s.adm.release(heavy)
	close(h.ready)

	if h.err != nil {
		s.openFailures.Add(1)
		// Drop the cache's reference so the next request retries
		// instead of caching the failure.
		s.mu.Lock()
		if cur, ok := s.handles.Peek(name); ok && cur == h {
			s.handles.Delete(name)
			h.refs--
		}
		s.mu.Unlock()
	} else if h.staleIndex {
		// The store sidecar is there and useless — corrupt, another
		// file's, an earlier format's. Left alone it would keep every
		// open of this name cold, and classifyOpen routing it as light.
		s.warm.replace(name)
	} else if h.a.Stats().SizingPasses > 0 {
		// The open paid a sizing pass, meaning no usable index existed;
		// warm one up in the background so the next open of this name
		// (here or in the next process) is metadata-only.
		s.warm.enqueue(name)
	}
	return h, nil
}

// open resolves the archive behind h. Called once, by the acquiring
// request, with an admission slot held. indexPath, when non-empty, is
// a store sidecar to import explicitly; a stale or corrupt one falls
// back to a plain open, mirroring sibling auto-discovery's behavior, and
// is marked for replacement.
func (h *handle) open(s *Server, full, indexPath string) {
	st, err := os.Stat(full)
	if err != nil {
		h.err = err
		return
	}
	if st.IsDir() {
		h.err = fs.ErrNotExist
		return
	}
	var a rapidgzip.Archive
	if indexPath != "" {
		opts := append(s.openOpts[:len(s.openOpts):len(s.openOpts)],
			rapidgzip.WithIndexFile(indexPath))
		a, err = rapidgzip.Open(full, opts...)
		h.staleIndex = err != nil
	}
	if indexPath == "" || err != nil {
		a, err = rapidgzip.Open(full, s.openOpts...)
	}
	if err != nil {
		h.err = err
		return
	}
	size, known := a.DecompressedSize()
	if !known {
		// Complete the scan now, once, under the open slot — every
		// request needs Content-Length, and resolving it per request
		// would serialise decodes behind the archive's cursor lock.
		if size, err = a.Size(); err != nil {
			a.Close()
			h.err = err
			return
		}
	}
	h.a = a
	h.size = size
	h.modTime = st.ModTime()
	h.etag = makeETag(st.Size(), st.ModTime(), size)
	h.err = nil
}

// release drops one reference; the last reference closes the archive.
// A handle can only reach zero references after its open finished (the
// opener holds a reference until ready is closed), so reading h.a here
// is ordered after the opener's writes.
func (s *Server) release(h *handle) {
	s.mu.Lock()
	h.refs--
	last := h.refs == 0
	s.mu.Unlock()
	if last && h.a != nil {
		h.a.Close()
	}
}

// drainReleases releases handles evicted while mu was held.
func (s *Server) drainReleases() {
	s.mu.Lock()
	pending := s.releasing
	s.releasing = nil
	s.mu.Unlock()
	for _, h := range pending {
		s.release(h)
	}
}

// openHandles snapshots the currently cached handles for the metrics
// endpoint, taking a reference on each. The caller must release every
// returned handle, and must not block on handles whose ready channel
// is still open.
func (s *Server) openHandles() []*handle {
	s.mu.Lock()
	var out []*handle
	for _, name := range s.handles.Keys() {
		h, ok := s.handles.Peek(name)
		if !ok {
			continue
		}
		h.refs++
		out = append(out, h)
	}
	s.mu.Unlock()
	return out
}
