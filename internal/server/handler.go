package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"mime"
	"net/http"
	"os"
	"path"
	"sort"
	"strings"
	"time"

	"repro"
)

// Handler returns the server's HTTP interface:
//
//	GET/HEAD /archives/<name>  decompressed bytes of <name>, Range-aware
//	GET      /archives/        JSON list of servable archive names
//	GET      /stats/<name>     backend counters of one archive (opens it)
//	GET      /metrics          pool, server and per-archive counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/archives/", s.handleArchive)
	mux.HandleFunc("/stats/", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// openError maps an archive-open failure onto an HTTP status.
func openError(err error) int {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, rapidgzip.ErrUnsupportedFormat):
		return http.StatusUnsupportedMediaType
	case errors.Is(err, fs.ErrPermission):
		return http.StatusForbidden
	default:
		return http.StatusInternalServerError
	}
}

// acquireError answers a failed Server.acquire: 503 either way, with
// Retry-After when the wait was cut short (a canceled or timed-out
// request gave up its queue position — the server itself is fine).
func acquireError(w http.ResponseWriter, err error) {
	if !errors.Is(err, errServerClosed) {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}

// compressedExts are stripped before guessing a Content-Type, so
// "logs.json.gz" serves as application/json — the response body is the
// decompressed stream, after all.
var compressedExts = map[string]bool{
	".gz": true, ".bgz": true, ".bgzf": true, ".bz2": true,
	".lz4": true, ".zst": true, ".zstd": true,
}

// contentType guesses the media type of the decompressed content.
func contentType(name string) string {
	if compressedExts[strings.ToLower(path.Ext(name))] {
		name = strings.TrimSuffix(name, path.Ext(name))
	}
	if t := mime.TypeByExtension(path.Ext(name)); t != "" {
		return t
	}
	return "application/octet-stream"
}

// makeETag derives a strong validator from everything the response
// depends on: the compressed file's identity (size + mtime) and the
// decompressed size.
func makeETag(compSize int64, mod time.Time, decompSize int64) string {
	return fmt.Sprintf(`"%x-%x-%x"`, compSize, mod.UnixNano(), decompSize)
}

// handleArchive serves GET/HEAD /archives/<name> and GET /archives/.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/archives/")
	if raw == "" {
		s.handleList(w, r)
		return
	}
	name, ok := cleanName(raw)
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	h, err := s.acquire(r.Context(), name)
	if err != nil {
		acquireError(w, err)
		return
	}
	defer s.release(h)
	if h.err != nil {
		http.Error(w, h.err.Error(), openError(h.err))
		return
	}

	hdr := w.Header()
	hdr.Set("Accept-Ranges", "bytes")
	hdr.Set("ETag", h.etag)
	hdr.Set("Last-Modified", h.modTime.UTC().Format(http.TimeFormat))
	if s.cacheControl != "" {
		hdr.Set("Cache-Control", s.cacheControl)
	}
	hdr.Set("Vary", "Accept-Encoding")

	// Conditional GET/HEAD: a matching validator short-circuits before
	// range parsing and before any read slot — a 304 is served from the
	// handle's metadata alone and never touches the decode path.
	if conditionalHit(r, h.etag, h.modTime) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr.Set("Content-Type", contentType(name))

	off, n, res := int64(0), h.size, rangeNone
	if rh := r.Header.Get("Range"); rh != "" {
		s.rangeRequests.Add(1)
		// If-Range: serve the range only against the exact entity it
		// was requested for; on mismatch fall back to the full body.
		if ir := r.Header.Get("If-Range"); ir == "" || ir == h.etag ||
			ir == h.modTime.UTC().Format(http.TimeFormat) {
			off, n, res = parseRange(rh, h.size)
		}
	}
	if res == rangeUnsatisfiable {
		hdr.Set("Content-Range", fmt.Sprintf("bytes */%d", h.size))
		http.Error(w, "range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if res == rangeNone {
		off, n = 0, h.size
	}

	// Take the decode slot BEFORE committing the status line: once
	// WriteHeader runs, the 200/206 is on the wire and a canceled wait
	// could no longer be reported as 503. HEADs and empty bodies skip
	// the slot entirely — they decode nothing.
	needBody := r.Method != http.MethodHead && n > 0
	if needBody {
		select {
		case s.readSem <- struct{}{}:
			defer func() { <-s.readSem }()
		case <-r.Context().Done():
			s.canceledWaits.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "canceled while waiting for a decode slot",
				http.StatusServiceUnavailable)
			return
		}
	}

	if res == rangePartial {
		hdr.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, h.size))
		hdr.Set("Content-Length", fmt.Sprint(n))
		w.WriteHeader(http.StatusPartialContent)
	} else {
		hdr.Set("Content-Length", fmt.Sprint(n))
		w.WriteHeader(http.StatusOK)
	}
	if !needBody {
		return
	}

	// Body decode, bounded by readSem: one span walk that hands the
	// client each cached span as it is, a Write per span. It takes no
	// cursor lock, so concurrent downloads of one archive do not
	// serialise, and it stops between spans once the request's context
	// is done, which frees the slot when a client leaves mid-body.
	s.bodyDecodes.Add(1)
	if res == rangeNone {
		// A whole-file GET reads the compressed source front to back;
		// let the kernel widen readahead.
		if adv, ok := h.a.(interface{ AdviseSequentialRead() }); ok {
			adv.AdviseSequentialRead()
		}
	}
	written, err := h.a.(rangeWriter).WriteRangeTo(r.Context(), w, off, n)
	if err == nil && written < n {
		err = io.ErrUnexpectedEOF
	}
	s.bytesServed.Add(uint64(written))
	if err == nil {
		return
	}
	// The status line is committed. A client that went away is its own
	// business; anything else is the archive's. Either way the response
	// is aborted, with the header flushed first in case no body byte
	// went out, so the client sees the status and then a failed
	// transfer, not a body that merely ends short of its Content-Length.
	if r.Context().Err() != nil {
		s.bodyAborts.Add(1)
	} else {
		s.bodyErrors.Add(1)
		log.Printf("rgzserve: %s: body [%d,%d) cut short after %d bytes: %v", name, off, off+n, written, err)
	}
	_ = http.NewResponseController(w).Flush()
	panic(http.ErrAbortHandler)
}

// rangeWriter is the method of the archives Open returns that bodies are
// written with (see rapidgzip.Archive).
type rangeWriter interface {
	WriteRangeTo(ctx context.Context, w io.Writer, off, n int64) (int64, error)
}

// handleList serves GET /archives/: the servable names under root.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var names []string
	err := fs.WalkDir(os.DirFS(s.root), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.HasSuffix(p, rapidgzip.IndexSuffix) {
			names = append(names, p)
		}
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sort.Strings(names)
	writeJSON(w, map[string]any{"archives": names})
}

// handleStats serves GET /stats/<name>: the archive's backend
// counters, opening it through the handle cache if necessary.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name, ok := cleanName(strings.TrimPrefix(r.URL.Path, "/stats/"))
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	h, err := s.acquire(r.Context(), name)
	if err != nil {
		acquireError(w, err)
		return
	}
	defer s.release(h)
	if h.err != nil {
		http.Error(w, h.err.Error(), openError(h.err))
		return
	}
	writeJSON(w, map[string]any{
		"name":              h.name,
		"format":            h.a.Format().String(),
		"decompressed_size": h.size,
		"stats":             h.a.Stats(),
	})
}

// handleMetrics serves GET /metrics: pool accounting, server counters
// and a per-open-archive stats map. Handles still mid-cold-open are
// skipped rather than waited on — metrics must answer promptly even
// while a multi-GiB sizing scan is in flight.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	archives := map[string]any{}
	handles := s.openHandles()
	for _, h := range handles {
		select {
		case <-h.ready:
			if h.err == nil && h.a != nil {
				archives[h.name] = map[string]any{
					"format":            h.a.Format().String(),
					"decompressed_size": h.size,
					"stats":             h.a.Stats(),
				}
			}
		default: // open still in flight: report it next time
		}
		s.release(h)
	}
	out := map[string]any{
		"server":   s.Metrics(),
		"archives": archives,
	}
	if s.pool != nil {
		out["pool"] = s.pool.Stats()
	}
	writeJSON(w, out)
}

// writeJSON emits v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
