// Background index warm-up: the first open of an archive without a
// sidecar pays the format's sizing pass in-request (there is no way
// around it — the response needs Content-Length), but nothing says the
// *next* cold open has to pay it again. After any such open the server
// queues the archive for a bounded background worker that exports the
// archive's index (the current RGZIDX format) to the index store (a
// configurable directory, default beside the archive), via a crash-safe
// temp-file-then-rename write. The next open of that name — in this
// process after a handle eviction, or in the next process entirely —
// imports the sidecar and skips the sizing pass. A store sidecar that
// no longer imports (corrupt, for another file, or of an earlier format
// version) is replaced the same way; a sidecar beside the archive is the
// operator's file and is never rewritten.
package server

import (
	"context"
	"os"
	"sync"
	"sync/atomic"

	"repro"
)

// warmup is the background index-export subsystem. Enqueue requests are
// deduplicated single-flight per archive name, the queue is bounded
// (overflow is counted, not blocked on), and `workers` goroutines drain
// it. All counters are exposed through Metrics.
type warmup struct {
	s      *Server
	queue  chan warmJob
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]bool // names queued or being exported

	queued    atomic.Uint64 // accepted into the queue
	completed atomic.Uint64 // sidecar written and renamed into place
	failed    atomic.Uint64 // export errored (unreadable archive, read-only store)
	skipped   atomic.Uint64 // dedup, sidecar already present, or queue full
}

// warmJob is one queued export: replace is set for a store sidecar that
// failed to import, which the export overwrites.
type warmJob struct {
	name    string
	replace bool
}

// newWarmup starts `workers` export workers feeding on a bounded queue.
func newWarmup(s *Server, workers int) *warmup {
	ctx, cancel := context.WithCancel(context.Background())
	w := &warmup{
		s:        s,
		queue:    make(chan warmJob, 64*workers),
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[string]bool),
	}
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.run()
	}
	return w
}

// enqueue queues name for a background index export unless one is
// already queued or running for it, the sidecar already exists, or the
// queue is full. Never blocks: warm-up is an optimisation, and the
// serving path must not wait on it.
func (w *warmup) enqueue(name string) { w.add(warmJob{name: name}) }

// replace queues name for an export over its store sidecar, which the
// open that calls it failed to import: an existing file is no reason to
// skip this one.
func (w *warmup) replace(name string) { w.add(warmJob{name: name, replace: true}) }

// add is enqueue and replace.
func (w *warmup) add(job warmJob) {
	if w == nil {
		return
	}
	name := job.name
	if _, err := os.Stat(w.s.indexPathFor(name)); err == nil && !job.replace {
		w.skipped.Add(1)
		return
	}
	w.mu.Lock()
	if w.inflight[name] {
		w.mu.Unlock()
		w.skipped.Add(1)
		return
	}
	w.inflight[name] = true
	w.mu.Unlock()
	select {
	case w.queue <- job:
		w.queued.Add(1)
	default:
		w.done(name)
		w.skipped.Add(1)
	}
}

// done clears name's single-flight mark.
func (w *warmup) done(name string) {
	w.mu.Lock()
	delete(w.inflight, name)
	w.mu.Unlock()
}

// run is one export worker.
func (w *warmup) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.ctx.Done():
			return
		case job := <-w.queue:
			w.export(job)
		}
	}
}

// export writes name's index sidecar. The archive is acquired through
// the regular handle cache — usually a hit on the handle whose open
// triggered the warm-up — and the reference keeps it alive for the
// duration even if the LRU evicts it meanwhile. For gzip the export may
// complete the seek-point index first (one full background decode);
// every other format's checkpoint table exists since open.
func (w *warmup) export(job warmJob) {
	name := job.name
	defer w.done(name)
	target := w.s.indexPathFor(name)
	if _, err := os.Stat(target); err == nil && !job.replace {
		w.skipped.Add(1) // lost a race against another writer of the sidecar
		return
	}
	h, err := w.s.acquire(w.ctx, name)
	if err != nil {
		if w.ctx.Err() == nil {
			w.failed.Add(1)
		}
		return
	}
	defer w.s.release(h)
	if h.err != nil {
		w.failed.Add(1)
		return
	}
	if err := rapidgzip.ExportIndexFile(h.a, target); err != nil {
		w.failed.Add(1)
		return
	}
	w.completed.Add(1)
}

// shutdown stops the workers and waits for the in-flight export (which
// is not cancellable mid-write) to finish.
func (w *warmup) shutdown() {
	if w == nil {
		return
	}
	w.cancel()
	w.wg.Wait()
}
