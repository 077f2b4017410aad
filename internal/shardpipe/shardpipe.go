// Package shardpipe runs an ordered parallel encode pipeline: fixed
// jobs are submitted in stream order, execute concurrently on a worker
// pool, and their results are handed to a single sink in submit order.
// It is the write-side mirror of the read path's span engine — the
// compressor analogue of "independent chunks decoded on the pool,
// joined in order by the consumer" (the structure pigz and pzstd use,
// which the paper's Table 3 / §4.8 identifies as what makes parallel
// *de*compression possible in the first place).
//
// The pipeline bounds in-flight jobs, so a fast producer cannot buffer
// an unbounded number of encoded shards: Submit blocks once the window
// is full, waiting for the oldest job to finish and be drained.
package shardpipe

import (
	"errors"

	"repro/internal/pool"
)

// Pipeline coordinates ordered parallel encoding. Not safe for
// concurrent Submit calls; one producer drives it (the Writer path is
// inherently sequential — it is the encoding that parallelizes).
type Pipeline[T any] struct {
	p        *pool.Pool
	inflight []*pool.Future[T]
	window   int
	sink     func(T) error
	err      error // first sink or job error; sticky
}

// New builds a pipeline running jobs on workers goroutines with at
// most window jobs in flight, delivering each result to sink in submit
// order. window < 1 is clamped to workers+1 (one shard encoding per
// worker plus one being drained).
func New[T any](workers, window int, sink func(T) error) *Pipeline[T] {
	if workers < 1 {
		workers = 1
	}
	if window < 1 {
		window = workers + 1
	}
	return &Pipeline[T]{p: pool.New(workers), window: window, sink: sink}
}

// ErrClosed reports a Submit after Close.
var ErrClosed = errors.New("shardpipe: pipeline is closed")

// Submit enqueues job for concurrent execution. It blocks while the
// in-flight window is full, draining the oldest result first. After
// any job or sink error the pipeline is poisoned: the error is
// returned here (and from Close) and further jobs are not run.
func (pl *Pipeline[T]) Submit(job func() (T, error)) error {
	if pl.p == nil {
		return ErrClosed
	}
	if pl.err != nil {
		return pl.err
	}
	for len(pl.inflight) >= pl.window {
		if err := pl.drainOne(); err != nil {
			return err
		}
	}
	pl.inflight = append(pl.inflight, pool.Go(pl.p, job))
	return nil
}

// drainOne waits for the oldest in-flight job and feeds its result to
// the sink, preserving submit order.
func (pl *Pipeline[T]) drainOne() error {
	fut := pl.inflight[0]
	pl.inflight = pl.inflight[1:]
	res, err := fut.Wait()
	if err == nil && pl.err == nil {
		// Results completing after a poison are waited for (the worker
		// must not outlive the pipeline) but never reach the sink: the
		// output stream is already broken at the failed shard.
		err = pl.sink(res)
	}
	if err != nil && pl.err == nil {
		pl.err = err
	}
	return pl.err
}

// Close drains every outstanding job (in order) and releases the
// worker pool. It returns the pipeline's first error, if any. Close
// is idempotent.
func (pl *Pipeline[T]) Close() error {
	if pl.p == nil {
		return pl.err
	}
	for len(pl.inflight) > 0 {
		pl.drainOne() // keeps draining past an error so workers finish
	}
	pl.p.Close()
	pl.p = nil
	return pl.err
}
