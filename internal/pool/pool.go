// Package pool implements a fixed-size worker pool with futures and two
// priority classes — the ThreadPool component of the paper's
// architecture (Figure 5). Speculative chunk decodes are submitted at
// low priority; marker replacement and everything the consumer is about
// to wait on run at high priority, so a deep backlog of prefetch work
// can never stall the sequential reader (§3.1–§3.3).
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool runs submitted tasks on a fixed number of worker goroutines.
// High-priority tasks always run before queued low-priority tasks.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	high   []func()
	low    []func()
	closed bool
	wg     sync.WaitGroup
}

// New starts a pool with n workers (n < 1 is clamped to 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for !p.closed && len(p.high) == 0 && len(p.low) == 0 {
			p.cond.Wait()
		}
		var f func()
		switch {
		case len(p.high) > 0:
			f = p.high[0]
			p.high = p.high[1:]
		case len(p.low) > 0:
			f = p.low[0]
			p.low = p.low[1:]
		default: // closed and drained
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		f()
	}
}

// Submit enqueues f at high priority. Submitting after Close panics;
// callers own that ordering.
func (p *Pool) Submit(f func()) { p.submit(f, true) }

func (p *Pool) submit(f func(), high bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("pool: submit after Close")
	}
	if high {
		p.high = append(p.high, f)
	} else {
		p.low = append(p.low, f)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Close stops accepting tasks and waits for the workers to drain the
// queues. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Future is the result slot of an asynchronous task.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
	// started is won by the one goroutine that runs the task: a worker,
	// or a caller of Join, whichever gets to it first.
	started atomic.Bool
	run     func()
}

// Go submits fn to p at high priority and returns a Future.
func Go[T any](p *Pool, fn func() (T, error)) *Future[T] {
	return submitFuture(p, fn, true)
}

// GoLow submits fn to p at low priority and returns a Future.
func GoLow[T any](p *Pool, fn func() (T, error)) *Future[T] {
	return submitFuture(p, fn, false)
}

func submitFuture[T any](p *Pool, fn func() (T, error), high bool) *Future[T] {
	f := Lazy(fn)
	p.submit(func() { f.start() }, high)
	return f
}

// Lazy returns a Future for a task no worker will pick up: fn runs on
// the first goroutine to call Join. It gives work a caller is about to
// do itself the same result slot a submitted task has, so others who
// want the result can Join it instead of repeating the work.
func Lazy[T any](fn func() (T, error)) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	f.run = func() {
		f.val, f.err = fn()
		fn = nil // the future may outlive the task; what fn captured need not
		close(f.done)
	}
	return f
}

// Wait blocks until the task completes and returns its result.
func (f *Future[T]) Wait() (T, error) {
	<-f.done
	return f.val, f.err
}

// Join is Wait for a caller that has nothing else to do: a task no
// worker has started yet runs on the caller's goroutine instead of
// waiting its turn behind tasks that are already running. Workers never
// preempt, so without this a reader blocked on a queued high-priority
// task idles for as long as the speculative tasks ahead of it take.
func (f *Future[T]) Join() (T, error) {
	f.start()
	return f.Wait()
}

// JoinContext is Join that gives up waiting once ctx is done. A task it
// starts itself still runs to its end here; one that runs elsewhere is
// left to finish there, and ctx's error is returned instead of its
// result.
func (f *Future[T]) JoinContext(ctx context.Context) (T, error) {
	if f.start() || ctx.Done() == nil {
		return f.Wait()
	}
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Started reports whether a goroutine has begun the task.
func (f *Future[T]) Started() bool { return f.started.Load() }

// Help runs the task on this goroutine if none has begun it, and reports
// whether it did; unlike Join, it never waits for one that runs elsewhere.
func (f *Future[T]) Help() bool { return f.start() }

// start runs the task on this goroutine unless another has begun it, and
// reports whether it did.
func (f *Future[T]) start() bool {
	if !f.started.CompareAndSwap(false, true) {
		return false
	}
	f.run()
	return true
}
