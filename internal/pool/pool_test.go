package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := New(4)
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { count.Add(1) })
	}
	p.Close()
	if count.Load() != 100 {
		t.Fatalf("ran %d tasks", count.Load())
	}
}

func TestFuture(t *testing.T) {
	p := New(2)
	defer p.Close()
	f := Go(p, func() (int, error) { return 42, nil })
	v, err := f.Wait()
	if err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
	// Waiting again returns the same result.
	v, _ = f.Wait()
	if v != 42 {
		t.Fatal("second wait")
	}
}

func TestFutureError(t *testing.T) {
	p := New(1)
	defer p.Close()
	wantErr := errors.New("boom")
	f := Go(p, func() (string, error) { return "", wantErr })
	_, err := f.Wait()
	if err != wantErr {
		t.Fatalf("got %v", err)
	}
}

func TestParallelism(t *testing.T) {
	// With n workers, n long tasks must overlap.
	const n = 4
	p := New(n)
	defer p.Close()
	var running, peak atomic.Int64
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		p.Submit(func() {
			cur := running.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(30 * time.Millisecond)
			running.Add(-1)
			done <- struct{}{}
		})
	}
	for i := 0; i < n; i++ {
		<-done
	}
	if peak.Load() != n {
		t.Fatalf("peak parallelism %d want %d", peak.Load(), n)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(1)
	p.Close()
	p.Close() // must not panic
}

func TestJoinRunsQueuedTaskOnCaller(t *testing.T) {
	p := New(1)
	defer p.Close()
	// The only worker is held, so the second task cannot start there.
	started, release := make(chan struct{}), make(chan struct{})
	blocker := GoLow(p, func() (int, error) { close(started); <-release; return 0, nil })
	<-started
	var runs atomic.Int64
	f := Go(p, func() (int, error) { runs.Add(1); return 7, nil })
	if v, err := f.Join(); v != 7 || err != nil {
		t.Fatalf("Join = %d, %v", v, err)
	}
	close(release)
	blocker.Wait()
	// The worker finds the task done when it gets to it.
	if v, _ := f.Wait(); v != 7 || runs.Load() != 1 {
		t.Fatalf("task ran %d times", runs.Load())
	}
}

func TestJoinRacesWorkers(t *testing.T) {
	p := New(2)
	defer p.Close()
	for i := 0; i < 200; i++ {
		var runs atomic.Int64
		f := Go(p, func() (int, error) { runs.Add(1); return i, nil })
		done := make(chan int)
		for j := 0; j < 2; j++ {
			go func() { v, _ := f.Join(); done <- v }()
		}
		if a, b := <-done, <-done; a != i || b != i || runs.Load() != 1 {
			t.Fatalf("task %d: joined %d and %d after %d runs", i, a, b, runs.Load())
		}
	}
}

// TestLazyRunsOnceOnAJoiner: a Lazy task waits for a Join, runs on the
// goroutine that joins first and hands every joiner the one result.
func TestLazyRunsOnceOnAJoiner(t *testing.T) {
	var runs atomic.Int64
	f := Lazy(func() (int, error) { runs.Add(1); return 9, nil })
	if runs.Load() != 0 {
		t.Fatal("a Lazy task ran before anyone joined it")
	}
	done := make(chan int)
	for j := 0; j < 4; j++ {
		go func() { v, _ := f.Join(); done <- v }()
	}
	for j := 0; j < 4; j++ {
		if v := <-done; v != 9 {
			t.Fatalf("joined %d", v)
		}
	}
	if v, err := f.Wait(); v != 9 || err != nil || runs.Load() != 1 {
		t.Fatalf("Wait = %d, %v after %d runs", v, err, runs.Load())
	}
}

// TestJoinContext: a task nobody has started runs on the joiner whatever
// the context says; waiting for one a worker runs ends with the context,
// and the task still finishes on the worker.
func TestJoinContext(t *testing.T) {
	p := New(1)
	defer p.Close()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := Lazy(func() (int, error) { return 3, nil }).JoinContext(canceled); v != 3 || err != nil {
		t.Fatalf("JoinContext of an unstarted task = %d, %v; want it run here", v, err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	f := Go(p, func() (int, error) { close(started); <-release; return 5, nil })
	<-started
	if _, err := f.JoinContext(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("JoinContext of a running task = %v, want context.Canceled", err)
	}
	close(release)
	if v, err := f.JoinContext(context.Background()); v != 5 || err != nil {
		t.Fatalf("the task ran on to %d, %v", v, err)
	}
}
