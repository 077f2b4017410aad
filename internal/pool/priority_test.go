package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestHighPriorityPreemptsQueue verifies the property the chunk fetcher
// depends on: a marker-replacement task submitted while a deep backlog
// of speculative decodes is queued runs before that backlog.
func TestHighPriorityPreemptsQueue(t *testing.T) {
	p := New(1)
	defer p.Close()

	var mu sync.Mutex
	var order []string
	block := make(chan struct{})

	// Occupy the single worker.
	busy := Go(p, func() (int, error) {
		<-block
		return 0, nil
	})
	// Queue a deep low-priority backlog.
	var lows []*Future[int]
	for i := 0; i < 16; i++ {
		lows = append(lows, GoLow(p, func() (int, error) {
			mu.Lock()
			order = append(order, "low")
			mu.Unlock()
			return 0, nil
		}))
	}
	// Then one high-priority task.
	high := Go(p, func() (int, error) {
		mu.Lock()
		order = append(order, "high")
		mu.Unlock()
		return 0, nil
	})
	close(block)
	busy.Wait()
	high.Wait()
	for _, l := range lows {
		l.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "high" {
		t.Fatalf("high-priority task ran at position %v; order %v", order[0], order[:4])
	}
}

func TestLowPriorityStillRuns(t *testing.T) {
	p := New(4)
	defer p.Close()
	var count atomic.Int64
	var futs []*Future[int]
	for i := 0; i < 100; i++ {
		futs = append(futs, GoLow(p, func() (int, error) {
			count.Add(1)
			return 0, nil
		}))
	}
	for _, f := range futs {
		f.Wait()
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d of 100 low-priority tasks", count.Load())
	}
}

func TestCloseDrainsBothQueues(t *testing.T) {
	p := New(2)
	var count atomic.Int64
	for i := 0; i < 10; i++ {
		Go(p, func() (int, error) { count.Add(1); return 0, nil })
		GoLow(p, func() (int, error) { count.Add(1); return 0, nil })
	}
	p.Close()
	if count.Load() != 20 {
		t.Fatalf("Close dropped tasks: ran %d of 20", count.Load())
	}
	// Idempotent.
	p.Close()
}
