package main

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
	"time"
)

// The reference host inflates the calibration stream in this long when
// nothing else runs on it. A run's host factor is its own median
// calibration time over this one.
const calibNominal = 4150 * time.Microsecond

// calibrator measures how fast the host is right now with a fixed piece
// of work that shares no code with the program under test: the standard
// library inflating 1 MiB of corpus on every processor at once. The
// sandbox's processors slow down by a quarter and more for minutes at a
// time (another tenant, not this process); a run inside such a stretch
// reads 25% low on every metric of every workload, set-up included.
// Timing the same fixed work between the passes tells the two apart.
type calibrator struct {
	comp    []byte
	workers int
	samples []float64 // ms
}

func newCalibrator(workers int) *calibrator {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		panic(err) // level 6 is valid
	}
	zw.Write(corpus(1<<20, 0))
	zw.Close()
	return &calibrator{comp: buf.Bytes(), workers: workers}
}

// sample inflates the stream once on every worker and records the mean
// time one took.
func (c *calibrator) sample() {
	times := make([]time.Duration, c.workers)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			io.Copy(io.Discard, flate.NewReader(bytes.NewReader(c.comp)))
			times[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	c.samples = append(c.samples, ms(sum)/float64(c.workers))
}

// factor is how much slower than nominal the host ran: above 1 when it
// was slow.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / ms(calibNominal)
}
