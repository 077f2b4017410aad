package main

import (
	"bytes"
	"math"
	"testing"
)

// The hot/cold generator puts the stated share of offsets inside the hot
// region and spreads the rest over the whole stream, never past the end.
func TestRangeGenProportions(t *testing.T) {
	g := rangeGen{size: 32 << 20, opBytes: 256 << 10, hotBytes: 4 << 20, hotFrac: 0.8}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	r := newRand(7, 1)
	const n = 200000
	hot, coldInHot := 0, 0
	for i := 0; i < n; i++ {
		off, isHot := g.next(r)
		if off < 0 || off+g.opBytes > g.size {
			t.Fatalf("offset %d leaves the stream", off)
		}
		if isHot {
			hot++
			if off+g.opBytes > g.hotBytes {
				t.Fatalf("hot offset %d leaves the hot region", off)
			}
		} else if off+g.opBytes <= g.hotBytes {
			coldInHot++
		}
	}
	if share := float64(hot) / n; math.Abs(share-0.8) > 0.005 {
		t.Errorf("hot share = %.4f, want 0.8", share)
	}
	// Uniform draws land in the hot region in proportion to its size.
	wantCold := float64(g.hotBytes-g.opBytes+1) / float64(g.size-g.opBytes+1)
	if share := float64(coldInHot) / float64(n-hot); math.Abs(share-wantCold) > 0.01 {
		t.Errorf("uniform draws inside the hot region = %.4f, want %.4f", share, wantCold)
	}
}

func TestRangeGenUniformAndValidate(t *testing.T) {
	g := rangeGen{size: 1000, opBytes: 10}
	r := newRand(1, 1)
	for i := 0; i < 1000; i++ {
		if _, hot := g.next(r); hot {
			t.Fatal("a generator without a hot share drew a hot offset")
		}
	}
	for _, bad := range []rangeGen{
		{size: 10, opBytes: 11},
		{size: 100, opBytes: 10, hotBytes: 5, hotFrac: 0.5},
		{size: 100, opBytes: 10, hotBytes: 200, hotFrac: 0.5},
	} {
		if bad.validate() == nil {
			t.Errorf("validate accepted %+v", bad)
		}
	}
}

// The same seed yields the same inputs, byte for byte; another seed
// yields different ones.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := corpus(1<<20, 5), corpus(1<<20, 5), corpus(1<<20, 6)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different corpora")
	}
	if bytes.Equal(a, c) {
		t.Fatal("two seeds gave the same corpus")
	}
	ga, err := gzipStd(a)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := gzipStd(b)
	if describe("x", ga) != describe("x", gb) {
		t.Fatal("the same corpus compressed to different bytes")
	}
	r1, r2 := newRand(9, 3), newRand(9, 3)
	g := rangeGen{size: 1 << 20, opBytes: 4096}
	for i := 0; i < 100; i++ {
		o1, _ := g.next(r1)
		o2, _ := g.next(r2)
		if o1 != o2 {
			t.Fatal("the same seed and stream gave different offsets")
		}
	}
}
