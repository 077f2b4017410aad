package prefetch

import (
	"math/rand"
	"reflect"
	"testing"
)

// access is one request and the candidates expected after it.
type access struct {
	first, last uint64
	want        []uint64
}

// seq returns n indexes starting after head.
func seq(head uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = head + 1 + uint64(i)
	}
	return out
}

func TestProposals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		degree   int
		accesses []access
	}{
		{"fixed proposes the degree after every access", NewFixed(), 3, []access{
			{10, 10, seq(10, 3)},
			{50, 51, seq(51, 3)},
		}},
		{"first access at span 0 gets the full degree", NewAdaptive(), 16, []access{
			{0, 0, seq(0, 16)},
		}},
		{"first access elsewhere gets nothing", NewAdaptive(), 16, []access{
			{7, 7, nil},
		}},
		{"the grant is for the first access only", NewAdaptive(), 16, []access{
			{7, 7, nil},
			{0, 0, nil},
		}},
		// What the Adaptive of before the strategies were merged proposed
		// for one reader going through the file from its start.
		{"sequential run from span 0 (golden)", NewAdaptive(), 8, []access{
			{0, 0, []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
			{1, 1, []uint64{2, 3, 4, 5}},
			{2, 2, []uint64{3, 4, 5, 6, 7, 8, 9, 10}},
			{3, 3, []uint64{4, 5, 6, 7, 8, 9, 10, 11}},
			{4, 4, []uint64{5, 6, 7, 8, 9, 10, 11, 12}},
		}},
		{"reads inside one span keep the streak", NewAdaptive(), 64, []access{
			{0, 0, seq(0, 64)},
			{0, 0, seq(0, 2)},
			{1, 1, seq(1, 4)},
			{1, 1, seq(1, 4)},
			{2, 2, seq(2, 8)},
		}},
		{"a jump proposes nothing and the stream has to confirm itself", NewAdaptive(), 64, []access{
			{0, 0, seq(0, 64)},
			{1, 1, seq(1, 4)},
			{40, 40, nil},
			{41, 41, nil},
			{42, 42, seq(42, 1)},
			{43, 43, seq(43, 2)},
			{44, 44, seq(44, 4)},
			{45, 45, seq(45, 8)},
		}},
		{"a read across a boundary is one access, not a stream", NewAdaptive(), 64, []access{
			{20, 21, nil},
			{60, 61, nil},
			{33, 33, nil},
		}},
		{"reads larger than a span make a stream", NewAdaptive(), 64, []access{
			{20, 23, nil},
			{23, 26, nil},
			{27, 30, seq(30, 1)},
			{30, 33, seq(33, 2)},
			{34, 40, seq(40, 4)},
		}},
		{"zero degree", NewAdaptive(), 0, []access{
			{0, 0, nil},
			{1, 1, nil},
		}},
		{"zero degree, fixed", NewFixed(), 0, []access{
			{1, 1, nil},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, a := range tc.accesses {
				tc.strategy.Access(a.first, a.last)
				if got := tc.strategy.Prefetch(nil, tc.degree); !reflect.DeepEqual(got, a.want) {
					t.Fatalf("access %d (%d..%d): proposed %v, want %v", i, a.first, a.last, got, a.want)
				}
			}
		})
	}
}

func TestFixedBeforeAnyAccess(t *testing.T) {
	if got := NewFixed().Prefetch(nil, 4); len(got) != 0 {
		t.Fatalf("proposed %v before any access", got)
	}
	if got := NewAdaptive().Prefetch(nil, 4); len(got) != 0 {
		t.Fatalf("proposed %v before any access", got)
	}
}

// TestInterleavedStreams: sequential readers taking turns on one engine
// each ramp up to their share of the degree, next to their own head.
func TestInterleavedStreams(t *testing.T) {
	const degree = 8
	for _, streams := range []int{2, 4} {
		a := NewAdaptive()
		reached := make([]int, streams)
		for step := uint64(0); step < 8; step++ {
			for s := 0; s < streams; s++ {
				head := uint64(1000*s) + 10 + step
				a.Access(head, head)
				got := a.Prefetch(nil, degree)
				if len(got) > 0 && !reflect.DeepEqual(got, seq(head, len(got))) {
					t.Fatalf("%d streams: stream %d at %d proposed %v", streams, s, head, got)
				}
				if len(got) > degree/streams && step > 3 {
					t.Fatalf("%d streams: stream %d proposed %d, more than its share", streams, s, len(got))
				}
				reached[s] = max(reached[s], len(got))
			}
		}
		for s, r := range reached {
			if r != degree/streams {
				t.Fatalf("%d streams: stream %d reached degree %d, want %d", streams, s, r, degree/streams)
			}
		}
	}
}

// TestFinishedStreamGivesItsShareBack: a stream nobody has advanced for
// maxStreams accesses no longer takes part of the degree.
func TestFinishedStreamGivesItsShareBack(t *testing.T) {
	a := NewAdaptive()
	for i := uint64(100); i < 110; i++ {
		a.Access(i, i)
	}
	var got []uint64
	for i := uint64(500); i < 500+maxStreams+4; i++ {
		a.Access(i, i)
		got = a.Prefetch(got[:0], 8)
	}
	if len(got) != 8 {
		t.Fatalf("a lone stream proposes %d of 8 while a finished one is remembered", len(got))
	}
}

// TestRandomAccessProposesAlmostNothing is the bound on spurious
// proposals: uniform accesses over a file of 90 spans (and of 40, the
// benchmark's) now and then continue one of the remembered heads by
// chance, and a stream must not take that for a reader.
func TestRandomAccessProposesAlmostNothing(t *testing.T) {
	for _, spans := range []int{90, 40} {
		rnd := rand.New(rand.NewSource(1))
		a := NewAdaptive()
		const accesses = 1000
		proposed := 0
		var buf []uint64
		for i := 0; i < accesses; i++ {
			first := uint64(rnd.Intn(spans))
			last := first
			if rnd.Intn(5) == 0 { // one read in five crosses a boundary
				last++
			}
			a.Access(first, last)
			buf = a.Prefetch(buf[:0], 8)
			proposed += len(buf)
		}
		t.Logf("%d spans: %d candidates for %d uniform accesses", spans, proposed, accesses)
		if proposed >= accesses/10 {
			t.Errorf("%d spans: %d candidates for %d uniform accesses, want fewer than %d", spans, proposed, accesses, accesses/10)
		}
	}
}

func TestPrefetchDoesNotAllocate(t *testing.T) {
	for _, s := range []Strategy{NewFixed(), NewAdaptive()} {
		buf := make([]uint64, 0, 16)
		i := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			s.Access(i, i)
			if i%7 == 6 {
				s.Access(i+500, i+500) // a jump now and then
			}
			buf = s.Prefetch(buf[:0], 16)
			i++
		})
		if allocs != 0 {
			t.Errorf("%T: %v allocations per Access+Prefetch", s, allocs)
		}
	}
}
