package rapidgzip

import (
	"testing"

	"repro/internal/gzipw"
	"repro/internal/workloads"
)

// TestOpenWalksHeadersOnly holds a cold Open of multi-frame LZ4 and zstd
// files, and of BGZF, to their frame, block and member headers, without
// a clock: the scan reads at most 1 % of the file, in no more reads than
// it walks headers (a frame header, each block header, and LZ4's end
// mark; BGZF's first member header, then each footer together with the
// header behind it). A walk that refilled a fixed window at every header
// read 24 % of the LZ4 file, 13 % of the zstd one and 3 % of the BGZF
// one. The sizing pass is one walk whatever holds the file: a cold
// OpenBytes of the same bytes makes the same reads of the same bytes as
// a cold Open, for these rows and for bzip2's magic scan.
func TestOpenWalksHeadersOnly(t *testing.T) {
	const frame = 1 << 20
	plain := workloads.SilesiaLike(8*frame, 1)
	// bzip2 compresses slowly: its row scans 1.5 MiB of random bytes,
	// which still takes its magic scan two windows.
	noise := workloads.Random(3*frame/2, 1)
	// BGZF members hold BGZFChunkSize bytes each, and the EOF marker is
	// one more.
	members := (len(plain)+gzipw.BGZFChunkSize-1)/gzipw.BGZFChunkSize + 1
	for _, tc := range []struct {
		row   string
		plain []byte
		reads int // one per header walked; 0 where the scan is not a header walk
	}{
		{"lz4", plain, 8 * (1 + frame/(64<<10) + 1)},
		{"zstd", plain, 8 * (1 + frame/(128<<10))},
		{"zstd-unsized", plain, 8 * (1 + frame/(128<<10))},
		{"bzip2", noise, 0},
		{"bgzf", plain, members + 1},
	} {
		t.Run(tc.row, func(t *testing.T) {
			fx := build(t, tc.row, tc.plain, frame)
			var reads, read [2]uint64
			for i, backing := range []string{"file", "bytes"} {
				a, err := fx.open(backing, WithoutIndexDiscovery())
				if err != nil {
					t.Fatal(err)
				}
				st := a.Stats()
				a.Close()
				reads[i], read[i] = st.SourceReads, st.SourceBytesRead
				t.Logf("%s: open of %d B read %d B in %d reads", backing, len(fx.comp), read[i], reads[i])
			}
			if reads[0] != reads[1] || read[0] != read[1] {
				t.Errorf("Open read %d B in %d reads, OpenBytes %d B in %d", read[0], reads[0], read[1], reads[1])
			}
			if tc.reads == 0 {
				return
			}
			if read[0]*100 > uint64(len(fx.comp)) {
				t.Errorf("open read %d B of a %d B file, want at most 1 %%", read[0], len(fx.comp))
			}
			if reads[0] > uint64(tc.reads) {
				t.Errorf("open made %d reads for %d headers", reads[0], tc.reads)
			}
		})
	}
}
