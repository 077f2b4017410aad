package rapidgzip

import (
	"testing"

	"repro/internal/workloads"
)

// TestOpenWalksHeadersOnly holds a cold Open of multi-frame LZ4 and zstd
// files to their frame and block headers, without a clock: the scan
// reads at most 1 % of the file, in no more reads than it walks headers
// (a frame header, each block header, and LZ4's end mark). A walk that
// refilled a fixed window at every header read 24 % of the LZ4 file and
// 13 % of the zstd one.
func TestOpenWalksHeadersOnly(t *testing.T) {
	const frame = 1 << 20
	plain := workloads.SilesiaLike(8*frame, 1)
	for _, tc := range []struct {
		row     string
		headers int // per frame
	}{
		{"lz4", 1 + frame/(64<<10) + 1},
		{"zstd", 1 + frame/(128<<10)},
	} {
		t.Run(tc.row, func(t *testing.T) {
			fx := build(t, tc.row, plain, frame)
			a, err := fx.open("file", WithoutIndexDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			st := a.Stats()
			headers := 8 * tc.headers
			t.Logf("open of %d B read %d B in %d reads; %d headers", len(fx.comp), st.SourceBytesRead, st.SourceReads, headers)
			if st.SourceBytesRead*100 > uint64(len(fx.comp)) {
				t.Errorf("open read %d B of a %d B file, want at most 1 %%", st.SourceBytesRead, len(fx.comp))
			}
			if st.SourceReads > uint64(headers) {
				t.Errorf("open made %d reads for %d headers", st.SourceReads, headers)
			}
		})
	}
}
