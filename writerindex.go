package rapidgzip

import (
	"fmt"

	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/zstdx"
)

// bgzfGroupTarget is the compressed bytes grouped under one seek point
// in a BGZF sidecar — the same members-per-span batching the read
// side's metadata scan applies, so one decode task amortises header
// parsing over many small members.
const bgzfGroupTarget = 512 << 10

// buildIndex assembles the RGZIDX05 index from the checkpoints the
// encoder recorded — the exact geometry the read side would recover by
// scanning the file, but written from knowledge instead of discovery.
func (w *writer) buildIndex() (*gzindex.Index, error) {
	fp := w.tracked.fingerprint()
	ix := gzindex.New(0)
	ix.Finalized = true
	ix.SourceFP = &fp
	switch w.format {
	case FormatGzip:
		return ix, w.fillGzipIndex(ix)
	case FormatBGZF:
		return ix, w.fillBGZFIndex(ix)
	case FormatZstd:
		return ix, w.fillZstdIndex(ix)
	}
	return nil, fmt.Errorf("%w: no index for %v", ErrUnsupportedFormat, w.format)
}

// fillGzipIndex emits the single-member sharded-gzip geometry: one
// member-start point at bit 0 (decoded by header parsing, no window
// needed), one point per subsequent shard boundary — byte-aligned by
// construction, and carrying an *empty* window because shards reset
// the dictionary, so the stdlib-delegation fast path decodes them with
// no priming bytes at all — and the member's end mark with the
// combined CRC32, which keeps architecture-level verification alive
// after reopen.
func (w *writer) fillGzipIndex(ix *gzindex.Index) error {
	cps := w.gz.Checkpoints()
	total := uint64(w.gz.UncompressedSize())
	ix.CompressedSize = uint64(w.gz.CompressedSize())
	ix.UncompressedSize = total
	ix.MemberMarksComplete = true
	if err := ix.Add(gzindex.SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
		return err
	}
	lastBit, lastDecomp := uint64(0), uint64(0)
	for _, cp := range cps[min(1, len(cps)):] {
		lastBit, lastDecomp = uint64(cp.CompOff)*8, uint64(cp.DecompOff)
		if err := ix.Add(gzindex.SeekPoint{
			CompressedBitOffset: lastBit,
			UncompressedOffset:  lastDecomp,
		}, []byte{}); err != nil {
			return err
		}
	}
	ix.AddMemberEnd(lastBit, gzindex.MemberEnd{RelEnd: total - lastDecomp, CRC32: w.gz.CRC32()})
	return nil
}

// fillBGZFIndex emits the member-per-chunk geometry the read side's
// metadata scan would build: members grouped into spans of about
// bgzfGroupTarget compressed bytes, one member-start seek point per
// group, and a member-end mark (footer CRC32) per member — plus the
// trailing EOF member's zero mark.
func (w *writer) fillBGZFIndex(ix *gzindex.Index) error {
	cps := w.gz.Checkpoints()
	total := uint64(w.gz.UncompressedSize())
	ix.CompressedSize = uint64(w.gz.CompressedSize())
	ix.UncompressedSize = total
	ix.MemberMarksComplete = true
	groupBit, groupDecomp := uint64(0), uint64(0)
	open := false // a group point exists and can still take members
	for _, cp := range cps {
		if !open {
			groupBit, groupDecomp = uint64(cp.CompOff)*8, uint64(cp.DecompOff)
			if err := ix.Add(gzindex.SeekPoint{
				CompressedBitOffset: groupBit,
				UncompressedOffset:  groupDecomp,
				AtMemberStart:       true,
			}, nil); err != nil {
				return err
			}
			open = true
		}
		ix.AddMemberEnd(groupBit, gzindex.MemberEnd{
			RelEnd: uint64(cp.DecompOff+cp.DecompSize) - groupDecomp,
			CRC32:  cp.CRC32,
		})
		if uint64(cp.CompEnd)-groupBit/8 >= bgzfGroupTarget {
			open = false
		}
	}
	if !open {
		// The EOF member needs a span to land in; an empty input (or a
		// group that closed exactly at the last member) opens one at the
		// tail, mirroring how the scan's final flush covers the marker.
		groupBit, groupDecomp = uint64(w.gz.CompressedSize()-int64(len(gzipw.BGZFEOFMarker)))*8, total
		if err := ix.Add(gzindex.SeekPoint{
			CompressedBitOffset: groupBit,
			UncompressedOffset:  groupDecomp,
			AtMemberStart:       true,
		}, nil); err != nil {
			return err
		}
	}
	// The canonical EOF marker is itself a member: ISIZE 0, CRC 0.
	ix.AddMemberEnd(groupBit, gzindex.MemberEnd{RelEnd: total - groupDecomp, CRC32: 0})
	return nil
}

// fillZstdIndex persists the per-frame checkpoint table — the same
// section a read-side ExportIndex writes, flagged metadata-sized
// because every frame header carries its content size.
func (w *writer) fillZstdIndex(ix *gzindex.Index) error {
	cps := w.zw.Checkpoints()
	ix.CompressedSize = uint64(w.zw.CompressedSize())
	ix.UncompressedSize = uint64(w.zw.UncompressedSize())
	ct := &gzindex.CheckpointTable{Format: zstdx.FormatTag, Flags: w.zw.Flags()}
	ct.Spans = make([]gzindex.Checkpoint, len(cps))
	for i, cp := range cps {
		ct.Spans[i] = gzindex.Checkpoint{
			CompOff: cp.CompOff, CompEnd: cp.CompEnd,
			DecompOff: cp.DecompOff, DecompSize: cp.DecompSize,
		}
	}
	ix.Checkpoints = ct
	return nil
}
