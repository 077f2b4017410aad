package rapidgzip

import (
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/zstdx"
)

// bgzfGroupTarget is the compressed bytes grouped under one seek point
// in a BGZF sidecar, so one decode task amortises header parsing over
// many small members. The read side's metadata scan groups members
// differently, by ChunkSize decompressed bytes; both geometries are
// valid indexes of the same file.
const bgzfGroupTarget = 512 << 10

// buildIndex assembles the RGZIDX05 index from the checkpoints the
// shard loop recorded: the file's seek points, written from knowledge
// instead of discovery.
func (w *writer) buildIndex() (*gzindex.Index, error) {
	fp := w.tracked.fingerprint()
	ix := gzindex.New(0)
	ix.Finalized = true
	ix.SourceFP = &fp
	ix.CompressedSize = uint64(w.tracked.size)
	ix.UncompressedSize = uint64(w.decompOff)
	return ix, w.fill(ix)
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
	ix.MemberMarksComplete = true
	if err := ix.Add(gzindex.SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
		return err
	}
	lastBit, lastDecomp := uint64(0), uint64(0)
	for _, cp := range w.cps[min(1, len(w.cps)):] {
		lastBit, lastDecomp = uint64(cp.compOff)*8, uint64(cp.decompOff)
		if err := ix.Add(gzindex.SeekPoint{
			CompressedBitOffset: lastBit,
			UncompressedOffset:  lastDecomp,
		}, []byte{}); err != nil {
			return err
		}
	}
	ix.AddMemberEnd(lastBit, gzindex.MemberEnd{RelEnd: ix.UncompressedSize - lastDecomp, CRC32: w.crc})
	return nil
}

// fillBGZFIndex emits the member-per-chunk geometry: members grouped
// into spans of about bgzfGroupTarget compressed bytes, one
// member-start seek point per group, and a member-end mark (footer
// CRC32) per member — plus the trailing EOF member's zero mark. A group
// closes at the first member with output past the target; a member
// without output, the EOF marker among them, joins the group before it,
// as in the read side's scan. Only an empty input has a point of its
// own for the EOF member.
func (w *writer) fillBGZFIndex(ix *gzindex.Index) error {
	total := ix.UncompressedSize
	ix.MemberMarksComplete = true
	groupBit, groupDecomp := uint64(0), uint64(0)
	open := func(bit, decomp uint64) error {
		groupBit, groupDecomp = bit, decomp
		return ix.Add(gzindex.SeekPoint{
			CompressedBitOffset: bit,
			UncompressedOffset:  decomp,
			AtMemberStart:       true,
		}, nil)
	}
	for i, cp := range w.cps {
		if i == 0 || cp.decompSize > 0 && uint64(cp.compOff)-groupBit/8 >= bgzfGroupTarget {
			if err := open(uint64(cp.compOff)*8, uint64(cp.decompOff)); err != nil {
				return err
			}
		}
		ix.AddMemberEnd(groupBit, gzindex.MemberEnd{
			RelEnd: uint64(cp.decompOff+cp.decompSize) - groupDecomp,
			CRC32:  cp.crc,
		})
	}
	if len(w.cps) == 0 {
		if err := open((ix.CompressedSize-uint64(len(gzipw.BGZFEOFMarker)))*8, total); err != nil {
			return err
		}
	}
	// The canonical EOF marker is itself a member: ISIZE 0, CRC 0.
	ix.AddMemberEnd(groupBit, gzindex.MemberEnd{RelEnd: total - groupDecomp, CRC32: 0})
	return nil
}

// fillZstdIndex persists the per-frame checkpoint table — the same
// section a read-side ExportIndex writes, flagged metadata-sized
// because every frame header carries its content size, and
// checksummed when every frame carries a content checksum.
func (w *writer) fillZstdIndex(ix *gzindex.Index, checksummed bool) error {
	ct := &gzindex.CheckpointTable{Format: zstdx.FormatTag, Flags: zstdx.FlagMetadataSized}
	if checksummed {
		ct.Flags |= zstdx.FlagChecksummed
	}
	ct.Spans = make([]gzindex.Checkpoint, len(w.cps))
	for i, cp := range w.cps {
		ct.Spans[i] = gzindex.Checkpoint{
			CompOff: cp.compOff, CompEnd: cp.compEnd,
			DecompOff: cp.decompOff, DecompSize: cp.decompSize,
		}
	}
	ix.Checkpoints = ct
	return nil
}
