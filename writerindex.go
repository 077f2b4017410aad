package rapidgzip

import (
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/zstdx"
)

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
// by gzindex.AddMember, the rule a cold open's scan groups them by, into
// spans of about defaultShardSize bytes of output (the spacing of a
// gzip sidecar's points), one member-start seek point per group, and a
// member-end mark (footer CRC32) per member — plus the trailing EOF
// member's zero mark. The sidecar is then the index a cold open exports
// at a ChunkSize of defaultShardSize.
func (w *writer) fillBGZFIndex(ix *gzindex.Index) error {
	ix.MemberMarksComplete = true
	for _, cp := range w.cps {
		if err := ix.AddMember(uint64(cp.compOff), uint64(cp.decompSize), cp.crc, defaultShardSize); err != nil {
			return err
		}
	}
	// The canonical EOF marker is itself a member: ISIZE 0, CRC 0.
	return ix.AddMember(ix.CompressedSize-uint64(len(gzipw.BGZFEOFMarker)), 0, 0, defaultShardSize)
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
