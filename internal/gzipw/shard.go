package gzipw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/gzformat"
)

// matcherPool recycles the 256 KiB matchers of the shard encoders
// across shards and writers. Without it every shard left its matcher
// behind as garbage, and the concurrent GC competed with the encode
// workers for cores, which showed up directly as lost parallel scaling.
var matcherPool sync.Pool // *matcher

// getMatcher returns a dictionary-clean matcher configured for level,
// or nil for level 0, which stores.
func getMatcher(level int) *matcher {
	if level == 0 {
		return nil
	}
	if v := matcherPool.Get(); v != nil {
		m := v.(*matcher)
		m.p = levels[level]
		m.reset()
		return m
	}
	return newMatcher(level)
}

func putMatcher(m *matcher) {
	if m != nil {
		matcherPool.Put(m)
	}
}

// AppendHeader appends the member header that starts a sharded gzip
// stream: AppendShard segments follow it and AppendTrailer ends it.
// The result is one gzip member whose shards are pigz's independent
// chunks, which Table 3 / §4.8 of the paper identify as the structure
// that keeps parallel decompression possible.
func AppendHeader(dst []byte) []byte {
	return append(dst, buildHeaderBytes(Options{}, 0)...)
}

// AppendShard appends data, compressed at level, as one independent
// Deflate segment of a sharded gzip stream: a fresh dictionary, all
// blocks non-final, ended by an empty stored block so the segment is
// byte-aligned — the join the next shard, or the trailer, continues
// from. It returns the extended slice and the CRC-32 of data.
func AppendShard(dst, data []byte, level int) ([]byte, uint32, error) {
	buf := bytes.NewBuffer(dst)
	bw := bitio.NewBitWriter(buf)
	m := getMatcher(level)
	defer putMatcher(m)
	meta := &Meta{} // block offsets are relative to the shard; discarded
	opts := Options{Level: level, BlockSize: DefaultBlockSize}
	for bStart := 0; bStart < len(data); bStart += opts.BlockSize {
		bEnd := min(bStart+opts.BlockSize, len(data))
		if err := emitBlock(bw, meta, m, data, bStart, bEnd, 0, false, opts); err != nil {
			return dst, 0, err
		}
	}
	emitEmptyStored(bw)
	if err := bw.Flush(); err != nil {
		return dst, 0, err
	}
	return buf.Bytes(), gzformat.UpdateCRC(0, data), nil
}

// AppendTrailer appends what ends a sharded gzip stream of size input
// bytes whose CRC-32 is crc: a final empty stored block, which closes
// the Deflate stream at a byte boundary (every shard's blocks are
// non-final), and the member footer.
func AppendTrailer(dst []byte, crc uint32, size int64) []byte {
	dst = append(dst, 0x01, 0x00, 0x00, 0xff, 0xff)
	return appendFooter(dst, crc, uint64(size))
}

// AppendBGZFMember appends data, at most BGZFChunkSize bytes compressed
// at level, as one complete BGZF member: a header whose BC subfield
// carries the member's size, a Deflate body ending in a final block,
// and the CRC-32/ISIZE footer. It returns the extended slice and the
// member's CRC-32.
func AppendBGZFMember(dst, data []byte, level int) ([]byte, uint32, error) {
	m := getMatcher(level)
	defer putMatcher(m)
	return appendBGZFMember(dst, &Meta{}, m, data, Options{Level: level, BlockSize: DefaultBlockSize})
}

// appendBGZFMember is AppendBGZFMember with Compress's controls: opts
// gives the level, block size, strategy and header name, m is a
// dictionary-clean matcher (nil stores), and meta receives the
// member's blocks, their bits counted from the end of the header and
// their input offsets from the start of data.
func appendBGZFMember(dst []byte, meta *Meta, m *matcher, data []byte, opts Options) ([]byte, uint32, error) {
	start := len(dst)
	// BSIZE counts the whole member, so the header is reserved here and
	// written once the body and footer are in place.
	hdrLen := len(buildHeaderBytes(opts, 0)) + 8 // +8 for the extra field itself
	buf := bytes.NewBuffer(append(dst, make([]byte, hdrLen)...))
	bw := bitio.NewBitWriter(buf)
	if err := compressMember(bw, meta, m, data, 0, len(data), opts); err != nil {
		return dst, 0, err
	}
	if err := bw.Flush(); err != nil {
		return dst, 0, err
	}
	crc := gzformat.UpdateCRC(0, data)
	out := appendFooter(buf.Bytes(), crc, uint64(len(data)))
	bsize := len(out) - start
	if bsize > 1<<16 {
		return dst, 0, fmt.Errorf("gzipw: BGZF member of %d bytes exceeds the 64 KiB format cap", bsize)
	}
	if copy(out[start:], buildHeaderBytes(opts, bsize)) != hdrLen {
		return dst, 0, errors.New("gzipw: BGZF size accounting error")
	}
	return out, crc, nil
}

func appendFooter(dst []byte, crc uint32, isize uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return binary.LittleEndian.AppendUint32(dst, uint32(isize))
}
