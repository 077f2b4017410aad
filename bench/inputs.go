package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/workloads"
)

// sizes holds every size the workloads are built from. The defaults are
// the issue's sizes scaled down about four times (corpus and chunk size
// together, so the speculative pipeline still sees about ten chunks) to
// fit the driver's time cap: three set-ups and the timed section of one
// run have to fit in well under 25 s. Tests shrink them further.
type sizes struct {
	gzipCorpus   int   // decompressed bytes of the gzip read workloads
	seqChunk     int   // WithChunkSize of the sequential pair
	randChunk    int   // chunk size the rand/serve index is exported with
	readAtBytes  int   // gzip-rand-indexed operation size
	rangeBytes   int   // serve-range operation size
	hotBytes     int64 // serve-range hot region
	poolBudget   int64 // serve-range shared pool
	batchOps     int   // operations per rand/serve pass
	multiCorpus  int   // BGZF, zstd, LZ4
	bzip2Corpus  int   // bzip2 (its reference encoder runs at ~1.5 MB/s)
	frameBytes   int   // zstd/LZ4 frame size
	createCorpus int   // create-gzip
}

var defaultSizes = sizes{
	gzipCorpus:   32 << 20,
	seqChunk:     1 << 20,
	randChunk:    256 << 10,
	readAtBytes:  64 << 10,
	rangeBytes:   256 << 10,
	hotBytes:     4 << 20,
	poolBudget:   24 << 20,
	batchOps:     200,
	multiCorpus:  16 << 20,
	bzip2Corpus:  1 << 20,
	frameBytes:   1 << 20,
	createCorpus: 16 << 20,
}

// corpus is the plaintext every workload is built on: arbitrary bytes
// with long back-references, the case the paper exists for.
func corpus(n int, seed uint64) []byte { return workloads.SilesiaLike(n, seed) }

// gzipStd compresses with the standard library at level 6, so the read
// workloads do not depend on the write side the benchmark also measures.
func gzipStd(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, 6)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inputFile names one generated input with its size and hash, printed
// with the results so two runs can be shown to have read the same bytes.
type inputFile struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func describe(name string, b []byte) inputFile {
	sum := sha256.Sum256(b)
	return inputFile{name, int64(len(b)), hex.EncodeToString(sum[:])}
}

func describeFile(path string) (inputFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return inputFile{}, err
	}
	return describe(filepath.Base(path), b), nil
}

func writeInput(dir, name string, b []byte) (string, error) {
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, b, 0o644)
}

// sink is where sequential passes write: it checksums the stream,
// counts it, and notes when the first byte arrived. In a traced pass
// every Write is a span under parent, so the time the consumer itself
// takes is not charged to the layer that called it.
type sink struct {
	crc    uint32
	n      int64
	first  time.Time
	tr     *tracer
	parent *spanRef
}

func (s *sink) Write(p []byte) (int, error) {
	if s.n == 0 && len(p) > 0 {
		s.first = time.Now()
	}
	sp := s.tr.start(s.parent, "bench", "sink.Write")
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	s.n += int64(len(p))
	sp.end("bytes", len(p))
	return len(p), nil
}

// plain is a plaintext with the checksum sequential passes must match.
type plain struct {
	data []byte
	crc  uint32
}

func newPlain(data []byte) plain { return plain{data, crc32.ChecksumIEEE(data)} }

func (p plain) matches(s *sink) bool { return s.n == int64(len(p.data)) && s.crc == p.crc }

// newRand returns the deterministic generator of one stream of a seed.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// rangeGen draws operation offsets: a hotFrac share falls inside the hot
// region [0, hotBytes), the rest uniformly over the whole stream. With
// hotFrac 0 it is a uniform generator.
type rangeGen struct {
	size     int64 // stream size
	opBytes  int64
	hotBytes int64
	hotFrac  float64
}

func (g rangeGen) next(r *rand.Rand) (off int64, hot bool) {
	if g.hotFrac > 0 && r.Float64() < g.hotFrac {
		return r.Int64N(g.hotBytes - g.opBytes + 1), true
	}
	return r.Int64N(g.size - g.opBytes + 1), false
}

func (g rangeGen) validate() error {
	if g.opBytes <= 0 || g.opBytes > g.size || (g.hotFrac > 0 && g.opBytes > g.hotBytes) || g.hotBytes > g.size {
		return fmt.Errorf("bench: range generator %+v does not fit its stream", g)
	}
	return nil
}
