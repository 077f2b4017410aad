package main

// The benchmark's contract: the workload names, the end-to-end metrics
// every workload reports (with the bound by which each may worsen), and
// the per-layer metrics the traced run reports. BENCHMARK.json at the
// repository root carries the same lists for the driver; contract_test.go
// keeps the two in step.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

var workloadDefs = []workloadDef{
	{"gzip-seq-cold", "no index: block finder, two-stage marker decode, window propagation and the serial frontier do the work; cache reuse and server do none"},
	{"gzip-seq-indexed", "same file with its index: single-stage kernel plus prefetch only; finder, markers and speculation are bypassed, so a speculation gain must not move it"},
	{"gzip-rand-indexed", "seeded uniform 64 KiB ReadAts over a working set about 4x the span cache: prefetch cannot help, so a sequential gain that costs seeks shows"},
	{"serve-range", "HTTP Range GETs over loopback, 80% from a hot region that fits the pool: the median is a cache hit (server cost), the tail a span decode"},
	{"multiformat-seq", "BGZF, multi-frame zstd, LZ4 and bzip2 through the shared engine in exact-span mode; LZ4 is engine, pread and copy overhead almost alone"},
	{"create-gzip", "the write side (pool, shardpipe, crc32x, gzindex sidecar) driven the other way, so a read-side gain that costs writes shows"},
}

// Every workload reports every end-to-end metric; what "operation" and
// "first byte" mean per workload is in README.md. A bound covers the
// noisiest workload: it is about three times the widest quartile spread
// any workload showed over two sets of ten seeds on the 2-vCPU reference
// host (README.md has the table), and at most the contract's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"user_MBps", "MB/s", higher, 0.20},
	{"user_p1_MBps", "MB/s", higher, 0.20},
	{"first_byte_ms", "ms", lower, 0.25},
	{"op_p50_ms", "ms", lower, 0.20},
	{"stored_B_per_user_B", "B/B", lower, 0.02},
}

// Per-layer metrics are reported by the traced run and never gated. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"deflate.serial_MBps", "MB/s", higher, 0},
	{"deflate.alloc_B_per_out_B", "B/B", lower, 0},
	{"deflate.marker_MBps", "MB/s", higher, 0},
	{"deflate.resolve_MBps", "MB/s", higher, 0},
	{"blockfinder.scan_MBps", "MB/s", higher, 0},
	{"blockfinder.candidates_per_MiB", "1/MiB", lower, 0},
	{"core.mem_MBps", "MB/s", higher, 0},
	{"core.mem_p1_MBps", "MB/s", higher, 0},
	{"core.speculation_overhead", "ratio", lower, 0},
	{"core.karp_flatt_serial_frac", "ratio", lower, 0},
	{"core.guess_tasks", "count", lower, 0},
	{"core.guess_false_starts", "count", lower, 0},
	{"core.guess_no_block", "count", lower, 0},
	{"core.finder_probes", "count", lower, 0},
	{"core.on_demand_decodes", "count", lower, 0},
	{"core.useful_guess_ratio", "ratio", higher, 0},
	{"spanengine.span_decodes", "count", lower, 0},
	{"spanengine.cache_hit_ratio", "ratio", higher, 0},
	{"spanengine.evictions", "count", lower, 0},
	{"spanengine.prefetch_proposed", "count", lower, 0},
	{"spanengine.prefetch_issued", "count", lower, 0},
	{"spanengine.prefetch_joined", "count", higher, 0},
	{"spanengine.prefetch_used_ratio", "ratio", higher, 0},
	{"spanengine.readat_hit_us", "us", lower, 0},
	{"filereader.source_reads", "count", lower, 0},
	{"filereader.read_amplification", "ratio", lower, 0},
	{"archive.open_ms", "ms", lower, 0},
	{"archive.file_vs_mem_ratio", "ratio", lower, 0},
	{"archive.alloc_B_per_out_B", "B/B", lower, 0},
	{"archive.peak_heap_MB", "MB", lower, 0},
	{"gzindex.export_ms", "ms", lower, 0},
	{"gzindex.import_ms", "ms", lower, 0},
	{"gzindex.bytes_per_MiB", "B/MiB", lower, 0},
	{"server.hot_p50_ms", "ms", lower, 0},
	{"server.cold_p50_ms", "ms", lower, 0},
	{"server.overhead_ratio", "ratio", lower, 0},
	{"server.pool_hit_ratio", "ratio", higher, 0},
	{"server.pool_evictions", "count", lower, 0},
	{"server.handle_hits", "count", higher, 0},
	{"server.refused", "count", lower, 0},
	{"server.stream_p1_MBps", "MB/s", higher, 0},
	{"bgzf.MBps", "MB/s", higher, 0},
	{"bgzf.p1_MBps", "MB/s", higher, 0},
	{"bgzf.speedup", "ratio", higher, 0},
	{"zstdx.MBps", "MB/s", higher, 0},
	{"zstdx.p1_MBps", "MB/s", higher, 0},
	{"zstdx.speedup", "ratio", higher, 0},
	{"lz4x.MBps", "MB/s", higher, 0},
	{"lz4x.p1_MBps", "MB/s", higher, 0},
	{"lz4x.speedup", "ratio", higher, 0},
	{"bzip2x.MBps", "MB/s", higher, 0},
	{"bzip2x.p1_MBps", "MB/s", higher, 0},
	{"bzip2x.speedup", "ratio", higher, 0},
	{"bzip2x.open_share", "ratio", lower, 0},
	{"gzipw.p1_MBps", "MB/s", higher, 0},
	{"gzipw.sidecar_ms", "ms", lower, 0},
	{"shardpipe.speedup", "ratio", higher, 0},
	{"op_p99_ms", "ms", lower, 0},
	{"ops_per_s", "1/s", higher, 0},
	{"bench.trace_overhead_frac", "ratio", lower, 0},
	{"bench.spread_frac", "ratio", lower, 0},
	{"bench.host_factor", "ratio", lower, 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
