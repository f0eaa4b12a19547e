//! The traced run's per-layer metrics.
//!
//! Two sources, both attached from the benchmark's own code: spans the
//! benchmark records around each public call into a crate ([`Spans`]), and
//! the program's existing `RecordingSink`, attached through
//! `set_telemetry` or the service's per-job sink argument, which splits
//! those calls into the stages the program already reports. Whatever part
//! of an outside span no stage covers is reported as unattributed time.

use crate::Metric;
use std::sync::Arc;
use szr_telemetry::{Counter, RecordingSink, Stage, TelemetryReport};

/// Nanoseconds of the spans the benchmark records around public calls,
/// summed over the traced window.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// `CodecSession::compress`.
    pub compress: u64,
    /// `CodecSession::decompress` and `StreamDecompressor::collect_all`
    /// (stream reads, including opening the stream).
    pub decompress: u64,
    /// `StreamCompressor::{push, finish_stream}`.
    pub stream: u64,
    /// `ArchiveService::{submit_compress, submit_decompress, read_region}`.
    pub submit: u64,
    /// `handle.wait()` on the service's job handles.
    pub wait: u64,
    /// Outside spans of compress-direction calls (the parent of the
    /// compress-side sink's stages).
    pub enc: u64,
    /// Outside spans of decode-direction calls.
    pub dec: u64,
    /// Region reads, and the sum of their touched-band fractions.
    pub roi_reads: u64,
    /// Sum over region reads of bands covered / bands in the archive.
    pub roi_touched: f64,
}

impl Spans {
    /// Adds another client's spans into these.
    pub fn merge(&mut self, other: &Spans) {
        self.compress += other.compress;
        self.decompress += other.decompress;
        self.stream += other.stream;
        self.submit += other.submit;
        self.wait += other.wait;
        self.enc += other.enc;
        self.dec += other.dec;
        self.roi_reads += other.roi_reads;
        self.roi_touched += other.roi_touched;
    }
}

/// The program's sinks, one per call direction, so that DEFLATE time
/// splits into compress and inflate.
pub struct Sinks {
    /// Attached to compress-direction calls.
    pub enc: Arc<RecordingSink>,
    /// Attached to decode-direction calls.
    pub dec: Arc<RecordingSink>,
}

impl Sinks {
    /// Two empty recording sinks.
    pub fn new() -> Self {
        Sinks {
            enc: Arc::new(RecordingSink::new()),
            dec: Arc::new(RecordingSink::new()),
        }
    }
}

impl Default for Sinks {
    fn default() -> Self {
        Self::new()
    }
}

/// `ArchiveService` counters over the traced window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceTrace {
    /// Worker threads of the service.
    pub workers: usize,
    /// Wall time of the traced closed-loop windows.
    pub wall_ns: u64,
    /// `ServiceStats::steals` gained in the traced windows.
    pub steals: u64,
    /// `ServiceStats::bands_executed` gained in the traced windows.
    pub bands_executed: u64,
    /// `ServiceStats::blocked` gained in the traced windows.
    pub blocked: u64,
}

/// Everything a workload's traced windows measured.
pub struct Traced {
    /// Operations the traced windows completed (fields, steps or jobs):
    /// every time below is in milliseconds per operation.
    pub ops: u64,
    /// Outside spans.
    pub spans: Spans,
    /// The program's own stage spans and counters.
    pub sinks: Sinks,
    /// Service counters, on the service workload only.
    pub service: Option<ServiceTrace>,
    /// Median over pass pairs of traced wall over untraced wall.
    pub overhead: f64,
}

impl Traced {
    /// Nothing measured yet.
    pub fn new() -> Self {
        Traced {
            ops: 0,
            spans: Spans::default(),
            sinks: Sinks::new(),
            service: None,
            overhead: 0.0,
        }
    }
}

impl Default for Traced {
    fn default() -> Self {
        Self::new()
    }
}

fn stage_ns(report: &TelemetryReport, stage: Stage) -> u64 {
    report.span(stage).map_or(0, |s| s.nanos)
}

fn stages_ns(report: &TelemetryReport) -> u64 {
    report.spans.iter().map(|(_, s)| s.nanos).sum()
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order. Layers a
/// workload does not exercise read 0.
pub fn layer_metrics(t: &Traced, failed_frac: f64) -> Vec<Metric> {
    let enc = t.sinks.enc.report();
    let dec = t.sinks.dec.report();
    let ops = t.ops.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / ops;
    // Signed: stages can add up to more than their outside span. On the
    // service one job's bands run on several workers at once, and on the
    // fused compress path the program's entropy span encloses a DEFLATE
    // span it also reports.
    let ms_signed = |outside: u64, inside: u64| (outside as f64 - inside as f64) / 1e6 / ops;
    let per_op = |n: u64| n as f64 / ops;
    let both = |stage| stage_ns(&enc, stage) + stage_ns(&dec, stage);
    let counter = |c| enc.counter(c) + dec.counter(c);

    let points: u64 = enc.bands.iter().map(|b| b.points).sum();
    let hits: u64 = enc.bands.iter().map(|b| b.hits).sum();
    let escapes: u64 = enc.bands.iter().map(|b| b.escapes).sum();
    let code_bits: u64 = enc.bands.iter().map(|b| b.code_stream_bits).sum();
    // Bytes entering the lossless post-pass, estimated from the band
    // records' section sizes plus the band headers; bytes leaving it are
    // the finished band archives.
    let pre_pass: f64 = enc
        .bands
        .iter()
        .map(|b| b.table_bytes as f64 + (b.code_stream_bits + b.escape_stream_bits) as f64 / 8.0)
        .sum::<f64>()
        + enc.span(Stage::HeaderIo).map_or(0, |s| s.bytes) as f64;
    let post_pass: f64 = enc.bands.iter().map(|b| b.archive_bytes as f64).sum();
    let cache_hits = counter(Counter::KernelCacheHit) as f64;
    let cache_all = cache_hits + counter(Counter::KernelCacheMiss) as f64;
    let matches = enc.counter(Counter::DeflateMatchTokens) as f64;
    let tokens = matches + enc.counter(Counter::DeflateLiteralTokens) as f64;
    let svc = t.service.unwrap_or_default();
    let busy_ns = (stages_ns(&enc) + stages_ns(&dec)) as f64;

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("core.compress.ms", ms(t.spans.compress), "ms"),
        m("core.decompress.ms", ms(t.spans.decompress), "ms"),
        m("core.stream.ms", ms(t.spans.stream), "ms"),
        m(
            "core.predict_quantize.ms",
            ms(both(Stage::PredictQuantize)),
            "ms",
        ),
        m(
            "core.row_reconstruct.ms",
            ms(both(Stage::RowReconstruct)),
            "ms",
        ),
        m("core.header_io.ms", ms(both(Stage::HeaderIo)), "ms"),
        m(
            "core.unattributed.ms",
            ms_signed(t.spans.enc + t.spans.dec, stages_ns(&enc) + stages_ns(&dec)),
            "ms",
        ),
        m(
            "core.unattributed.compress.ms",
            ms_signed(t.spans.enc, stages_ns(&enc)),
            "ms",
        ),
        m(
            "core.unattributed.decompress.ms",
            ms_signed(t.spans.dec, stages_ns(&dec)),
            "ms",
        ),
        m("core.hit_frac", frac(hits as f64, points as f64), "ratio"),
        m(
            "core.escape_frac",
            frac(escapes as f64, points as f64),
            "ratio",
        ),
        m(
            "core.kernel_cache_hit_frac",
            frac(cache_hits, cache_all),
            "ratio",
        ),
        m(
            "core.fused_reseeds",
            per_op(counter(Counter::FusedTableReseeds)),
            "1/op",
        ),
        m(
            "core.fused_demotions",
            per_op(counter(Counter::FusedDemotions)),
            "1/op",
        ),
        m(
            "huffman.encode.ms",
            ms(stage_ns(&enc, Stage::EntropyEncode)),
            "ms",
        ),
        m(
            "huffman.bits_per_value",
            frac(code_bits as f64, points as f64),
            "bit",
        ),
        m(
            "huffman.decode.ms",
            ms(stage_ns(&dec, Stage::SymbolDecode)),
            "ms",
        ),
        m(
            "deflate.compress.ms",
            ms(stage_ns(&enc, Stage::Deflate)),
            "ms",
        ),
        m(
            "deflate.inflate.ms",
            ms(stage_ns(&dec, Stage::Deflate)),
            "ms",
        ),
        m(
            "deflate.saved_frac",
            frac(pre_pass - post_pass, pre_pass),
            "ratio",
        ),
        m("deflate.match_frac", frac(matches, tokens), "ratio"),
        m(
            "deflate.escape_lz_bands",
            per_op(enc.counter(Counter::EscapeLzBands)),
            "1/op",
        ),
        m(
            "parallel.roi.bands_touched_frac",
            frac(t.spans.roi_touched, t.spans.roi_reads as f64),
            "ratio",
        ),
        m("server.submit.ms", ms(t.spans.submit), "ms"),
        m("server.wait.ms", ms(t.spans.wait), "ms"),
        m(
            "server.busy_frac",
            frac(busy_ns, svc.workers as f64 * svc.wall_ns as f64),
            "ratio",
        ),
        m(
            "server.steal_frac",
            frac(svc.steals as f64, svc.bands_executed as f64),
            "ratio",
        ),
        m("server.blocked", per_op(svc.blocked), "1/op"),
        m("telemetry.overhead", t.overhead, "ratio"),
        m("failed_frac", failed_frac, "ratio"),
    ]
}
