//! The three workloads and what they share: repeated set-up, the
//! untraced and traced measuring loops, and the output checks.

pub mod service;
pub mod snapshot;
pub mod stream;

use crate::stats::{median, percentile, MIN_SAMPLES};
use crate::trace::{layer_metrics, Traced};
use crate::{meta, secs, Args, Metric, Outcome};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A run that has not collected [`MIN_SAMPLES`] of every latency after this
/// many seconds of measuring gives up, so that it ends well within the
/// three minutes a run may take.
pub const MAX_MEASURE_S: f64 = 120.0;

/// End-to-end measurements of the untraced run.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Latency of each write (compress call, push, or compress job), ms.
    pub write_ms: Vec<f64>,
    /// Latency of each full read, ms.
    pub read_ms: Vec<f64>,
    /// Latency of each region read, ms.
    pub roi_ms: Vec<f64>,
    /// Input bytes of the timed compress calls.
    pub compress_bytes: f64,
    /// Wall seconds of the timed compress calls.
    pub compress_s: f64,
    /// Output bytes of the timed full reads.
    pub decompress_bytes: f64,
    /// Wall seconds of the timed full reads.
    pub decompress_s: f64,
    /// Operations completed, for `jobs_per_s`.
    pub ops: u64,
    /// Wall seconds those operations took.
    pub ops_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, or caught by a check.
    pub failed: u64,
}

impl Measured {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another client's measurements into these (wall time is the
    /// caller's to set).
    pub fn merge(&mut self, other: &Measured) {
        self.write_ms.extend_from_slice(&other.write_ms);
        self.read_ms.extend_from_slice(&other.read_ms);
        self.roi_ms.extend_from_slice(&other.roi_ms);
        self.compress_bytes += other.compress_bytes;
        self.compress_s += other.compress_s;
        self.decompress_bytes += other.decompress_bytes;
        self.decompress_s += other.decompress_s;
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Whether every latency has enough samples for its p90.
    pub fn has_samples(&self) -> bool {
        [&self.write_ms, &self.read_ms, &self.roi_ms]
            .iter()
            .all(|s| s.len() >= MIN_SAMPLES)
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A workload as [`run_bench`] drives it.
pub trait Bench: Sized {
    /// Generates the inputs from the seed, warms the program up, and builds
    /// whatever the workload reads back.
    fn setup(args: &Args) -> Result<Self, String>;

    /// One pass over the workload's inputs, recording into `m` and, when
    /// given, into the traced run's spans and sinks. A traced pass repeats
    /// the work of the untraced pass before it.
    fn cycle(&mut self, m: &mut Measured, trace: Option<&mut Traced>);

    /// Checks set-up already made: `(attempted, failed)`.
    fn setup_checks(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `compression_ratio`, `psnr_db`, and the facts for the meta line.
    fn summary(&self) -> (f64, f64, Vec<(&'static str, String)>);
}

/// Sets the workload up, measures it untraced (or traced), then times the
/// remaining [`SETUP_REPS`] set-ups. Peak memory is read before those
/// repeats, so that it covers one set-up and the measured passes.
///
/// # Errors
/// A failed set-up, or too few samples for a p90.
pub fn run_bench<B: Bench>(args: &Args) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut bench = B::setup(args)?;
    let mut setup_times = vec![secs(t0)];
    let (attempted, failed) = bench.setup_checks();
    let mut m = Measured {
        attempted,
        failed,
        ..Measured::default()
    };
    let traced = if args.trace {
        let mut traced = Traced::new();
        traced.overhead = measure_traced(args.seconds, |on| {
            bench.cycle(&mut m, on.then_some(&mut traced))
        });
        Some(traced)
    } else {
        measure(args.seconds, &mut m, |m| bench.cycle(m, None))?;
        None
    };
    let peak_rss_mb = meta::peak_rss_mb();
    let (ratio, psnr, info) = bench.summary();
    drop(bench);
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        drop(B::setup(args)?);
        setup_times.push(secs(t0));
    }
    let setup_s = median(&setup_times).expect("one set-up ran");
    outcome(setup_s, peak_rss_mb, &m, traced.as_ref(), ratio, psnr, info)
}

/// Runs `cycle` untraced until `seconds` have passed and every latency has
/// [`MIN_SAMPLES`] samples.
fn measure(
    seconds: f64,
    m: &mut Measured,
    mut cycle: impl FnMut(&mut Measured),
) -> Result<(), String> {
    let t0 = Instant::now();
    while secs(t0) < seconds || !m.has_samples() {
        if secs(t0) > MAX_MEASURE_S {
            return Err(format!(
                "too few samples after {MAX_MEASURE_S} s for a p90 with ten samples beyond it"
            ));
        }
        cycle(m);
    }
    Ok(())
}

/// Runs `cycle` for `seconds` in pairs of an untraced pass and a traced
/// one (`cycle(true)` attaches the sinks and must repeat the work of the
/// pass before it); returns the median over pairs of traced wall over
/// untraced wall.
fn measure_traced(seconds: f64, mut cycle: impl FnMut(bool)) -> f64 {
    let mut ratios = Vec::new();
    let t0 = Instant::now();
    while secs(t0) < seconds || ratios.len() < 2 {
        let c0 = Instant::now();
        cycle(false);
        let plain = secs(c0);
        let c0 = Instant::now();
        cycle(true);
        ratios.push(secs(c0) / plain);
    }
    median(&ratios).expect("two pairs ran")
}

/// Assembles the run's result: end-to-end metrics from `m`, or per-layer
/// metrics from `traced`.
fn outcome(
    setup_s: f64,
    peak_rss_mb: f64,
    m: &Measured,
    traced: Option<&Traced>,
    compression_ratio: f64,
    psnr_db: f64,
    mut info: Vec<(&'static str, String)>,
) -> Result<Outcome, String> {
    info.push(("failed_frac", m.failed_frac().to_string()));
    let metrics = match traced {
        Some(t) => layer_metrics(t, m.failed_frac()),
        None => {
            info.push(("write_samples", m.write_ms.len().to_string()));
            info.push(("read_samples", m.read_ms.len().to_string()));
            info.push(("roi_samples", m.roi_ms.len().to_string()));
            let p = |s: &[f64], q: f64| {
                percentile(s, q).ok_or_else(|| format!("too few samples for p{q}"))
            };
            let mb_s = |bytes: f64, s: f64| if s > 0.0 { bytes / s / 1e6 } else { 0.0 };
            let metric = |name, value, unit| Metric { name, value, unit };
            vec![
                metric("setup_s", setup_s, "s"),
                metric(
                    "compress_mb_s",
                    mb_s(m.compress_bytes, m.compress_s),
                    "MB/s",
                ),
                metric(
                    "decompress_mb_s",
                    mb_s(m.decompress_bytes, m.decompress_s),
                    "MB/s",
                ),
                metric("compression_ratio", compression_ratio, "x"),
                metric("psnr_db", psnr_db, "dB"),
                metric("write_p50_ms", p(&m.write_ms, 50.0)?, "ms"),
                metric("write_p90_ms", p(&m.write_ms, 90.0)?, "ms"),
                metric("read_p50_ms", p(&m.read_ms, 50.0)?, "ms"),
                metric("read_p90_ms", p(&m.read_ms, 90.0)?, "ms"),
                metric("roi_p50_ms", p(&m.roi_ms, 50.0)?, "ms"),
                metric("roi_p90_ms", p(&m.roi_ms, 90.0)?, "ms"),
                metric(
                    "jobs_per_s",
                    m.ops as f64 / m.ops_s.max(f64::MIN_POSITIVE),
                    "1/s",
                ),
                metric("peak_rss_mb", peak_rss_mb, "MB"),
            ]
        }
    };
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        info,
    })
}

/// Whether every point of `recon` is within `eb` of `orig`.
pub fn within_bound(orig: &[f32], recon: &[f32], eb: f64) -> bool {
    orig.len() == recon.len()
        && orig
            .iter()
            .zip(recon)
            .all(|(&a, &b)| (a as f64 - b as f64).abs() <= eb)
}

/// Whether `a` and `b` hold the same bits.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
