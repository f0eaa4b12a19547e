//! # szr-perfbench — the repository's benchmark.
//!
//! One command runs one workload and prints every metric by name and unit:
//! end-to-end metrics measured with tracing off, or, with `--trace 1`,
//! per-layer metrics from a separate traced run. Inputs come from
//! `szr_datagen` under the given seed; the program only ever receives the
//! generated tensors and archives. Every output is checked outside the
//! timed spans, and every violation counts as a failed operation. See
//! `README.md` for why each workload exists and which end-to-end metric
//! each layer metric should move.

pub mod closed_loop;
pub mod meta;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::time::Instant;
use szr_datagen::Scale;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm-session checkpoint write and read-back of the Medium suite.
    Snapshot,
    /// Closed-loop mix of chunked writes, full reads and region reads
    /// through `ArchiveService`.
    ServiceMixed,
    /// In-situ streaming of Hurricane time steps at a tight bound.
    StreamTight,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Snapshot,
        Workload::ServiceMixed,
        Workload::StreamTight,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Snapshot => "snapshot",
            Workload::ServiceMixed => "service_mixed",
            Workload::StreamTight => "stream_tight",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input and of the service's job mix.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer metrics from a traced run instead of end-to-end metrics.
    pub trace: bool,
    /// Grid sizes: `Medium` for measurement, `Small` for the tests.
    pub scale: Scale,
}

/// Lower-case name of a datagen scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Full => "full",
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (timed calls and jobs, plus set-up checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or broke a correctness check.
    pub failed: u64,
    /// End-to-end metrics (`trace == false`) or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Run facts printed beside the result: input bytes, sample counts.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The metric called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload.
///
/// # Errors
/// A message when the run could not produce a result at all (a set-up
/// call the workload cannot do without failed, or too few samples for a
/// reported percentile); per-operation failures are counted instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::Snapshot => workloads::snapshot::run(args),
        Workload::ServiceMixed => workloads::service::run(args),
        Workload::StreamTight => workloads::stream::run(args),
    }
}

/// Seconds since `t0`.
pub(crate) fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nanoseconds since `t0`.
pub(crate) fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}
