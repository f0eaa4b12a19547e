//! `stream_tight`: in-situ streaming of Hurricane time steps at a tight
//! bound. One `StreamCompressor<f32>` in table-reuse mode, with inner dims
//! `rows × cols`, writes each step as one stream at `Relative(1e-6)` under
//! `Config::with_escape_lz()`, a slab of [`band_rows`] levels per `push`,
//! and calls `finish_stream` once per step. Each of [`READERS`] consumers
//! reads the step back with `StreamDecompressor::collect_all`, then reads a
//! region: it opens the stream and decodes only its leading slab.

use super::{bits_equal, run_bench, within_bound, Bench, Measured};
use crate::trace::Traced;
use crate::{nanos, Args, Outcome};
use std::sync::Arc;
use std::time::Instant;
use szr_core::{Config, ErrorBound, StreamCompressor, StreamDecompressor, SzError};
use szr_datagen::{hurricane_at, Scale};
use szr_telemetry::TelemetrySink;
use szr_tensor::Tensor;

/// Value-range-relative error bound of every stream.
pub const REL_EB: f64 = 1e-6;

/// Time steps generated at set-up; the run cycles through them.
pub const STEPS: usize = 4;

/// Consumers that read each step back (say, analysis and visualisation):
/// each reads the whole step, then its leading slab.
pub const READERS: usize = 2;

/// Levels per pushed slab (and per emitted band): a tenth of the levels.
pub fn band_rows(levels: usize) -> usize {
    (levels / 10).max(1)
}

/// The time steps `hurricane_at(levels, rows, cols, seed, t)` for
/// `t = 0..STEPS`.
pub fn steps(scale: Scale, seed: u64) -> Vec<Tensor<f32>> {
    let (l, r, c) = scale.hurricane_dims();
    (0..STEPS)
        .map(|t| hurricane_at(l, r, c, seed, t as f32))
        .collect()
}

struct Step {
    data: Tensor<f32>,
    /// The stream's bound: the relative bound resolved on the first slab's
    /// range, which the stream then holds for every band.
    eb: f64,
}

struct State {
    steps: Vec<Step>,
    writer: StreamCompressor<f32>,
    band_rows: usize,
    /// Per step: stream bytes and PSNR, from the first pass.
    quality: Vec<(usize, f64)>,
}

impl Bench for State {
    fn setup(args: &Args) -> Result<Self, String> {
        let steps: Vec<Tensor<f32>> = steps(args.scale, args.seed);
        let dims = steps[0].dims().to_vec();
        let band_rows = band_rows(dims[0]);
        let slab = band_rows * dims[1] * dims[2];
        let steps = steps
            .into_iter()
            .map(|data| {
                let range = szr_metrics::value_range(&data.as_slice()[..slab]);
                let eb = ErrorBound::Relative(REL_EB).effective(range);
                Step { data, eb }
            })
            .collect();
        let config = Config::new(ErrorBound::Relative(REL_EB)).with_escape_lz();
        let writer = StreamCompressor::new(&dims[1..], band_rows, config)
            .map_err(|e| format!("stream writer: {e}"))?
            .with_table_reuse();
        let mut state = State {
            steps,
            writer,
            band_rows,
            quality: Vec::new(),
        };
        // Warm the writer's session and the reader on one step.
        let bytes = state.write(0, None).map_err(|e| format!("warm-up: {e}"))?;
        read_all(&bytes).map_err(|e| format!("warm-up: {e}"))?;
        Ok(state)
    }

    fn summary(&self) -> (f64, f64, Vec<(&'static str, String)>) {
        let n = self.quality.len().max(1) as f64;
        let input: usize = self.steps.iter().map(|s| s.data.len() * 4).sum();
        let archived: usize = self.quality.iter().map(|q| q.0).sum();
        let ratio = input as f64 / archived.max(1) as f64;
        let psnr = self.quality.iter().map(|q| q.1).sum::<f64>() / n;
        let info = vec![
            ("input_bytes", input.to_string()),
            ("band_rows", self.band_rows.to_string()),
        ];
        (ratio, psnr, info)
    }

    /// One pass over the time steps: stream each, then let every reader
    /// read it back and read its leading slab.
    fn cycle(&mut self, m: &mut Measured, mut trace: Option<&mut Traced>) {
        let first_pass = self.quality.is_empty();
        for s in 0..self.steps.len() {
            let sink = trace
                .as_ref()
                .map(|t| Arc::clone(&t.sinks.enc) as Arc<dyn TelemetrySink>);
            self.writer.set_telemetry(sink);
            let mut push_ns = Vec::new();
            let t0 = Instant::now();
            let stream = self.write(s, Some(&mut push_ns));
            let write_ns = nanos(t0);
            self.writer.set_telemetry(None);
            let Ok(stream) = stream else {
                m.check(false);
                continue;
            };

            let step = &self.steps[s];
            let bytes = (step.data.len() * 4) as f64;
            m.check(true);
            let ms = |ns: u64| ns as f64 / 1e6;
            m.write_ms.extend(push_ns.iter().map(|&ns| ms(ns)));
            m.compress_bytes += bytes;
            m.compress_s += write_ns as f64 / 1e9;
            m.ops += push_ns.len() as u64;
            m.ops_s += write_ns as f64 / 1e9;
            if let Some(t) = trace.as_deref_mut() {
                t.ops += 1;
                t.spans.stream += write_ns;
                t.spans.enc += write_ns;
            }

            for reader in 0..READERS {
                let t0 = Instant::now();
                let full = read_all(&stream);
                let read_ns = nanos(t0);
                let t0 = Instant::now();
                let lead = read_leading_slab(&stream);
                let roi_ns = nanos(t0);

                let ok = match (&full, &lead) {
                    (Ok(full), Ok(lead)) => {
                        within_bound(step.data.as_slice(), full.as_slice(), step.eb)
                            && full.dims() == step.data.dims()
                            && bits_equal(lead.as_slice(), &full.as_slice()[..lead.len()])
                    }
                    _ => false,
                };
                m.check(ok);
                if !ok {
                    continue;
                }
                if first_pass && reader == 0 {
                    let full = full.as_ref().expect("checked above");
                    let psnr = szr_metrics::psnr(step.data.as_slice(), full.as_slice());
                    self.quality.push((stream.len(), psnr));
                }
                m.read_ms.push(ms(read_ns));
                m.roi_ms.push(ms(roi_ns));
                m.decompress_bytes += bytes;
                m.decompress_s += read_ns as f64 / 1e9;
                m.ops += 2;
                m.ops_s += (read_ns + roi_ns) as f64 / 1e9;
                if let Some(t) = trace.as_deref_mut() {
                    t.spans.decompress += read_ns + roi_ns;
                    t.spans.dec += read_ns + roi_ns;
                }
            }
        }
    }
}

fn read_all(bytes: &[u8]) -> Result<Tensor<f32>, SzError> {
    StreamDecompressor::new(bytes)?.collect_all()
}

fn read_leading_slab(bytes: &[u8]) -> Result<Tensor<f32>, SzError> {
    StreamDecompressor::new(bytes)?
        .next_band()
        .unwrap_or_else(|| Err(SzError::Corrupt("stream holds no band".into())))
}

impl State {
    /// Streams step `s` slab by slab; returns the stream, recording each
    /// push's latency in `push_ns` when given.
    fn write(&mut self, s: usize, mut push_ns: Option<&mut Vec<u64>>) -> Result<Vec<u8>, SzError> {
        let data = self.steps[s].data.as_slice();
        let slab = self.band_rows * self.steps[s].data.dims()[1..].iter().product::<usize>();
        for rows in data.chunks(slab) {
            let t0 = Instant::now();
            let pushed = self.writer.push(rows);
            if let Some(push_ns) = push_ns.as_deref_mut() {
                push_ns.push(nanos(t0));
            }
            if let Err(e) = pushed {
                self.writer.reset();
                return Err(e);
            }
        }
        self.writer.finish_stream()
    }
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures and too few samples (see [`crate::run`]).
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_bench::<State>(args)
}
