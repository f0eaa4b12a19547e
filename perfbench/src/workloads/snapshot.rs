//! `snapshot`: the paper's use case — write a checkpoint, read it back —
//! as a plain single-threaded baseline. One warm `CodecSession<f32>`
//! compresses each field of the Medium suite at `Relative(1e-4)` under the
//! default `Config` (DEFLATE post-pass on) and decompresses it. A region
//! read decodes the field again and copies a seeded 10% row window: a
//! single-band snapshot has no index, so that is what a region costs.

use super::{bits_equal, run_bench, within_bound, Bench, Measured};
use crate::trace::Traced;
use crate::{nanos, Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use szr_core::{CodecSession, Config, ErrorBound};
use szr_datagen::{dataset, DatasetKind, Scale};
use szr_telemetry::TelemetrySink;
use szr_tensor::Tensor;

/// Value-range-relative error bound of every compress call.
pub const REL_EB: f64 = 1e-4;

/// The Medium suite: ATM TS/FREQSH/SNOWHLND/CDNUMC, APS0/1, Hurricane
/// Uf01/02, in that order.
pub fn suite(scale: Scale, seed: u64) -> Vec<szr_datagen::Field> {
    [DatasetKind::Atm, DatasetKind::Aps, DatasetKind::Hurricane]
        .into_iter()
        .flat_map(|kind| dataset(kind, scale, seed))
        .collect()
}

/// A seeded window of about a tenth of `rows` slowest-dimension rows.
pub fn roi_window(rng: &mut StdRng, rows: usize) -> Range<usize> {
    let len = (rows / 10).max(1);
    let start = rng.random_range(0..rows - len + 1);
    start..start + len
}

struct Field {
    data: Tensor<f32>,
    eb: f64,
    roi: Range<usize>,
}

struct State {
    fields: Vec<Field>,
    session: CodecSession<f32>,
    /// Per field: archive bytes and PSNR, from the first pass (both are
    /// deterministic per seed).
    quality: Vec<(usize, f64)>,
}

impl Bench for State {
    fn setup(args: &Args) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let fields: Vec<Field> = suite(args.scale, args.seed)
            .into_iter()
            .map(|f| {
                let eb = ErrorBound::Relative(REL_EB)
                    .effective(szr_metrics::value_range(f.data.as_slice()));
                let roi = roi_window(&mut rng, f.data.dims()[0]);
                Field {
                    data: f.data,
                    eb,
                    roi,
                }
            })
            .collect();
        let mut session = CodecSession::new(Config::new(ErrorBound::Relative(REL_EB)))
            .map_err(|e| format!("session: {e}"))?;
        // Warm the session once per grid shape, as a long-lived writer would be.
        let mut shapes: Vec<&[usize]> = Vec::new();
        for f in &fields {
            if !shapes.contains(&f.data.dims()) {
                shapes.push(f.data.dims());
                let archive = session
                    .compress(&f.data)
                    .map_err(|e| format!("warm-up: {e}"))?;
                session
                    .decompress(&archive)
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        Ok(State {
            fields,
            session,
            quality: Vec::new(),
        })
    }

    fn summary(&self) -> (f64, f64, Vec<(&'static str, String)>) {
        let n = self.quality.len().max(1) as f64;
        let input: usize = self.fields.iter().map(|f| f.data.len() * 4).sum();
        let archived: usize = self.quality.iter().map(|q| q.0).sum();
        let ratio = input as f64 / archived.max(1) as f64;
        let psnr = self.quality.iter().map(|q| q.1).sum::<f64>() / n;
        (ratio, psnr, vec![("input_bytes", input.to_string())])
    }

    /// One pass over the suite: compress, read back, region read.
    fn cycle(&mut self, m: &mut Measured, mut trace: Option<&mut Traced>) {
        let first_pass = self.quality.is_empty();
        for f in &self.fields {
            let sinks = trace.as_ref().map(|t| {
                let enc = Arc::clone(&t.sinks.enc) as Arc<dyn TelemetrySink>;
                let dec = Arc::clone(&t.sinks.dec) as Arc<dyn TelemetrySink>;
                (enc, dec)
            });
            self.session
                .set_telemetry(sinks.as_ref().map(|s| Arc::clone(&s.0)));
            let t0 = Instant::now();
            let archive = self.session.compress(&f.data);
            let write_ns = nanos(t0);
            let Ok(archive) = archive else {
                m.check(false);
                continue;
            };

            self.session
                .set_telemetry(sinks.as_ref().map(|s| Arc::clone(&s.1)));
            let t0 = Instant::now();
            let full = self.session.decompress(&archive);
            let read_ns = nanos(t0);

            let t0 = Instant::now();
            let region = self.session.decompress(&archive).map(|t| {
                let row: usize = t.dims()[1..].iter().product();
                t.as_slice()[f.roi.start * row..f.roi.end * row].to_vec()
            });
            let roi_ns = nanos(t0);
            self.session.set_telemetry(None);

            let bytes = f.data.len() * 4;
            let ok = match (&full, &region) {
                (Ok(full), Ok(region)) => {
                    let row: usize = full.dims()[1..].iter().product();
                    within_bound(f.data.as_slice(), full.as_slice(), f.eb)
                        && bits_equal(region, &full.as_slice()[f.roi.start * row..f.roi.end * row])
                }
                _ => false,
            };
            m.check(ok);
            if !ok {
                continue;
            }
            if first_pass {
                let full = full.as_ref().expect("checked above");
                let psnr = szr_metrics::psnr(f.data.as_slice(), full.as_slice());
                self.quality.push((archive.len(), psnr));
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            m.write_ms.push(ms(write_ns));
            m.read_ms.push(ms(read_ns));
            m.roi_ms.push(ms(roi_ns));
            m.compress_bytes += bytes as f64;
            m.compress_s += write_ns as f64 / 1e9;
            m.decompress_bytes += bytes as f64;
            m.decompress_s += read_ns as f64 / 1e9;
            m.ops += 3;
            m.ops_s += (write_ns + read_ns + roi_ns) as f64 / 1e9;
            if let Some(t) = trace.as_deref_mut() {
                t.ops += 1;
                t.spans.compress += write_ns;
                t.spans.decompress += read_ns + roi_ns;
                t.spans.enc += write_ns;
                t.spans.dec += read_ns + roi_ns;
            }
        }
    }
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures and too few samples (see [`crate::run`]).
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_bench::<State>(args)
}
