//! `service_mixed`: an `ArchiveService<f32>` with [`WORKERS`] workers
//! under `Backpressure::Block`, driven by a
//! closed loop of [`CLIENTS`] client threads with no think time. Each
//! client's seeded job sequence mixes one chunked write of an ATM/APS field
//! into [`BANDS`] bands, one full read (`submit_decompress`) of an archive
//! built at set-up, and two region reads (`read_region`) of a seeded row
//! window of about a tenth of the rows.

use super::{bits_equal, run_bench, within_bound, Bench, Measured};
use crate::closed_loop::{client_threads, closed_loop};
use crate::trace::{ServiceTrace, Spans, Traced};
use crate::workloads::snapshot::roi_window;
use crate::{nanos, Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use szr_core::{Config, DecodePolicy, ErrorBound};
use szr_datagen::{dataset, DatasetKind, Scale};
use szr_parallel::{band_index, decompress_chunked, ChunkedArchive};
use szr_server::{ArchiveService, Backpressure, ServiceConfig, ServiceError, ServiceStats};
use szr_telemetry::RecordingSink;
use szr_tensor::Tensor;

/// Service worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop clients asked for (the driver runs at most one per CPU).
pub const CLIENTS: usize = 2;
/// Jobs admitted at once: one per client, so that a job's bands queue
/// behind whatever part of the other client's job is still running. With a
/// single slot the two clients strictly alternate, and since half of all
/// jobs are region reads, every median would sit on the edge between "the
/// other job was a region read" and "it was not".
pub const QUEUE_JOBS: usize = CLIENTS;
/// Bands per written archive.
pub const BANDS: usize = 32;
/// Value-range-relative error bound of every band.
pub const REL_EB: f64 = 1e-4;
/// Jobs each client runs per closed-loop window: two mix blocks.
pub const JOBS_PER_WINDOW: usize = 8;
/// Jobs generated per client; a run cycles through them.
pub const JOBS_PER_CLIENT: usize = 4096;

/// What a job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Chunked compress of a field.
    Write,
    /// Full decode of a pre-built archive.
    Read,
    /// Region read of a row window through the band index.
    Roi,
}

/// One job of a client's sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// What it does.
    pub kind: Kind,
    /// Which field (index into [`suite`]).
    pub field: usize,
    /// Slowest-dimension rows a region read asks for.
    pub rows: Range<usize>,
}

/// The service's fields: ATM TS/FREQSH/SNOWHLND/CDNUMC and APS0/1.
pub fn suite(scale: Scale, seed: u64) -> Vec<szr_datagen::Field> {
    [DatasetKind::Atm, DatasetKind::Aps]
        .into_iter()
        .flat_map(|kind| dataset(kind, scale, seed))
        .collect()
}

/// Client `client`'s job sequence: blocks of one write, one full read and
/// two region reads, each block in seeded order, each job on a seeded field
/// (`field_rows[f]` rows).
pub fn jobs(seed: u64, client: usize, field_rows: &[usize], n: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 * (client as u64 + 1)));
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = [Kind::Write, Kind::Read, Kind::Roi, Kind::Roi];
        for i in (1..block.len()).rev() {
            block.swap(i, rng.random_range(0..i + 1));
        }
        for kind in block {
            let field = rng.random_range(0..field_rows.len());
            let rows = match kind {
                Kind::Roi => roi_window(&mut rng, field_rows[field]),
                _ => 0..field_rows[field],
            };
            out.push(Job { kind, field, rows });
        }
    }
    out.truncate(n);
    out
}

struct Field {
    data: Arc<Tensor<f32>>,
    /// Archive built at set-up; every write of this field must reproduce
    /// it or decode within its bands' bounds.
    archive: Arc<Vec<u8>>,
    /// Full decode of `archive`, checked at set-up.
    reference: Tensor<f32>,
    /// Per band: its rows and its bound.
    bands: Vec<(Range<usize>, f64)>,
    /// Bands in `archive`.
    band_count: usize,
}

impl Field {
    fn row_len(&self) -> usize {
        self.data.dims()[1..].iter().product()
    }

    /// Whether `recon` is within every band's bound of the original.
    fn within_bounds(&self, recon: &[f32]) -> bool {
        let row = self.row_len();
        recon.len() == self.data.len()
            && self.bands.iter().all(|(rows, eb)| {
                let span = rows.start * row..rows.end * row;
                within_bound(&self.data.as_slice()[span.clone()], &recon[span], *eb)
            })
    }
}

struct State {
    service: ArchiveService<f32>,
    config: Config,
    fields: Vec<Field>,
    jobs: Vec<Vec<Job>>,
    cursors: Vec<usize>,
    /// Set-up checks that failed.
    setup_failed: u64,
}

fn or_msg<T>(r: Result<T, ServiceError>) -> Result<T, String> {
    r.map_err(|e| format!("service: {e}"))
}

impl Bench for State {
    fn setup(args: &Args) -> Result<Self, String> {
        let config = Config::new(ErrorBound::Relative(REL_EB));
        let service = or_msg(ArchiveService::new(ServiceConfig {
            workers: WORKERS,
            queue_jobs: QUEUE_JOBS,
            backpressure: Backpressure::Block,
            session_config: config,
        }))?;
        let mut fields = Vec::new();
        let mut setup_failed = 0;
        for f in suite(args.scale, args.seed) {
            let data = Arc::new(f.data);
            let archive = or_msg(
                or_msg(service.submit_compress(Arc::clone(&data), config, BANDS, None))?.wait(),
            )?;
            let archive = Arc::new(archive);
            let policy = DecodePolicy::Strict;
            let reference = or_msg(
                or_msg(service.submit_decompress(Arc::clone(&archive), policy, None))?.wait(),
            )?;
            let index = band_index(&archive).map_err(|e| format!("band index: {e}"))?;
            let row: usize = data.dims()[1..].iter().product();
            let mut start = 0;
            let bands = index
                .entries
                .iter()
                .map(|e| {
                    let rows = start..start + e.rows;
                    start += e.rows;
                    let range = szr_metrics::value_range(
                        &data.as_slice()[rows.start * row..rows.end * row],
                    );
                    (rows, ErrorBound::Relative(REL_EB).effective(range))
                })
                .collect();
            let field = Field {
                data,
                archive,
                reference,
                bands,
                band_count: index.bands(),
            };
            setup_failed += u64::from(!field.within_bounds(field.reference.as_slice()));
            fields.push(field);
        }
        let rows: Vec<usize> = fields.iter().map(|f| f.data.dims()[0]).collect();
        let clients = client_threads(CLIENTS);
        let jobs = (0..clients)
            .map(|c| jobs(args.seed, c, &rows, JOBS_PER_CLIENT))
            .collect();
        Ok(State {
            service,
            config,
            fields,
            jobs,
            cursors: vec![0; clients],
            setup_failed,
        })
    }

    fn setup_checks(&self) -> (u64, u64) {
        (self.fields.len() as u64, self.setup_failed)
    }

    fn summary(&self) -> (f64, f64, Vec<(&'static str, String)>) {
        let n = self.fields.len().max(1) as f64;
        let input: usize = self.fields.iter().map(|f| f.data.len() * 4).sum();
        let archived: usize = self.fields.iter().map(|f| f.archive.len()).sum();
        let ratio = input as f64 / archived.max(1) as f64;
        let psnr = self
            .fields
            .iter()
            .map(|f| szr_metrics::psnr(f.data.as_slice(), f.reference.as_slice()))
            .sum::<f64>()
            / n;
        let info = vec![
            ("input_bytes", input.to_string()),
            ("workers", WORKERS.to_string()),
            ("clients", self.cursors.len().to_string()),
            ("queue_jobs", QUEUE_JOBS.to_string()),
            ("bands", BANDS.to_string()),
        ];
        (ratio, psnr, info)
    }

    /// One closed-loop window: every client runs [`JOBS_PER_WINDOW`] jobs
    /// from where its sequence left off; a traced window replays the jobs of
    /// the window before it, so that the two compare like for like.
    fn cycle(&mut self, m: &mut Measured, trace: Option<&mut Traced>) {
        if trace.is_some() {
            for cursor in &mut self.cursors {
                *cursor = cursor.saturating_sub(JOBS_PER_WINDOW);
            }
        }
        let before = self.service.stats();
        let t0 = Instant::now();
        let clients = {
            let this = &*self;
            let sinks = trace.as_ref().map(|t| (&t.sinks.enc, &t.sinks.dec));
            closed_loop(
                this.cursors.len(),
                |id| Client {
                    id,
                    cursor: this.cursors[id],
                    done: 0,
                    m: Measured::default(),
                    spans: Spans::default(),
                },
                |c| {
                    if c.done == JOBS_PER_WINDOW {
                        return false;
                    }
                    let seq = &this.jobs[c.id];
                    let job = &seq[c.cursor % seq.len()];
                    c.cursor += 1;
                    c.done += 1;
                    this.run_job(job, c, sinks);
                    true
                },
            )
        };
        let wall_ns = nanos(t0);
        let after = self.service.stats();
        for c in &clients {
            self.cursors[c.id] = c.cursor;
            m.merge(&c.m);
        }
        m.ops_s += wall_ns as f64 / 1e9;
        if let Some(t) = trace {
            for c in &clients {
                t.spans.merge(&c.spans);
                t.ops += c.m.ops;
            }
            let s = t.service.get_or_insert(ServiceTrace {
                workers: WORKERS,
                ..ServiceTrace::default()
            });
            let delta = |f: fn(&ServiceStats) -> u64| f(&after) - f(&before);
            s.wall_ns += wall_ns;
            s.steals += delta(|s| s.steals);
            s.bands_executed += delta(|s| s.bands_executed);
            s.blocked += delta(|s| s.blocked);
        }
    }
}

/// One client's share of a window.
struct Client {
    id: usize,
    cursor: usize,
    done: usize,
    m: Measured,
    spans: Spans,
}

impl State {
    /// Runs `job`, checks its output, and records it.
    fn run_job(
        &self,
        job: &Job,
        c: &mut Client,
        sinks: Option<(&Arc<RecordingSink>, &Arc<RecordingSink>)>,
    ) {
        let f = &self.fields[job.field];
        let policy = DecodePolicy::Strict;
        let sink =
            sinks.map(|(enc, dec)| Arc::clone(if job.kind == Kind::Write { enc } else { dec }));
        let t0 = Instant::now();
        enum Handle {
            Write(szr_server::CompressHandle<f32>),
            Read(szr_server::TensorHandle<f32>),
        }
        let handle = match job.kind {
            Kind::Write => self
                .service
                .submit_compress(Arc::clone(&f.data), self.config, BANDS, sink)
                .map(Handle::Write),
            Kind::Read => self
                .service
                .submit_decompress(Arc::clone(&f.archive), policy, sink)
                .map(Handle::Read),
            Kind::Roi => self
                .service
                .read_region(Arc::clone(&f.archive), job.rows.clone(), policy, sink)
                .map(Handle::Read),
        };
        let submit_ns = nanos(t0);
        let t1 = Instant::now();
        let (ok, wait_ns) = match handle {
            Err(_) => (false, 0),
            Ok(Handle::Write(h)) => {
                let out = h.wait();
                let wait_ns = nanos(t1);
                (out.is_ok_and(|bytes| self.write_ok(f, &bytes)), wait_ns)
            }
            Ok(Handle::Read(h)) => {
                let out = h.wait();
                let wait_ns = nanos(t1);
                let ok = out.is_ok_and(|t| match job.kind {
                    Kind::Roi => {
                        let row = f.row_len();
                        let want =
                            &f.reference.as_slice()[job.rows.start * row..job.rows.end * row];
                        bits_equal(t.as_slice(), want)
                    }
                    _ => {
                        bits_equal(t.as_slice(), f.reference.as_slice())
                            || f.within_bounds(t.as_slice())
                    }
                });
                (ok, wait_ns)
            }
        };
        c.m.check(ok);
        if !ok {
            return;
        }
        let ns = submit_ns + wait_ns;
        let ms = ns as f64 / 1e6;
        let bytes = (f.data.len() * 4) as f64;
        match job.kind {
            Kind::Write => {
                c.m.write_ms.push(ms);
                c.m.compress_bytes += bytes;
                c.m.compress_s += ns as f64 / 1e9;
                c.spans.enc += ns;
            }
            Kind::Read => {
                c.m.read_ms.push(ms);
                c.m.decompress_bytes += bytes;
                c.m.decompress_s += ns as f64 / 1e9;
                c.spans.dec += ns;
            }
            Kind::Roi => {
                c.m.roi_ms.push(ms);
                c.spans.dec += ns;
                c.spans.roi_reads += 1;
                let index = band_index(&f.archive).expect("indexed at set-up");
                let covered = index
                    .bands_covering_rows(job.rows.clone())
                    .map_or(0, |(b, _)| b.len());
                c.spans.roi_touched += covered as f64 / f.band_count as f64;
            }
        }
        c.m.ops += 1;
        c.spans.submit += submit_ns;
        c.spans.wait += wait_ns;
    }

    /// A written archive is correct if it reproduces the set-up archive
    /// (whose decode was checked) or decodes within every band's bound.
    fn write_ok(&self, f: &Field, bytes: &[u8]) -> bool {
        bytes == f.archive.as_slice()
            || ChunkedArchive::from_bytes(bytes)
                .and_then(|a| decompress_chunked::<f32>(&a, 1))
                .is_ok_and(|t| f.within_bounds(t.as_slice()))
    }
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures and too few samples (see [`crate::run`]).
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_bench::<State>(args)
}
