//! Parallel use of the compressor (§VI of the paper).
//!
//! SZ parallelizes trivially: each process compresses the fraction of the
//! data in its own memory, with no inter-process communication (the paper
//! runs 11 400 ATM files across 1 024 processes this way). This crate
//! reproduces that shape on a single machine and models the cluster:
//!
//! * [`chunked`] — split a tensor into contiguous row bands, compress each
//!   band as an independent archive (scoped threads, no locks on the data
//!   path), reassemble on decompression; `compress_chunked_planned` lets
//!   `szr-planner` pick a per-band configuration so heterogeneous slabs
//!   each get suitable layer counts and interval sizes;
//!   `compress_chunked_fused` presamples one shared Huffman table and runs
//!   the fused quantize→encode fast path per band. Every driver runs its
//!   bands through one private worker runner in which each worker (both
//!   directions) owns one `szr_core::CodecSession`, so kernels, quantize
//!   buffers, and decode scratch are reused across all bands it claims.
//!   The band task itself is public, and `szr-server` runs the same one:
//!   [`BandSplit`] (the row split, band shapes and slices),
//!   [`compress_band`] (arms the session with the job's config on every
//!   call), [`decode_band`] (shared-table or self-contained band), and
//!   [`stitch_bands`] (extent checks against the container or the band
//!   index, row copy, optional region trim).
//!   Serialized containers (v2) carry a CRC-sealed band index enabling
//!   `read_bands` / `decompress_chunked_region` — ROI decode that costs
//!   O(touched bands), never O(archive) — and header-only `peek_stat`;
//! * [`scheduler`] — the work-stealing band scheduler behind every chunked
//!   driver (and the `szr-server` job queues): per-worker deques seeded
//!   with contiguous band runs, idle workers steal from the most loaded
//!   peer, steals surfaced through telemetry;
//! * [`scaling`] — the strong-scaling harness behind Tables VII/VIII:
//!   measured thread-scaling on the host plus an analytical Blues-cluster
//!   model (ideal inter-node scaling — justified by zero communication —
//!   with a measured intra-node memory-contention factor);
//! * [`io_model`] — the Figure 10 harness: compression + compressed-write
//!   versus raw-write time fractions under a shared-bandwidth
//!   parallel-file-system model.

mod chunked;
mod io_model;
mod scaling;
mod scheduler;

pub use chunked::{
    band_index, compress_band, compress_chunked, compress_chunked_fused,
    compress_chunked_fused_telemetry, compress_chunked_planned, compress_chunked_planned_telemetry,
    compress_chunked_shared, compress_chunked_shared_telemetry, compress_chunked_telemetry,
    decode_band, decompress_chunked, decompress_chunked_policy_telemetry,
    decompress_chunked_region, decompress_chunked_salvage, decompress_chunked_salvage_telemetry,
    decompress_chunked_telemetry, decompress_chunked_with_policy, read_bands, read_bands_indexed,
    stitch_bands, BandIndex, BandIndexEntry, BandSplit, ChunkedArchive, ChunkedStat,
};
pub use io_model::{io_breakdown, IoBreakdown, IoModel};
pub use scaling::{measure_scaling, model_cluster_scaling, ClusterModel, Direction, ScalingPoint};
pub use scheduler::{BandScheduler, WorkQueues};
