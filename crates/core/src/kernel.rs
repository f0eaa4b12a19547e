//! The predict→quantize scan pipeline.
//!
//! Every stage of the codec — compression, decompression, the adaptive
//! interval sampler, and the hit-rate estimators — performs the same
//! traversal: walk the grid in row-major order and predict each point from
//! already-visited neighbors with the §III Eq. 11 multilayer predictor.
//! [`ScanKernel`] owns that traversal exactly once.
//!
//! A kernel is instantiated per *(layer count, stride family)*, not per
//! point. For the dominant configurations — 1-D/2-D/3-D grids with `n = 1`
//! (the Lorenzo predictor, the paper's default) or `n = 2` — construction
//! builds the row engine's per-row-class stencil plans once. Everything
//! else runs per point through the generic [`StencilSet`] walker, so any
//! `(d, n)` the config layer validates still works.
//!
//! Because bands of a chunked tensor share their inner extents (and
//! therefore their strides), one kernel instance serves every band a
//! parallel worker compresses: each scan takes the band's [`Shape`] per
//! call and only the stride family is baked in.
//!
//! ## Row-granular traversal
//!
//! [`ScanKernel::scan`] drives a per-point visitor through the generic
//! walker — the *oracle* the property tests pin everything against; no
//! codec path runs on it. Every codec path runs through
//! [`ScanKernel::scan_rows`] instead, which exploits the structure of a
//! row-major Eq. 11 scan: for an interior row, every stencil term except the
//! pure last-axis (loop-carried) neighbors reads an *already-finished* row,
//! so the bulk of the prediction is row-invariant. `scan_rows` precomputes
//! that prefix into a reusable partial-sum scratch row with tight,
//! autovectorizable slice loops, then hands the whole row segment to a
//! [`RowVisitor`] that only has to fold in the [`Carry`] tail (one or two
//! previous reconstructions) per point. [`Stencil`]'s canonical term order —
//! finished-row terms first, in-row terms last — makes the split
//! *bit-identical* to per-point evaluation, so row and point traversals
//! produce byte-identical archives.
//!
//! ## Two rows in flight
//!
//! Compression predicts from *reconstructed* neighbors (§III), so each
//! point's prediction waits on the previous point's quantize →
//! reconstruct → narrow chain: interior-row throughput is set by the
//! latency of that loop-carried chain, not by how many instructions a point
//! costs. Consecutive rows of one plane have independent chains once the
//! earlier row is far enough ahead, so [`ScanKernel::scan_rows`] hands them
//! to [`RowVisitor::row_pair`] together. [`RowPair::fold`] runs the two
//! chains in lockstep, the second row one block of 16 columns behind the
//! first: every stencil term of the second row reads the first row at or
//! before its own column, and canonical order puts those terms *first*, so
//! the second row's partials are batched by the same fill pass once the
//! first row has finished the block. Predictions are bit-identical to the
//! one-row scan; only the order in which points reach the visitor changes.
//! The staged quantizer overrides `row_pair` (keeping codes and escape
//! order per row); every other visitor, and border columns and a plane's
//! odd leftover row, stay on the one-row loop.
//!
//! The read-only sibling [`ScanKernel::readonly_rows`] goes further: with no
//! write-back feedback, even the in-row terms are batchable, so interior
//! rows arrive as fully materialized prediction slices.
//!
//! The row engine evaluates terms in the same order as [`predict_at`] over
//! a built [`Stencil`], so row and point traversals produce identical codes
//! and therefore byte-identical archives — pinned down by the property
//! tests at the bottom of this file.

use crate::float::ScalarFloat;
use crate::predict::{predict_at, Stencil, StencilSet};
use szr_tensor::Shape;

/// The loop-carried tail of an interior-row prediction: the pure last-axis
/// stencil terms that read the current row's just-written reconstructions
/// and therefore cannot be batched ahead of time.
///
/// The coefficients are Eq. 11's last-axis binomial row: `+1` for one layer,
/// `+2, −1` for two. [`Carry::pred`] folds them onto a precomputed
/// row-invariant partial in exactly the floating-point order
/// [`predict_at`] would use, which is what keeps row-path archives
/// byte-identical to the point-visitor oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carry {
    /// One-layer tail: `pred = partial + prev1`.
    One,
    /// Two-layer tail: `pred = (partial + 2·prev1) − prev2`.
    Two,
}

impl Carry {
    /// The tail of an `n`-layer stencil (`n` is 1 or 2).
    #[inline]
    pub fn for_layers(n: usize) -> Self {
        if n == 1 {
            Carry::One
        } else {
            Carry::Two
        }
    }

    /// Completes a prediction from its row-invariant `partial` and the one
    /// or two preceding reconstructions.
    #[inline(always)]
    pub fn pred(self, partial: f64, prev1: f64, prev2: f64) -> f64 {
        match self {
            Carry::One => partial + prev1,
            Carry::Two => (partial + 2.0 * prev1) - prev2,
        }
    }

    /// Number of loop-carried neighbors (1 or 2).
    pub fn width(self) -> usize {
        match self {
            Carry::One => 1,
            Carry::Two => 2,
        }
    }

    /// Runs the canonical scalar tail over one row segment: for each point,
    /// completes the prediction from `partials[i]` and the running
    /// reconstructions, calls `f(i, pred)` for the value to store, writes it
    /// to `row[i]`, and shifts the carry. The one place the
    /// bit-identity-critical fold order lives — every row visitor
    /// (quantize, decode, the stats measurers) drives its loop through
    /// here. The first error aborts the fold.
    #[inline]
    pub fn fold<T, E, F>(
        self,
        partials: &[f64],
        prev: [T; 2],
        row: &mut [T],
        mut f: F,
    ) -> std::result::Result<(), E>
    where
        T: ScalarFloat,
        F: FnMut(usize, f64) -> std::result::Result<T, E>,
    {
        let mut p1 = prev[0].to_f64();
        let mut p2 = prev[1].to_f64();
        for i in 0..row.len() {
            let r = f(i, self.pred(partials[i], p1, p2))?;
            row[i] = r;
            p2 = p1;
            p1 = r.to_f64();
        }
        Ok(())
    }
}

/// A row-granular visitor driven by [`ScanKernel::scan_rows`].
///
/// Grid borders (where the stencil shrinks per point) arrive one point at a
/// time through [`RowVisitor::point`]; interior row segments arrive whole
/// through [`RowVisitor::row`] with their row-invariant partial sums already
/// materialized. Both methods are fallible: the first error aborts the scan
/// immediately — this is the `try_scan` early-exit path corrupt-archive
/// decoding rides. Infallible visitors (compression) use
/// `Error = std::convert::Infallible`, which compiles the checks away.
pub trait RowVisitor<T: ScalarFloat> {
    /// Error type propagated out of [`ScanKernel::scan_rows`].
    type Error;

    /// Visits one border point. `pred` is the full Eq. 11 prediction; the
    /// returned value is stored at `flat` and feeds later predictions.
    fn point(&mut self, flat: usize, pred: f64) -> std::result::Result<T, Self::Error>;

    /// Visits one interior row segment starting at `flat`.
    ///
    /// `partials[i]` is the row-invariant prediction prefix for point
    /// `flat + i`; the full prediction is `carry.pred(partials[i], p1, p2)`
    /// where `p1`/`p2` are the reconstructions at `flat + i − 1` /
    /// `flat + i − 2` — seeded from `prev` (`prev[0]` = value at `flat − 1`,
    /// `prev[1]` = value at `flat − 2`, meaningful only for [`Carry::Two`])
    /// and thereafter the visitor's own writes. The visitor must fill
    /// `row[i]` for every `i`, in order.
    fn row(
        &mut self,
        flat: usize,
        partials: &[f64],
        carry: Carry,
        row: &mut [T],
        prev: [T; 2],
    ) -> std::result::Result<(), Self::Error>;

    /// Visits two consecutive rows of one plane whose interiors the scan
    /// can run together. The leading row's border points have already
    /// been visited; the pair covers its interior and all of the lagging
    /// row.
    ///
    /// The default keeps the one-row scan order: [`RowPair::visit_in_order`]
    /// makes the two [`RowVisitor::row`] calls (with the lagging row's
    /// border [`RowVisitor::point`]s between them). A visitor whose output
    /// does not depend on call order can override this with
    /// [`RowPair::fold`], which interleaves the two rows' dependency chains.
    fn row_pair(&mut self, pair: RowPair<'_, T>) -> std::result::Result<(), Self::Error> {
        pair.visit_in_order(self)
    }
}

/// How far (in columns) the lagging row of a [`RowPair::fold`] runs behind
/// the leading one. Every lagging-row stencil term reads the leading row at
/// or before its own column, so once the leading row is a block ahead, the
/// lagging row's row-invariant partials for that block are final and can be
/// batched like any other row's.
const PAIR_LAG: usize = 16;

/// Which row of a [`RowPair`] a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The earlier row (its border points precede the pair).
    Lead,
    /// The row after it, running behind.
    Lag,
}

/// Two consecutive rows of one plane handed to [`RowVisitor::row_pair`]:
/// the leading row's interior (partials already filled) and the whole
/// lagging row, whose partials depend on the leading row's values and are
/// filled as the scan reaches them.
pub struct RowPair<'a, T> {
    kernel: &'a mut ScanKernel,
    buf: &'a mut [T],
    /// Leading coordinates of the lagging row (`[..rank]` used).
    lag: [usize; 2],
    rank: usize,
    /// Flat index of the leading row's first interior point.
    lead_seg: usize,
    row_stride: usize,
    /// The leading row's interior partials; reused for the lagging row's on
    /// the in-order path.
    partials: &'a mut [f64],
    /// One [`PAIR_LAG`] block of lagging-row partials for [`RowPair::fold`].
    lag_partials: &'a mut [f64],
}

impl<T: ScalarFloat> RowPair<'_, T> {
    /// Flat index of the first point the pair covers (the leading row's
    /// first interior point).
    pub fn start(&self) -> usize {
        self.lead_seg
    }

    /// One past the flat index of the last point the pair covers (the end
    /// of the lagging row).
    pub fn end(&self) -> usize {
        self.lag_seg() + self.partials.len()
    }

    fn lag_seg(&self) -> usize {
        self.lead_seg + self.row_stride
    }

    /// Visits the pair in one-row scan order: the leading interior as one
    /// [`RowVisitor::row`], the lagging row's border through
    /// [`RowVisitor::point`], then its interior as a second `row`.
    pub fn visit_in_order<V>(self, visitor: &mut V) -> std::result::Result<(), V::Error>
    where
        V: RowVisitor<T> + ?Sized,
    {
        let n = self.kernel.layers;
        let carry = Carry::for_layers(n);
        let len = self.partials.len();
        let (lead, lag) = (self.lead_seg, self.lag_seg());
        let prev = carry_seed(self.buf, lead, n);
        visitor.row(
            lead,
            self.partials,
            carry,
            &mut self.buf[lead..lead + len],
            prev,
        )?;
        let lag_lead = &self.lag[..self.rank];
        self.kernel
            .border_points(lag_lead, lag - n, len + n, self.buf, |f, p| {
                visitor.point(f, p)
            })?;
        let plan = &self.kernel.row_plans[plan_index(n, lag_lead)];
        fill_partials(&plan.terms[..plan.prior_len], self.buf, lag, self.partials);
        let prev = carry_seed(self.buf, lag, n);
        visitor.row(
            lag,
            self.partials,
            carry,
            &mut self.buf[lag..lag + len],
            prev,
        )
    }

    /// Runs both rows with their dependency chains interleaved: the lagging
    /// row's border first (it reads only finished values and the leading
    /// row's border), then the two interiors in lockstep, the lagging row
    /// one 16-column block (`PAIR_LAG`) behind. `f(lane, flat, pred)`
    /// returns the value to store at `flat`, exactly as [`Carry::fold`]'s
    /// callback does.
    ///
    /// Every prediction is bit-identical to the one-row scan's (same
    /// partial-sum passes, same carry fold); only the order in which points
    /// reach `f` differs, so the visitor must keep any order-dependent
    /// output (code streams, escape bits) per [`Lane`].
    #[inline(always)]
    pub fn fold<E, F>(self, mut f: F) -> std::result::Result<(), E>
    where
        F: FnMut(Lane, usize, f64) -> std::result::Result<T, E>,
    {
        let n = self.kernel.layers;
        let carry = Carry::for_layers(n);
        let len = self.partials.len();
        let (lead, lag) = (self.lead_seg, self.lag_seg());
        let lag_lead = &self.lag[..self.rank];
        self.kernel
            .border_points(lag_lead, lag - n, len + n, self.buf, |flat, pred| {
                f(Lane::Lag, flat, pred)
            })?;
        let plan = &self.kernel.row_plans[plan_index(n, lag_lead)];
        let lag_terms = &plan.terms[..plan.prior_len];
        // Step `t` runs leading block `t` beside lagging block `t − 1`.
        let blocks = len.div_ceil(PAIR_LAG);
        for t in 0..=blocks {
            let a = (t * PAIR_LAG).min(len)..((t + 1) * PAIR_LAG).min(len);
            let b = (t.saturating_sub(1) * PAIR_LAG).min(a.start)..a.start;
            let pb = &mut self.lag_partials[..b.len()];
            fill_partials(lag_terms, self.buf, lag + b.start, pb);
            let (pa, pb) = (&self.partials[a.clone()], &*pb);
            let (sa, sb) = (lead + a.start, lag + b.start);
            let [mut a1, mut a2] = carry_seed(self.buf, sa, n).map(|v| v.to_f64());
            let [mut b1, mut b2] = carry_seed(self.buf, sb, n).map(|v| v.to_f64());
            let (head, tail) = self.buf.split_at_mut(sb);
            let (row_a, row_b) = (&mut head[sa..sa + pa.len()], &mut tail[..pb.len()]);
            let both = pa.len().min(pb.len());
            for i in 0..both {
                let ra = f(Lane::Lead, sa + i, carry.pred(pa[i], a1, a2))?;
                row_a[i] = ra;
                (a2, a1) = (a1, ra.to_f64());
                let rb = f(Lane::Lag, sb + i, carry.pred(pb[i], b1, b2))?;
                row_b[i] = rb;
                (b2, b1) = (b1, rb.to_f64());
            }
            for i in both..pa.len() {
                let ra = f(Lane::Lead, sa + i, carry.pred(pa[i], a1, a2))?;
                row_a[i] = ra;
                (a2, a1) = (a1, ra.to_f64());
            }
            for i in both..pb.len() {
                let rb = f(Lane::Lag, sb + i, carry.pred(pb[i], b1, b2))?;
                row_b[i] = rb;
                (b2, b1) = (b1, rb.to_f64());
            }
        }
        Ok(())
    }
}

/// The carry seed of an interior segment starting at `seg`: the values at
/// `seg − 1` and (two layers only) `seg − 2`.
#[inline]
fn carry_seed<T: ScalarFloat>(buf: &[T], seg: usize, n: usize) -> [T; 2] {
    let prev2 = if n == 2 {
        buf[seg - 2]
    } else {
        T::from_f64(0.0)
    };
    [buf[seg - 1], prev2]
}

/// Which traversal implementation a [`ScanKernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The row engine (and the closed-form sparse interval sampler) for
    /// `ndim ∈ 1..=3`, `layers ∈ 1..=2`.
    Specialized {
        /// Grid rank.
        ndim: u8,
        /// Prediction layer count.
        layers: u8,
    },
    /// The HashMap-cached stencil walker (any rank, any layer count).
    Generic,
}

/// One predict→visit traversal engine, reusable across same-stride grids.
///
/// Construction picks the implementation once; [`ScanKernel::scan_rows`]
/// then drives a visitor over every point. The visitor receives each
/// point's prediction (or a row segment's partial sums) and returns the
/// value to store — the value later predictions read, which is how the
/// compressor feeds reconstructed (not original) values forward exactly
/// like the decompressor will.
pub struct ScanKernel {
    layers: usize,
    strides: Vec<usize>,
    kind: KernelKind,
    stencils: StencilSet,
    /// Interior stencil terms for the sparse interval sampler's 3-D
    /// two-layer case (26 terms, looped over a dense slice).
    interior_terms: Vec<(usize, f64)>,
    /// Per-row-class plans for the row-granular traversals, indexed by the
    /// clamped leading coordinates (empty for generic kernels).
    row_plans: Vec<RowPlan>,
    /// Reusable partial-sum scratch row, grown to the longest row seen.
    /// Lives in the kernel so chunked workers, the streaming compressor, and
    /// the planner's samplers pay the allocation once per kernel, not per
    /// band or per call.
    row_scratch: Vec<f64>,
    /// Second scratch row for passes that need predictions and a derived
    /// per-point quantity at once (the sampler's interval magnitudes).
    aux_scratch: Vec<f64>,
}

/// The stencil of one row class (fixed clamped leading coordinates, full
/// last-axis layers), split at the prior/in-row boundary.
struct RowPlan {
    /// Canonical-order terms: `[..prior_len]` read finished rows,
    /// `[prior_len..]` are the in-row loop-carried terms.
    terms: Vec<(usize, f64)>,
    prior_len: usize,
}

impl ScanKernel {
    /// Builds a kernel for `layers`-layer prediction on grids with the given
    /// row-major `strides`, selecting a specialized implementation when one
    /// exists.
    ///
    /// # Panics
    /// Panics if `layers == 0` or `strides` is empty (rejected earlier by
    /// [`crate::Config::validate`] on every public path).
    pub fn new(layers: usize, strides: &[usize]) -> Self {
        let kind = if (1..=3).contains(&strides.len()) && (1..=2).contains(&layers) {
            KernelKind::Specialized {
                ndim: strides.len() as u8,
                layers: layers as u8,
            }
        } else {
            KernelKind::Generic
        };
        Self::with_kind(layers, strides, kind)
    }

    /// Builds a kernel that always uses the generic stencil walker, even for
    /// shapes a specialized kernel covers — the equivalence baseline used by
    /// the property tests.
    pub fn generic(layers: usize, strides: &[usize]) -> Self {
        Self::with_kind(layers, strides, KernelKind::Generic)
    }

    /// Convenience constructor from a concrete shape.
    pub fn for_shape(layers: usize, shape: &Shape) -> Self {
        Self::new(layers, shape.strides())
    }

    /// Find-or-create in a kernel cache keyed by *(layer count, stride
    /// family)* — the one definition of the cache policy, shared by
    /// [`crate::CodecSession`]'s compress side and the cached decode path.
    pub(crate) fn cache_index(
        kernels: &mut Vec<ScanKernel>,
        layers: usize,
        shape: &Shape,
    ) -> usize {
        match kernels
            .iter()
            .position(|k| k.layers() == layers && k.matches(shape))
        {
            Some(i) => i,
            None => {
                kernels.push(ScanKernel::for_shape(layers, shape));
                kernels.len() - 1
            }
        }
    }

    fn with_kind(layers: usize, strides: &[usize], kind: KernelKind) -> Self {
        assert!(layers >= 1, "ScanKernel requires at least one layer");
        assert!(
            !strides.is_empty(),
            "ScanKernel requires at least one dimension"
        );
        let d = strides.len();
        let interior_terms = if kind == (KernelKind::Specialized { ndim: 3, layers: 2 }) {
            Stencil::build(&vec![layers; d], strides).terms().to_vec()
        } else {
            Vec::new()
        };
        // Row classes: clamped leading coordinates, full last-axis layers.
        // At most (n+1)^(d−1) ≤ 9 tiny stencils for the row-engine kinds.
        let row_plans = if matches!(kind, KernelKind::Specialized { .. }) {
            let lead = d - 1;
            let classes = (layers + 1).pow(lead as u32);
            (0..classes)
                .map(|mut c| {
                    let mut n_eff = vec![0usize; d];
                    n_eff[d - 1] = layers;
                    for axis in (0..lead).rev() {
                        n_eff[axis] = c % (layers + 1);
                        c /= layers + 1;
                    }
                    let stencil = Stencil::build(&n_eff, strides);
                    RowPlan {
                        prior_len: stencil.prior_terms().len(),
                        terms: stencil.terms().to_vec(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            layers,
            strides: strides.to_vec(),
            kind,
            stencils: StencilSet::new(layers, strides),
            interior_terms,
            row_plans,
            row_scratch: Vec::new(),
            aux_scratch: Vec::new(),
        }
    }

    /// The selected implementation.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Prediction layer count the kernel was built for.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The stride family the kernel serves.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// True when `shape` belongs to this kernel's grid family (same rank and
    /// row-major strides; the leading extent is free, which is what lets
    /// chunked bands share one kernel).
    pub fn matches(&self, shape: &Shape) -> bool {
        shape.strides() == &self.strides[..]
    }

    /// Drives `visit` over every point of `shape` in row-major order — the
    /// generic point walker, the oracle the row engine is pinned against.
    ///
    /// For each flat index the kernel computes the Eq. 11 prediction from
    /// the values already written to `buf` (through the cached boundary
    /// stencils, for every grid family) and stores the visitor's return
    /// value back at that index. No codec path runs on it; the row-granular
    /// [`ScanKernel::scan_rows`] produces bit-identical predictions.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `buf` is
    /// not exactly `shape.len()` long. The check is O(rank) per scan (not
    /// per point) and guards the row engine's unchecked stride arithmetic
    /// in release builds too.
    pub fn scan<T, F>(&mut self, shape: &Shape, buf: &mut [T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64) -> T,
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(buf.len(), shape.len(), "buffer length does not match shape");
        let walked: std::result::Result<(), std::convert::Infallible> =
            self.walk(shape, buf, |flat, pred| Ok(visit(flat, pred)));
        match walked {
            Ok(()) => {}
            Err(e) => match e {},
        }
    }

    /// Drives a [`RowVisitor`] over every point of `shape` in row-major
    /// order — the row-granular sibling of [`ScanKernel::scan`] and the
    /// traversal behind the compression/decompression hot paths.
    ///
    /// Border points (where the Eq. 11 stencil shrinks per point) are
    /// delivered one at a time through [`RowVisitor::point`]; each interior
    /// row segment is delivered whole through [`RowVisitor::row`] with its
    /// row-invariant partial sums precomputed into the kernel's reusable
    /// scratch row by tight slice loops. Generic kernels (rank > 3 or
    /// layers > 2) fall back to per-point delivery; results are identical.
    ///
    /// The scan aborts at the visitor's first error — the `try_scan` path:
    /// decompression stops scanning a corrupt archive at the first bad
    /// symbol instead of decoding the full grid. Infallible visitors use
    /// `Error = std::convert::Infallible`.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `buf` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn scan_rows<T, V>(
        &mut self,
        shape: &Shape,
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(buf.len(), shape.len(), "buffer length does not match shape");
        match self.kind {
            KernelKind::Specialized { .. } => self.scan_rows_specialized(shape, buf, visitor),
            KernelKind::Generic => self.walk(shape, buf, |flat, pred| visitor.point(flat, pred)),
        }
    }

    fn scan_rows_specialized<T, V>(
        &mut self,
        shape: &Shape,
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let mut aux = std::mem::take(&mut self.aux_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        if aux.len() < PAIR_LAG {
            aux.resize(PAIR_LAG, 0.0);
        }
        let result = match d {
            1 => self.row_pass(&[], 0, d_last, &mut scratch, buf, visitor),
            2 => self.plane_pass(None, dims[0], d_last, &mut scratch, &mut aux, buf, visitor),
            _ => (0..dims[0]).try_for_each(|i| {
                self.plane_pass(
                    Some(i),
                    dims[1],
                    d_last,
                    &mut scratch,
                    &mut aux,
                    buf,
                    visitor,
                )
            }),
        };
        self.row_scratch = scratch;
        self.aux_scratch = aux;
        result
    }

    /// The rows of one plane — the whole grid in 2-D, plane `outer` in
    /// 3-D: consecutive rows two at a time through
    /// [`RowVisitor::row_pair`]; an odd leftover row, and every row of a
    /// grid too narrow for an interior segment, one at a time through
    /// [`Self::row_pass`].
    #[allow(clippy::too_many_arguments)]
    fn plane_pass<T, V>(
        &mut self,
        outer: Option<usize>,
        rows: usize,
        d_last: usize,
        scratch: &mut [f64],
        aux: &mut [f64],
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        let d = self.strides.len();
        let row_stride = self.strides[d - 2];
        let plane_base = outer.map_or(0, |i| i * self.strides[0]);
        // Leading coordinates of row `r`: `[r]` in 2-D, `[outer, r]` in 3-D.
        let lead_of = |r: usize| match outer {
            Some(i) => [i, r],
            None => [r, 0],
        };
        let rank = d - 1;
        let n = self.layers;
        let mut r = 0;
        while r < rows {
            let lead = lead_of(r);
            let base = plane_base + r * row_stride;
            if r + 1 == rows || d_last <= n {
                self.row_pass(&lead[..rank], base, d_last, scratch, buf, visitor)?;
                r += 1;
                continue;
            }
            self.border_points(&lead[..rank], base, d_last, buf, |f, p| visitor.point(f, p))?;
            let len = d_last - n;
            let plan = &self.row_plans[plan_index(n, &lead[..rank])];
            fill_partials(
                &plan.terms[..plan.prior_len],
                buf,
                base + n,
                &mut scratch[..len],
            );
            visitor.row_pair(RowPair {
                kernel: self,
                buf,
                lag: lead_of(r + 1),
                rank,
                lead_seg: base + n,
                row_stride,
                partials: &mut scratch[..len],
                lag_partials: &mut aux[..PAIR_LAG],
            })?;
            r += 2;
        }
        Ok(())
    }

    /// One row of the row-granular scan: border columns through the
    /// per-point slow path, then the interior segment through the visitor
    /// with partials precomputed from this row's class plan.
    fn row_pass<T, V>(
        &mut self,
        lead: &[usize],
        base: usize,
        d_last: usize,
        scratch: &mut [f64],
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        let n = self.layers;
        self.border_points(lead, base, d_last, buf, |f, p| visitor.point(f, p))?;
        if d_last > n {
            let seg = base + n;
            let len = d_last - n;
            let plan = &self.row_plans[plan_index(n, lead)];
            fill_partials(&plan.terms[..plan.prior_len], buf, seg, &mut scratch[..len]);
            let prev = carry_seed(buf, seg, n);
            let (_, rest) = buf.split_at_mut(seg);
            visitor.row(
                seg,
                &scratch[..len],
                Carry::for_layers(n),
                &mut rest[..len],
                prev,
            )?;
        }
        Ok(())
    }

    /// The border columns `0..min(n, d_last)` of the row with leading
    /// coordinates `lead` starting at flat `base`: each point's shrunk
    /// Eq. 11 prediction goes to `f`, whose value is stored back.
    fn border_points<T, E>(
        &mut self,
        lead: &[usize],
        base: usize,
        d_last: usize,
        buf: &mut [T],
        mut f: impl FnMut(usize, f64) -> std::result::Result<T, E>,
    ) -> std::result::Result<(), E>
    where
        T: ScalarFloat,
    {
        let mut idx = [0usize; 3];
        idx[..lead.len()].copy_from_slice(lead);
        for j in 0..d_last.min(self.layers) {
            idx[lead.len()] = j;
            let flat = base + j;
            let pred = self.slow_pred(&idx[..=lead.len()], buf, flat);
            buf[flat] = f(flat, pred)?;
        }
        Ok(())
    }

    /// Read-only row-granular traversal: like [`ScanKernel::scan_rows`] but
    /// predicting every point from `data` in place, nothing written back.
    ///
    /// With no write-back feedback even the in-row terms are row-invariant,
    /// so `on_row` receives *complete* predictions for every interior row
    /// segment (`on_row(flat, preds)` covers points `flat..flat + preds.len()`);
    /// border points arrive through `on_point`. This is the traversal behind
    /// [`crate::hit_rate_by_layer`]'s `Original` basis.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `data` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn readonly_rows<T, P, R>(
        &mut self,
        shape: &Shape,
        data: &[T],
        mut on_point: P,
        mut on_row: R,
    ) where
        T: ScalarFloat,
        P: FnMut(usize, f64),
        R: FnMut(usize, &[f64]),
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        if self.kind == KernelKind::Generic {
            return self.readonly_generic(shape, data, on_point);
        }
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        let mut scratch = std::mem::take(&mut self.row_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        match d {
            1 => self.readonly_row_pass(
                &[],
                0,
                d_last,
                &mut scratch,
                data,
                &mut on_point,
                &mut on_row,
            ),
            2 => {
                let s0 = self.strides[0];
                for i in 0..dims[0] {
                    self.readonly_row_pass(
                        &[i],
                        i * s0,
                        d_last,
                        &mut scratch,
                        data,
                        &mut on_point,
                        &mut on_row,
                    );
                }
            }
            _ => {
                let (s0, s1) = (self.strides[0], self.strides[1]);
                for i in 0..dims[0] {
                    for j in 0..dims[1] {
                        self.readonly_row_pass(
                            &[i, j],
                            i * s0 + j * s1,
                            d_last,
                            &mut scratch,
                            data,
                            &mut on_point,
                            &mut on_row,
                        );
                    }
                }
            }
        }
        self.row_scratch = scratch;
    }

    #[allow(clippy::too_many_arguments)]
    fn readonly_row_pass<T, P, R>(
        &mut self,
        lead: &[usize],
        base: usize,
        d_last: usize,
        scratch: &mut [f64],
        data: &[T],
        on_point: &mut P,
        on_row: &mut R,
    ) where
        T: ScalarFloat,
        P: FnMut(usize, f64),
        R: FnMut(usize, &[f64]),
    {
        let n = self.layers;
        let mut idx = [0usize; 3];
        idx[..lead.len()].copy_from_slice(lead);
        for j in 0..d_last.min(n) {
            idx[lead.len()] = j;
            let f = base + j;
            let pred = self.slow_pred(&idx[..=lead.len()], data, f);
            on_point(f, pred);
        }
        if d_last > n {
            let seg = base + n;
            let len = d_last - n;
            let plan = &self.row_plans[plan_index(self.layers, lead)];
            // Full term list: in-row neighbors read `data`, which is fixed,
            // so the whole prediction is batchable.
            fill_partials(&plan.terms, data, seg, &mut scratch[..len]);
            on_row(seg, &scratch[..len]);
        }
    }

    /// Drives `visit` over every point of `shape` in row-major order,
    /// predicting each point from the *original* values in `data` without
    /// writing anything back — the read-only sibling of [`ScanKernel::scan`]
    /// and, like it, the generic point walker for every grid family.
    ///
    /// It is the per-point oracle for [`ScanKernel::readonly_rows`], which
    /// is the traversal [`crate::hit_rate_by_layer`] actually runs for
    /// [`crate::PredictionBasis::Original`].
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `data` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn scan_readonly<T, F>(&mut self, shape: &Shape, data: &[T], visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        self.readonly_generic(shape, data, visit)
    }

    /// Visits every *interior* point whose flat index is a multiple of
    /// `stride`, predicting from `data` itself (read-only, original-value
    /// prediction) — the traversal behind the §IV-B adaptive interval
    /// sampler.
    ///
    /// Interior means every coordinate is `≥ layers`, so the full-strength
    /// stencil applies; border prediction is weaker and would bias a
    /// sampled estimate pessimistically.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `data` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn sample_interior<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        let stride = stride.max(1);
        // Dense sampling rides the row engine: interior-row predictions are
        // materialized wholesale by the vectorized full-term pass, then
        // visited at the sampling stride. Sparse sampling keeps the
        // closed-form point path, which only touches sampled points.
        if stride <= 4 && matches!(self.kind, KernelKind::Specialized { .. }) {
            return self.sample_rows(shape, data, stride, visit);
        }
        match self.kind {
            KernelKind::Specialized { ndim: 1, .. } => {
                self.sample_1d(shape.dims()[0], data, stride, visit)
            }
            KernelKind::Specialized { ndim: 2, .. } => self.sample_2d(shape, data, stride, visit),
            KernelKind::Specialized { ndim: 3, .. } => self.sample_3d(shape, data, stride, visit),
            _ => self.sample_generic(shape, data, stride, visit),
        }
    }

    /// Row-engine implementation of [`ScanKernel::sample_interior`] for
    /// dense strides: one vectorized full-prediction pass per interior row,
    /// then a strided visit over the materialized predictions.
    fn sample_rows<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        if d_last <= n {
            return; // no interior columns
        }
        let mut scratch = std::mem::take(&mut self.row_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        // The interior row class: every leading coordinate clamps to n.
        let interior = [n; 2];
        let plan = &self.row_plans[plan_index(n, &interior[..d - 1])];
        let len = d_last - n;
        let mut per_row = |base: usize, scratch: &mut [f64]| {
            let seg = base + n;
            fill_partials(&plan.terms, data, seg, &mut scratch[..len]);
            for (i, &pred) in scratch[..len].iter().enumerate() {
                let f = seg + i;
                if f.is_multiple_of(stride) {
                    visit(f, pred);
                }
            }
        };
        match d {
            1 => per_row(0, &mut scratch),
            2 => {
                let s0 = self.strides[0];
                for i in n..dims[0] {
                    per_row(i * s0, &mut scratch);
                }
            }
            _ => {
                let (s0, s1) = (self.strides[0], self.strides[1]);
                for i in n..dims[0] {
                    for j in n..dims[1] {
                        per_row(i * s0 + j * s1, &mut scratch);
                    }
                }
            }
        }
        self.row_scratch = scratch;
    }

    /// [`ScanKernel::sample_interior`] specialized to the §IV-B sampler's
    /// per-point quantity: visits `|round((data[flat] − pred) / two_eb)|`
    /// for every sampled interior point, in the same order as
    /// [`ScanKernel::sample_interior`].
    ///
    /// On the dense row-engine path the divide/round/abs chain runs as a
    /// batched SIMD pass over each materialized prediction row
    /// ([`ScalarFloat::simd_k_pass`], pinned bit-identical to the scalar
    /// expression); elsewhere it falls back to the scalar formula per point.
    ///
    /// # Panics
    /// Same contract as [`ScanKernel::sample_interior`].
    pub fn sample_interior_ks<T, F>(
        &mut self,
        shape: &Shape,
        data: &[T],
        stride: usize,
        two_eb: f64,
        mut visit: F,
    ) where
        T: ScalarFloat,
        F: FnMut(f64),
    {
        let stride_eff = stride.max(1);
        if !(stride_eff <= 4 && matches!(self.kind, KernelKind::Specialized { .. })) {
            // Sparse or generic sampling: per-point scalar formula on top of
            // the point-path traversal.
            self.sample_interior(shape, data, stride, |flat, pred| {
                visit(((data[flat].to_f64() - pred) / two_eb).round().abs());
            });
            return;
        }
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        let n = self.layers;
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        if d_last <= n {
            return; // no interior columns
        }
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let mut ks = std::mem::take(&mut self.aux_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        if ks.len() < d_last {
            ks.resize(d_last, 0.0);
        }
        let interior = [n; 2];
        let plan = &self.row_plans[plan_index(n, &interior[..d - 1])];
        let len = d_last - n;
        let mut per_row = |base: usize, scratch: &mut [f64], ks: &mut [f64]| {
            let seg = base + n;
            fill_partials(&plan.terms, data, seg, &mut scratch[..len]);
            T::simd_k_pass(
                &mut ks[..len],
                &data[seg..seg + len],
                &scratch[..len],
                two_eb,
            );
            for (i, &k) in ks[..len].iter().enumerate() {
                if (seg + i).is_multiple_of(stride_eff) {
                    visit(k);
                }
            }
        };
        match d {
            1 => per_row(0, &mut scratch, &mut ks),
            2 => {
                let s0 = self.strides[0];
                for i in n..dims[0] {
                    per_row(i * s0, &mut scratch, &mut ks);
                }
            }
            _ => {
                let (s0, s1) = (self.strides[0], self.strides[1]);
                for i in n..dims[0] {
                    for j in n..dims[1] {
                        per_row(i * s0 + j * s1, &mut scratch, &mut ks);
                    }
                }
            }
        }
        self.row_scratch = scratch;
        self.aux_scratch = ks;
    }

    /// Boundary slow path: full Eq. 11 with per-axis shrunk layer counts.
    #[inline]
    fn slow_pred<T: ScalarFloat>(&mut self, index: &[usize], buf: &[T], flat: usize) -> f64 {
        let stencil = self.stencils.for_index(index);
        predict_at(buf, flat, stencil)
    }

    /// The generic point walker behind [`ScanKernel::scan`] and the
    /// generic-kernel [`ScanKernel::scan_rows`]: every point's prediction
    /// through the cached per-index stencil, aborting at `visit`'s first
    /// error.
    fn walk<T, E>(
        &mut self,
        shape: &Shape,
        buf: &mut [T],
        mut visit: impl FnMut(usize, f64) -> std::result::Result<T, E>,
    ) -> std::result::Result<(), E>
    where
        T: ScalarFloat,
    {
        let mut index = vec![0usize; shape.ndim()];
        for flat in 0..buf.len() {
            let stencil = self.stencils.for_index(&index);
            let pred = predict_at(buf, flat, stencil);
            buf[flat] = visit(flat, pred)?;
            shape.advance(&mut index);
        }
        Ok(())
    }

    fn readonly_generic<T, F>(&mut self, shape: &Shape, data: &[T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let mut index = vec![0usize; shape.ndim()];
        for flat in 0..data.len() {
            let stencil = self.stencils.for_index(&index);
            visit(flat, predict_at(data, flat, stencil));
            shape.advance(&mut index);
        }
    }

    fn sample_generic<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let mut index = vec![0usize; shape.ndim()];
        for flat in 0..data.len() {
            if flat.is_multiple_of(stride) && index.iter().all(|&x| x >= n) {
                let stencil = self.stencils.for_index(&index);
                visit(flat, predict_at(data, flat, stencil));
            }
            shape.advance(&mut index);
        }
    }

    fn sample_1d<T, F>(&mut self, d0: usize, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        for f in n..d0 {
            if f.is_multiple_of(stride) {
                let pred = if n == 1 {
                    lorenzo_1d(data, f)
                } else {
                    two_layer_1d(data, f)
                };
                visit(f, pred);
            }
        }
    }

    fn sample_2d<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let (d0, d1) = (shape.dims()[0], shape.dims()[1]);
        let s0 = self.strides[0];
        for i in n..d0 {
            let row = i * s0;
            for j in n..d1 {
                let f = row + j;
                if f.is_multiple_of(stride) {
                    let pred = if n == 1 {
                        lorenzo_2d(data, f, s0)
                    } else {
                        two_layer_2d(data, f, s0)
                    };
                    visit(f, pred);
                }
            }
        }
    }

    fn sample_3d<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let (d0, d1, d2) = (shape.dims()[0], shape.dims()[1], shape.dims()[2]);
        let (s0, s1) = (self.strides[0], self.strides[1]);
        let terms = &self.interior_terms[..];
        for i in n..d0 {
            for j in n..d1 {
                let base = i * s0 + j * s1;
                for k in n..d2 {
                    let f = base + k;
                    if f.is_multiple_of(stride) {
                        let pred = if n == 1 {
                            lorenzo_3d(data, f, s0, s1)
                        } else {
                            let mut acc = 0.0f64;
                            for &(off, coeff) in terms {
                                acc += coeff * data[f - off].to_f64();
                            }
                            acc
                        };
                        visit(f, pred);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The row-engine helpers.
// ---------------------------------------------------------------------------

/// Index into `row_plans` for the row with the given leading coordinates:
/// clamped per-axis layer digits in base `layers + 1`.
#[inline]
fn plan_index(layers: usize, lead: &[usize]) -> usize {
    let mut idx = 0usize;
    for &c in lead {
        idx = idx * (layers + 1) + c.min(layers);
    }
    idx
}

/// Accumulates `terms` into `out` for the row segment starting at
/// `seg_start`: `out[i] = Σ_t coeff_t · buf[seg_start + i − off_t]`.
///
/// The per-point accumulation order (terms in canonical order) matches
/// [`predict_at`] up to the sign of zero, which keeps the batched
/// predictions numerically identical to the per-point oracle. The dominant
/// small stencils (2-term Lorenzo-2D prior, 6-term Lorenzo-3D and
/// two-layer-2D priors) run as single fused passes; larger ones (e.g. the
/// 24-term 3-D two-layer prior) go term-major, one tight slice pass per
/// term. Each pass dispatches through the runtime-detected SIMD kernels
/// (`crate::simd`), which are pinned bit-identical to the scalar loops.
fn fill_partials<T: ScalarFloat>(
    terms: &[(usize, f64)],
    buf: &[T],
    seg_start: usize,
    out: &mut [f64],
) {
    let n = out.len();
    let src = |off: usize| &buf[seg_start - off..seg_start - off + n];
    match terms {
        [] => out.fill(0.0),
        [(o0, c0)] => T::simd_term_set(out, src(*o0), *c0),
        [(o0, c0), (o1, c1)] if *c0 == 1.0 && *c1 == -1.0 => {
            // The Lorenzo-2D prior (and friends): ±1 coefficients make the
            // multiplies exact no-ops, so skip them.
            T::simd_diff_set(out, src(*o0), src(*o1));
        }
        [(o0, c0), (o1, c1)] => T::simd_terms2_set(out, src(*o0), *c0, src(*o1), *c1),
        [(o0, c0), (o1, c1), (o2, c2), (o3, c3), (o4, c4), (o5, c5)] => T::simd_terms6_set(
            out,
            [src(*o0), src(*o1), src(*o2), src(*o3), src(*o4), src(*o5)],
            [*c0, *c1, *c2, *c3, *c4, *c5],
        ),
        _ => {
            let (first, rest) = terms.split_first().unwrap();
            let (o0, c0) = *first;
            T::simd_term_set(out, src(o0), c0);
            for &(off, coeff) in rest {
                T::simd_term_add(out, src(off), coeff);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-form interior predictors for the sparse interval sampler. Term
// order matches `Stencil::build`'s canonical enumeration — finished-row
// terms first (lexicographic), in-row terms last — so results are identical
// (up to the sign of zero) to `predict_at` over the equivalent stencil,
// which keeps sampled interval choices equal to the generic walker's.
// ---------------------------------------------------------------------------

/// 1-D Lorenzo: previous neighbor.
#[inline(always)]
fn lorenzo_1d<T: ScalarFloat>(b: &[T], f: usize) -> f64 {
    b[f - 1].to_f64()
}

/// 2-D Lorenzo over axes with strides `(s, 1)`: finished-row pair, then the
/// loop-carried previous neighbor.
#[inline(always)]
fn lorenzo_2d<T: ScalarFloat>(b: &[T], f: usize, s: usize) -> f64 {
    (b[f - s].to_f64() - b[f - s - 1].to_f64()) + b[f - 1].to_f64()
}

/// 3-D Lorenzo (7 terms, inclusion–exclusion over the unit cube).
#[inline(always)]
fn lorenzo_3d<T: ScalarFloat>(b: &[T], f: usize, s0: usize, s1: usize) -> f64 {
    b[f - s1].to_f64() - b[f - s1 - 1].to_f64() + b[f - s0].to_f64()
        - b[f - s0 - 1].to_f64()
        - b[f - s0 - s1].to_f64()
        + b[f - s0 - s1 - 1].to_f64()
        + b[f - 1].to_f64()
}

/// 1-D two-layer: linear extrapolation (Table I row n = 2, d = 1).
#[inline(always)]
fn two_layer_1d<T: ScalarFloat>(b: &[T], f: usize) -> f64 {
    2.0 * b[f - 1].to_f64() - b[f - 2].to_f64()
}

/// 2-D two-layer: the 8-point Table I stencil, coefficients unrolled;
/// finished-row terms first, the two loop-carried neighbors last.
#[inline(always)]
fn two_layer_2d<T: ScalarFloat>(b: &[T], f: usize, s: usize) -> f64 {
    2.0 * b[f - s].to_f64() - 4.0 * b[f - s - 1].to_f64() + 2.0 * b[f - s - 2].to_f64()
        - b[f - 2 * s].to_f64()
        + 2.0 * b[f - 2 * s - 1].to_f64()
        - b[f - 2 * s - 2].to_f64()
        + 2.0 * b[f - 1].to_f64()
        - b[f - 2].to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_slice_with_kernel, compress_slice_with_stats};
    use crate::{decompress, Config, ErrorBound};
    use szr_tensor::Tensor;

    fn wavy(dims: &[usize]) -> Vec<f32> {
        let len: usize = dims.iter().product();
        (0..len)
            .map(|f| ((f as f32) * 0.37).sin() * 8.0 + ((f as f32) * 0.011).cos() * 3.0)
            .collect()
    }

    #[test]
    fn kind_selection_covers_the_dominant_cases() {
        for (strides, layers, specialized) in [
            (vec![1usize], 1usize, true),
            (vec![1], 2, true),
            (vec![64, 1], 1, true),
            (vec![64, 1], 2, true),
            (vec![12, 4, 1], 1, true),
            (vec![12, 4, 1], 2, true),
            (vec![12, 4, 1], 3, false),
            (vec![100, 20, 5, 1], 1, false),
        ] {
            let kernel = ScanKernel::new(layers, &strides);
            assert_eq!(
                kernel.kind() != KernelKind::Generic,
                specialized,
                "strides {strides:?} layers {layers}"
            );
        }
    }

    #[test]
    fn scan_visits_every_point_in_flat_order() {
        for dims in [
            vec![17usize],
            vec![5, 7],
            vec![1, 9],
            vec![3, 4, 5],
            vec![2, 2, 9],
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);
                let mut buf = vec![0.0f32; shape.len()];
                let mut seen = Vec::new();
                kernel.scan(&shape, &mut buf, |flat, _| {
                    seen.push(flat);
                    1.0
                });
                let expect: Vec<usize> = (0..shape.len()).collect();
                assert_eq!(seen, expect, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// `scan_readonly` must produce exactly the predictions of a write-back
    /// scan whose buffer is seeded with the originals and whose visitor
    /// stores each original back unchanged — the copy-based implementation
    /// `hit_rate_by_layer(Original)` used before the read-only path existed.
    #[test]
    fn readonly_scan_matches_copy_based_scan() {
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![23, 1],
            vec![9, 11],
            vec![2, 2, 17],
            vec![1, 1, 13],
            vec![6, 5, 4],
            vec![3, 4, 5, 2], // generic fallback
        ] {
            for layers in 1..=3usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);

                let mut copied: Vec<(usize, f64)> = Vec::new();
                let mut buf = data.clone();
                kernel.scan(&shape, &mut buf, |flat, pred| {
                    copied.push((flat, pred));
                    data[flat]
                });

                let mut readonly: Vec<(usize, f64)> = Vec::new();
                kernel.scan_readonly(&shape, &data, |flat, pred| readonly.push((flat, pred)));

                assert_eq!(readonly, copied, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// `scan_rows` must visit every point exactly once in flat order,
    /// split between border `point`s and interior `row` segments.
    #[test]
    fn scan_rows_covers_the_grid_in_order() {
        struct Recorder {
            seen: Vec<usize>,
        }
        impl<T: ScalarFloat> RowVisitor<T> for Recorder {
            type Error = std::convert::Infallible;
            fn point(&mut self, flat: usize, _pred: f64) -> Result<T, Self::Error> {
                self.seen.push(flat);
                Ok(T::from_f64(1.0))
            }
            fn row(
                &mut self,
                flat: usize,
                partials: &[f64],
                _carry: Carry,
                row: &mut [T],
                _prev: [T; 2],
            ) -> Result<(), Self::Error> {
                assert_eq!(partials.len(), row.len());
                for (i, r) in row.iter_mut().enumerate() {
                    self.seen.push(flat + i);
                    *r = T::from_f64(1.0);
                }
                Ok(())
            }
        }
        for dims in [
            vec![17usize],
            vec![1, 1],
            vec![5, 7],
            vec![1, 9],
            vec![9, 1],
            vec![3, 4, 5],
            vec![2, 2, 9],
            vec![1, 1, 2],
            vec![4, 3, 2, 2], // generic fallback
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);
                let mut buf = vec![0.0f32; shape.len()];
                let mut rec = Recorder { seen: Vec::new() };
                match kernel.scan_rows(&shape, &mut buf, &mut rec) {
                    Ok(()) => {}
                    Err(e) => match e {},
                }
                let expect: Vec<usize> = (0..shape.len()).collect();
                assert_eq!(rec.seen, expect, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// Row-path predictions and stored values must match the point-visitor
    /// oracle bit for bit — the invariant row-path archives rest on.
    #[test]
    fn scan_rows_matches_point_oracle() {
        struct Mimic<'a> {
            data: &'a [f32],
            preds: Vec<f64>,
        }
        impl Mimic<'_> {
            fn store(&mut self, flat: usize, pred: f64) -> f32 {
                self.preds.push(pred);
                (pred + (self.data[flat] as f64 - pred) * 0.5) as f32
            }
        }
        impl RowVisitor<f32> for Mimic<'_> {
            type Error = std::convert::Infallible;
            fn point(&mut self, flat: usize, pred: f64) -> Result<f32, Self::Error> {
                Ok(self.store(flat, pred))
            }
            fn row(
                &mut self,
                flat: usize,
                partials: &[f64],
                carry: Carry,
                row: &mut [f32],
                prev: [f32; 2],
            ) -> Result<(), Self::Error> {
                let mut p1 = prev[0] as f64;
                let mut p2 = prev[1] as f64;
                for i in 0..row.len() {
                    let pred = carry.pred(partials[i], p1, p2);
                    let r = self.store(flat + i, pred);
                    row[i] = r;
                    p2 = p1;
                    p1 = r as f64;
                }
                Ok(())
            }
        }
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![23, 1],
            vec![9, 11],
            vec![2, 2, 17],
            vec![1, 1, 13],
            vec![6, 5, 4],
            vec![3, 4, 5, 2], // generic fallback: every point via `point`
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);

                let mut point_buf = vec![0.0f32; shape.len()];
                let mut point_preds = Vec::new();
                kernel.scan(&shape, &mut point_buf, |flat, pred| {
                    point_preds.push(pred);
                    (pred + (data[flat] as f64 - pred) * 0.5) as f32
                });

                let mut row_buf = vec![0.0f32; shape.len()];
                let mut mimic = Mimic {
                    data: &data,
                    preds: Vec::new(),
                };
                match kernel.scan_rows(&shape, &mut row_buf, &mut mimic) {
                    Ok(()) => {}
                    Err(e) => match e {},
                }

                for (f, (a, b)) in point_preds.iter().zip(&mimic.preds).enumerate() {
                    assert!(a == b, "dims {dims:?} layers {layers} flat {f}: {a} vs {b}");
                }
                assert_eq!(point_buf, row_buf, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// `readonly_rows` materializes exactly the predictions `scan_readonly`
    /// delivers point by point.
    #[test]
    fn readonly_rows_matches_point_readonly() {
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![9, 11],
            vec![2, 2, 17],
            vec![6, 5, 4],
            vec![3, 4, 5, 2], // generic fallback
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);

                let mut point: Vec<(usize, f64)> = Vec::new();
                kernel.scan_readonly(&shape, &data, |flat, pred| point.push((flat, pred)));

                let mut rows: Vec<(usize, f64)> = Vec::new();
                let mut border: Vec<(usize, f64)> = Vec::new();
                kernel.readonly_rows(
                    &shape,
                    &data,
                    |flat, pred| border.push((flat, pred)),
                    |flat, preds| {
                        rows.extend(preds.iter().enumerate().map(|(i, &p)| (flat + i, p)))
                    },
                );
                let mut merged = border;
                merged.append(&mut rows);
                merged.sort_by_key(|&(f, _)| f);

                assert_eq!(merged.len(), point.len());
                for ((fa, pa), (fb, pb)) in point.iter().zip(&merged) {
                    assert_eq!(fa, fb);
                    assert!(
                        pa == pb,
                        "dims {dims:?} layers {layers} flat {fa}: {pa} vs {pb}"
                    );
                }
            }
        }
    }

    /// A failing visitor aborts the scan at the first error instead of
    /// walking the rest of the grid — the `try_scan` early-exit contract
    /// corrupt-archive decoding relies on.
    #[test]
    fn scan_rows_aborts_on_first_error() {
        struct FailAt {
            fail_flat: usize,
            visited: usize,
        }
        impl RowVisitor<f32> for FailAt {
            type Error = ();
            fn point(&mut self, flat: usize, _pred: f64) -> Result<f32, ()> {
                if flat >= self.fail_flat {
                    return Err(());
                }
                self.visited += 1;
                Ok(0.0)
            }
            fn row(
                &mut self,
                flat: usize,
                _partials: &[f64],
                _carry: Carry,
                row: &mut [f32],
                _prev: [f32; 2],
            ) -> Result<(), ()> {
                for i in 0..row.len() {
                    if flat + i >= self.fail_flat {
                        return Err(());
                    }
                    self.visited += 1;
                }
                Ok(())
            }
        }
        for dims in [vec![64usize], vec![12, 12], vec![4, 5, 6]] {
            let shape = Shape::new(&dims);
            let fail_flat = shape.len() / 2;
            let mut kernel = ScanKernel::for_shape(1, &shape);
            let mut buf = vec![0.0f32; shape.len()];
            let mut visitor = FailAt {
                fail_flat,
                visited: 0,
            };
            assert!(kernel.scan_rows(&shape, &mut buf, &mut visitor).is_err());
            assert_eq!(visitor.visited, fail_flat, "dims {dims:?}");
        }
    }

    #[test]
    fn sample_interior_agrees_with_generic_walker() {
        for dims in [
            vec![50usize],
            vec![8, 9],
            vec![1, 16],
            vec![4, 5, 6],
            vec![2, 2, 11],
        ] {
            for layers in 1..=2usize {
                for stride in [1usize, 3, 5] {
                    let shape = Shape::new(&dims);
                    let data = wavy(&dims);
                    let mut spec = ScanKernel::for_shape(layers, &shape);
                    let mut generic = ScanKernel::generic(layers, shape.strides());
                    let mut a: Vec<(usize, f64)> = Vec::new();
                    let mut b: Vec<(usize, f64)> = Vec::new();
                    spec.sample_interior(&shape, &data, stride, |f, p| a.push((f, p)));
                    generic.sample_interior(&shape, &data, stride, |f, p| b.push((f, p)));
                    assert_eq!(a, b, "dims {dims:?} layers {layers} stride {stride}");
                }
            }
        }
    }

    /// One kernel instance serves grids that differ only in their leading
    /// extent — the chunked-band reuse contract.
    #[test]
    fn kernel_reuse_across_band_heights_matches_fresh_kernels() {
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut shared = ScanKernel::new(1, &[32, 1]);
        for rows in [1usize, 2, 7, 19] {
            let dims = vec![rows, 32];
            let shape = Shape::new(&dims);
            let data = wavy(&dims);
            let (reused, _) =
                compress_slice_with_kernel(&data, &shape, &config, &mut shared).unwrap();
            let (fresh, _) = compress_slice_with_stats(&data, &shape, &config).unwrap();
            assert_eq!(reused, fresh, "rows {rows}");
        }
    }

    #[test]
    fn mismatched_kernel_is_rejected() {
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let shape = Shape::new(&[8, 8]);
        let data = wavy(&[8, 8]);
        // Wrong stride family.
        let mut kernel = ScanKernel::new(1, &[16, 1]);
        assert!(compress_slice_with_kernel(&data, &shape, &config, &mut kernel).is_err());
        // Wrong layer count.
        let mut kernel = ScanKernel::new(2, &[8, 1]);
        assert!(compress_slice_with_kernel(&data, &shape, &config, &mut kernel).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Shapes weighted toward the boundary-heavy degenerate cases the
        /// issue calls out (`[1, N]`, `[2, 2, N]`, unit axes).
        fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
            prop_oneof![
                (1usize..=96).prop_map(|n| vec![n]),
                (1usize..=14, 1usize..=14).prop_map(|(a, b)| vec![a, b]),
                (1usize..=48).prop_map(|n| vec![1, n]),
                (1usize..=48).prop_map(|n| vec![n, 1]),
                (1usize..=6, 1usize..=6, 1usize..=6).prop_map(|(a, b, c)| vec![a, b, c]),
                (1usize..=24).prop_map(|n| vec![2, 2, n]),
                (1usize..=24).prop_map(|n| vec![1, 1, n]),
            ]
        }

        fn arb_grid_f32() -> impl Strategy<Value = (Vec<usize>, Vec<f32>)> {
            arb_dims().prop_flat_map(|dims| {
                let len: usize = dims.iter().product();
                (Just(dims), prop::collection::vec(-1e5f32..1e5, len..=len))
            })
        }

        fn arb_grid_f64() -> impl Strategy<Value = (Vec<usize>, Vec<f64>)> {
            arb_dims().prop_flat_map(|dims| {
                let len: usize = dims.iter().product();
                (Just(dims), prop::collection::vec(-1e9f64..1e9, len..=len))
            })
        }

        fn assert_equivalent<T: ScalarFloat + std::fmt::Debug + PartialEq>(
            dims: &[usize],
            data: &[T],
            config: &Config,
        ) -> Result<(), crate::SzError> {
            use crate::compress::{encode_quantized, HuffmanTable};
            use crate::quantize_slice_with_kernel_oracle;

            let shape = Shape::new(dims);
            let mut spec = ScanKernel::for_shape(config.layers, &shape);
            assert_ne!(spec.kind(), KernelKind::Generic);
            let mut generic = ScanKernel::generic(config.layers, shape.strides());
            let (a, sa) = compress_slice_with_kernel(data, &shape, config, &mut spec)?;
            let (b, sb) = compress_slice_with_kernel(data, &shape, config, &mut generic)?;
            assert_eq!(a, b, "archives diverge for dims {dims:?}");
            assert_eq!(sa, sb);
            // The row engine vs the retained point-visitor oracle: archive
            // bytes AND stats (hit counts, section sizes) must be identical.
            let band = quantize_slice_with_kernel_oracle(data, &shape, config, &mut spec)?;
            let (oracle, so) = encode_quantized(&band, HuffmanTable::PerBand);
            assert_eq!(a, oracle, "row path diverges from point oracle {dims:?}");
            assert_eq!(sa, so);
            let out: Tensor<T> = decompress(&a)?;
            assert_eq!(out.dims(), dims);
            for (x, y) in data.iter().zip(out.as_slice()) {
                if !x.to_f64().is_finite() {
                    // Non-finite values escape losslessly.
                    assert_eq!(x.to_bits_u64(), y.to_bits_u64());
                    continue;
                }
                let err = (x.to_f64() - y.to_f64()).abs();
                assert!(err <= sa.eb_abs, "bound violated: {err} > {}", sa.eb_abs);
            }
            Ok(())
        }

        /// Shapes for the two-rows-in-flight fold: odd and even row counts
        /// (1 and 2 included), last dimensions from 1 up past `n + 1`, and
        /// 3-D planes with odd and even `dims[1]`.
        fn arb_pair_dims() -> impl Strategy<Value = Vec<usize>> {
            prop_oneof![
                (1usize..=9, 1usize..=3).prop_map(|(r, c)| vec![r, c]),
                (1usize..=9, 4usize..=70).prop_map(|(r, c)| vec![r, c]),
                (1usize..=3, 1usize..=4, 1usize..=40).prop_map(|(p, r, c)| vec![p, 2 * r - 1, c]),
                (1usize..=3, 1usize..=4, 1usize..=40).prop_map(|(p, r, c)| vec![p, 2 * r, c]),
            ]
        }

        /// A smooth field over `dims` with NaN, ±Inf and outliers written
        /// into both rows of a pair: `picks` select a pair (even row and the
        /// row after it), a column, and which of the two rows.
        fn with_specials<T: ScalarFloat>(
            dims: &[usize],
            picks: &[(usize, usize, bool, u8)],
        ) -> Vec<T> {
            let d_last = *dims.last().unwrap();
            let rows = dims.iter().product::<usize>() / d_last;
            let mut data: Vec<T> = (0..rows * d_last)
                .map(|i| T::from_f64(((i % d_last) as f64 * 0.3 + (i / d_last) as f64 * 0.7).sin()))
                .collect();
            for &(pair, col, lag, kind) in picks {
                let row = (2 * (pair % rows.div_ceil(2)) + lag as usize).min(rows - 1);
                let flat = row * d_last + col % d_last;
                data[flat] = T::from_f64(match kind % 5 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 3e30,
                    _ => -7.5e-39,
                });
            }
            data
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// THE tentpole invariant: specialized kernels produce archives
            /// byte-identical to the generic stencil walker — f32, fixed
            /// interval counts.
            #[test]
            fn archives_identical_f32_fixed_bits(
                (dims, data) in arb_grid_f32(),
                layers in 1usize..=2,
                eb in 1e-4f64..1.0,
                bits in 2u32..=10,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb))
                    .with_layers(layers)
                    .with_interval_bits(bits);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// Same with the adaptive interval sampler in the loop, which
            /// exercises `sample_interior` equivalence end-to-end.
            #[test]
            fn archives_identical_f32_adaptive_bits(
                (dims, data) in arb_grid_f32(),
                layers in 1usize..=2,
                eb in 1e-4f64..1.0,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// And for f64 grids.
            #[test]
            fn archives_identical_f64(
                (dims, data) in arb_grid_f64(),
                layers in 1usize..=2,
                eb in 1e-6f64..1e2,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// Row pairs (both lanes, border columns, odd leftover rows,
            /// narrow last dimensions) against the point oracle — f32.
            #[test]
            fn row_pairs_match_oracle_f32(
                dims in arb_pair_dims(),
                seed in any::<u64>(),
                layers in 1usize..=2,
                eb in 1e-4f64..1.0,
                bits in 2u32..=10,
            ) {
                let len: usize = dims.iter().product();
                let data: Vec<f32> = (0..len as u64)
                    .map(|i| {
                        let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (i as f32 * 0.05).sin() * 10.0 + (h >> 40) as f32 * 1e-6
                    })
                    .collect();
                let config = Config::new(ErrorBound::Absolute(eb))
                    .with_layers(layers)
                    .with_interval_bits(bits);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// The same for f64 grids.
            #[test]
            fn row_pairs_match_oracle_f64(
                dims in arb_pair_dims(),
                seed in any::<u64>(),
                layers in 1usize..=2,
                eb in 1e-6f64..1e-1,
            ) {
                let len: usize = dims.iter().product();
                let data: Vec<f64> = (0..len as u64)
                    .map(|i| {
                        let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (i as f64 * 0.05).sin() * 1e3 + (h >> 40) as f64 * 1e-9
                    })
                    .collect();
                let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// NaN, ±Inf and outliers in the leading and the lagging row of
            /// a pair escape exactly as on the point path, f32 and f64.
            #[test]
            fn specials_in_both_rows_of_a_pair_match_oracle(
                dims in arb_pair_dims(),
                picks in prop::collection::vec(
                    (0usize..8, 0usize..70, any::<bool>(), any::<u8>()),
                    1..6,
                ),
                layers in 1usize..=2,
                eb in 1e-3f64..1e-1,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
                let data: Vec<f32> = with_specials(&dims, &picks);
                assert_equivalent(&dims, &data, &config).unwrap();
                let data: Vec<f64> = with_specials(&dims, &picks);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// Decorrelation mode routes extra state (the per-index dither)
            /// through the scan closure; equivalence must survive it.
            #[test]
            fn archives_identical_with_decorrelation(
                (dims, data) in arb_grid_f32(),
                eb in 1e-3f64..1.0,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_decorrelation();
                assert_equivalent(&dims, &data, &config).unwrap();
            }
        }
    }
}
