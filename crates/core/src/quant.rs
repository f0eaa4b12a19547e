//! Error-controlled quantization (§IV-A) and the adaptive interval scheme
//! (§IV-B).
//!
//! Each point's reconstruction feeds the next point's prediction, so the
//! interior-row quantize loop is one dependency chain per row: add the
//! carry, subtract, scale, `round()`, reconstruct, narrow to `T`, widen
//! again. Its speed is that chain's latency. The staged path therefore runs
//! two rows' chains interleaved ([`crate::RowPair::fold`], driven by
//! [`Quantizer::quantize_narrowed`]); the second chain fills the cycles the
//! first spends waiting. `round()` is one link of the chain: the x86-64
//! baseline lowers it to a library call, so the paired loop is compiled for
//! AVX2 when the CPU has it, which turns the call into an exact SSE4.1
//! rounding sequence. Removing the call shortens each chain; the second
//! chain hides what is left.

use crate::float::ScalarFloat;
use crate::kernel::{Carry, ScanKernel};
use crate::unpred::UnpredictableCodec;
use szr_tensor::Shape;

/// The linear-scaling quantizer of Figure 2.
///
/// Around the prediction ("first-phase predicted value") lie `2^m − 1`
/// disjoint intervals of width `2·eb`, centered at
/// `pred + 2·eb·k, |k| ≤ 2^{m−1} − 1` ("second-phase predicted values").
/// A real value inside interval `k` is coded as `2^{m−1} + k ∈ [1, 2^m − 1]`
/// and reconstructs to the interval center — which is within `eb` by
/// construction. Code 0 is reserved for unpredictable data.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    /// Precomputed `1 / (2·eb)`: the interval search multiplies instead of
    /// dividing, keeping an ~10-cycle divide off the loop-carried
    /// prediction→reconstruction chain the scan serializes on. Zero when
    /// the reciprocal is not usable (subnormal/infinite — degenerate
    /// bounds), which routes [`Quantizer::quantize`] back to the divide.
    inv_two_eb: f64,
    /// 2^{m−1}: the code of the zero-offset interval.
    half: i64,
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with absolute bound `eb` and `m = bits`
    /// (`2^m − 1` intervals).
    ///
    /// # Panics
    /// Panics if `bits` is outside `2..=30` or `eb` is not positive/finite
    /// (validated earlier by [`crate::Config`]).
    pub fn new(eb: f64, bits: u32) -> Self {
        assert!((2..=30).contains(&bits), "interval bits must be in 2..=30");
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
        let inv = 1.0 / (2.0 * eb);
        Self {
            eb,
            // A subnormal reciprocal would quantize a zero offset to NaN
            // (0 · ∞) or lose precision; those degenerate bounds keep the
            // exact divide.
            inv_two_eb: if inv.is_finite() && inv.is_normal() {
                inv
            } else {
                0.0
            },
            half: 1i64 << (bits - 1),
            bits,
        }
    }

    /// The interval index for offset `diff = value − pred` before range
    /// checking: `round(diff / (2·eb))`, computed by reciprocal multiply on
    /// the fast path.
    #[inline(always)]
    fn interval(&self, diff: f64) -> f64 {
        if self.inv_two_eb != 0.0 {
            (diff * self.inv_two_eb).round()
        } else {
            (diff / (2.0 * self.eb)).round()
        }
    }

    /// The `m` in `2^m − 1` intervals.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of quantization intervals (`2^m − 1`).
    pub fn interval_count(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Alphabet size for the entropy coder (intervals + the escape code 0).
    pub fn alphabet(&self) -> usize {
        1usize << self.bits
    }

    /// Absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// Quantizes `value` against `pred`.
    ///
    /// Returns the code and the (f64) reconstruction, or `None` when the
    /// value falls outside every interval. The caller must still verify the
    /// bound after narrowing the reconstruction to the stored float type —
    /// narrow rounding can push a borderline value past `eb`.
    #[inline]
    pub fn quantize(&self, value: f64, pred: f64) -> Option<(u32, f64)> {
        let k = self.interval(value - pred);
        if k.is_nan() || k.abs() >= self.half as f64 {
            // NaN (from a non-finite value or prediction) falls back to
            // unpredictable storage alongside out-of-range offsets.
            return None;
        }
        let recon = pred + 2.0 * self.eb * k;
        Some(((self.half + k as i64) as u32, recon))
    }

    /// The per-point hit test of the row paths: the interval index, its
    /// range check, and the bound re-checked on the reconstruction narrowed
    /// to `T` (narrow rounding can push a borderline value past
    /// `narrow_eb`). Returns the code and the stored value on a hit, `None`
    /// for an escape. Decision-identical to [`Quantizer::quantize`] plus
    /// the caller-side narrowing check.
    #[inline(always)]
    pub(crate) fn quantize_narrowed<T: ScalarFloat>(
        &self,
        v: f64,
        pred: f64,
        narrow_eb: f64,
    ) -> Option<(u32, T)> {
        let k = self.interval(v - pred);
        // `NaN < half` is false, so non-finite values fall through to the
        // escape path like the point oracle's NaN check.
        let in_range = k.abs() < self.half as f64;
        let r = T::from_f64(pred + 2.0 * self.eb * k);
        if in_range && (v - r.to_f64()).abs() <= narrow_eb {
            Some(((self.half + k as i64) as u32, r))
        } else {
            None
        }
    }

    /// Reconstructs the value encoded by `code` (which must be non-zero).
    #[inline]
    pub fn reconstruct(&self, code: u32, pred: f64) -> f64 {
        debug_assert!(code != 0 && (code as i64) < 2 * self.half);
        pred + 2.0 * self.eb * (code as i64 - self.half) as f64
    }

    /// Batched reconstruction offsets: `out[i] = 2·eb · (codes[i] − half)`,
    /// so `pred + out[i]` equals [`Quantizer::reconstruct`] bit for bit
    /// (same `f64` expression tree — the offset factor is a single rounding
    /// step in both). Escape codes (0) produce a garbage offset the fused
    /// decoder never reads. Runs through the runtime-detected SIMD kernels.
    #[inline]
    pub(crate) fn recon_offsets(&self, codes: &[u32], out: &mut [f64]) {
        crate::simd::codes_to_offsets(codes, out, 2.0 * self.eb, self.half);
    }

    /// Quantizes one interior row segment — the batched form of
    /// [`Quantizer::quantize`] driven by [`ScanKernel`]'s row path.
    ///
    /// `partials[i]` is the row-invariant prediction prefix for `values[i]`;
    /// the full prediction folds in `carry` over the running reconstructions
    /// (seeded from `prev`, then this call's own outputs). For every point
    /// the code is appended to `codes` and the reconstruction written to
    /// `recon[i]`; a point that misses every interval (or whose narrowed
    /// reconstruction breaks `narrow_eb`) gets code 0, reconstructs through
    /// `escape`, and has its segment-local index pushed onto `misses` so the
    /// caller can serialize the escape bits afterwards instead of branching
    /// into a bit writer mid-loop. Returns the number of hits.
    ///
    /// Bit-for-bit equivalent to running [`Quantizer::quantize`] plus the
    /// narrowing check point by point — the row-vs-oracle property tests pin
    /// this down.
    #[allow(clippy::too_many_arguments)]
    pub fn quantize_row<T: ScalarFloat>(
        &self,
        values: &[T],
        partials: &[f64],
        carry: Carry,
        prev: [T; 2],
        narrow_eb: f64,
        escape: &UnpredictableCodec,
        codes: &mut Vec<u32>,
        recon: &mut [T],
        misses: &mut Vec<u32>,
    ) -> usize {
        codes.reserve(values.len());
        let result: std::result::Result<usize, std::convert::Infallible> = self.quantize_row_emit(
            values,
            partials,
            carry,
            prev,
            narrow_eb,
            escape,
            &mut |code| {
                codes.push(code);
                Ok(true)
            },
            recon,
            misses,
        );
        match result {
            Ok(hits) => hits,
            Err(e) => match e {},
        }
    }

    /// [`Quantizer::quantize_row`] generalized over the code destination —
    /// the hook behind the fused quantize→encode path, which streams each
    /// code straight into a Huffman bit writer.
    ///
    /// `emit` receives every point's code in scan order (0 for escapes) and
    /// answers three ways:
    ///
    /// * `Ok(true)` — code accepted (a `Vec` sink always answers this;
    ///   [`Quantizer::quantize_row`] is exactly that instantiation);
    /// * `Ok(false)` — the sink has no codeword for this (non-zero) code:
    ///   the point is **demoted to an escape** — `emit(0)` is called, the
    ///   point joins `misses`, and its reconstruction is the escape codec's,
    ///   all of which the decoder replays consistently. The sink must
    ///   accept code 0 (guaranteed by the session's table construction and
    ///   debug-asserted here);
    /// * `Err(e)` — abort the scan (a fused sink gives up when demotions
    ///   pass its cap and the caller re-runs the band staged; partial
    ///   `recon`/`misses` state is discarded with it).
    #[allow(clippy::too_many_arguments)]
    pub fn quantize_row_emit<T: ScalarFloat, E>(
        &self,
        values: &[T],
        partials: &[f64],
        carry: Carry,
        prev: [T; 2],
        narrow_eb: f64,
        escape: &UnpredictableCodec,
        emit: &mut impl FnMut(u32) -> std::result::Result<bool, E>,
        recon: &mut [T],
        misses: &mut Vec<u32>,
    ) -> std::result::Result<usize, E> {
        debug_assert_eq!(values.len(), partials.len());
        debug_assert_eq!(values.len(), recon.len());
        let mut hits = 0usize;
        carry.fold(partials, prev, recon, |i, pred| {
            if let Some((code, r)) = self.quantize_narrowed(values[i].to_f64(), pred, narrow_eb) {
                if emit(code)? {
                    hits += 1;
                    return Ok(r);
                }
            }
            let escaped = emit(0)?;
            debug_assert!(escaped, "sinks must always accept the escape code");
            misses.push(i as u32);
            Ok(escape.reconstruction(values[i]))
        })?;
        Ok(hits)
    }
}

/// Deterministic per-index dither in `[-0.5, 0.5)`, used by the
/// error-decorrelation mode (the paper's §VIII future-work item).
///
/// Compressor and decompressor call this with the same flat index, so the
/// dithered reconstruction stays reproducible. The hash is splitmix64.
#[inline]
pub(crate) fn dither_unit(flat: usize) -> f64 {
    let mut h = (flat as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// The adaptive interval-count scheme (§IV-B).
///
/// Samples every `stride`-th point, predicts it from *original* neighbor
/// values with the `n`-layer interior stencil, and picks the smallest `m`
/// whose sampled prediction hitting rate reaches `theta`. Original-value
/// prediction slightly overestimates the achievable rate (Table II), so
/// `theta` defaults to 0.99 — high enough that the chosen `m` stays
/// sufficient after the decompression feedback loop degrades hits.
///
/// Returns a value in `4..=max_bits`.
pub fn choose_interval_bits<T: ScalarFloat>(
    data: &[T],
    shape: &Shape,
    n: usize,
    eb: f64,
    theta: f64,
    stride: usize,
    max_bits: u32,
) -> u32 {
    let mut kernel = ScanKernel::for_shape(n, shape);
    choose_interval_bits_with_kernel(data, shape, &mut kernel, eb, theta, stride, max_bits)
}

/// [`choose_interval_bits`] with a caller-provided [`ScanKernel`], so the
/// compressor samples through the same kernel instance it then compresses
/// with (and chunked callers amortize kernel setup across bands).
///
/// # Panics
/// Panics if the kernel's stride family does not match `shape` (the
/// kernel's own scan-time check; see [`ScanKernel::sample_interior`]).
pub fn choose_interval_bits_with_kernel<T: ScalarFloat>(
    data: &[T],
    shape: &Shape,
    kernel: &mut ScanKernel,
    eb: f64,
    theta: f64,
    stride: usize,
    max_bits: u32,
) -> u32 {
    choose_interval_bits_counted(data, shape, kernel, eb, theta, stride, max_bits).0
}

/// [`choose_interval_bits_with_kernel`] plus the number of candidate
/// bit-widths the cumulative hit-rate scan examined before settling — the
/// telemetry layer's `interval_search_iterations` counter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_interval_bits_counted<T: ScalarFloat>(
    data: &[T],
    shape: &Shape,
    kernel: &mut ScanKernel,
    eb: f64,
    theta: f64,
    stride: usize,
    max_bits: u32,
) -> (u32, u64) {
    assert!(max_bits >= 4, "adaptive scheme needs max_bits >= 4");
    // Histogram of bits needed per sample: bucket b counts samples whose
    // |k| fits in 2^(b-1) - 1 but not 2^(b-2) - 1. Only interior points are
    // sampled (the kernel's contract): border prediction is weaker and
    // would bias the estimate pessimistically on thin shells.
    let mut need = vec![0u64; (max_bits + 2) as usize];
    let mut samples = 0u64;
    // The divide/round/abs hit-test runs as a batched SIMD pass on the dense
    // row-engine path (`sample_interior_ks`); bucketing stays scalar — it is
    // branchy, order-independent, and off the critical path.
    kernel.sample_interior_ks(shape, data, stride, 2.0 * eb, |k| {
        samples += 1;
        let mut b = 2u32;
        while b <= max_bits && k >= (1i64 << (b - 1)) as f64 {
            b += 1;
        }
        need[b.min(max_bits + 1) as usize] += 1;
    });
    if samples == 0 {
        return (8, 0); // degenerate grid (all border): the paper's 255 intervals
    }
    let mut cum = 0u64;
    let mut iterations = 0u64;
    for bits in 2..=max_bits {
        iterations += 1;
        cum += need[bits as usize];
        if cum as f64 / samples as f64 >= theta {
            return (bits.max(4), iterations);
        }
    }
    (max_bits, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_in_range_and_reconstruct_within_bound() {
        let q = Quantizer::new(0.01, 8);
        let pred = 5.0;
        for value in [5.0, 5.005, 4.98, 5.02, 7.0, 3.5] {
            let (code, recon) = q.quantize(value, pred).unwrap();
            assert!(code >= 1 && code <= q.interval_count());
            assert!(
                (value - recon).abs() <= 0.01 + 1e-15,
                "value {value} recon {recon}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_unpredictable() {
        let q = Quantizer::new(0.01, 4);
        // 2^3 - 1 = 7 positive intervals, max offset 7 * 0.02 = 0.14.
        assert!(q.quantize(5.0 + 0.15, 5.0).is_none());
        assert!(q.quantize(5.0 - 0.15, 5.0).is_none());
        assert!(q.quantize(5.0 + 0.13, 5.0).is_some());
    }

    #[test]
    fn reconstruct_inverts_quantize() {
        let q = Quantizer::new(1e-4, 10);
        for i in 0..100 {
            let value = 1.0 + i as f64 * 3.7e-5;
            let (code, recon) = q.quantize(value, 1.0).unwrap();
            assert_eq!(q.reconstruct(code, 1.0), recon);
        }
    }

    #[test]
    fn zero_offset_maps_to_midpoint_code() {
        let q = Quantizer::new(0.1, 8);
        let (code, recon) = q.quantize(2.0, 2.0).unwrap();
        assert_eq!(code, 128); // 2^{m-1}
        assert_eq!(recon, 2.0);
    }

    #[test]
    fn nan_value_is_unpredictable_not_a_panic() {
        let q = Quantizer::new(0.1, 8);
        assert!(q.quantize(f64::NAN, 1.0).is_none());
    }

    #[test]
    fn interval_count_matches_paper_configurations() {
        // The paper's named configurations: 15, 63, 255, 511, 2047, 4095,
        // 16383, 65535 intervals.
        for (bits, intervals) in [
            (4u32, 15u32),
            (6, 63),
            (8, 255),
            (9, 511),
            (12, 4095),
            (16, 65535),
        ] {
            assert_eq!(Quantizer::new(0.1, bits).interval_count(), intervals);
        }
    }

    #[test]
    fn adaptive_scheme_picks_small_m_for_smooth_data() {
        // Linear data: perfectly predicted, so minimal m suffices.
        let shape = Shape::new(&[64, 64]);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32 * 0.001).collect();
        let bits = choose_interval_bits(&data, &shape, 1, 1e-3, 0.99, 1, 16);
        assert_eq!(bits, 4);
    }

    #[test]
    fn adaptive_scheme_grows_m_for_rough_data() {
        // White noise at amplitude >> eb: prediction misses constantly, so
        // the scheme escalates towards max_bits.
        let shape = Shape::new(&[64, 64]);
        let data: Vec<f32> = (0..shape.len())
            .map(|i| ((i * 2_654_435_761) % 1000) as f32)
            .collect();
        let smooth_bits = choose_interval_bits(&data, &shape, 1, 100.0, 0.99, 1, 16);
        let rough_bits = choose_interval_bits(&data, &shape, 1, 0.01, 0.99, 1, 16);
        assert!(
            rough_bits > smooth_bits,
            "rough {rough_bits} should exceed smooth {smooth_bits}"
        );
    }
}
