//! Non-finite values under a relative error bound.
//!
//! A relative bound resolves against the value range over the *finite*
//! values: non-finite points escape losslessly and take no part in it.
//! Every encode entry point — free function, session, stream, the chunked
//! drivers and the service — must return a typed error or an archive that
//! decodes within the bound. None may panic, and no service job may hang.

use std::sync::Arc;

use szr::parallel::{
    compress_chunked, compress_chunked_fused, compress_chunked_planned, compress_chunked_shared,
    decompress_chunked, ChunkedArchive,
};
use szr::server::{ArchiveService, Backpressure, ServiceConfig};
use szr::{
    compress, decompress, CodecSession, Config, ErrorBound, Result, ScalarFloat, StreamCompressor,
    StreamDecompressor, SzError, Tensor,
};

const REL: f64 = 1e-3;
const ROWS: usize = 24;
const COLS: usize = 40;

fn config() -> Config {
    Config::new(ErrorBound::Relative(REL))
}

/// A smooth field with +Inf, −Inf and NaN in several bands.
fn sprinkled() -> Tensor<f32> {
    let mut t = Tensor::from_fn([ROWS, COLS], |ix| {
        ((ix[0] as f32) * 0.2).sin() * 50.0 + (ix[1] as f32) * 0.3
    });
    let values = t.as_mut_slice();
    for (i, v) in [
        (3, f32::INFINITY),
        (COLS + 7, f32::NEG_INFINITY),
        (9 * COLS, f32::NAN),
        (15 * COLS + 39, f32::INFINITY),
        (ROWS * COLS - 1, f32::NEG_INFINITY),
    ] {
        values[i] = v;
    }
    t
}

/// No finite value at all.
fn all_infinite() -> Tensor<f32> {
    Tensor::from_fn([ROWS, COLS], |ix| {
        if (ix[0] + ix[1]) % 2 == 0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        }
    })
}

/// Finite values whose range overflows `f64`.
fn max_spanning() -> Tensor<f64> {
    Tensor::from_fn([ROWS, COLS], |ix| {
        if ix[1] % 2 == 0 {
            f64::MAX
        } else {
            -f64::MAX
        }
    })
}

/// `max − min` over the finite values.
fn finite_range<T: ScalarFloat>(data: &Tensor<T>) -> f64 {
    let finite = data
        .as_slice()
        .iter()
        .map(|v| v.to_f64())
        .filter(|x| x.is_finite());
    let (lo, hi) = finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    });
    hi - lo
}

/// A decode must keep the bound on finite values and reproduce the
/// non-finite ones exactly.
fn assert_within_bound<T: ScalarFloat>(orig: &Tensor<T>, decoded: &Tensor<T>, path: &str) {
    assert_eq!(orig.dims(), decoded.dims(), "{path}: dims");
    let eb = REL * finite_range(orig);
    for (i, (a, b)) in orig.as_slice().iter().zip(decoded.as_slice()).enumerate() {
        let (a, b) = (a.to_f64(), b.to_f64());
        if a.is_finite() {
            assert!((a - b).abs() <= eb, "{path}: point {i}: {a} -> {b}");
        } else if a.is_nan() {
            assert!(b.is_nan(), "{path}: point {i}: NaN -> {b}");
        } else {
            assert_eq!(a, b, "{path}: point {i}");
        }
    }
}

/// Every entry point's decode of `data`, labelled.
fn every_path<T: ScalarFloat + szr::metrics::Real + Send + Sync>(
    data: &Tensor<T>,
) -> Vec<(&'static str, Result<Tensor<T>>)> {
    let chunked =
        |archive: Result<ChunkedArchive>| archive.and_then(|a| decompress_chunked::<T>(&a, 2));
    let session = || -> Result<Tensor<T>> {
        let mut session = CodecSession::<T>::new(config())?;
        let bytes = session.compress(data)?;
        session.decompress(&bytes)
    };
    let stream = || -> Result<Tensor<T>> {
        let mut stream = StreamCompressor::<T>::new(&data.dims()[1..], 5, config())?;
        for row in data.as_slice().chunks(COLS) {
            stream.push(row)?;
        }
        let bytes = stream.finish()?;
        StreamDecompressor::<T>::new(&bytes)?.collect_all()
    };
    vec![
        (
            "free",
            compress(data, &config()).and_then(|b| decompress(&b)),
        ),
        ("session", session()),
        ("stream", stream()),
        ("chunked", chunked(compress_chunked(data, &config(), 4, 2))),
        (
            "chunked_shared",
            chunked(compress_chunked_shared(data, &config(), 4, 2)),
        ),
        (
            "chunked_fused",
            chunked(compress_chunked_fused(data, &config(), 4, 2)),
        ),
        (
            "chunked_planned",
            chunked(compress_chunked_planned(data, config().bound, 4, 2).map(|(a, _)| a)),
        ),
    ]
}

#[test]
fn infinities_among_finite_values_compress_within_bound() {
    let data = sprinkled();
    for (path, decoded) in every_path(&data) {
        let decoded = decoded.unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_within_bound(&data, &decoded, path);
    }
}

#[test]
fn a_field_without_finite_values_is_a_typed_error() {
    let data = all_infinite();
    for (path, decoded) in every_path(&data) {
        match decoded {
            Err(SzError::InvalidInput(_)) => {}
            Ok(decoded) => assert_within_bound(&data, &decoded, path),
            Err(e) => panic!("{path}: expected InvalidInput, got {e}"),
        }
    }
    // The whole-field entry points have no finite value to resolve against.
    assert!(matches!(
        compress(&data, &config()),
        Err(SzError::InvalidInput(_))
    ));
}

#[test]
fn a_range_overflowing_f64_is_a_typed_error() {
    let data = max_spanning();
    for (path, decoded) in every_path(&data) {
        match decoded {
            Err(SzError::InvalidInput(_)) => {}
            Ok(_) => panic!("{path}: an infinite range cannot give a usable bound"),
            Err(e) => panic!("{path}: expected InvalidInput, got {e}"),
        }
    }
}

#[test]
fn service_jobs_with_infinities_finish_instead_of_hanging() {
    let svc = ArchiveService::<f32>::new(ServiceConfig {
        workers: 2,
        queue_jobs: 4,
        backpressure: Backpressure::Block,
        session_config: config(),
    })
    .unwrap();
    let sprinkled = sprinkled();
    let bytes = svc
        .submit_compress(Arc::new(sprinkled.clone()), config(), 4, None)
        .unwrap()
        .wait()
        .unwrap();
    let decoded =
        decompress_chunked::<f32>(&ChunkedArchive::from_bytes(&bytes).unwrap(), 2).unwrap();
    assert_within_bound(&sprinkled, &decoded, "service");

    let failed = svc
        .submit_compress(Arc::new(all_infinite()), config(), 4, None)
        .unwrap()
        .wait();
    assert!(failed.is_err(), "a job without finite values must fail");
    // The pool survives: a later job still completes.
    assert!(svc
        .submit_compress(Arc::new(sprinkled), config(), 4, None)
        .unwrap()
        .wait()
        .is_ok());
}

#[test]
fn one_band_without_finite_values_fails_the_whole_job() {
    // Rows 20..30 are band 2 of 4. Every other band has finite values and
    // compresses, so the job must still fail as a whole, and the service
    // pool must serve the next job as if nothing had happened.
    let config = Config::new(ErrorBound::Relative(1e-4));
    let clean = Tensor::from_fn([40, 32], |ix| {
        ((ix[0] as f32) * 0.3).sin() * 10.0 + ix[1] as f32 * 0.1
    });
    let mut poisoned = clean.clone();
    for (i, v) in poisoned.as_mut_slice()[20 * 32..30 * 32]
        .iter_mut()
        .enumerate()
    {
        *v = if i % 2 == 0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
    }
    assert!(matches!(
        compress_chunked(&poisoned, &config, 4, 2),
        Err(SzError::InvalidInput(_))
    ));
    let svc = ArchiveService::<f32>::new(ServiceConfig {
        workers: 2,
        queue_jobs: 4,
        backpressure: Backpressure::Block,
        session_config: config,
    })
    .unwrap();
    match svc
        .submit_compress(Arc::new(poisoned), config, 4, None)
        .unwrap()
        .wait()
    {
        Err(szr::server::ServiceError::Codec(SzError::InvalidInput(_))) => {}
        other => panic!("expected InvalidInput, got {:?}", other.map(|b| b.len())),
    }
    let bytes = svc
        .submit_compress(Arc::new(clean.clone()), config, 4, None)
        .unwrap()
        .wait()
        .unwrap();
    assert!(bytes == compress_chunked(&clean, &config, 4, 1).unwrap().to_bytes());
}
