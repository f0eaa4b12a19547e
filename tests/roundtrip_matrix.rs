//! Cross-crate integration: every lossy codec must respect its bound on
//! every synthetic data set; every lossless codec must be bit-exact.

use szr::baselines::{fpzip, gzip, isabela, sz11, zfp};
use szr::datagen::{dataset, DatasetKind, Scale};
use szr::metrics::{max_abs_error, value_range};
use szr::{compress, decompress, Config, ErrorBound, Tensor};

fn all_small_fields() -> Vec<(String, Tensor<f32>)> {
    let mut out = Vec::new();
    for kind in [DatasetKind::Atm, DatasetKind::Aps, DatasetKind::Hurricane] {
        for field in dataset(kind, Scale::Small, 33) {
            out.push((format!("{}/{}", kind.name(), field.name), field.data));
        }
    }
    out
}

#[test]
fn sz14_respects_bound_on_all_datasets_and_bounds() {
    for (name, data) in all_small_fields() {
        let range = value_range(data.as_slice());
        for eb_rel in [1e-2, 1e-3, 1e-4, 1e-5] {
            let eb = eb_rel * range;
            let config = Config::new(ErrorBound::Absolute(eb));
            let packed = compress(&data, &config).unwrap();
            let out: Tensor<f32> = decompress(&packed).unwrap();
            let err = max_abs_error(data.as_slice(), out.as_slice());
            assert!(
                err <= eb,
                "{name} at eb_rel {eb_rel}: max err {err} > bound {eb}"
            );
        }
    }
}

#[test]
fn sz14_row_path_matches_point_oracle_on_all_datasets() {
    // The row-granular scan engine must produce archives byte-identical to
    // the retained per-point visitor oracle — same codes, same escape bits,
    // same stats — on every real dataset family, both layer counts.
    use szr::{
        encode_quantized, quantize_slice_with_kernel, quantize_slice_with_kernel_oracle,
        HuffmanTable, ScanKernel,
    };
    for (name, data) in all_small_fields() {
        let eb = 1e-4 * value_range(data.as_slice());
        for layers in 1..=2usize {
            let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
            let mut kernel = ScanKernel::for_shape(layers, data.shape());
            let row =
                quantize_slice_with_kernel(data.as_slice(), data.shape(), &config, &mut kernel)
                    .unwrap();
            let oracle = quantize_slice_with_kernel_oracle(
                data.as_slice(),
                data.shape(),
                &config,
                &mut kernel,
            )
            .unwrap();
            let (row_bytes, row_stats) = encode_quantized(&row, HuffmanTable::PerBand);
            let (oracle_bytes, oracle_stats) = encode_quantized(&oracle, HuffmanTable::PerBand);
            assert_eq!(row_bytes, oracle_bytes, "{name} n={layers}");
            assert_eq!(row_stats, oracle_stats, "{name} n={layers}");
        }
    }
}

#[test]
fn sz14_decorrelated_row_path_matches_point_oracle() {
    // Decorrelation mode runs its per-point dithering visitor on the row
    // engine; it must emit exactly the codes, escape bits and stats of the
    // same visitor driven by the generic point walker.
    use szr::{
        encode_quantized, quantize_slice_with_kernel, quantize_slice_with_kernel_oracle,
        HuffmanTable, ScanKernel,
    };
    for (name, data) in all_small_fields() {
        let eb = 1e-4 * value_range(data.as_slice());
        for layers in 1..=2usize {
            let config = Config::new(ErrorBound::Absolute(eb))
                .with_layers(layers)
                .with_decorrelation();
            let mut kernel = ScanKernel::for_shape(layers, data.shape());
            let (values, shape) = (data.as_slice(), data.shape());
            let row = quantize_slice_with_kernel(values, shape, &config, &mut kernel).unwrap();
            let oracle =
                quantize_slice_with_kernel_oracle(values, shape, &config, &mut kernel).unwrap();
            let (row_bytes, row_stats) = encode_quantized(&row, HuffmanTable::PerBand);
            let (oracle_bytes, oracle_stats) = encode_quantized(&oracle, HuffmanTable::PerBand);
            assert_eq!(row_bytes, oracle_bytes, "{name} n={layers}");
            assert_eq!(row_stats, oracle_stats, "{name} n={layers}");
        }
    }
}

#[test]
fn sz14_session_matches_free_functions_on_all_datasets() {
    // The session refactor's real-dataset equivalence pin: one reused
    // CodecSession must produce archives byte-identical to the
    // free-function pipeline on every dataset family and both layer
    // counts, and its decode must match the free decode exactly. The fused
    // table-reuse mode (whose bytes legitimately differ) must stay
    // self-describing and inside the bound.
    use szr::CodecSession;
    for layers in 1..=2usize {
        for (name, data) in all_small_fields() {
            let eb = 1e-4 * value_range(data.as_slice());
            let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
            let mut session = CodecSession::<f32>::new(config).unwrap();
            let free = compress(&data, &config).unwrap();
            let via_session = session.compress(&data).unwrap();
            assert_eq!(via_session, free, "{name} n={layers}");
            let free_out: Tensor<f32> = decompress(&free).unwrap();
            let session_out = session.decompress(&free).unwrap();
            assert_eq!(
                free_out.as_slice(),
                session_out.as_slice(),
                "{name} n={layers}"
            );

            let mut fused = CodecSession::<f32>::new(config).unwrap();
            fused.set_table_reuse(true);
            for _ in 0..2 {
                let bytes = fused.compress(&data).unwrap();
                let out: Tensor<f32> = decompress(&bytes).unwrap();
                let err = max_abs_error(data.as_slice(), out.as_slice());
                assert!(err <= eb, "{name} n={layers} fused: {err} > {eb}");
            }
        }
    }
}

#[test]
fn sz11_respects_bound_on_all_datasets() {
    for (name, data) in all_small_fields() {
        let eb = 1e-4 * value_range(data.as_slice());
        let packed = sz11::sz11_compress(&data, eb);
        let out: Tensor<f32> = sz11::sz11_decompress(&packed).unwrap();
        let err = max_abs_error(data.as_slice(), out.as_slice());
        assert!(err <= eb, "{name}: {err} > {eb}");
    }
}

#[test]
fn isabela_respects_bound_when_it_succeeds() {
    for (name, data) in all_small_fields() {
        let eb = 1e-3 * value_range(data.as_slice());
        match isabela::isabela_compress(&data, &isabela::IsabelaConfig::new(eb)) {
            Ok(packed) => {
                let out: Tensor<f32> = isabela::isabela_decompress(&packed).unwrap();
                let err = max_abs_error(data.as_slice(), out.as_slice());
                assert!(err <= eb, "{name}: {err} > {eb}");
            }
            Err(isabela::Error::ToleranceUnreachable { .. }) => {
                // The paper's documented ISABELA failure mode: acceptable.
            }
            Err(e) => panic!("{name}: unexpected error {e}"),
        }
    }
}

#[test]
fn zfp_respects_bound_on_moderate_ranges() {
    for (name, data) in all_small_fields() {
        if name.contains("CDNUMC") {
            continue; // covered by the dedicated violation test below
        }
        let eb = 1e-3 * value_range(data.as_slice());
        let packed = zfp::zfp_compress(&data, zfp::ZfpMode::FixedAccuracy { tolerance: eb });
        let out: Tensor<f32> = zfp::zfp_decompress(&packed).unwrap();
        let err = max_abs_error(data.as_slice(), out.as_slice());
        assert!(err <= eb, "{name}: {err} > {eb}");
    }
}

#[test]
fn zfp_violates_tight_bounds_on_huge_ranges_where_sz14_does_not() {
    // §V-A: CDNUMC spans ~1e-3..1e11. With a tight *absolute* tolerance
    // (the paper demonstrates eb_abs = 1e-7 producing an error of 0.12),
    // ZFP's common-exponent alignment cannot represent the small values in
    // blocks that also contain huge ones. SZ-1.4 has no such coupling.
    let field = dataset(DatasetKind::Atm, Scale::Small, 33)
        .into_iter()
        .find(|f| f.name == "CDNUMC")
        .unwrap();
    let data = field.data;
    let eb = 1e-2;
    let packed = zfp::zfp_compress(&data, zfp::ZfpMode::FixedAccuracy { tolerance: eb });
    let out: Tensor<f32> = zfp::zfp_decompress(&packed).unwrap();
    let zfp_err = max_abs_error(data.as_slice(), out.as_slice());
    assert!(
        zfp_err > eb,
        "expected zfp violation on CDNUMC (got {zfp_err} <= {eb})"
    );

    let sz = compress(&data, &Config::new(ErrorBound::Absolute(eb))).unwrap();
    let sz_out: Tensor<f32> = decompress(&sz).unwrap();
    let sz_err = max_abs_error(data.as_slice(), sz_out.as_slice());
    assert!(sz_err <= eb, "SZ-1.4 must hold the same bound: {sz_err}");
}

#[test]
fn fpzip_is_bit_exact_on_all_datasets() {
    for (name, data) in all_small_fields() {
        let packed = fpzip::fpzip_compress(&data);
        let out: Tensor<f32> = fpzip::fpzip_decompress(&packed).unwrap();
        for (i, (a, b)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} point {i}");
        }
    }
}

#[test]
fn gzip_is_bit_exact_on_all_datasets() {
    for (name, data) in all_small_fields() {
        let bytes: Vec<u8> = data
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let packed = gzip::gzip_compress(&bytes);
        assert_eq!(gzip::gzip_decompress(&packed).unwrap(), bytes, "{name}");
    }
}

#[test]
fn f64_paths_roundtrip_on_real_structures() {
    // The generators emit f32; widen to f64 to exercise the f64 pipeline on
    // realistic structure.
    let field = dataset(DatasetKind::Hurricane, Scale::Small, 5).remove(0);
    let data64 = Tensor::from_vec(
        field.data.dims(),
        field.data.as_slice().iter().map(|&v| v as f64).collect(),
    );
    let eb = 1e-5 * value_range(data64.as_slice());
    let packed = compress(&data64, &Config::new(ErrorBound::Absolute(eb))).unwrap();
    let out: Tensor<f64> = decompress(&packed).unwrap();
    assert!(max_abs_error(data64.as_slice(), out.as_slice()) <= eb);
}

/// Decorrelated band archives written by an earlier build (f32 6×9 with two
/// layers at `Absolute(1e-2)`, f64 3×4×5 at `Absolute(1e-3)`, both fields
/// carrying a NaN, an Inf and a 1e30 outlier), with the FNV-1a hash of the
/// bits they decoded to. Decorrelated decode replays the per-index dither;
/// any change in how or where it is applied changes these hashes.
const DECORRELATED_F32: &[u8] = &[
    83, 90, 82, 49, 3, 0, 2, 14, 1, 123, 20, 174, 71, 225, 122, 132, 63, 2, 6, 9, 223, 214, 108,
    227, 1, 199, 1, 59, 207, 120, 53, 205, 204, 155, 137, 145, 225, 176, 24, 27, 35, 195, 87, 38,
    32, 177, 157, 145, 149, 145, 97, 6, 23, 144, 181, 131, 17, 72, 236, 7, 17, 183, 56, 128, 196,
    90, 70, 54, 38, 134, 56, 160, 36, 51, 144, 179, 13, 36, 60, 135, 21, 72, 44, 101, 129, 200, 49,
    50, 128, 48, 15, 16, 111, 4, 49, 88, 160, 2, 129, 64, 156, 5, 196, 247, 64, 102, 207, 102, 3,
    18, 147, 65, 194, 70, 64, 172, 206, 6, 49, 43, 9, 136, 103, 130, 44, 220, 13, 178, 218, 15,
    136, 147, 128, 248, 16, 136, 115, 147, 3, 72, 128, 24, 96, 87, 177, 178, 50, 62, 123, 159, 243,
    218, 228, 103, 191, 236, 114, 222, 85, 177, 101, 13, 183, 234, 102, 151, 51, 170, 117, 45, 252,
    212, 184, 38, 240, 207, 79, 70, 150, 184, 3, 154, 251, 31, 48, 48, 4, 244, 112, 59, 177, 172,
    61, 170, 126, 90, 171, 249, 217, 21, 133, 127, 1, 105, 89, 205, 181, 87, 228, 44, 23, 228, 135,
    8, 59, 239, 159, 177, 255, 0, 3, 67, 129, 123, 3, 0, 13, 145, 152, 198, 211, 194, 28, 44,
];
const DECORRELATED_F32_BITS: u64 = 0xde81f5d730620f19;
const DECORRELATED_F64: &[u8] = &[
    83, 90, 82, 49, 3, 1, 1, 8, 1, 252, 169, 241, 210, 77, 98, 80, 63, 3, 3, 4, 5, 0, 194, 200,
    144, 0, 17, 36, 60, 3, 1, 1, 0, 34, 1, 1, 0, 0, 0, 0, 32, 0, 0, 0, 212, 1, 159, 252, 27, 64,
    36, 9, 208, 8, 212, 116, 3, 34, 42, 128, 101, 81, 208, 9, 36, 180, 3, 168, 254, 128, 100, 40,
    208, 12, 32, 218, 1, 197, 73, 64, 55, 221, 104, 7, 250, 149, 0, 255, 23, 160, 33, 225, 202, 2,
    25, 60, 160, 30, 134, 52, 4, 91, 99, 64, 64, 243, 116, 4, 1, 85, 64, 67, 146, 183, 255, 128, 0,
    0, 0, 0, 0, 10, 2, 51, 5, 160, 34, 156, 122, 2, 0, 69, 160, 35, 83, 154, 2, 10, 139, 160, 31,
    222, 244, 4, 44, 125, 64, 65, 169, 20, 4, 70, 235, 70, 41, 62, 89, 57, 160, 140, 234, 160, 28,
    246, 244, 4, 48, 163, 64, 58, 89, 232, 7, 104, 205, 0, 224, 101, 160, 30, 97, 20, 3, 135, 194,
    128, 80, 228, 160, 27, 213, 20, 2, 105, 109, 0, 108, 226, 128, 76, 146, 160, 15, 20, 208, 9,
    236, 212, 1, 211, 138, 1, 58, 10, 128, 49, 113, 192, 24, 226, 160, 12, 60, 112, 6, 48, 248, 4,
    101, 62, 0, 159, 103, 0, 137, 67, 192, 17, 144, 224, 17, 81, 184, 6, 164, 45, 255, 192, 0, 0,
    0, 0, 0, 3, 128, 103, 111, 0, 124, 198, 225, 21, 236, 35, 104, 218,
];
const DECORRELATED_F64_BITS: u64 = 0x5c648d32dad07aa3;

fn fnv1a_bits<T: szr::ScalarFloat>(t: &Tensor<T>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        for b in v.to_bits_u64().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn decorrelated_archives_decode_to_pinned_bits() {
    let f32_out: Tensor<f32> = decompress(DECORRELATED_F32).unwrap();
    assert_eq!(f32_out.dims(), &[6, 9]);
    assert_eq!(fnv1a_bits(&f32_out), DECORRELATED_F32_BITS);
    let f64_out: Tensor<f64> = decompress(DECORRELATED_F64).unwrap();
    assert_eq!(f64_out.dims(), &[3, 4, 5]);
    assert_eq!(fnv1a_bits(&f64_out), DECORRELATED_F64_BITS);
    // The staged oracle decoder and a warm session agree with the pin.
    let staged: Tensor<f32> = szr::decompress_staged(DECORRELATED_F32).unwrap();
    assert_eq!(fnv1a_bits(&staged), DECORRELATED_F32_BITS);
    let mut session = szr::CodecSession::<f64>::decoder();
    let via_session = session.decompress(DECORRELATED_F64).unwrap();
    assert_eq!(fnv1a_bits(&via_session), DECORRELATED_F64_BITS);
}

fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn widen(data: &Tensor<f32>) -> Tensor<f64> {
    Tensor::from_vec(
        data.dims(),
        data.as_slice().iter().map(|&v| v as f64).collect(),
    )
}

/// One FNV-1a hash over the band archives four encode paths write for
/// `data` under `config`: the free function, the second (fused) band of a
/// table-reuse session, a staged shared-table band, and a fused chunked
/// container.
fn band_archive_hash<T: szr::ScalarFloat + Send + Sync>(data: &Tensor<T>, config: &Config) -> u64 {
    use szr::{
        encode_quantized, quantize_slice_with_kernel, CodecSession, HuffmanTable, ScanKernel,
    };
    let (free, _) = szr::compress_with_stats(data, config).unwrap();
    let mut session = CodecSession::<T>::new(*config).unwrap();
    session.set_table_reuse(true);
    session.compress(data).unwrap();
    let fused = session.compress(data).unwrap();
    let mut kernel = ScanKernel::for_shape(config.layers, data.shape());
    let band =
        quantize_slice_with_kernel(data.as_slice(), data.shape(), config, &mut kernel).unwrap();
    let codec = szr::huffman::HuffmanCodec::from_frequencies(band.histogram());
    let (shared, _) = encode_quantized(&band, HuffmanTable::Shared(&codec));
    let chunked = szr::parallel::compress_chunked_fused(data, config, 4, 2)
        .unwrap()
        .to_bytes();
    [free, fused, shared, chunked]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, bytes| {
            fnv1a_bytes(fnv1a_bytes(h, &(bytes.len() as u64).to_le_bytes()), bytes)
        })
}

/// The pin configurations: rel 1e-4 with and without the DEFLATE
/// post-pass, and rel 1e-3 at 6 fixed interval bits with escape-LZ.
fn pin_configs() -> [Config; 3] {
    [
        Config::new(ErrorBound::Relative(1e-4)),
        Config::new(ErrorBound::Relative(1e-4)).without_lossless_pass(),
        Config::new(ErrorBound::Relative(1e-3))
            .with_interval_bits(6)
            .with_escape_lz(),
    ]
}

/// Archive hashes written by an earlier build, one per (field, dtype,
/// config) in `band_archives_match_pinned_hashes`' loop order. Any change
/// to the band layout, the band writer, the staged or fused encode paths
/// or the chunked container moves them. The escape-LZ config commits v5/v6
/// framing on two of the cases.
const BAND_ARCHIVE_HASHES: [u64; 24] = [
    0x47a1462622613766,
    0xeb835a430dbde9dc,
    0x6c2c7527dff4bbd2,
    0xf5a311102e499d7c,
    0x348eec067d373212,
    0xe3c5eb4adc9f73ab,
    0xba66f85f22f86562,
    0xfbd910d835a86765,
    0x42e81bcd1e05fab5,
    0x03f58b19c48059ee,
    0xa830eb57c5023d0d,
    0xdd543840f9686867,
    0xd7856469f5afab1c,
    0xbf868dc50c9d6593,
    0x115f56b4fcf6cf03,
    0x9ad5e04161a33fa5,
    0xfda8fc13e579d762,
    0xb94c064304c4e866,
    0x3763fe5ad29f380a,
    0xa9a9ba458fe14957,
    0xbe6ce7ddd0e8afb2,
    0xb189519a3e40b520,
    0x4c1ae94bb9837e6b,
    0x27eca29976ced5f6,
];

#[test]
fn band_archives_match_pinned_hashes() {
    let fields = all_small_fields();
    let mut hashes = Vec::new();
    for i in [0usize, 3, 4, 6] {
        let (_, data) = &fields[i];
        let wide = widen(data);
        for config in pin_configs() {
            hashes.push(band_archive_hash(data, &config));
            hashes.push(band_archive_hash(&wide, &config));
        }
    }
    let hex: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(hashes, BAND_ARCHIVE_HASHES, "now: [{}]", hex.join(", "));
}

fn shared_writers_agree<T: szr::ScalarFloat>(name: &str, data: &Tensor<T>, config: &Config) {
    use szr::{
        encode_quantized, quantize_slice_with_kernel, CodecSession, HuffmanTable, ScanKernel,
    };
    use szr_core::covering_codec;
    let (values, shape) = (data.as_slice(), data.shape());
    let mut kernel = ScanKernel::for_shape(config.layers, shape);
    let band = quantize_slice_with_kernel(values, shape, config, &mut kernel).unwrap();
    let codec = covering_codec(band.histogram());
    let staged = encode_quantized(&band, HuffmanTable::Shared(&codec));
    let mut session = CodecSession::<T>::new(*config).unwrap();
    let fused = session
        .compress_slice_shared_fused(values, shape, &codec)
        .unwrap()
        .expect("a covering table never aborts the fused scan");
    assert_eq!(staged, fused, "{name}");
}

#[test]
fn staged_and_fused_shared_writers_agree() {
    // A shared table that covers the band's whole symbol range leaves the
    // fused scan nothing to demote, so the staged shared-table encode and
    // the fused shared-table scan must write the same archive and stats.
    for (name, data) in all_small_fields() {
        let range = value_range(data.as_slice());
        let wide = widen(&data);
        for (eb_rel, bits) in [(1e-4, 8), (1e-3, 6)] {
            let base = Config::new(ErrorBound::Absolute(eb_rel * range)).with_interval_bits(bits);
            for config in [base, base.without_lossless_pass(), base.with_escape_lz()] {
                shared_writers_agree(&name, &data, &config);
                shared_writers_agree(&name, &wide, &config);
            }
        }
    }
}
