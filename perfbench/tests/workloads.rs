//! Determinism per seed, and every workload completing at Small scale
//! without a failed operation and with exactly the metrics
//! `BENCHMARK.json` lists.

use szr_core::{CodecSession, Config, ErrorBound};
use szr_datagen::Scale;
use szr_perfbench::workloads::{service, snapshot, stream};
use szr_perfbench::{run, Args, Outcome, Workload};
use szr_tensor::Tensor;

fn args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Small,
    }
}

fn bits(fields: &[Tensor<f32>]) -> Vec<Vec<u32>> {
    fields
        .iter()
        .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn snapshot_inputs(seed: u64) -> Vec<Vec<u32>> {
    let fields: Vec<Tensor<f32>> = snapshot::suite(Scale::Small, seed)
        .into_iter()
        .map(|f| f.data)
        .collect();
    bits(&fields)
}

fn service_inputs(seed: u64) -> Vec<Vec<u32>> {
    let fields: Vec<Tensor<f32>> = service::suite(Scale::Small, seed)
        .into_iter()
        .map(|f| f.data)
        .collect();
    bits(&fields)
}

/// Names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn same_seed_same_inputs_and_job_order_other_seed_other_inputs() {
    assert_eq!(snapshot_inputs(7), snapshot_inputs(7));
    assert_eq!(service_inputs(7), service_inputs(7));
    assert_eq!(
        bits(&stream::steps(Scale::Small, 7)),
        bits(&stream::steps(Scale::Small, 7))
    );
    assert_ne!(snapshot_inputs(7), snapshot_inputs(8));
    assert_ne!(service_inputs(7), service_inputs(8));
    assert_ne!(
        bits(&stream::steps(Scale::Small, 7)),
        bits(&stream::steps(Scale::Small, 8))
    );

    let rows = [90, 90, 90, 90, 128, 128];
    for client in 0..2 {
        assert_eq!(
            service::jobs(7, client, &rows, 400),
            service::jobs(7, client, &rows, 400)
        );
    }
    assert_ne!(
        service::jobs(7, 0, &rows, 400),
        service::jobs(8, 0, &rows, 400)
    );
}

#[test]
fn job_mix_is_one_write_one_read_two_region_reads() {
    let rows = [90, 90, 90, 90, 128, 128];
    let jobs = service::jobs(3, 0, &rows, 400);
    let count = |kind| jobs.iter().filter(|j| j.kind == kind).count();
    assert_eq!(count(service::Kind::Write), 100);
    assert_eq!(count(service::Kind::Read), 100);
    assert_eq!(count(service::Kind::Roi), 200);
    for job in jobs.iter().filter(|j| j.kind == service::Kind::Roi) {
        let total = rows[job.field];
        assert!(job.rows.end <= total && job.rows.len() == total / 10);
    }
}

#[test]
fn same_seed_same_archive_bytes() {
    let config = Config::new(ErrorBound::Relative(snapshot::REL_EB));
    let archives = || -> Vec<Vec<u8>> {
        let mut session = CodecSession::<f32>::new(config).unwrap();
        snapshot::suite(Scale::Small, 7)
            .iter()
            .map(|f| session.compress(&f.data).unwrap())
            .collect()
    };
    assert_eq!(archives(), archives());
}

#[test]
fn every_workload_completes_at_small_scale_with_nothing_failed() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(end_to_end.len(), 13);
    for workload in Workload::ALL {
        let first = run(&args(workload, 7, false)).unwrap();
        assert_eq!(first.failed, 0, "{workload:?}");
        assert!(first.attempted > 0);
        assert_eq!(names(&first), end_to_end, "{workload:?}");
        for m in &first.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?} {m:?}");
        }

        // Deterministic per seed: a second run reproduces them exactly.
        let again = run(&args(workload, 7, false)).unwrap();
        for name in ["compression_ratio", "psnr_db"] {
            assert_eq!(
                first.metric(name),
                again.metric(name),
                "{workload:?} {name}"
            );
        }

        let traced = run(&args(workload, 7, true)).unwrap();
        assert_eq!(traced.failed, 0, "{workload:?}");
        assert_eq!(names(&traced), per_layer, "{workload:?}");
        assert_eq!(traced.metric("failed_frac"), Some(0.0));
        assert!(traced.metric("telemetry.overhead").unwrap() > 0.0);
    }
}
