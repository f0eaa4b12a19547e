//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload snapshot --seed 1 --seconds 20 --trace 0 [--scale medium]
//! ```
//!
//! The line before the last holds the host and run metadata; the last line
//! is `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every operation succeeded and passed its check.

use std::process::ExitCode;
use szr_datagen::Scale;
use szr_perfbench::{closed_loop, meta, run, scale_name, Args, Outcome, Workload};

const USAGE: &str = "usage: szr-perfbench --workload <snapshot|service_mixed|stream_tight> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale small|medium]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Snapshot,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Medium,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// JSON string literal of `s` (the values printed here never hold quotes
/// or control characters, but escape them anyway).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn meta_line(args: &Args, outcome: &Outcome) -> String {
    let mut fields = vec![
        ("workload", quote(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("scale", quote(scale_name(args.scale))),
        ("nproc", closed_loop::host_cpus().to_string()),
        ("simd", quote(szr_core::simd_level_name())),
        ("szr_force_scalar", meta::force_scalar_env().to_string()),
        ("git_rev", quote(&meta::git_rev())),
        (
            "deterministic",
            "[\"compression_ratio\", \"psnr_db\"]".to_string(),
        ),
    ];
    for (k, v) in &outcome.info {
        fields.push((k, quote(v)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}

fn result_line(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    println!("{}", meta_line(&args, &outcome));
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed or broke a check",
            args.workload.name(),
            outcome.failed,
            outcome.attempted
        );
        ExitCode::FAILURE
    }
}
