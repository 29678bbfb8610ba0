//! rapbench — the end-to-end benchmark of rapd and the RAPMiner core.
//!
//! ```text
//! rapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rapbench run   [--seed 42] [--seconds 20]     every workload, untraced
//! rapbench trace [--seed 42] [--seconds 20]     every workload, traced
//! rapbench compare <run files A>... -- <run files B>...
//! ```
//!
//! Each workload prints one `<workload> <metric> <value> <unit>` line per
//! metric (extra figures start with `#`), writes
//! `bench-out/{run,trace}-<workload>-<seed>.json`, and ends its output
//! with one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 1 when an output check failed.
//!
//! `rapbench serve ...` is the rapd under test: the same entry point as
//! the `rapminer` binary, built into this one so the benchmark drives the
//! daemon of the checkout it was built from.

mod compare;
mod daemon;
mod drive;
mod inputs;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use service::json::Json;

use crate::spec::{Workload, DEFAULT_SEED, WORKLOADS};
use crate::workloads::Report;

const USAGE: &str = "usage:
  rapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  rapbench run   [--seed <n>] [--seconds <s>]
  rapbench trace [--seed <n>] [--seconds <s>]
  rapbench compare <run files A>... -- <run files B>...";

/// Measured seconds per workload for `run` and `trace`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where results and spans go, relative to the working directory.
const OUT_DIR: &str = "bench-out";

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn metrics_json(report: &Report) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), Json::str(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result object that ends the output.
fn result_json(report: &Report) -> Json {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(report.correct())),
        ("attempted".to_string(), Json::Num(report.attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("metrics".to_string(), metrics_json(report)),
    ])
}

/// Run one workload, print its lines and save its record; returns the
/// report, or an error when it could not be measured at all.
fn run_one(w: &Workload, o: &Options) -> Result<Report, String> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let report = workloads::run(w, o.seed, o.seconds, o.trace, out)?;
    println!(
        "# {} inputs.fingerprint {:#018x} fnv1a64",
        w.name, report.fingerprint
    );
    for (name, value, unit) in &report.notes {
        println!("# {} {name} {value} {unit}", w.name);
    }
    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", w.name);
    }
    for problem in &report.problems {
        eprintln!("rapbench: {}: {problem}", w.name);
    }
    for warning in &report.warnings {
        eprintln!("rapbench: {}: warning: {warning}", w.name);
    }
    let Json::Obj(mut record) = result_json(&report) else {
        unreachable!("result_json builds an object")
    };
    record.splice(
        0..0,
        [
            ("workload".to_string(), Json::str(w.name)),
            ("seed".to_string(), Json::Num(o.seed as f64)),
            ("seconds".to_string(), Json::Num(o.seconds)),
            ("trace".to_string(), Json::Bool(o.trace)),
            (
                "fingerprint".to_string(),
                Json::str(format!("{:#018x}", report.fingerprint)),
            ),
        ],
    );
    record.push((
        "notes".to_string(),
        Json::Obj(
            report
                .notes
                .iter()
                .map(|(n, v, _)| (n.clone(), Json::Num(*v)))
                .collect(),
        ),
    ));
    record.push((
        "problems".to_string(),
        Json::Arr(report.problems.iter().map(Json::str).collect()),
    ));
    record.push((
        "warnings".to_string(),
        Json::Arr(report.warnings.iter().map(Json::str).collect()),
    ));
    let kind = if o.trace { "trace" } else { "run" };
    let path = out.join(format!("{kind}-{}-{}.json", w.name, o.seed));
    std::fs::write(&path, format!("{}\n", Json::Obj(record).render()))
        .map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(report)
}

fn bench(o: &Options) -> Result<bool, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let report = run_one(w, o)?;
    println!("{}", result_json(&report).render());
    Ok(report.correct())
}

fn run_all(o: &Options) -> Result<bool, String> {
    let mut correct = true;
    for w in WORKLOADS {
        correct &= run_one(w, o)?.correct();
    }
    Ok(correct)
}

/// The rapd under test: hand the arguments to the `rapminer` CLI.
fn serve(args: &[String]) -> ExitCode {
    let args = match rapminer_cli::Args::parse(args.iter().cloned()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match rapminer_cli::run(&args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => return serve(&args),
        Some("compare") => compare::main(&args[1..]).map(|bad| !bad),
        Some("run") => parse_options(&args[1..]).and_then(|o| run_all(&o)),
        Some("trace") => {
            parse_options(&args[1..]).and_then(|o| run_all(&Options { trace: true, ..o }))
        }
        Some(flag) if flag.starts_with("--") => parse_options(&args).and_then(|o| bench(&o)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rapbench: {e}");
            ExitCode::from(2)
        }
    }
}
