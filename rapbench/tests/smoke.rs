//! Every workload through the same code path as a measured run, with
//! shortened durations: each must finish correct, fail nothing, and
//! report exactly the metrics `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

use service::json::{parse, Json};

fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(
        std::fs::read_to_string(path)
            .expect("BENCHMARK.json")
            .trim(),
    )
    .expect("BENCHMARK.json parses");
    let list = doc.get(key).and_then(Json::as_arr).expect("metric list");
    list.iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_correctly_untraced_and_traced() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for workload in [
        "ingest-steady",
        "ingest-fleet",
        "incident-storm",
        "localize-rapmd",
    ] {
        // the traced run splits its time between load and replay, so it
        // gets enough to see a few incident windows
        for (trace, seconds, key) in [("0", "4", "end_to_end"), ("1", "6", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_rapbench"))
                .args(["--workload", workload, "--seed", "7"])
                .args(["--seconds", seconds, "--trace", trace])
                .current_dir(&dir)
                .output()
                .expect("rapbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {stderr}\n{stdout}"
            );
            let last = stdout.lines().last().unwrap_or_default();
            let doc = parse(last).expect("the last line is the result object");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{last}");
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            assert!(doc.get("attempted").and_then(Json::as_u64) > Some(0));
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics in {last}");
            };
            let names: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, declared(key), "{workload} --trace {trace}");
            for name in &names {
                let prefix = format!("{workload} {name} ");
                assert!(
                    stdout.lines().any(|l| l.starts_with(&prefix)),
                    "{name} has no human-readable line"
                );
            }
        }
    }
}
