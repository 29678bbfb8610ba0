//! `rapbench compare <runs A>... -- <runs B>...`: medians and quartiles
//! of every (workload, metric) pair on both sides, and a verdict for
//! each pair that `BENCHMARK.json` bounds.

use std::collections::BTreeMap;

use service::json::{parse, Json};

use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, verdict, worsening, Verdict};

/// Samples of one side: (workload, metric) → values, one per run file.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn read_side(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = parse(text.trim()).map_err(|e| format!("parse {path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path} names no workload"))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{path} has no metrics"));
        };
        let mut push = |name: &str, value: Option<f64>| {
            let value = value.ok_or_else(|| format!("{path}: {name} has no value"))?;
            side.entry((workload.to_string(), name.to_string()))
                .or_default()
                .push(value);
            Ok::<(), String>(())
        };
        for (name, m) in metrics {
            push(name, m.get("value").and_then(Json::as_f64))?;
        }
        // the further figures line up too, without a verdict
        if let Some(Json::Obj(notes)) = doc.get("notes") {
            for (name, v) in notes {
                push(&format!("# {name}"), v.as_f64())?;
            }
        }
    }
    Ok(side)
}

/// Regression bounds by metric name, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = parse(benchmark_json.trim()).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

fn better(metric: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == metric)
        .map(|d| d.better)
}

/// Print the comparison table; returns whether any bounded pair regressed
/// or could not be resolved.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: rapbench compare <runs A>... -- <runs B>...")?;
    let (a, b) = (read_side(&args[..split])?, read_side(&args[split + 1..])?);
    let bounds = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => bounds(&text)?,
        Err(_) => BTreeMap::new(),
    };
    println!(
        "{:<16} {:<40} {:>12} {:>25} {:>12} {:>25} {:>8} verdict",
        "workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "gain"
    );
    let mut bad = false;
    for (key, xs) in &a {
        let Some(ys) = b.get(key) else { continue };
        let (ma, mb) = (median(xs), median(ys));
        let ((a1, a3), (b1, b3)) = (quartiles(xs), quartiles(ys));
        // gains only where the direction is declared, verdicts only where
        // BENCHMARK.json also bounds the metric on the workload
        let dir = better(&key.1);
        let gated = crate::spec::workload(&key.0).is_some_and(|w| w.gated);
        let gain = dir.map_or(String::new(), |d| {
            format!("{:+.1}%", -100.0 * worsening(ma, mb, d))
        });
        let verdict = dir
            .zip(bounds.get(&key.1))
            .filter(|_| gated)
            .map(|(d, &bound)| verdict(xs, ys, d, bound));
        bad |= matches!(verdict, Some(Verdict::Regressed | Verdict::Unresolved));
        println!(
            "{:<16} {:<40} {:>12.4} {:>25} {:>12.4} {:>25} {:>8} {}",
            key.0,
            key.1,
            ma,
            format!("[{a1:.4}, {a3:.4}]"),
            mb,
            format!("[{b1:.4}, {b3:.4}]"),
            gain,
            verdict.map_or("-", Verdict::as_str)
        );
    }
    Ok(bad)
}
