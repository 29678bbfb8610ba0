//! The `/metrics` exposition, pinned.
//!
//! * Every family of [`Metrics`] and [`RouterMetrics`] renders exactly the
//!   HELP, TYPE and series lines of `fixtures/exposition.prom`. Family
//!   order is free: Prometheus and the exposition lint do not depend on it.
//! * README.md's metric table lists exactly the exported families, each
//!   with the type it is exported as.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use service::metrics::{build_commit, build_version, Histogram, Metrics, RouterMetrics};

/// Split an exposition into families keyed by name; each family is its
/// `# HELP` line and every line up to the next `# HELP`.
fn families(text: &str) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().expect("HELP names a family");
            assert!(!out.contains_key(name), "family {name} rendered twice");
            current = Some(name.to_string());
        }
        let name = current.clone().expect("every line follows a # HELP");
        out.entry(name).or_default().push(line.to_string());
    }
    out
}

/// The `# TYPE` of every family in an exposition.
fn types(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_once(' '))
        .map(|(name, kind)| (name.to_string(), kind.to_string()))
        .collect()
}

/// Give every cell a distinct non-zero value, starting at `next`.
fn fill(cells: &[&AtomicU64], next: &mut u64) {
    for cell in cells {
        *next += 1;
        cell.store(*next, Ordering::Relaxed);
    }
}

/// Observe into every bucket of `h` and past its last bound: a sweep with
/// ratio 1.5 lands in every bucket whose bounds are at least 2x apart.
/// `times` makes each histogram's counts distinct.
fn sweep(h: &Histogram, times: usize) {
    for _ in 0..times {
        let mut v = 1e-6;
        while v < 1e4 {
            h.observe(v);
            v *= 1.5;
        }
    }
}

fn filled_daemon() -> Metrics {
    let m = Metrics::new(3);
    let mut next = 0;
    fill(
        &[
            &m.frames_ingested,
            &m.alarms,
            &m.protocol_errors,
            &m.pipeline_errors,
            &m.pipeline_restarts_panic,
            &m.worker_restarts,
            &m.deadline_exceeded,
            &m.spool_recovered_lines,
            &m.spool_legacy_lines,
            &m.spool_truncated_bytes,
            &m.spool_degraded,
            &m.spool_write_errors,
            &m.quarantine_write_errors,
            &m.quarantine_degraded,
            &m.wal_appends,
            &m.wal_append_errors,
            &m.wal_compactions,
            &m.wal_replayed_frames,
            &m.wal_depth,
            &m.checkpoint_writes,
            &m.checkpoint_errors,
            &m.checkpoint_restores,
            &m.checkpoint_corrupt,
            &m.checkpoint_last_unix_ms,
            &m.detector_rewarms,
            &m.incidents_deduped,
            &m.wal_degraded,
        ],
        &mut next,
    );
    for set in [
        m.frames_quarantined.named().to_vec(),
        m.leaves_repaired.named().to_vec(),
        m.blackbox_dumps.named().to_vec(),
        m.detections.named().to_vec(),
        m.spool_rotations.named().to_vec(),
    ] {
        let cells: Vec<&AtomicU64> = set.into_iter().map(|(_, c)| c).collect();
        fill(&cells, &mut next);
    }
    for i in 0..m.num_shards() {
        let s = m.shard(i);
        fill(
            &[&s.dropped, &s.processed, &s.depth, &s.shed, &s.breaker_open],
            &mut next,
        );
    }
    let stages = m.stages.named().map(|(_, h)| h);
    for (times, h) in [&m.localization, &m.ingest_ack, &m.e2e]
        .into_iter()
        .chain(stages)
        .chain([&m.reorder_hold])
        .enumerate()
    {
        sweep(h, times + 1);
    }
    m
}

fn filled_router() -> RouterMetrics {
    let m = RouterMetrics::new(3);
    let mut next = 1000;
    fill(
        &[
            &m.frames_forwarded,
            &m.parked_frames,
            &m.parked_total,
            &m.shed_total,
            &m.handoffs,
            &m.handoff_replayed,
            &m.protocol_errors,
        ],
        &mut next,
    );
    for i in 0..3 {
        fill(&[&m.worker(i).up, &m.worker(i).respawns], &mut next);
    }
    m
}

#[test]
fn exposition_matches_the_pinned_families() {
    let rendered = format!(
        "{}{}",
        filled_daemon().render_prometheus(),
        filled_router().render_prometheus()
    );
    service::metrics::lint::validate_exposition(&rendered).expect("exposition lints clean");
    // the fill reached every series: no value reads zero, and every
    // histogram bucket (the +Inf one too) gained observations
    let mut last_bucket = 0.0;
    for line in rendered.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("series has a value");
        let value: f64 = value.parse().expect("numeric value");
        assert!(value > 0.0, "unfilled series: {line}");
        if series.contains("_bucket{") {
            assert!(value > last_bucket, "empty bucket: {line}");
            last_bucket = value;
        } else {
            last_bucket = 0.0;
        }
    }
    let pinned = include_str!("fixtures/exposition.prom")
        .replace("@VERSION@", build_version())
        .replace("@COMMIT@", build_commit());
    let (want, got) = (families(&pinned), families(&rendered));
    for (name, lines) in &want {
        assert_eq!(
            got.get(name),
            Some(lines),
            "family {name} differs from the pin"
        );
    }
    let extra: Vec<&String> = got.keys().filter(|k| !want.contains_key(*k)).collect();
    assert!(extra.is_empty(), "families missing from the pin: {extra:?}");
}

#[test]
fn readme_metric_table_lists_every_exported_family() {
    let rendered = format!(
        "{}{}",
        Metrics::new(1).render_prometheus(),
        RouterMetrics::new(1).render_prometheus()
    );
    let exported = types(&rendered);
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let mut listed = BTreeMap::new();
    for row in readme.lines().filter(|l| l.starts_with("| `rapd_")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`').split('{').next().unwrap_or("");
        let previous = listed.insert(name.to_string(), cells[2].to_string());
        assert!(previous.is_none(), "README lists {name} twice");
    }
    let missing: Vec<&String> = exported
        .keys()
        .filter(|k| !listed.contains_key(*k))
        .collect();
    let stale: Vec<&String> = listed
        .keys()
        .filter(|k| !exported.contains_key(*k))
        .collect();
    let mistyped: Vec<String> = exported
        .iter()
        .filter(|(name, kind)| listed.get(*name).is_some_and(|l| l != *kind))
        .map(|(name, kind)| format!("{name} is a {kind}, README says {}", listed[name]))
        .collect();
    assert!(
        missing.is_empty() && stale.is_empty() && mistyped.is_empty(),
        "README metric table drifted: missing {missing:?}, not exported {stale:?}, \
         {mistyped:?}"
    );
}
