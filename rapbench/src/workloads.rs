//! Running one workload: set up, drive the load, check the outputs, and
//! turn what was measured into metric values.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use datasets::{Dataset, LocalizationCase};
use mdkpi::Combination;
use rapminer::{Config, RapMiner};

use crate::daemon::{counter, cpu_ns, peak_rss_kb, scrape, Daemon};
use crate::drive::{Client, Pace, PhaseStats, Poller};
use crate::inputs::{self, Book};
use crate::spec::{
    pinned_fingerprint, DaemonLoad, Kind, Workload, END_TO_END, INJECTION, PER_LAYER, PIPELINE,
};
use crate::stats::{beyond, median, quantile, Fnv};
use crate::trace;

/// Set-ups per daemon run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Floors of the output checks. RAPMiner reaches RC@3 ≈ 0.8 on RAPMD
/// and names the injected location in nearly every storm incident.
const RC_AT_3_FLOOR: f64 = 0.6;
const RAP_HIT_FLOOR: f64 = 0.8;
const DETECTED_FLOOR: f64 = 0.8;

/// A paced generator more than this share of its send interval late at
/// p99 did not hold its schedule, and the run is reported invalid. Its
/// lateness is charged to the daemon either way (acks are timed from the
/// due time), and on a shared host it is the host, not rapd, that falls
/// behind, so it is a warning rather than a failed check.
const BEHIND_LIMIT: f64 = 0.1;

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Declared metrics, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Further figures for the human-readable output.
    pub notes: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// Conditions that make the measurement itself suspect.
    pub warnings: Vec<String>,
    /// FNV-1a fingerprint of the generated inputs.
    pub fingerprint: u64,
}

impl Report {
    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Measured values by metric name, end-to-end and per-layer alike.
type Values = BTreeMap<&'static str, f64>;

/// Run `workload` for `secs` seconds of measurement. Untraced runs report
/// the end-to-end metrics; traced runs spend half the time on the same
/// untraced load (for the daemon-side stamps) and half on the traced
/// in-process replay, and report the per-layer metrics.
pub fn run(
    workload: &Workload,
    seed: u64,
    secs: f64,
    traced: bool,
    out: &Path,
) -> Result<Report, String> {
    let work = out.join(format!(
        "work-{}-{seed}-{}",
        workload.name,
        std::process::id()
    ));
    let mut report = Report::default();
    let mut values = Values::new();
    let load_secs = if traced { secs / 2.0 } else { secs };
    let result = match workload.kind {
        Kind::Daemon(load) => {
            let book = Book::build(&load, seed);
            check_fingerprint(&mut report, workload, seed, book.fingerprint());
            run_daemon(
                workload,
                &load,
                &book,
                load_secs,
                &work,
                &mut values,
                &mut report,
            )
            .and_then(|()| {
                if traced {
                    let t = trace::daemon(&load, &book, secs / 2.0, &work.join("replay"))?;
                    finish_trace(t, workload, seed, out, &mut values)?;
                }
                Ok(())
            })
        }
        Kind::Localize => run_localize(workload, seed, load_secs, &mut values, &mut report)
            .and_then(|dataset| {
                if traced {
                    let t = trace::localize(&dataset, secs / 2.0)?;
                    finish_trace(t, workload, seed, out, &mut values)?;
                }
                Ok(())
            }),
    };
    let _ = std::fs::remove_dir_all(&work);
    result?;
    let declared = if traced { PER_LAYER } else { END_TO_END };
    for def in declared {
        let value = *values
            .get(def.name)
            .unwrap_or_else(|| panic!("{} was not measured", def.name));
        report.check(value.is_finite(), || format!("{} is not finite", def.name));
        report.metrics.push((def.name, value, def.unit));
    }
    Ok(report)
}

fn check_fingerprint(report: &mut Report, workload: &Workload, seed: u64, print: u64) {
    report.fingerprint = print;
    if let Some(pinned) = pinned_fingerprint(workload.name, seed) {
        report.check(print == pinned, || {
            format!("inputs fingerprint {print:#018x} differs from the pinned {pinned:#018x}")
        });
    }
}

fn finish_trace(
    t: trace::Traced,
    workload: &Workload,
    seed: u64,
    out: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let path = out.join(format!("spans-{}-{seed}.jsonl", workload.name));
    t.recorder
        .write_jsonl(&path)
        .map_err(|e| format!("write {path:?}: {e}"))?;
    values.extend(t.values);
    Ok(())
}

fn sum_over(pids: &[u32], read: fn(u32) -> Option<u64>) -> Result<u64, String> {
    pids.iter()
        .map(|&p| read(p).ok_or_else(|| format!("no /proc readout for pid {p}")))
        .sum()
}

/// Frames and leaves a phase got through its pipelines, from the daemon's
/// counter deltas; a frame acked but dropped afterwards is not processed.
fn processed(phase: &PhaseStats, processed_frames: u64) -> (u64, f64) {
    let leaves = if phase.acked == 0 {
        0.0
    } else {
        phase.leaves_acked as f64 * processed_frames.min(phase.acked) as f64 / phase.acked as f64
    };
    (processed_frames.min(phase.sent), leaves)
}

fn run_daemon(
    workload: &Workload,
    load: &DaemonLoad,
    book: &Book,
    secs: f64,
    work: &Path,
    values: &mut Values,
    report: &mut Report,
) -> Result<(), String> {
    let schemas = book.schemas();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for i in 1..SETUP_REPEATS {
        let daemon = Daemon::start(load, &work.join(format!("spool-{i}")), &schemas)?;
        setups.push(daemon.setup_s);
        daemon.stop()?;
    }
    let mut daemon = Daemon::start(load, &work.join("spool"), &schemas)?;
    setups.push(daemon.setup_s);
    values.insert("setup_s", median(&setups));

    let pids = daemon.pids()?;
    let mut client = Client::connect(&daemon.addr, book)?;
    // the poller runs only where incidents are expected: in a fleet every
    // poll fans out over the worker links the observes wait on
    let mut poller = load.inject.then(Poller::default);
    let exposition_before = scrape(&daemon.metrics_addr)?;
    let before = daemon.totals()?;
    let cpu_before = sum_over(&pids, cpu_ns)?;
    let paced_secs = secs * load.paced_share;
    let paced = client.drive(
        &mut daemon.control,
        Pace::Fps(load.paced_fps),
        paced_secs,
        poller.as_mut(),
    )?;
    let cpu_paced = sum_over(&pids, cpu_ns)? - cpu_before;
    let after_paced = daemon.totals()?;
    let saturated = if load.paced_share < 1.0 {
        Some(client.drive(
            &mut daemon.control,
            Pace::Saturate(load.sat_window),
            secs - paced_secs,
            None,
        )?)
    } else {
        None
    };
    let after = daemon.totals()?;
    let exposition_after = scrape(&daemon.metrics_addr)?;
    let rss_kb = sum_over(&pids, peak_rss_kb)?;
    drop(client);
    // no graceful drain: it would compact the whole journal, seconds of
    // fsync that this run does not measure
    daemon.kill();

    // accounting: every frame acked and processed, the ledgers balanced
    let paced_delta = after_paced.since(&before);
    let mut phases = vec![("paced", &paced, paced_delta)];
    if let Some(sat) = &saturated {
        phases.push(("saturated", sat, after.since(&after_paced)));
    }
    for (name, phase, delta) in &phases {
        report.attempted += phase.sent;
        report.failed += phase.sent - processed(phase, delta.processed).0;
        report.check(phase.refused == 0, || {
            format!(
                "{name}: {} frames not acked, first reply {:?}",
                phase.refused,
                phase.first_refusal.as_deref().unwrap_or("")
            )
        });
        report.check(delta.ingested == phase.acked, || {
            format!(
                "{name}: daemon ingested {} frames, client saw {} acks",
                delta.ingested, phase.acked
            )
        });
        report.check(delta.processed == delta.ingested, || {
            format!(
                "{name}: {} frames ingested but {} processed ({} dropped, {} shed, {} quarantined)",
                delta.ingested, delta.processed, delta.dropped, delta.shed, delta.quarantined
            )
        });
        report.note(&format!("{name}.frames_sent"), phase.sent as f64, "count");
        report.note(
            &format!("{name}.frames_per_s"),
            phase.sent as f64 / phase.elapsed_s(),
            "1/s",
        );
        report.note(
            &format!("{name}.leaves_per_s"),
            processed(phase, delta.processed).1 / phase.elapsed_s(),
            "leaves/s",
        );
        report.note(
            &format!("{name}.drain_s"),
            phase.end_ns.saturating_sub(phase.last_ack_ns) as f64 / 1e9,
            "s",
        );
    }
    let whole = after.since(&before);
    report.check(whole.balanced(), || {
        format!("daemon ledger unbalanced: {whole:?}")
    });
    let acked: u64 = phases.iter().map(|(_, p, _)| p.acked).sum();
    let sent: u64 = phases.iter().map(|(_, p, _)| p.sent).sum();
    let (journal, expected) = if load.workers == 0 {
        ("rapd_wal_appends_total", acked)
    } else {
        ("rapd_router_frames_forwarded_total", sent)
    };
    let journaled = counter(&exposition_after, journal) - counter(&exposition_before, journal);
    report.check(journaled == expected as f64, || {
        format!("{journal} moved by {journaled}, expected {expected}")
    });

    // the generator must have held its schedule
    let interval_ms = 1e3 / load.paced_fps;
    let behind = quantile(&paced.behind_ms, 0.99) / interval_ms;
    values.insert("loadgen.behind_frac", behind);
    report.note(
        "loadgen.behind_p99_ms",
        quantile(&paced.behind_ms, 0.99),
        "ms",
    );
    if behind > BEHIND_LIMIT {
        report.warnings.push(format!(
            "invalid run: the generator fell behind by {behind:.3} of its send interval at p99"
        ));
    }

    // latency: acks on ingest workloads, time to incident on the storm
    let ack_p50 = median(&paced.ack_ms);
    let stamp_p50 = median(&paced.stamp_ms);
    report.note("ack_p50_ms", ack_p50, "ms");
    report.note("ack_p99_ms", quantile(&paced.ack_ms, 0.99), "ms");
    report.note("server.ack_stamp_p50_ms", stamp_p50, "ms");
    report.note(
        "server.ack_stamp_p99_ms",
        quantile(&paced.stamp_ms, 0.99),
        "ms",
    );
    report.note("server.wire_wait_p50_ms", ack_p50 - stamp_p50, "ms");
    values.insert(
        "server.wire_wait_frac",
        if ack_p50 > 0.0 {
            (1.0 - stamp_p50 / ack_p50).max(0.0)
        } else {
            0.0
        },
    );
    values.insert("shard.dropped", whole.dropped as f64);
    let samples = match &poller {
        None => paced.ack_ms.clone(),
        Some(poller) => incident_samples(book, &paced, poller, paced_delta.alarms, report),
    };
    latency_values(workload, &samples, values, report);

    // throughput at the pinned load: processed leaves from the first send
    // to the return of the flush barrier. The saturation ceiling is only
    // a note: it is CPU-bound, and on a shared 2-core host it swings by a
    // quarter between runs.
    let paced_leaves = processed(&paced, paced_delta.processed).1;
    values.insert("throughput_leaves_per_s", paced_leaves / paced.elapsed_s());
    report.note(
        "cpu_us_per_leaf",
        cpu_paced as f64 / 1e3 / paced_leaves,
        "us",
    );
    values.insert("peak_rss_mb", rss_kb as f64 / 1024.0);
    Ok(())
}

/// Time to incident for every injected frame that produced one, plus the
/// storm's output checks: every alarm reached the poller, most injection
/// windows were detected, and the incidents name the injected location.
fn incident_samples(
    book: &Book,
    paced: &PhaseStats,
    poller: &Poller,
    alarms: u64,
    report: &mut Report,
) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut hits = 0usize;
    for (token, &(due_ns, tenant)) in &paced.injected {
        let Some(seen) = poller.seen.get(token) else {
            continue;
        };
        samples.push(seen.at_ns.saturating_sub(due_ns) as f64 / 1e6);
        if seen
            .raps
            .iter()
            .take(PIPELINE.k)
            .any(|r| *r == book.roots[tenant])
        {
            hits += 1;
        }
    }
    let detected = samples.len();
    let windows = paced.injected.len().div_ceil(INJECTION.duration);
    let hit_frac = hits as f64 / detected.max(1) as f64;
    let detected_frac = detected as f64 / windows.max(1) as f64;
    report.note("incidents.seen", poller.seen.len() as f64, "count");
    report.note("incidents.on_injected_frames", detected as f64, "count");
    report.note("incidents.injection_windows", windows as f64, "count");
    report.note("incidents.rap_hit_frac", hit_frac, "frac");
    report.note("incidents.polls", poller.polls as f64, "count");
    report.check(poller.seen.len() as u64 == alarms, || {
        format!(
            "the poller saw {} incidents, the daemon raised {alarms} alarms",
            poller.seen.len()
        )
    });
    report.check(detected_frac >= DETECTED_FLOOR, || {
        format!("only {detected} of {windows} injection windows produced an incident")
    });
    report.check(hit_frac >= RAP_HIT_FLOOR, || {
        format!("only {hits} of {detected} incidents name the injected location in their top 3")
    });
    samples
}

fn latency_values(workload: &Workload, samples: &[f64], values: &mut Values, report: &mut Report) {
    report.check(!samples.is_empty(), || "no latency samples".to_string());
    values.insert("latency_p50_ms", median(samples));
    values.insert("latency_tail_ms", quantile(samples, workload.tail_q));
    report.note("latency.samples", samples.len() as f64, "count");
    report.note("latency.tail_q", workload.tail_q, "quantile");
    report.note(
        "latency.beyond_tail",
        beyond(samples.len(), workload.tail_q) as f64,
        "count",
    );
}

fn localize(miner: &RapMiner, case: &LocalizationCase) -> Option<Vec<Combination>> {
    miner
        .localize(&case.frame, PIPELINE.k)
        .ok()
        .map(|raps| raps.into_iter().map(|r| r.combination).collect())
}

/// The paper's experiment, repeated over [`inputs::RAPMD_SETS`] seeded
/// datasets of 105 cases so one run averages over enough failures to
/// repeat across seeds. Each dataset is generated (the set-up) and then
/// looped for its share of the run; its first pass is scored for RC@3
/// and every later pass must rank the same RAPs. Only one dataset is in
/// memory at a time.
fn run_localize(
    workload: &Workload,
    seed: u64,
    secs: f64,
    values: &mut Values,
    report: &mut Report,
) -> Result<Dataset, String> {
    let me = std::process::id();
    let cpu_now = || cpu_ns(me).ok_or("no /proc readout for this process");
    let share = secs / inputs::RAPMD_SETS as f64;
    let mut setups = Vec::new();
    let mut print = Fnv::default();
    let mut scored: Vec<(Vec<Combination>, Vec<Combination>)> = Vec::new();
    let mut samples = Vec::new();
    let mut set_rates = Vec::new();
    let (mut leaves, mut cpu, mut changed, mut busy_s) = (0u64, 0u64, 0u64, 0.0);
    let mut last = None;
    for set in 0..inputs::RAPMD_SETS {
        let started = Instant::now();
        let dataset = inputs::rapmd(seed, set);
        let miner = RapMiner::with_config(Config::new().with_threads(1));
        setups.push(started.elapsed().as_secs_f64());
        print.bytes(&inputs::rapmd_fingerprint(&dataset).to_le_bytes());
        if set == 0 {
            // warm the allocator and code paths before any timing
            let _ = localize(&miner, &dataset.cases[0]);
        }

        let mut answers: Vec<Option<Vec<Combination>>> = Vec::new();
        let (mut set_leaves, mut set_busy_s) = (0u64, 0.0);
        let cpu_before = cpu_now()?;
        let started = Instant::now();
        for i in (0..dataset.cases.len()).cycle() {
            if started.elapsed().as_secs_f64() >= share && answers.len() == dataset.cases.len() {
                break;
            }
            let case = &dataset.cases[i];
            let t = Instant::now();
            let answer = localize(&miner, case);
            let dt = t.elapsed().as_secs_f64();
            set_busy_s += dt;
            samples.push(dt * 1e3);
            set_leaves += case.frame.num_rows() as u64;
            report.attempted += 1;
            if answer.is_none() {
                report.failed += 1;
            }
            if answers.len() < dataset.cases.len() {
                answers.push(answer);
            } else if answer != answers[i] {
                changed += 1;
            }
        }
        cpu += cpu_now()? - cpu_before;
        leaves += set_leaves;
        busy_s += set_busy_s;
        set_rates.push(set_leaves as f64 / set_busy_s);
        scored.extend(
            dataset
                .cases
                .iter()
                .zip(answers)
                .map(|(case, answer)| (answer.unwrap_or_default(), case.truth.clone())),
        );
        last = Some(dataset);
    }
    values.insert("setup_s", median(&setups));
    check_fingerprint(report, workload, seed, print.finish());
    let rc3 = eval::rc_at_k(&scored, 3);
    report.note("rc_at_3", rc3, "frac");
    report.check(rc3 >= RC_AT_3_FLOOR, || {
        format!("RC@3 = {rc3:.3} is below {RC_AT_3_FLOOR}")
    });
    report.check(changed == 0, || {
        format!("{changed} repeated cases ranked different RAPs than the first pass")
    });
    latency_values(workload, &samples, values, report);
    // the median over datasets: per-case cost is heavy-tailed, so a mean
    // over all cases swings with the few deepest searches
    values.insert("throughput_leaves_per_s", median(&set_rates));
    report.note("cases_per_s", samples.len() as f64 / busy_s, "1/s");
    report.note("cpu_us_per_leaf", cpu as f64 / 1e3 / leaves as f64, "us");
    values.insert(
        "peak_rss_mb",
        peak_rss_kb(me).ok_or("no /proc readout for this process")? as f64 / 1024.0,
    );
    for name in [
        "server.wire_wait_frac",
        "shard.dropped",
        "loadgen.behind_frac",
    ] {
        values.insert(name, 0.0);
    }
    Ok(last.expect("at least one RAPMD set"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(sent: u64, acked: u64, leaves_acked: u64) -> PhaseStats {
        PhaseStats {
            sent,
            acked,
            leaves_acked,
            ..PhaseStats::default()
        }
    }

    #[test]
    fn failures_are_frames_not_processed() {
        // every frame acked and processed: nothing failed
        let p = phase(10, 10, 4000);
        assert_eq!(processed(&p, 10), (10, 4000.0));
        // two acked frames dropped after the ack count as failed, and
        // only processed leaves count toward throughput
        assert_eq!(processed(&p, 8), (8, 3200.0));
        // a refused frame is never processed
        let p = phase(10, 9, 3600);
        let (frames, leaves) = processed(&p, 9);
        assert_eq!(p.sent - frames, 1);
        assert_eq!(leaves, 3600.0);
        assert_eq!(processed(&phase(0, 0, 0), 0), (0, 0.0));
    }

    #[test]
    fn a_report_with_failures_or_problems_is_incorrect() {
        let mut r = Report::default();
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        let mut r = Report::default();
        r.check(false, || "bad".to_string());
        assert!(!r.correct());
    }
}
