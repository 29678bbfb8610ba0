//! rapd under test, measured from outside: the spawned process and its
//! listener announce, the control connection, `/proc` readouts and
//! `/metrics` scrapes. Nothing here reaches into the daemon's memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use service::json::{parse, Json};

use crate::spec::{DaemonLoad, DETECT_THRESHOLD, FORECAST_WINDOW, PIPELINE};

/// How long a daemon may take to announce, drain or exit.
const DEADLINE: Duration = Duration::from_secs(60);

/// The `serve` flags of a daemon workload. One shard keeps the daemon's
/// own thread count inside a 2-core host. The periodic checkpoint is
/// pushed past the end of any run: its WAL compaction fsyncs the whole
/// journal and stalls ingest for seconds on a shared disk, which would
/// make the tail a measure of the disk.
fn serve_args(load: &DaemonLoad, spool: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--metrics-listen",
        "127.0.0.1:0",
        "--shards",
        "1",
        "--queue",
        "4096",
        "--checkpoint-interval-ms",
        "3600000",
        "--request-deadline-ms",
        "15000",
    ]
    .map(str::to_string)
    .into();
    let p = PIPELINE;
    for (flag, value) in [
        ("--history", p.history_len.to_string()),
        ("--warmup", p.warmup.to_string()),
        ("--alarm-threshold", p.alarm_threshold.to_string()),
        ("--leaf-threshold", p.leaf_threshold.to_string()),
        ("--k", p.k.to_string()),
        ("--intra-frame-threads", p.localize_threads.to_string()),
        ("--window", FORECAST_WINDOW.to_string()),
        ("--workers", load.workers.to_string()),
        ("--detect", load.detect.to_string()),
        ("--detect-threshold", DETECT_THRESHOLD.to_string()),
        ("--spool", spool.display().to_string()),
    ] {
        args.push(flag.to_string());
        args.push(value);
    }
    args
}

/// One request/reply NDJSON connection.
pub struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    pub fn connect(addr: &str) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(DEADLINE)).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone control stream: {e}"))?,
        );
        Ok(Control {
            writer: stream,
            reader,
        })
    }

    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write {line:?}: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err(format!("rapd closed the connection on {line:?}")),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("read reply to {line:?}: {e}")),
        }
    }

    pub fn request_json(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.request(line)?;
        parse(reply.trim()).map_err(|e| format!("parse reply to {line:?}: {e}"))
    }

    /// The flush barrier: returns once every admitted frame went through
    /// its pipeline (and, in a fleet, every parked frame was delivered).
    pub fn flush(&mut self) -> Result<(), String> {
        let reply = self.request(r#"{"type":"flush"}"#)?;
        if reply.contains(r#""type":"ok""#) && !reply.contains(r#""flushed":false"#) {
            Ok(())
        } else {
            Err(format!("flush barrier refused: {}", reply.trim()))
        }
    }

    pub fn stats(&mut self) -> Result<Json, String> {
        self.request_json(r#"{"type":"stats"}"#)
    }
}

/// Daemon frame counters from a `stats` reply, summed over a fleet's
/// workers.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub ingested: u64,
    pub processed: u64,
    pub dropped: u64,
    pub shed: u64,
    pub quarantined: u64,
    pub alarms: u64,
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

impl Totals {
    pub fn from_stats(doc: &Json) -> Totals {
        let one = |s: &Json| Totals {
            ingested: num(s, "frames_ingested"),
            processed: num(s, "frames_processed"),
            dropped: num(s, "frames_dropped"),
            shed: num(s, "frames_shed"),
            quarantined: num(s, "frames_quarantined"),
            alarms: num(s, "alarms"),
        };
        if doc.get("role").and_then(Json::as_str) != Some("router") {
            return one(doc);
        }
        let mut t = Totals {
            shed: doc.get("router").map_or(0, |r| num(r, "shed")),
            ..Totals::default()
        };
        for w in doc.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
            let s = w.get("stats").map(one).unwrap_or_default();
            t.ingested += s.ingested;
            t.processed += s.processed;
            t.dropped += s.dropped;
            t.shed += s.shed;
            t.quarantined += s.quarantined;
            t.alarms += s.alarms;
        }
        t
    }

    pub fn since(&self, before: &Totals) -> Totals {
        Totals {
            ingested: self.ingested.saturating_sub(before.ingested),
            processed: self.processed.saturating_sub(before.processed),
            dropped: self.dropped.saturating_sub(before.dropped),
            shed: self.shed.saturating_sub(before.shed),
            quarantined: self.quarantined.saturating_sub(before.quarantined),
            alarms: self.alarms.saturating_sub(before.alarms),
        }
    }

    /// The daemon's own accounting invariant.
    pub fn balanced(&self) -> bool {
        self.processed + self.dropped + self.shed + self.quarantined == self.ingested
    }
}

/// A running rapd (single process or fleet router) spawned from this
/// binary's `serve` subcommand. Dropping it kills whatever still runs.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    spool: PathBuf,
    workers: usize,
    pub addr: String,
    pub metrics_addr: String,
    pub control: Control,
    /// Spawn until listening, schemas registered and every worker up.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawn rapd with its spool at `spool`, register `schemas`, and (for a
    /// fleet) wait until every worker reports up.
    pub fn start(load: &DaemonLoad, spool: &Path, schemas: &[String]) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(spool);
        std::fs::create_dir_all(spool).map_err(|e| format!("create {spool:?}: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("locate rapbench: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(serve_args(load, spool))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn rapd: {e}"))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (announce, drain) = read_announce(out);
        let mut daemon = match announce
            .and_then(|(addr, metrics_addr)| Ok((Control::connect(&addr)?, addr, metrics_addr)))
        {
            Ok((control, addr, metrics_addr)) => Daemon {
                child,
                drain: Some(drain),
                spool: spool.to_path_buf(),
                workers: load.workers,
                addr,
                metrics_addr,
                control,
                setup_s: 0.0,
            },
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                return Err(e);
            }
        };
        for line in schemas {
            let reply = daemon.control.request(line)?;
            if !reply.contains(r#""type":"ok""#) {
                return Err(format!("schema refused: {}", reply.trim()));
            }
        }
        while daemon.live_workers()?.len() < load.workers {
            if started.elapsed() > DEADLINE {
                return Err("fleet workers did not come up".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.setup_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The pids of every live fleet worker, from `stats`; empty for a
    /// single-process daemon.
    fn live_workers(&mut self) -> Result<Vec<u32>, String> {
        if self.workers == 0 {
            return Ok(Vec::new());
        }
        let stats = self.control.stats()?;
        Ok(stats
            .get("workers")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|w| w.get("up").and_then(Json::as_bool) == Some(true))
            .filter_map(|w| w.get("pid").and_then(Json::as_u64))
            .map(|p| p as u32)
            .collect())
    }

    /// Every process of the deployment: the daemon (or router) first.
    pub fn pids(&mut self) -> Result<Vec<u32>, String> {
        let mut pids = vec![self.child.id()];
        pids.extend(self.live_workers()?);
        Ok(pids)
    }

    pub fn totals(&mut self) -> Result<Totals, String> {
        Ok(Totals::from_stats(&self.control.stats()?))
    }

    /// Drain the daemon with the `shutdown` verb and wait for every
    /// process to exit; the spool is removed afterwards. Fails when the
    /// drain was not clean.
    pub fn stop(mut self) -> Result<(), String> {
        let pids = self.pids()?;
        let reply = self.control.request(r#"{"type":"shutdown"}"#)?;
        if !reply.contains(r#""draining":true"#) {
            return Err(format!("shutdown refused: {}", reply.trim()));
        }
        let started = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() < DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("rapd did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("wait for rapd: {e}")),
            }
        };
        while pids[1..].iter().any(|&p| alive(p)) {
            if started.elapsed() > DEADLINE {
                return Err("a fleet worker outlived its router".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !status.success() {
            return Err(format!("rapd drained uncleanly: {status}"));
        }
        Ok(())
    }

    /// Kill the daemon and every fleet worker, and wait until all exited.
    pub fn kill(mut self) {
        self.kill_all();
    }

    fn kill_all(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            // a fleet's workers are the router's children; once it is
            // gone they are orphans this process must reap itself
            let workers = children_of(self.child.id());
            let _ = self.child.kill();
            let _ = self.child.wait();
            for pid in workers {
                let started = Instant::now();
                while alive(pid) && started.elapsed() < DEADLINE {
                    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_all();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// Read the daemon's stdout until both listener lines are announced, then
/// hand the pipe to a thread that drains it until the daemon exits.
fn read_announce(out: ChildStdout) -> (Result<(String, String), String>, JoinHandle<()>) {
    let mut out = BufReader::new(out);
    let (mut addr, mut metrics) = (None, None);
    let mut line = String::new();
    while addr.is_none() || metrics.is_none() {
        line.clear();
        if !matches!(out.read_line(&mut line), Ok(n) if n > 0) {
            break;
        }
        let word = |prefix: &str| {
            line.strip_prefix(prefix)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string)
        };
        addr = addr.or_else(|| word("rapd listening on "));
        metrics = metrics.or_else(|| {
            word("rapd metrics on http://").map(|a| a.trim_end_matches("/metrics").to_string())
        });
    }
    let result = match (addr, metrics) {
        (Some(a), Some(m)) => Ok((a, m)),
        _ => Err("rapd exited before announcing its listeners".to_string()),
    };
    let drain = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = out.read_to_end(&mut sink);
    });
    (result, drain)
}

/// The command name and the fields after it in `/proc/<pid>/stat`.
fn stat(pid: u32) -> Option<(String, Vec<String>)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let (head, rest) = text.rsplit_once(')')?;
    let comm = head.split_once('(')?.1.to_string();
    Some((comm, rest.split_whitespace().map(str::to_string).collect()))
}

/// Whether `pid` is one of this binary's processes and still running
/// (not a zombie), so a recycled pid is never mistaken for a worker.
fn alive(pid: u32) -> bool {
    let own = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_default();
    stat(pid).is_some_and(|(comm, fields)| {
        own.starts_with(&comm) && fields.first().is_some_and(|state| state != "Z")
    })
}

/// The pids whose parent is `pid`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| stat(p).is_some_and(|(_, f)| f.get(1) == Some(&pid.to_string())))
        .collect()
}

/// Peak resident set (`VmHWM`) of `pid`, in kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// CPU time of `pid` summed over its live threads, in ns, from the
/// scheduler's exact run-time accounting (`/proc/<pid>/task/*/schedstat`).
/// The tick-sampled `utime`/`stime` of `/proc/<pid>/stat` alias with a
/// paced load whose period is near the tick and drift by ±15 % between
/// identical runs.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0;
    for task in tasks.flatten() {
        // a thread may exit between the listing and the read
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// Fetch the Prometheus exposition from a `/metrics` listener.
pub fn scrape(metrics_addr: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(metrics_addr).map_err(|e| format!("connect {metrics_addr}: {e}"))?;
    stream.set_read_timeout(Some(DEADLINE)).ok();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: rapd\r\n\r\n")
        .map_err(|e| format!("request /metrics: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("read /metrics: {e}"))?;
    Ok(body)
}

/// Sum of every series of counter `name` in an exposition.
pub fn counter(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_totals_sum_over_workers() {
        let doc = parse(
            r#"{"type":"stats","role":"router","router":{"shed":3},"workers":[
                {"worker":0,"up":true,"pid":11,"stats":{"frames_ingested":10,"frames_processed":9,"frames_dropped":1,"frames_shed":0,"frames_quarantined":0,"alarms":2}},
                {"worker":1,"up":true,"pid":12,"stats":{"frames_ingested":5,"frames_processed":5,"frames_dropped":0,"frames_shed":0,"frames_quarantined":0,"alarms":1}}
            ]}"#,
        )
        .unwrap();
        let t = Totals::from_stats(&doc);
        assert_eq!((t.ingested, t.processed, t.dropped), (15, 14, 1));
        assert_eq!((t.shed, t.alarms), (3, 3));
        let single = Totals::from_stats(
            &parse(r#"{"type":"stats","frames_ingested":7,"frames_processed":6,"frames_quarantined":1}"#)
                .unwrap(),
        );
        assert!(single.balanced());
        assert_eq!(single.since(&single), Totals::default());
    }

    #[test]
    fn counters_sum_label_sets() {
        let text = "# HELP rapd_wal_appends_total x\n\
                    # TYPE rapd_wal_appends_total counter\n\
                    rapd_wal_appends_total 41\n\
                    rapd_frames_shed_total{reason=\"breaker\"} 2\n\
                    rapd_frames_shed_total{reason=\"router\"} 3\n";
        assert_eq!(counter(text, "rapd_wal_appends_total"), 41.0);
        assert_eq!(counter(text, "rapd_frames_shed_total"), 5.0);
        assert_eq!(counter(text, "rapd_missing"), 0.0);
    }

    #[test]
    fn proc_readouts_see_this_process() {
        let me = std::process::id();
        assert!(peak_rss_kb(me).is_some_and(|kb| kb > 0));
        assert!(cpu_ns(me).is_some_and(|ns| ns > 0));
        assert!(alive(me));
    }

    #[test]
    fn children_are_found_by_parentage_and_strangers_are_not_alive() {
        let mut child = Command::new("sleep").arg("5").spawn().expect("sleep runs");
        assert!(children_of(std::process::id()).contains(&child.id()));
        // a process running another binary is never taken for a worker
        assert!(!alive(child.id()));
        child.kill().expect("kill sleep");
        child.wait().expect("reap sleep");
    }
}
