//! The fleet process supervisor: spawns and babysits worker processes.
//!
//! The router owns N worker *processes* (not threads — the whole point is
//! that `kill -9` of one worker takes down only its share of tenants).
//! Each slot runs the same binary in the hidden `serve --worker-index i`
//! mode, on its own spool directory `<spool>/worker-<i>/` and its own
//! ephemeral ports. The supervisor:
//!
//! * spawns each worker with piped stdout and waits for its one-line
//!   announce (`rapd-worker <i> listening on <addr> wire <v> seq <max>`),
//!   which carries the bound address and the recovered frame-sequence
//!   watermark;
//! * advances the router's [`obs::FrameId`] mint counter past every
//!   announced watermark, so router-minted tokens never collide with
//!   tokens a worker's spool already holds;
//! * babysits each slot with a poll thread: a worker that exits outside
//!   shutdown is logged, its slot marked down (the router parks frames
//!   for it), and respawned under a capped, jittered backoff
//!   ([`crate::retry::Backoff`]) — the respawned process self-recovers
//!   from its spool before announcing;
//! * on shutdown stops respawning first (so drained workers exiting are
//!   not mistaken for crashes), then waits out a deadline before killing
//!   stragglers;
//! * ties each worker's lifetime to the router's: a worker's stdin is a
//!   pipe whose write end only the router holds, so if the router dies —
//!   even by `kill -9` — every worker reads end-of-file, drains, and exits.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::RouterMetrics;
use crate::retry::Backoff;
use crate::sync::lock_recover;

/// How often a slot's babysitter polls its child for liveness.
const BABYSIT_POLL: Duration = Duration::from_millis(50);

/// How a worker process is launched: the binary plus the serve arguments
/// shared by every slot (detection mode, thresholds, shard count…). The
/// supervisor appends the per-slot flags (`--worker-index`, ephemeral
/// listen addresses, the per-worker spool).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// The binary to execute (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Arguments before the per-slot flags, e.g. `["serve", "--detect"]`.
    pub args: Vec<String>,
    /// The fleet spool root; slot `i` gets `<root>/worker-<i>/`.
    pub spool_root: PathBuf,
}

impl WorkerCommand {
    /// The spool directory of one worker slot.
    pub fn slot_spool(&self, index: usize) -> PathBuf {
        self.spool_root.join(format!("worker-{index}"))
    }
}

/// What the router needs to know about one slot right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Whether the worker is up and has announced its address.
    pub up: bool,
    /// The announced wire address, kept from the last successful spawn
    /// (stale while down — connect attempts against it fail fast).
    pub addr: Option<String>,
    /// OS pid of the current process, if one is running.
    pub pid: Option<u32>,
    /// Bumped on every (re)spawn; the router tags connections with it so
    /// a socket to a dead generation is discarded, not reused.
    pub generation: u64,
    /// Times this slot was respawned after dying.
    pub respawns: u64,
    /// The sequence watermark the current process announced at boot.
    pub max_seq: u64,
}

struct SlotState {
    up: bool,
    addr: Option<String>,
    generation: u64,
    respawns: u64,
    max_seq: u64,
    child: Option<Child>,
}

struct Slot {
    index: usize,
    state: Mutex<SlotState>,
}

/// The supervisor over all worker slots.
pub struct Supervisor {
    command: WorkerCommand,
    slots: Vec<Arc<Slot>>,
    metrics: Arc<RouterMetrics>,
    shutting_down: Arc<AtomicBool>,
    babysitters: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// Spawn `workers` worker processes and their babysitter threads.
    /// Fails if any worker cannot be spawned or never announces — a fleet
    /// that cannot boot all its workers should not serve at all.
    ///
    /// # Errors
    ///
    /// The spawn or announce failure of the first worker that broke.
    pub fn start(
        command: WorkerCommand,
        workers: usize,
        metrics: Arc<RouterMetrics>,
    ) -> std::io::Result<Arc<Supervisor>> {
        let slots: Vec<Arc<Slot>> = (0..workers)
            .map(|index| {
                Arc::new(Slot {
                    index,
                    state: Mutex::new(SlotState {
                        up: false,
                        addr: None,
                        generation: 0,
                        respawns: 0,
                        max_seq: 0,
                        child: None,
                    }),
                })
            })
            .collect();
        let supervisor = Arc::new(Supervisor {
            command,
            slots,
            metrics,
            shutting_down: Arc::new(AtomicBool::new(false)),
            babysitters: Mutex::new(Vec::new()),
        });
        for slot in &supervisor.slots {
            let spawned = spawn_worker(&supervisor.command, slot.index)?;
            install_spawn(supervisor.as_ref(), slot, spawned);
        }
        let mut babysitters = lock_recover(&supervisor.babysitters);
        for slot in &supervisor.slots {
            let supervisor_ref = Arc::clone(&supervisor);
            let slot = Arc::clone(slot);
            let handle = std::thread::Builder::new()
                .name(format!("rapd-babysit-{}", slot.index))
                .spawn(move || babysit(&supervisor_ref, &slot))?;
            babysitters.push(handle);
        }
        drop(babysitters);
        Ok(supervisor)
    }

    /// A point-in-time view of one slot.
    pub fn snapshot(&self, index: usize) -> SlotSnapshot {
        let state = lock_recover(&self.slots[index].state);
        SlotSnapshot {
            up: state.up,
            addr: state.addr.clone(),
            pid: state.child.as_ref().map(Child::id),
            generation: state.generation,
            respawns: state.respawns,
            max_seq: state.max_seq,
        }
    }

    /// Stop respawning dead workers. Called *before* the router fans the
    /// `shutdown` verb, so workers exiting after their drain are final.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Wait up to `deadline` for every worker to exit on its own (the
    /// drained exit after a fanned `shutdown` verb), then kill and reap
    /// stragglers. Joins the babysitters. Returns whether every worker
    /// exited without being killed.
    pub fn shutdown(&self, deadline: Duration) -> bool {
        self.begin_shutdown();
        let babysitters: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_recover(&self.babysitters));
        for handle in babysitters {
            let _ = handle.join();
        }
        let until = Instant::now() + deadline;
        let mut all_graceful = true;
        for slot in &self.slots {
            let mut state = lock_recover(&slot.state);
            let Some(mut child) = state.child.take() else {
                continue;
            };
            state.up = false;
            drop(state);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < until => std::thread::sleep(BABYSIT_POLL),
                    Ok(None) => {
                        all_graceful = false;
                        obs::warn(
                            "rapd.supervisor",
                            "worker_killed_at_shutdown",
                            &[("worker", obs::Value::U64(slot.index as u64))],
                        );
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Err(_) => break,
                }
            }
            self.metrics
                .worker(slot.index)
                .up
                .store(0, Ordering::Relaxed);
        }
        all_graceful
    }
}

/// What a successful spawn hands back to the slot bookkeeping.
struct Spawned {
    child: Child,
    addr: String,
    max_seq: u64,
}

/// Record a fresh spawn into the slot and the router metrics, and advance
/// the router's mint counter past the worker's recovered watermark.
fn install_spawn(supervisor: &Supervisor, slot: &Slot, spawned: Spawned) {
    obs::FrameId::advance_past(spawned.max_seq);
    let mut state = lock_recover(&slot.state);
    state.up = true;
    state.addr = Some(spawned.addr);
    state.generation += 1;
    state.max_seq = spawned.max_seq;
    state.child = Some(spawned.child);
    supervisor
        .metrics
        .worker(slot.index)
        .up
        .store(1, Ordering::Relaxed);
}

/// Spawn one worker process and wait for its announce line.
fn spawn_worker(command: &WorkerCommand, index: usize) -> std::io::Result<Spawned> {
    let spool = command.slot_spool(index);
    let mut child = Command::new(&command.exe)
        .args(&command.args)
        .arg("--worker-index")
        .arg(index.to_string())
        .arg("--workers")
        .arg("0")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--metrics-listen")
        .arg("127.0.0.1:0")
        .arg("--spool")
        .arg(&spool)
        // never written: the pipe closes when this process dies, and the
        // worker drains and exits on that end-of-file
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(std::io::Error::other("worker stdout was not piped"));
    };
    let mut reader = BufReader::new(stdout);
    let announce = loop {
        let mut line = String::new();
        // blocks until the worker boots (spool recovery can take a
        // moment); a worker that dies before announcing closes the pipe
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let status = child.wait()?;
            return Err(std::io::Error::other(format!(
                "worker {index} exited before announcing (status {status})"
            )));
        }
        if let Some(parsed) = parse_announce(line.trim(), index) {
            break parsed;
        }
        // tolerate stray pre-announce output (e.g. harness banners)
    };
    // keep the pipe drained so the worker can never block on stdout
    std::thread::Builder::new()
        .name(format!("rapd-worker-{index}-stdout"))
        .spawn(move || {
            let mut sink = String::new();
            let mut reader = reader;
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        })?;
    obs::info(
        "rapd.supervisor",
        "worker_announced",
        &[
            ("worker", obs::Value::U64(index as u64)),
            ("addr", obs::Value::Str(announce.0.clone())),
            ("max_seq", obs::Value::U64(announce.1)),
        ],
    );
    Ok(Spawned {
        child,
        addr: announce.0,
        max_seq: announce.1,
    })
}

/// Parse `rapd-worker <i> listening on <addr> wire <v> seq <max>`;
/// `None` for any other line (skipped, not fatal).
fn parse_announce(line: &str, index: usize) -> Option<(String, u64)> {
    let rest = line.strip_prefix("rapd-worker ")?;
    let (announced_index, rest) = rest.split_once(" listening on ")?;
    if announced_index.trim().parse::<usize>().ok()? != index {
        return None;
    }
    let (addr, rest) = rest.split_once(" wire ")?;
    let (_wire, max_seq) = rest.split_once(" seq ")?;
    Some((addr.trim().to_string(), max_seq.trim().parse().ok()?))
}

/// One slot's babysitter: poll the child, and respawn it (under backoff)
/// whenever it dies outside shutdown.
fn babysit(supervisor: &Supervisor, slot: &Slot) {
    let mut backoff = Backoff::new(
        Duration::from_millis(50),
        Duration::from_secs(2),
        0x5eed ^ slot.index as u64,
    );
    while !supervisor.shutting_down.load(Ordering::SeqCst) {
        let died = {
            let mut state = lock_recover(&slot.state);
            match state.child.as_mut().map(Child::try_wait) {
                Some(Ok(Some(status))) => {
                    state.up = false;
                    state.child = None;
                    Some(status)
                }
                _ => None,
            }
        };
        let Some(status) = died else {
            backoff.reset();
            std::thread::sleep(BABYSIT_POLL);
            continue;
        };
        supervisor
            .metrics
            .worker(slot.index)
            .up
            .store(0, Ordering::Relaxed);
        obs::warn(
            "rapd.supervisor",
            "worker_died",
            &[
                ("worker", obs::Value::U64(slot.index as u64)),
                ("status", obs::Value::Str(status.to_string())),
            ],
        );
        // respawn under backoff; the slot stays down (frames park at the
        // router) until the fresh process recovers its spool and announces
        while !supervisor.shutting_down.load(Ordering::SeqCst) {
            std::thread::sleep(backoff.next_delay());
            match spawn_worker(&supervisor.command, slot.index) {
                Ok(spawned) => {
                    install_spawn(supervisor, slot, spawned);
                    {
                        let mut state = lock_recover(&slot.state);
                        state.respawns += 1;
                    }
                    supervisor
                        .metrics
                        .worker(slot.index)
                        .respawns
                        .fetch_add(1, Ordering::Relaxed);
                    backoff.reset();
                    break;
                }
                Err(e) => {
                    obs::warn(
                        "rapd.supervisor",
                        "worker_respawn_failed",
                        &[
                            ("worker", obs::Value::U64(slot.index as u64)),
                            ("error", obs::Value::Str(e.to_string())),
                        ],
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_lines_parse_and_reject_mismatches() {
        assert_eq!(
            parse_announce(
                "rapd-worker 2 listening on 127.0.0.1:45123 wire 1 seq 417",
                2
            ),
            Some(("127.0.0.1:45123".to_string(), 417))
        );
        // index mismatch: a slot must not adopt another slot's announce
        assert_eq!(
            parse_announce("rapd-worker 1 listening on 127.0.0.1:1 wire 1 seq 0", 2),
            None
        );
        assert_eq!(parse_announce("some banner line", 0), None);
        assert_eq!(
            parse_announce("rapd-worker 0 listening on addr wire 1 seq nope", 0),
            None
        );
    }

    #[test]
    fn slot_spools_are_per_worker() {
        let cmd = WorkerCommand {
            exe: PathBuf::from("/bin/true"),
            args: vec!["serve".to_string()],
            spool_root: PathBuf::from("/tmp/fleet"),
        };
        assert_eq!(cmd.slot_spool(0), PathBuf::from("/tmp/fleet/worker-0"));
        assert_eq!(cmd.slot_spool(7), PathBuf::from("/tmp/fleet/worker-7"));
    }
}
