//! The load generator: one data connection driven by exactly two threads
//! (a writer and a reader), plus an incident poller on the calling
//! thread over the control connection.
//!
//! The paced phase is open-loop: frame `k` is due at `k / fps` whatever
//! the daemon does, and its ack latency is timed from that due time, so
//! a stall also charges the frames queued behind it. The saturation
//! phase sends as fast as the daemon takes frames, up to a per-workload
//! number in flight.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

use service::json::Json;

use crate::daemon::Control;
use crate::inputs::Book;

/// Milliseconds between consecutive timestamps of one tenant.
const TS_STRIDE_MS: u64 = 60_000;

/// Frames in flight allowed in the paced phase before the writer would
/// block (and report itself behind schedule).
const PACED_WINDOW: usize = 1 << 14;

/// How often the poller asks for incidents, and how many it asks for.
/// The limit stays small so a poll costs the same when the ring is full.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
const POLL_LIMIT: usize = 4;
/// The limit of the single sweep after the final flush barrier.
const FINAL_POLL_LIMIT: usize = 256;

/// The client side of one daemon run: the data connection (replies
/// arrive in request order), the book it replays, and each tenant's
/// position in that book, which keeps timestamps rising across phases.
pub struct Client<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    book: &'a Book,
    steps: Vec<u64>,
    /// Every time the client records is in ns from here.
    epoch: Instant,
}

impl<'a> Client<'a> {
    pub fn connect(addr: &str, book: &'a Book) -> Result<Client<'a>, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        // a hung daemon must not hang the benchmark
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        stream.set_write_timeout(Some(Duration::from_secs(60))).ok();
        let reader = BufReader::with_capacity(
            1 << 16,
            stream
                .try_clone()
                .map_err(|e| format!("clone data stream: {e}"))?,
        );
        Ok(Client {
            writer: stream,
            reader,
            book,
            steps: vec![0; book.frames.tenants.len()],
            epoch: Instant::now(),
        })
    }

    /// Drive one phase, then pass the flush barrier on `control`. With a
    /// `poller`, incidents are polled on this thread while the writer and
    /// reader run, and swept once more after the barrier.
    pub fn drive(
        &mut self,
        control: &mut Control,
        pace: Pace,
        secs: f64,
        mut poller: Option<&mut Poller>,
    ) -> Result<PhaseStats, String> {
        let window = match pace {
            Pace::Fps(_) => PACED_WINDOW,
            Pace::Saturate(window) => window,
        };
        let (tx, rx) = sync_channel::<Meta>(window);
        let epoch = self.epoch;
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let Client {
            writer,
            reader,
            book,
            steps,
            ..
        } = self;
        let (written, read, polled) = std::thread::scope(|scope| {
            let w = scope.spawn(|| writer_loop(writer, tx, book, steps, pace, secs, epoch));
            let r = scope.spawn(|| reader_loop(reader, rx, epoch));
            let mut polled = Ok(());
            if let Some(p) = poller.as_deref_mut() {
                while !(w.is_finished() && r.is_finished()) && polled.is_ok() {
                    polled = p.poll(control, epoch, POLL_LIMIT);
                    std::thread::sleep(POLL_INTERVAL);
                }
            }
            (
                w.join().expect("writer thread panicked"),
                r.join().expect("reader thread panicked"),
                polled,
            )
        });
        polled?;
        let behind_ms = written?;
        let mut stats = read?;

        control.flush()?;
        stats.start_ns = start_ns;
        stats.end_ns = epoch.elapsed().as_nanos() as u64;
        stats.behind_ms = behind_ms;
        if let Some(p) = poller {
            p.poll(control, epoch, FINAL_POLL_LIMIT)?;
        }
        Ok(stats)
    }
}

/// One load phase.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop at this many frames per second.
    Fps(f64),
    /// As fast as the daemon takes frames, at most this many in flight.
    Saturate(usize),
}

/// What the writer hands the reader, in wire order.
struct Meta {
    /// When the frame was due (paced) or sent (saturation), ns from epoch.
    due_ns: u64,
    leaves: u32,
    anomalous: bool,
    tenant: usize,
}

/// Everything one phase measured from the client side.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub sent: u64,
    pub acked: u64,
    pub leaves_acked: u64,
    /// Client ack latencies, ms from due time.
    pub ack_ms: Vec<f64>,
    /// The daemon's own `ack_us` stamps, ms.
    pub stamp_ms: Vec<f64>,
    /// How late each paced send was, ms.
    pub behind_ms: Vec<f64>,
    /// Injected frames: correlation token → (due ns, tenant).
    pub injected: HashMap<String, (u64, usize)>,
    /// When the last ack arrived, ns from epoch.
    pub last_ack_ns: u64,
    /// Replies that were not acks, with the first one kept for the report.
    pub refused: u64,
    pub first_refusal: Option<String>,
    /// Phase start and return of the flush barrier after it, ns from epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl PhaseStats {
    /// First send to return of the flush barrier, s.
    pub fn elapsed_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One incident the poller saw.
#[derive(Debug, Clone)]
pub struct Seen {
    pub at_ns: u64,
    pub raps: Vec<String>,
}

/// Collects incidents over the control connection.
#[derive(Default)]
pub struct Poller {
    pub seen: HashMap<String, Seen>,
    pub polls: u64,
}

impl Poller {
    fn poll(&mut self, control: &mut Control, epoch: Instant, limit: usize) -> Result<(), String> {
        let doc = control.request_json(&format!(r#"{{"type":"incidents","limit":{limit}}}"#))?;
        let at_ns = epoch.elapsed().as_nanos() as u64;
        self.polls += 1;
        for incident in doc.get("incidents").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(token) = incident.get("frame").and_then(Json::as_str) else {
                continue;
            };
            if self.seen.contains_key(token) {
                continue;
            }
            let raps = incident
                .get("raps")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|r| r.as_arr()?.first()?.as_str().map(str::to_string))
                .collect();
            self.seen.insert(token.to_string(), Seen { at_ns, raps });
        }
        Ok(())
    }
}

/// Sleep until `target_ns` after `epoch`, yielding for the last stretch
/// instead of spinning on a core the daemon needs.
fn wait_until(epoch: Instant, target_ns: u64) -> u64 {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= target_ns {
            return now;
        }
        let rest = target_ns - now;
        if rest > 300_000 {
            std::thread::sleep(Duration::from_nanos(rest - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

fn writer_loop(
    writer: &mut TcpStream,
    tx: SyncSender<Meta>,
    book: &Book,
    steps: &mut [u64],
    pace: Pace,
    secs: f64,
    epoch: Instant,
) -> Result<Vec<f64>, String> {
    let tenants = &book.frames.tenants;
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let end_ns = start_ns + (secs * 1e9) as u64;
    let mut behind_ms = Vec::new();
    let mut buf = Vec::with_capacity(1 << 15);
    for k in 0u64.. {
        let due_ns = match pace {
            Pace::Fps(fps) => {
                let due = start_ns + (k as f64 * 1e9 / fps) as u64;
                if due >= end_ns {
                    break;
                }
                let now = wait_until(epoch, due);
                behind_ms.push((now - due) as f64 / 1e6);
                due
            }
            Pace::Saturate(_) => {
                let now = epoch.elapsed().as_nanos() as u64;
                if now >= end_ns {
                    break;
                }
                now
            }
        };
        let tenant = (k % tenants.len() as u64) as usize;
        let step = steps[tenant];
        steps[tenant] += 1;
        let book_tenant = &tenants[tenant];
        let idx = (step % book_tenant.lines.len() as u64) as usize;
        let line = &book_tenant.lines[idx];
        let meta = Meta {
            due_ns,
            leaves: book_tenant.leaves[idx],
            anomalous: book_tenant.anomalous[idx],
            tenant,
        };
        if tx.send(meta).is_err() {
            return Err("reader stopped early".to_string());
        }
        // splice `,"ts":N}` over the closing brace: every delivery
        // advances its tenant's watermark
        buf.clear();
        buf.extend_from_slice(&line.as_bytes()[..line.len() - 1]);
        buf.extend_from_slice(format!(r#","ts":{}}}"#, step * TS_STRIDE_MS).as_bytes());
        buf.push(b'\n');
        writer
            .write_all(&buf)
            .map_err(|e| format!("send frame: {e}"))?;
    }
    Ok(behind_ms)
}

/// The value of a numeric field in a compact JSON reply, by substring.
fn field_u64(reply: &str, key: &str) -> Option<u64> {
    let pat = format!(r#""{key}":"#);
    let start = reply.find(&pat)? + pat.len();
    let digits: &str = &reply[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

fn field_str<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!(r#""{key}":""#);
    let start = reply.find(&pat)? + pat.len();
    let rest = &reply[start..];
    Some(&rest[..rest.find('"')?])
}

/// Whether a reply acknowledges a queued frame (not parked, shed,
/// quarantined, duplicate or an error).
fn is_ack(reply: &str) -> bool {
    reply.starts_with(r#"{"type":"ok""#)
        && reply.contains(r#""queued":true"#)
        && !reply.contains(r#""parked":true"#)
        && !reply.contains(r#""duplicate":true"#)
}

fn reader_loop(
    reader: &mut BufReader<TcpStream>,
    rx: Receiver<Meta>,
    epoch: Instant,
) -> Result<PhaseStats, String> {
    let mut stats = PhaseStats::default();
    let mut line = String::new();
    for meta in rx.iter() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("rapd closed the data connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("read reply: {e}")),
        }
        let now = epoch.elapsed().as_nanos() as u64;
        stats.sent += 1;
        if !is_ack(&line) {
            stats.refused += 1;
            stats
                .first_refusal
                .get_or_insert_with(|| line.trim().to_string());
            continue;
        }
        stats.acked += 1;
        stats.leaves_acked += u64::from(meta.leaves);
        stats.last_ack_ns = now;
        stats
            .ack_ms
            .push(now.saturating_sub(meta.due_ns) as f64 / 1e6);
        if let Some(us) = field_u64(&line, "ack_us") {
            stats.stamp_ms.push(us as f64 / 1e3);
        }
        if meta.anomalous {
            if let Some(token) = field_str(&line, "frame") {
                stats
                    .injected
                    .insert(token.to_string(), (meta.due_ns, meta.tenant));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::json::parse;

    #[test]
    fn replies_are_read_by_substring() {
        let ack = r#"{"type":"ok","queued":true,"frame":"lt0-0000002a-17","repaired":false,"ack_us":137}"#;
        assert!(is_ack(ack));
        assert_eq!(field_u64(ack, "ack_us"), Some(137));
        assert_eq!(field_str(ack, "frame"), Some("lt0-0000002a-17"));
        assert!(!is_ack(r#"{"type":"ok","queued":true,"parked":true}"#));
        assert!(!is_ack(
            r#"{"type":"ok","queued":false,"quarantined":true,"reason":"late"}"#
        ));
        assert!(!is_ack(r#"{"type":"error","reason":"bad request"}"#));
        assert_eq!(field_u64(r#"{"type":"ok"}"#, "ack_us"), None);
    }

    #[test]
    fn parsed_replies_agree_with_the_probe() {
        let ack = r#"{"type":"ok","queued":true,"frame":"t-1","ack_us":9}"#;
        let doc = parse(ack).unwrap();
        assert_eq!(
            doc.get("ack_us").and_then(Json::as_u64),
            field_u64(ack, "ack_us")
        );
    }
}
