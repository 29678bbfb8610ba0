//! The one durable-log primitive under rapd's spools and journals.
//!
//! The incident spool, the per-tenant quarantine spools and the frame WAL
//! (with its schema journal) are each a [`SegmentLog`]: one directory of
//! `<stem>.jsonl` segments. This module is the only code that appends to,
//! repairs or reads them; checkpoints and blackbox dumps share its framing
//! and its atomic [`replace`] (temp file, `sync_all`, rename).
//!
//! A record is one line, `{json}\t{crc32:08x}`: the IEEE CRC-32 of the
//! JSON bytes, hex-encoded after a tab. [`unframe`] judges a line
//! `Verified`, `Legacy` (a bare JSON object from before checksumming,
//! accepted read-only) or `Corrupt`.
//!
//! A [`SegmentLog`] writes each record with one `write_all` under one lock
//! for all its segments, and its [`LogSpec`] sets the policy: `sync_data`
//! after every append (`--wal-fsync`, WAL only; otherwise a record
//! survives `kill -9` from the page cache but not power loss); rotation to
//! `<stem>.jsonl.1`, after a `sync_all`, past `--spool-max-bytes`
//! (incident and quarantine spools); and the log's metrics and failpoint.
//! The first write error latches the log degraded — its error counter and
//! degraded gauge move, one warning is logged, and it stops touching the
//! disk: durability degrades, service does not. Before a segment's first
//! append in a process its torn tail — what a crash mid-write leaves — is
//! repaired: intact lines are kept, torn or corrupt ones dropped, and the
//! file is rewritten through [`replace`] only when something had to go.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::sync::lock_recover;

/// The CRC of every byte value, one table step per input byte instead of
/// eight bit steps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (polynomial `0xEDB88320`). Every framed line goes through
/// it — WAL appends on the ingest path included — so it is table-driven.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
        CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// Frame a rendered payload in place — `{payload}\t{crc32:08x}\n` — so a
/// record is one buffer from render to `write_all`.
pub(crate) fn frame(mut payload: String) -> String {
    let crc = crc32(payload.as_bytes());
    let _ = writeln!(payload, "\t{crc:08x}");
    payload
}

/// Verdict on one scanned line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineVerdict {
    /// CRC suffix present and correct.
    Verified,
    /// No CRC suffix, but the whole line parses as a JSON object
    /// (a spool written before checksumming existed).
    Legacy,
    /// Torn or corrupt: drop it.
    Corrupt,
}

/// Judge one line and strip its CRC suffix: the verdict and the JSON
/// payload (the whole line when legacy, empty when corrupt).
pub(crate) fn unframe(line: &str) -> (LineVerdict, &str) {
    if let Some((json, suffix)) = line.rsplit_once('\t') {
        if suffix.len() == 8
            && suffix.bytes().all(|c| c.is_ascii_hexdigit())
            && u32::from_str_radix(suffix, 16) == Ok(crc32(json.as_bytes()))
        {
            return (LineVerdict::Verified, json);
        }
    }
    match crate::json::parse(line) {
        Ok(Json::Obj(_)) => (LineVerdict::Legacy, line),
        _ => (LineVerdict::Corrupt, ""),
    }
}

/// What a repair found when scanning an existing segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolRecovery {
    /// Lines whose CRC-32 suffix verified.
    pub recovered: u64,
    /// Pre-CRC lines accepted read-only because they parse as JSON.
    pub legacy: u64,
    /// Torn or corrupt bytes dropped from the file.
    pub truncated_bytes: u64,
}

/// Map a tenant id onto a safe, collision-free file stem: anything
/// outside `[A-Za-z0-9_-]` becomes `_`, so a hostile tenant string
/// cannot escape its log directory, and any name that needed replacement
/// carries a CRC32 suffix of its raw bytes so two distinct tenants
/// (`a.b`, `a:b`) can never collapse onto one stem — the WAL and
/// checkpoint store key files by stem, so a shared stem would
/// cross-corrupt their journals and snapshots. Already-safe names keep
/// their exact stem (and their existing on-disk files); sanitizing is
/// idempotent either way, since a hashed stem is itself all safe
/// characters.
pub(crate) fn sanitize_tenant(tenant: &str) -> String {
    let mut lossy = tenant.is_empty();
    let stem: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                lossy = true;
                '_'
            }
        })
        .collect();
    if !lossy {
        return stem;
    }
    let stem = if stem.is_empty() {
        "_".to_string()
    } else {
        stem
    };
    format!("{stem}-{:08x}", crc32(tenant.as_bytes()))
}

/// The file holding `stem`'s segment in a log directory.
pub(crate) fn segment_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.jsonl"))
}

/// Atomically replace `path` with `data`: write a `.tmp` sibling,
/// `sync_all` it, run `before_rename` (where a checkpoint demotes its
/// previous generation), and rename the temp file into place. A crash at
/// any point leaves the old file or the new one, never a torn one.
pub(crate) fn replace(
    path: &Path,
    data: &[u8],
    before_rename: impl FnOnce() -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
    }
    before_rename()?;
    fs::rename(&tmp, path)
}

/// Read `path` once, judge every line, and hand each intact payload to
/// `keep`. With `rewrite`, the file is replaced by the lines `keep`
/// accepted when any line was dropped or the last one lost its newline (a
/// verified but unterminated line is kept and re-terminated); the flag in
/// the result says whether that happened. A missing file is empty.
fn scan_file(
    path: &Path,
    rewrite: bool,
    keep: &mut dyn FnMut(&str) -> bool,
) -> io::Result<(SpoolRecovery, bool)> {
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut recovery = SpoolRecovery::default();
    if data.is_empty() {
        return Ok((recovery, false));
    }
    // the kept lines are copied only from the first dropped one on: until
    // then they are a prefix of `data`
    let mut kept: Option<Vec<u8>> = None;
    let mut kept_len = 0u64;
    let mut start = 0;
    let body = data.strip_suffix(b"\n").unwrap_or(&data);
    for line in body.split(|&b| b == b'\n') {
        let prefix = start;
        start += line.len() + 1;
        // a tail torn inside a multi-byte character is not UTF-8
        let (verdict, payload) =
            std::str::from_utf8(line).map_or((LineVerdict::Corrupt, ""), unframe);
        match verdict {
            LineVerdict::Verified => recovery.recovered += 1,
            LineVerdict::Legacy => recovery.legacy += 1,
            LineVerdict::Corrupt => {}
        }
        if verdict == LineVerdict::Corrupt || !keep(payload) {
            if rewrite && kept.is_none() {
                kept = Some(data[..prefix].to_vec());
            }
            continue;
        }
        kept_len += line.len() as u64 + 1;
        if let Some(kept) = &mut kept {
            kept.extend_from_slice(line);
            kept.push(b'\n');
        }
    }
    recovery.truncated_bytes = (data.len() as u64).saturating_sub(kept_len);
    let rewritten = rewrite && (kept.is_some() || !data.ends_with(b"\n"));
    if rewritten {
        let kept = kept.unwrap_or_else(|| [&data[..], b"\n"].concat());
        replace(path, &kept, || Ok(()))?;
    }
    Ok((recovery, rewritten))
}

/// Hand every intact payload of the segment file at `path` to `visit`,
/// read-only: no repair, so a reader may look at a live log another
/// process is appending to. A missing or unreadable file yields nothing.
pub(crate) fn read_payloads(path: &Path, mut visit: impl FnMut(&str)) {
    let _ = scan_file(path, false, &mut |payload| {
        visit(payload);
        true
    });
}

/// Picks one of a log's counters out of the daemon's [`Metrics`].
pub(crate) type Counter = fn(&Metrics) -> &AtomicU64;

/// How one log reports itself, and what its appends promise.
#[derive(Debug)]
pub(crate) struct LogSpec {
    /// Event target of the log's events.
    pub target: &'static str,
    /// The warning logged once, when the log latches degraded.
    pub degraded_event: &'static str,
    /// The failpoint that fails an append (`--features fail`).
    pub failpoint: &'static str,
    /// The log's write-error counter.
    pub errors: Counter,
    /// The log's degraded gauge. It is also the latch, so the log,
    /// `/metrics` and `health` cannot disagree.
    pub degraded: Counter,
    /// Rotate a segment past this many bytes, counting it here; `None`
    /// or a cap of 0 disables rotation.
    pub rotate: Option<(u64, Counter)>,
    /// `sync_data` every append (machine-crash durability) instead of
    /// relying on the page cache (process-crash durability).
    pub fsync: bool,
}

/// One directory of `<stem>.jsonl` segments; see the module docs.
#[derive(Debug)]
pub(crate) struct SegmentLog {
    dir: PathBuf,
    spec: LogSpec,
    metrics: Arc<Metrics>,
    /// Every segment this process has repaired, by stem, with its append
    /// handle once open. This lock is the segment lock: an append holds
    /// it across its write and any rotation, and [`SegmentLog::scan`]
    /// across its whole read–rewrite–rename, so an append lands wholly
    /// before or after a rewrite, never into the replaced inode.
    segments: Mutex<HashMap<String, Option<Open>>>,
}

#[derive(Debug)]
struct Open {
    file: File,
    /// Size of the file, for rotation.
    bytes: u64,
}

impl SegmentLog {
    /// Open (creating) the log directory. Segments open on first append,
    /// or eagerly through [`SegmentLog::open_segment`].
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: PathBuf, spec: LogSpec, metrics: Arc<Metrics>) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(SegmentLog {
            dir,
            spec,
            metrics,
            segments: Mutex::new(HashMap::new()),
        })
    }

    /// The file holding `stem`'s segment.
    pub fn path(&self, stem: &str) -> PathBuf {
        segment_path(&self.dir, stem)
    }

    /// The file holding `stem`'s previous segment, once it has rotated.
    pub fn rotated_path(&self, stem: &str) -> PathBuf {
        self.path(stem).with_extension("jsonl.1")
    }

    /// Whether a write error has latched the log degraded.
    pub fn degraded(&self) -> bool {
        (self.spec.degraded)(&self.metrics).load(Ordering::Relaxed) != 0
    }

    /// Open `stem`'s append handle now rather than at its first append.
    ///
    /// # Errors
    ///
    /// Fails when the segment cannot be repaired or opened.
    pub fn open_segment(&self, stem: &str) -> io::Result<()> {
        self.handle(&mut lock_recover(&self.segments), stem)
            .map(drop)
    }

    /// Append one [`frame`]d record to `stem`'s segment; `false` when it
    /// did not land. The first failure latches the log degraded, and
    /// every later append is refused without touching the disk.
    pub fn append(&self, stem: &str, record: &str) -> bool {
        if self.degraded() {
            return false;
        }
        let result = self.write(&mut lock_recover(&self.segments), stem, record);
        let Err(e) = result else { return true };
        (self.spec.errors)(&self.metrics).fetch_add(1, Ordering::Relaxed);
        if (self.spec.degraded)(&self.metrics).swap(1, Ordering::Relaxed) == 0 {
            obs::warn(
                self.spec.target,
                self.spec.degraded_event,
                &[
                    ("error", obs::Value::Str(e.to_string())),
                    (
                        "path",
                        obs::Value::Str(self.path(stem).display().to_string()),
                    ),
                ],
            );
        }
        false
    }

    fn write(
        &self,
        segments: &mut HashMap<String, Option<Open>>,
        stem: &str,
        record: &str,
    ) -> io::Result<()> {
        let open = self.handle(segments, stem)?;
        if obs::fail::should_error(self.spec.failpoint) {
            return Err(io::Error::other(format!(
                "injected {}",
                self.spec.failpoint
            )));
        }
        open.file.write_all(record.as_bytes())?;
        if self.spec.fsync {
            open.file.sync_data()?;
        }
        open.bytes += record.len() as u64;
        let Some((max_bytes, rotations)) = self.spec.rotate else {
            return Ok(());
        };
        if max_bytes == 0 || open.bytes <= max_bytes {
            return Ok(());
        }
        // rotate: the synced segment becomes `.jsonl.1`, evicting the
        // previous one, and appends continue in a fresh file
        open.file.sync_all()?;
        let path = self.path(stem);
        let old = self.rotated_path(stem);
        match fs::remove_file(&old) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        fs::rename(&path, &old)?;
        open.file = OpenOptions::new().create(true).append(true).open(&path)?;
        open.bytes = 0;
        rotations(&self.metrics).fetch_add(1, Ordering::Relaxed);
        obs::info(
            self.spec.target,
            "spool_rotated",
            &[("path", obs::Value::Str(path.display().to_string()))],
        );
        Ok(())
    }

    /// `stem`'s open segment, repairing the file first when this process
    /// has not touched it yet.
    fn handle<'a>(
        &self,
        segments: &'a mut HashMap<String, Option<Open>>,
        stem: &str,
    ) -> io::Result<&'a mut Open> {
        if !matches!(segments.get(stem), Some(Some(_))) {
            let path = self.path(stem);
            if !segments.contains_key(stem) {
                scan_file(&path, true, &mut |_| true)?;
            }
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            let bytes = file.metadata().map_or(0, |m| m.len());
            segments.insert(stem.to_string(), Some(Open { file, bytes }));
        }
        Ok(segments
            .get_mut(stem)
            .and_then(Option::as_mut)
            .expect("opened above"))
    }

    /// Repair `stem`'s segment now, under the segment lock: hand each
    /// intact payload to `keep`, and rewrite the file without the torn or
    /// corrupt lines and the ones `keep` rejects. Returns what the scan
    /// found and whether the file was rewritten; the segment's next
    /// append skips the repair. A missing segment is empty, not an error.
    ///
    /// # Errors
    ///
    /// Fails when the segment cannot be read or rewritten.
    pub fn scan(
        &self,
        stem: &str,
        mut keep: impl FnMut(&str) -> bool,
    ) -> io::Result<(SpoolRecovery, bool)> {
        let mut segments = lock_recover(&self.segments);
        let (recovery, rewritten) = scan_file(&self.path(stem), true, &mut keep)?;
        let slot = segments.entry(stem.to_string()).or_insert(None);
        if rewritten {
            // an open handle would still point at the replaced inode
            *slot = None;
        }
        Ok((recovery, rewritten))
    }

    /// [`SegmentLog::scan`] every segment in the directory, handing
    /// `keep` the stem with each payload. A segment that cannot be read
    /// or repaired is logged and skipped: a log never refuses boot.
    pub fn scan_all(&self, mut keep: impl FnMut(&str, &str) -> bool) {
        let Ok(listing) = fs::read_dir(&self.dir) else {
            return;
        };
        for dirent in listing.flatten() {
            let name = dirent.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".jsonl")) else {
                continue;
            };
            if let Err(e) = self.scan(stem, |payload| keep(stem, payload)) {
                obs::warn(
                    self.spec.target,
                    "segment_unreadable",
                    &[
                        ("path", obs::Value::Str(dirent.path().display().to_string())),
                        ("error", obs::Value::Str(e.to_string())),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-seg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn log(dir: &Path) -> SegmentLog {
        let spec = LogSpec {
            target: "test",
            degraded_event: "test_degraded",
            failpoint: "test-write-error",
            errors: |m| &m.spool_write_errors,
            degraded: |m| &m.spool_degraded,
            rotate: None,
            fsync: false,
        };
        SegmentLog::open(dir.to_path_buf(), spec, Arc::new(Metrics::new(1))).unwrap()
    }

    fn record(n: u64) -> String {
        frame(format!(r#"{{"n":{n},"name":"é"}}"#))
    }

    #[test]
    fn a_tail_torn_inside_a_character_is_truncated_not_fatal() {
        let dir = scratch("utf8");
        let log = log(&dir);
        let intact = record(1);
        let torn = record(2);
        // cut the second record inside the two-byte `é`
        let cut = torn.find('é').unwrap() + 1;
        let mut bytes = intact.clone().into_bytes();
        bytes.extend_from_slice(&torn.as_bytes()[..cut]);
        fs::write(log.path("t"), &bytes).unwrap();
        let mut seen = Vec::new();
        let (recovery, rewritten) = log
            .scan("t", |payload| {
                seen.push(payload.to_string());
                true
            })
            .unwrap();
        assert!(rewritten);
        assert_eq!(recovery.recovered, 1);
        assert_eq!(recovery.truncated_bytes, cut as u64);
        assert_eq!(seen, [intact.trim_end().rsplit_once('\t').unwrap().0]);
        assert!(log.append("t", &record(3)));
        assert_eq!(
            fs::read_to_string(log.path("t")).unwrap(),
            format!("{intact}{}", record(3))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_clean_segment_is_never_rewritten() {
        let dir = scratch("clean");
        let log = log(&dir);
        assert_eq!(
            log.scan("t", |_| true).unwrap(),
            (SpoolRecovery::default(), false)
        );
        fs::write(log.path("t"), record(1) + &record(2)).unwrap();
        let (recovery, rewritten) = log.scan("t", |_| true).unwrap();
        assert_eq!((recovery.recovered, rewritten), (2, false));
        // a dropped empty line and a verified line that lost its newline
        // leave the byte count unchanged, and still force the rewrite
        let one = record(1);
        let two = record(2);
        fs::write(log.path("t"), format!("{one}\n{}", two.trim_end())).unwrap();
        let (recovery, rewritten) = log.scan("t", |_| true).unwrap();
        assert_eq!((recovery.recovered, rewritten), (2, true));
        assert_eq!(fs::read_to_string(log.path("t")).unwrap(), one + &two);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unreadable_segment_is_skipped_at_recovery() {
        let dir = scratch("unreadable");
        let log = log(&dir);
        fs::create_dir_all(log.path("bad")).unwrap();
        fs::write(log.path("good"), record(1)).unwrap();
        fs::write(dir.join("good.jsonl.1"), record(9)).unwrap();
        let mut seen = Vec::new();
        log.scan_all(|stem, payload| {
            seen.push((stem.to_string(), payload.to_string()));
            true
        });
        assert_eq!(
            seen,
            [("good".to_string(), r#"{"n":1,"name":"é"}"#.to_string())]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_leaves_the_old_file_when_it_fails() {
        let dir = scratch("replace");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.json");
        replace(&path, b"one", || Ok(())).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        let refused = replace(&path, b"two", || Err(io::Error::other("no")));
        assert!(refused.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"one");
        replace(&path, b"two", || Ok(())).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        fs::remove_dir_all(&dir).unwrap();
    }
}
