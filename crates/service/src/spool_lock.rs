//! One owner per spool directory.
//!
//! Before a daemon opens its incident and quarantine spools, blackbox,
//! WAL or checkpoint store, it takes an exclusive advisory lock on
//! `<spool>/rapd.lock` and writes its pid into the file. The lock lives
//! as long as the daemon core; the kernel releases it when the process
//! dies, so a `kill -9` never leaves a stale lock behind.
//!
//! A contended lock is retried for [`SPOOL_LOCK_WAIT`]: a fleet worker
//! respawned right after its router was killed finds the previous worker
//! still draining for tens of milliseconds, and waits it out. A second
//! daemon pointed at a live one's spool gives up after the wait and
//! names the holder's pid.

use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::server::StartError;

/// The lock file's name inside the spool directory.
const LOCK_FILE: &str = "rapd.lock";

/// How long boot waits for another process to release the spool.
pub(crate) const SPOOL_LOCK_WAIT: Duration = Duration::from_secs(2);

/// Pause between attempts on a contended lock.
const RETRY_INTERVAL: Duration = Duration::from_millis(10);

/// An exclusive lock on one spool directory, released on drop.
#[derive(Debug)]
pub(crate) struct SpoolLock {
    _file: File,
}

impl SpoolLock {
    /// Lock `dir` (creating it if needed), waiting up to `wait` for a
    /// holder to let go, then record this process's pid in the lock file.
    ///
    /// # Errors
    ///
    /// [`StartError::SpoolLocked`] when another process still holds the
    /// lock after `wait`, [`StartError::Io`] when the lock file cannot be
    /// created, locked or written.
    pub(crate) fn acquire(dir: &Path, wait: Duration) -> Result<SpoolLock, StartError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let deadline = Instant::now() + wait;
        loop {
            match file.try_lock() {
                Ok(()) => break,
                Err(TryLockError::WouldBlock) if Instant::now() < deadline => {
                    std::thread::sleep(RETRY_INTERVAL);
                }
                Err(TryLockError::WouldBlock) => {
                    let pid = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    return Err(StartError::SpoolLocked {
                        spool: dir.to_path_buf(),
                        pid,
                    });
                }
                Err(TryLockError::Error(e)) => return Err(e.into()),
            }
        }
        // the file was opened without truncation so a contender can read
        // the holder's pid; the new holder replaces it
        file.set_len(0)?;
        writeln!(file, "{}", std::process::id())?;
        Ok(SpoolLock { _file: file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_held_spool_is_refused_with_the_holders_pid_and_freed_on_drop() {
        let dir = std::env::temp_dir().join(format!("rapd-spool-lock-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let held = SpoolLock::acquire(&dir, Duration::ZERO).expect("uncontended lock");
        let recorded = fs::read_to_string(dir.join(LOCK_FILE)).expect("lock file");
        assert_eq!(recorded.trim(), std::process::id().to_string());
        match SpoolLock::acquire(&dir, Duration::from_millis(30)) {
            Err(StartError::SpoolLocked { spool, pid }) => {
                assert_eq!(spool, dir);
                assert_eq!(pid, Some(std::process::id()));
            }
            other => panic!("a held spool must be refused, got {other:?}"),
        }
        drop(held);
        SpoolLock::acquire(&dir, Duration::ZERO).expect("released on drop");
        let _ = fs::remove_dir_all(&dir);
    }
}
