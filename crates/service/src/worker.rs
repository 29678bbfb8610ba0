//! The fleet worker: a full rapd core behind a framed wire listener.
//!
//! A worker is rapd minus the public NDJSON front door: the same boot
//! (spools, WAL, checkpoint store, shard pool, crash recovery, metrics
//! listener) on its own per-worker spool directory, serving the
//! length-prefixed wire protocol of [`crate::proto`] instead of raw
//! NDJSON. The router is its only client; every connection starts with a
//! version handshake and then carries one envelope per request.
//!
//! Workers are spawned and babysat by the router process (see
//! the `supervisor` module). On boot a worker prints one announce line to
//! stdout — `rapd-worker <i> listening on <addr> wire <v> seq <max>` —
//! which the supervisor parses for the bound address (workers bind port
//! 0) and the recovered sequence watermark. Everything a worker admits is
//! journaled in its own WAL before the acknowledgment crosses the wire,
//! so a `kill -9` of the worker loses nothing the router saw acked: the
//! respawned worker replays its spool, re-announces, and the router
//! redelivers anything that was in flight (deduplicated by the worker's
//! per-tenant sequence watermark).
//!
//! A worker never outlives its router: its stdin is a pipe the supervisor
//! holds and never writes to, and end-of-file on it (the router died)
//! drains the worker as the `shutdown` verb does and ends the process.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::ServiceConfig;
use crate::proto::{
    hello_ack_frame, negotiate_hello, read_wire_frame, setup_stream, write_wire_frame,
    WireEnvelope, WireRead, READ_POLL, WIRE_VERSION,
};
use crate::server::{dispatch, drain, serve_with, ServerHandle, Shared, StartError};
use crate::shard::LocalizerFactory;

/// Boot one fleet worker: the full rapd core on `config` (spool, WAL,
/// checkpoints, recovery) behind a framed wire listener on
/// `config.listen`.
///
/// # Errors
///
/// [`StartError::Config`] for an invalid [`ServiceConfig`],
/// [`StartError::Io`] when a listener or the spool cannot be created.
pub fn start_worker(
    config: ServiceConfig,
    factory: LocalizerFactory,
    index: usize,
) -> Result<ServerHandle, StartError> {
    let name = format!("rapd-worker-{index}");
    serve_with(config, factory, &name, move |stream, shared, stop| {
        serve_connection(stream, shared, stop, index)
    })
}

/// The one-line stdout announce the supervisor parses: the worker index,
/// bound address, wire version, and the highest frame sequence this
/// worker's crash recovery saw.
pub fn announce_line(index: usize, worker: &ServerHandle) -> String {
    format!(
        "rapd-worker {index} listening on {} wire {WIRE_VERSION} seq {}",
        worker.ingest_addr(),
        worker.shared.recovered_max_seq
    )
}

/// Serve one router connection: handshake, then one envelope per frame.
fn serve_connection(stream: TcpStream, shared: &Shared, stop: &AtomicBool, index: usize) {
    if setup_stream(&stream, Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = stream;
    let max = shared.config.max_frame_bytes.saturating_add(4096);
    let keep_waiting = || !stop.load(Ordering::SeqCst);

    // The first frame must be a hello; anything else gets an error frame
    // and a close, so a misdirected NDJSON client fails fast and loudly.
    let hello = match read_wire_frame(&mut reader, max, keep_waiting) {
        Ok(WireRead::Frame(payload)) => payload,
        _ => return,
    };
    let wire = match negotiate_hello(&String::from_utf8_lossy(&hello)) {
        Ok(wire) => wire,
        Err(error_reply) => {
            let _ = write_wire_frame(&mut writer, error_reply.as_bytes());
            return;
        }
    };
    let ack = hello_ack_frame(wire, index, shared.recovered_max_seq);
    if write_wire_frame(&mut writer, ack.as_bytes()).is_err() {
        return;
    }

    loop {
        let payload = match read_wire_frame(&mut reader, max, keep_waiting) {
            Ok(WireRead::Frame(payload)) => payload,
            Ok(WireRead::Eof | WireRead::Idle) | Err(_) => return,
        };
        let reply = envelope_reply(&String::from_utf8_lossy(&payload), shared);
        if write_wire_frame(&mut writer, reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Dispatch one envelope payload to its raw NDJSON reply line.
fn envelope_reply(payload: &str, shared: &Shared) -> String {
    let envelope = match WireEnvelope::parse(payload) {
        Ok(envelope) => envelope,
        Err(reason) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return crate::json::Json::Obj(vec![
                ("type".to_string(), crate::json::Json::str("error")),
                ("reason".to_string(), crate::json::Json::str(reason)),
            ])
            .render();
        }
    };
    match dispatch(&envelope.line, shared, envelope.frame.as_ref()) {
        Ok(reply) => reply,
        Err(e) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            e.to_reply()
        }
    }
}

/// Entry point for the hidden `serve --worker-index` mode: boot the
/// worker, print the announce line the supervisor parses, and park until
/// the drain. Returns whether the drain was clean (the process should
/// exit nonzero otherwise).
///
/// The supervisor holds the write end of the worker's stdin and never
/// writes to it, so end-of-file there means the router is gone (killed,
/// or exited without draining its fleet). The worker then drains as the
/// `shutdown` verb does and exits. That drain can outlast a router
/// restarted at once on the same spool; the spool lock taken at boot
/// makes the new worker wait for this one to exit before it recovers.
///
/// # Errors
///
/// Any [`StartError`] from [`start_worker`], or the stdin watcher thread
/// failing to spawn.
pub fn run_worker(
    config: ServiceConfig,
    factory: LocalizerFactory,
    index: usize,
) -> Result<bool, StartError> {
    // stdin's handle and buffer are allocated here, on the main thread:
    // the watcher then never allocates, which would cost it an arena
    let stdin = io::stdin();
    let worker = start_worker(config, factory, index)?;
    // the supervisor blocks on this exact line; flush so it never sits in
    // a stdio buffer while the supervisor times out
    println!("{}", announce_line(index, &worker));
    let _ = io::stdout().flush();
    let shared = Arc::clone(&worker.shared);
    // not joined: after a drain by the `shutdown` verb it stays blocked on
    // stdin until the process exits
    std::thread::Builder::new()
        .name(format!("rapd-worker-{index}-stdin"))
        .spawn(move || {
            let mut byte = [0u8; 1];
            loop {
                match stdin.lock().read(&mut byte) {
                    Ok(0) => break,
                    Err(e) if e.kind() != io::ErrorKind::Interrupted => break,
                    _ => {}
                }
            }
            obs::warn(
                "rapd.worker",
                "router_gone",
                &[("worker", obs::Value::U64(index as u64))],
            );
            drain(&shared);
        })?;
    let clean = worker.wait_for_drain();
    worker.shutdown();
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::default_factory;
    use crate::proto::hello_frame;

    fn worker_config(spool: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            listen: "127.0.0.1:0".to_string(),
            metrics_listen: "127.0.0.1:0".to_string(),
            spool_dir: Some(spool.to_path_buf()),
            shards: 1,
            ..ServiceConfig::default()
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn roundtrip(stream: &mut TcpStream, payload: &str) -> String {
        write_wire_frame(stream, payload.as_bytes()).unwrap();
        match read_wire_frame(stream, 1 << 20, || true).unwrap() {
            WireRead::Frame(reply) => String::from_utf8(reply).unwrap(),
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }

    #[test]
    fn worker_speaks_the_framed_protocol_end_to_end() {
        let dir = scratch("e2e");
        let worker = start_worker(worker_config(&dir), default_factory(), 3).unwrap();
        assert!(announce_line(3, &worker).starts_with("rapd-worker 3 listening on "));

        let mut conn = TcpStream::connect(worker.ingest_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let ack = roundtrip(&mut conn, &hello_frame());
        assert!(ack.contains("\"worker\":3"), "ack: {ack}");
        assert!(ack.contains("\"max_seq\":0"), "ack: {ack}");

        let schema = WireEnvelope {
            line: r#"{"type":"schema","tenant":"edge","attributes":[["loc",["L1","L2"]]]}"#
                .to_string(),
            frame: None,
        };
        let reply = roundtrip(&mut conn, &schema.render());
        assert!(reply.contains("\"ok\""), "schema reply: {reply}");

        // a forwarded observe adopts the router's token…
        let observe = WireEnvelope {
            line: r#"{"type":"observe","tenant":"edge","rows":[[["L1"],5.0],[["L2"],5.0]]}"#
                .to_string(),
            frame: Some(("edge-00000007-123".to_string(), 7)),
        };
        let reply = roundtrip(&mut conn, &observe.render());
        assert!(
            reply.contains("\"frame\":\"edge-00000007-123\""),
            "observe reply: {reply}"
        );
        assert!(!reply.contains("duplicate"), "first delivery: {reply}");

        // …and a redelivery of the same sequence is acked as a duplicate
        let reply = roundtrip(&mut conn, &observe.render());
        assert!(reply.contains("\"duplicate\":true"), "redelivery: {reply}");

        // garbage envelopes get an error frame, not a dead connection
        let reply = roundtrip(&mut conn, "{\"nope\":1}");
        assert!(reply.contains("\"error\""), "garbage: {reply}");

        worker.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_rejects_future_wire_versions() {
        let dir = scratch("ver");
        let worker = start_worker(worker_config(&dir), default_factory(), 0).unwrap();
        let mut conn = TcpStream::connect(worker.ingest_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let reply = roundtrip(&mut conn, "{\"type\":\"hello\",\"wire\":99}");
        assert!(reply.contains("unsupported wire version"), "got: {reply}");
        // the worker closed the connection after the error frame
        write_wire_frame(&mut conn, b"{\"type\":\"hello\",\"wire\":1}").ok();
        let dead = matches!(
            read_wire_frame(&mut conn, 1 << 20, || false),
            Ok(WireRead::Eof | WireRead::Idle) | Err(_)
        );
        assert!(dead, "connection must be closed after a version error");
        worker.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
