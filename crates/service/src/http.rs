//! A minimal embedded HTTP listener serving Prometheus `/metrics`.
//!
//! One accept-loop thread; each request is answered inline (scrapes are
//! rare and tiny, so no per-connection threads) under one 2 s deadline,
//! so a client that trickles bytes holds up the scrapes behind it (and
//! shutdown) no longer than that. Only `GET /metrics` is meaningful;
//! everything else is 404. The response always closes the connection, so
//! HTTP/1.0 and HTTP/1.1 scrapers both work.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;

/// Produces the exposition body served on each scrape.
pub type RenderFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Handle on the running metrics listener.
pub struct MetricsServer {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl MetricsServer {
    /// Bind `addr` (port 0 picks a free port) and start serving.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn start(addr: &str, metrics: Arc<Metrics>) -> io::Result<MetricsServer> {
        MetricsServer::start_rendered(addr, Arc::new(move || metrics.render_prometheus()))
    }

    /// Bind `addr` and serve whatever `render` produces on each scrape —
    /// the variant for processes whose exposition is not a [`Metrics`]
    /// (the fleet router renders [`crate::metrics::RouterMetrics`]).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn start_rendered(addr: &str, render: RenderFn) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("rapd-metrics-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Ok(stream) = conn {
                        // a broken scraper must not take the listener down
                        let _ = serve_one(stream, render.as_ref());
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            handle: Some(handle),
            shutdown,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // unblock accept() with one throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

/// A socket that gives up at one deadline: each read and write first
/// re-arms its timeout with the time left, so bytes that trickle in (or
/// out) cannot stretch an exchange past the deadline.
struct Deadlined(TcpStream, Instant);

impl Deadlined {
    fn time_left(&self) -> io::Result<Option<Duration>> {
        match self.1.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(Some(left)),
            _ => Err(io::ErrorKind::TimedOut.into()),
        }
    }
}

impl Read for Deadlined {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.set_read_timeout(self.time_left()?)?;
        self.0.read(buf)
    }
}

impl Write for Deadlined {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set_write_timeout(self.time_left()?)?;
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

fn serve_one(stream: TcpStream, render: &(dyn Fn() -> String + Send + Sync)) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // one deadline for the whole scrape; past 8 KiB a head is cut short
    let stream = Deadlined(stream, Instant::now() + Duration::from_secs(2));
    let mut reader = BufReader::new(stream.take(8 << 10));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // drain headers so well-behaved clients see a clean close
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() {
        if header == "\r\n" || header == "\n" || header.is_empty() {
            break;
        }
        header.clear();
    }
    let mut stream = reader.into_inner().into_inner();
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Test helper: fetch a path from a local HTTP server, returning
/// `(status_line, body)`.
#[cfg(test)]
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        let metrics = Arc::new(Metrics::new(2));
        metrics.frames_ingested.fetch_add(9, Ordering::Relaxed);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "got {status}");
        assert!(body.contains("rapd_frames_ingested_total 9"));
        assert!(body.contains("rapd_queue_depth{shard=\"1\"} 0"));

        let (status, _) = get(addr, "/other").unwrap();
        assert!(status.contains("404"), "got {status}");

        // counters move between scrapes
        metrics.frames_ingested.fetch_add(1, Ordering::Relaxed);
        let (_, body) = get(addr, "/metrics").unwrap();
        assert!(body.contains("rapd_frames_ingested_total 10"));

        server.shutdown();
    }

    #[test]
    fn rendered_variant_serves_a_custom_exposition() {
        let m = Arc::new(crate::metrics::RouterMetrics::new(2));
        let render = {
            let m = Arc::clone(&m);
            Arc::new(move || m.render_prometheus()) as RenderFn
        };
        let server = MetricsServer::start_rendered("127.0.0.1:0", render).unwrap();
        m.handoffs.fetch_add(1, Ordering::Relaxed);
        let (status, body) = get(server.addr(), "/metrics").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("rapd_router_handoffs_total 1"));
        assert!(body.contains("rapd_router_worker_up{worker=\"1\"} 0"));
        server.shutdown();
    }

    #[test]
    fn survives_garbage_requests() {
        let metrics = Arc::new(Metrics::new(1));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = server.addr();
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"\x00\x01garbage\r\n\r\n").unwrap();
        }
        // the listener still answers after the garbage connection
        let (status, _) = get(addr, "/metrics").unwrap();
        assert!(status.contains("200"));
        server.shutdown();
    }

    #[test]
    fn a_trickling_client_holds_neither_a_scrape_nor_shutdown_past_the_deadline() {
        let server = MetricsServer::start("127.0.0.1:0", Arc::new(Metrics::new(1))).unwrap();
        let addr = server.addr();
        // one byte every 500 ms (11.5 s for the request line) until the
        // server hangs up
        let trickle = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || {
                for byte in b"GET /metrics HTTP/1.1\r\n" {
                    if stream.write_all(&[*byte]).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(500));
                }
            })
        };
        let limit = Duration::from_secs(3);
        // the accept queue is FIFO, so the listener takes the trickling
        // connection before the scrape's
        let first = trickle();
        let start = std::time::Instant::now();
        let (status, _) = get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "got {status}");
        let waited = start.elapsed();
        assert!(
            waited < limit,
            "a scrape waited {waited:?} behind a trickle"
        );
        let second = trickle();
        let start = std::time::Instant::now();
        drop(server);
        let waited = start.elapsed();
        assert!(
            waited < limit,
            "shutdown waited {waited:?} behind a trickle"
        );
        first.join().unwrap();
        second.join().unwrap();
    }
}
