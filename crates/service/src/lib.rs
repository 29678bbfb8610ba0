//! # service — `rapd`, the long-running localization daemon
//!
//! The paper situates RAPMiner inside a CDN operations loop: every minute,
//! per-leaf KPI snapshots arrive for many KPIs/tenants, the overall series
//! is watched for anomalies, and localization runs the moment an alarm
//! fires. This crate turns [`pipeline::LocalizationPipeline`] into that
//! operational component — a multi-tenant, sharded, long-running service:
//!
//! * **NDJSON wire protocol** ([`proto`]): one JSON object per line over
//!   TCP — `schema`, `observe`, `flush`, `stats`, `incidents` — each
//!   answered with exactly one reply line. Malformed input yields
//!   `{"type":"error",...}` replies, never thread death.
//! * **Shard workers** ([`shard`]): tenants hash onto `N` worker threads;
//!   each worker owns the pipelines of its tenants, so per-tenant ordering
//!   is preserved while tenants spread across cores.
//! * **Backpressure**: bounded per-shard queues with an explicit
//!   *drop-oldest* policy and exact dropped-frame accounting; flush
//!   barriers are never dropped, so `flush` stays a reliable fence.
//! * **Admission control** ([`server`]): every `observe` frame is
//!   validated before it reaches a shard — non-finite values and
//!   unbounded schema drift quarantine the whole frame, while duplicate
//!   leaves (keep-last), negative values (clamp to zero), and bounded
//!   drift (strip the unknown rows) are repaired in place with per-reason
//!   counters. Quarantined frames land in a per-tenant CRC-framed spool
//!   and a bounded ring queryable via the `quarantine` control verb.
//! * **Watermark reordering** ([`shard`]): timestamped frames pass
//!   through a per-tenant bounded reorder buffer with a data-driven
//!   watermark, so bounded out-of-order delivery is healed while late
//!   frames and replays are quarantined instead of corrupting history.
//! * **Incident sink** ([`sink`]): every incident is spooled as a
//!   CRC-framed JSON line (crash-safe, append-only; torn tails are
//!   truncated on restart) and kept in a bounded in-memory ring queryable
//!   over the control socket. Spool I/O failure degrades the sink to
//!   ring-only mode rather than failing ingestion.
//! * **Fault tolerance** ([`shard`], [`sync`]): per-frame `catch_unwind`
//!   quarantines a panicking tenant pipeline (dropped and rebuilt), a
//!   supervisor respawns dead worker threads, a per-tenant circuit breaker
//!   sheds frames from persistently failing tenants, and poisoned locks
//!   are recovered instead of cascading the panic.
//! * **Metrics** ([`metrics`], [`http`]): atomic counters and a latency
//!   histogram rendered in the Prometheus text format on an embedded
//!   `GET /metrics` HTTP listener.
//!
//! # Example
//!
//! ```
//! use std::io::{BufRead, BufReader};
//! use std::net::TcpStream;
//! use service::{start, default_factory, proto, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServiceConfig {
//!     listen: "127.0.0.1:0".to_string(),        // port 0: pick a free port
//!     metrics_listen: "127.0.0.1:0".to_string(),
//!     ..ServiceConfig::default()
//! };
//! let server = service::start(config, default_factory())?;
//! let mut conn = TcpStream::connect(server.ingest_addr())?;
//! proto::write_line(
//!     &mut conn,
//!     r#"{"type":"schema","tenant":"edge","attributes":[["loc",["L1","L2"]]]}"#,
//! )?;
//! let mut reply = String::new();
//! BufReader::new(conn.try_clone()?).read_line(&mut reply)?;
//! assert!(reply.contains("\"ok\""));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod admission;
pub mod blackbox;
pub mod checkpoint;
pub mod config;
pub mod http;
pub mod json;
pub mod metrics;
pub mod proto;
pub(crate) mod quarantine;
pub mod retry;
pub mod router;
pub(crate) mod segment;
pub mod server;
pub mod shard;
pub mod sink;
pub(crate) mod spool_lock;
pub(crate) mod supervisor;
pub(crate) mod sync;
pub mod wal;
pub mod worker;

use std::sync::Arc;

use baselines::{Localizer, RapMinerLocalizer};
use rapminer::Config as RapMinerConfig;

pub use blackbox::{read_dump, BlackboxDump, BlackboxRing, BlackboxWriter};
pub use checkpoint::{ConfigGuard, EngineCheckpoint, TenantCheckpoint};
pub use config::{ServiceConfig, ServiceConfigError};
pub use metrics::Metrics;
pub use proto::{ProtoError, Request};
pub use quarantine::QuarantineRecord;
pub use retry::{with_retry, Backoff};
pub use router::{start_router, RouterConfig, RouterHandle};
pub use segment::SpoolRecovery;
pub use server::{start, ServerHandle, StartError};
pub use shard::LocalizerFactory;
pub use sink::{DetectionRecord, IncidentRecord, IncidentSink};
pub use wal::WalEntry;
pub use worker::start_worker;

/// The default per-tenant localizer: RAPMiner with its paper defaults,
/// running each frame's search on the configured number of intra-frame
/// threads (`--intra-frame-threads`; `1` = serial, `0` = machine width).
pub fn default_factory() -> LocalizerFactory {
    Arc::new(|threads| {
        Box::new(RapMinerLocalizer::with_config(
            RapMinerConfig::new().with_threads(threads),
        )) as Box<dyn Localizer>
    })
}
