//! Open-loop load generation for the rapd daemon.
//!
//! The crate answers the question the ROADMAP's north star poses —
//! *"heavy traffic from millions of users"* — with numbers: how many
//! leaves per second a rapd deployment sustains, what the ingest-ack
//! latency distribution looks like under a given offered rate, and
//! whether every frame the harness sent is accounted for on both sides
//! of the wire.
//!
//! Three layers:
//!
//! * [`synth`] pre-renders a deterministic multi-tenant NDJSON frame
//!   book from seeded `cdnsim` traffic, so the hot loop never touches a
//!   JSON serializer;
//! * [`hist`] is a from-scratch HDR-style log-bucketed histogram for
//!   nanosecond latencies (p50/p90/p99/p999 within 3.1 %);
//! * [`mod@run`] replays the book over real TCP connections with open-loop
//!   pacing, classifies every reply (acked / parked / shed /
//!   quarantined), traces injected anomalies to incidents for an
//!   ingest→incident e2e distribution, and reconciles its ledger with
//!   the daemon's `processed + dropped + shed + quarantined == ingested`
//!   invariant.
//!
//! Two binaries ship with the crate: `loadgen` (run one load profile,
//! print the summary JSON) and `bench_throughput` (the CI gate: measure
//! sustained throughput against single-process and fleet daemons, write
//! `BENCH_throughput.json`, and fail on calibration-normalized
//! regressions).

pub mod hist;
pub mod run;
pub mod synth;

pub use hist::LogHistogram;
pub use run::{run, summary_without_timing, LoadConfig};
pub use synth::{FrameBook, SynthConfig, TenantBook};
