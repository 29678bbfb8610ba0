//! Zero-dependency observability substrate for the RAPMiner stack.
//!
//! Two primitives, one contract:
//!
//! - **Spans** ([`span`]) measure intervals. They nest via a thread-local
//!   stack (parent/trace ids are derived automatically), carry structured
//!   [`Value`] fields, and on drop commit a [`SpanRecord`] into a bounded
//!   process-global ring readable via [`recent_spans`] — which is what
//!   rapd's `trace` control verb serves.
//! - **Events** ([`event`], [`info`], …) are point-in-time JSON lines
//!   written to a pluggable sink ([`install_sink`]); each line carries the
//!   emitting thread's current span/trace ids so logs correlate with
//!   spans.
//!
//! Two correlation layers ride on top:
//!
//! - **Frame ids** ([`frame`]): a [`FrameId`] minted per ingested frame
//!   and held open via a thread-local [`frame::frame_scope`]; spans and
//!   events emitted inside the scope carry the frame token, so one grep
//!   ties every sink's records for a frame together.
//! - **Flight recorder** ([`recorder`]): per-worker bounded rings of
//!   recently rendered span/event lines, snapshotted into post-mortem
//!   blackbox dumps.
//!
//! A test-only primitive rides along too: **failpoints** ([`fail`]) —
//! named fault-injection sites compiled to no-ops unless the `fail` cargo
//! feature is on. They live here because this crate sits at the bottom of
//! the dependency stack, so any layer (search, pipeline, daemon) can host
//! a site.
//!
//! Everything is `std`-only, allocation-light, and has two kill switches:
//! [`set_enabled`]`(false)` at runtime (one relaxed atomic load per
//! would-be span/event) and the `off` cargo feature at compile time
//! (spans and events become empty inlineable bodies). The overhead budget
//! — enforced by `scripts/ci.sh` via the `obs_overhead` bench binary — is
//! <5% on end-to-end localization with tracing enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod fail;
pub mod frame;
pub mod recorder;
mod span;
mod value;

pub use event::{
    debug, error, event, event_enabled, info, install_sink, min_level, remove_sink, set_min_level,
    sink_installed, warn, Level,
};
pub use frame::FrameId;
pub use span::{
    clear_spans, current_span_id, current_trace_id, enabled, micros_since_start, recent_spans,
    set_enabled, set_ring_capacity, span, SpanGuard, SpanRecord, DEFAULT_RING_CAPACITY,
};
pub use value::{write_json_string, Value};

/// Convenience: time a closure under a named span and return its output.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Serializes the unit tests that touch process-global tracing state
/// (the span ring, the enabled flag, the event sink): one gate for every
/// module, since a span recorded by one test lands in another's ring.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_runs_closure_and_returns_value() {
        let _gate = test_gate();
        set_enabled(true);
        let out = timed("obs.timed_test", || 41 + 1);
        assert_eq!(out, 42);
    }
}
