//! Span-based tracing: a thread-local stack of active spans, monotonic
//! timing, and a process-global bounded ring buffer of completed spans.
//!
//! A span is opened with [`span`], carries structured fields, and is
//! closed by dropping its [`SpanGuard`]. Completed spans land in the ring
//! (newest evicts oldest), where [`recent_spans`] — and rapd's `trace`
//! control verb — can read them back without any I/O on the hot path.
//!
//! Cost model: an *open + close* is two `Instant::now()` calls, one
//! thread-local push/pop, and one mutex-guarded ring push. With tracing
//! disabled ([`set_enabled`]`(false)` or the crate's `off` feature) a span
//! is a single relaxed atomic load and no allocation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::value::{write_json_string, Value};

/// Default number of completed spans retained in the ring. Kept modest
/// on purpose: every retained record pins a fields `Vec` (and any string
/// values) on the heap, and a large ring measurably degrades the
/// traced workload's own allocation locality — evicted blocks go cold
/// before the allocator reuses them. 256 matches the flight recorder's
/// per-worker depth and keeps steady-state tracing overhead ~1% on the
/// localization hot path (see the `obs_overhead` smoke test).
pub const DEFAULT_RING_CAPACITY: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The process-wide monotonic epoch all span/event timestamps count from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the first obs call in this process.
pub fn micros_since_start() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One completed span as stored in the ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (process-wide) span id.
    pub id: u64,
    /// The enclosing span's id, if this span was nested.
    pub parent: Option<u64>,
    /// The root span's id of this span's stack (equals `id` for roots).
    pub trace: u64,
    /// Static span name (e.g. `"rapminer.search"`).
    pub name: &'static str,
    /// Start time in microseconds since the process epoch.
    pub start_micros: u64,
    /// Wall-clock duration in microseconds.
    pub elapsed_micros: u64,
    /// Structured fields recorded while the span was open.
    pub fields: Vec<(&'static str, Value)>,
    /// The frame-correlation token open on the thread when the span was
    /// opened (see [`crate::frame`]); `None` outside a frame scope.
    pub frame: Option<Arc<str>>,
}

impl SpanRecord {
    /// Look up a recorded field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Assign `source` into `self`, reusing `self`'s existing heap
    /// allocations (the fields `Vec`, the frame `Arc`) where possible.
    /// The flight recorder's steady-state eviction path: a full ring
    /// records spans without growing the allocator's working set.
    pub(crate) fn clone_from_record(&mut self, source: &SpanRecord) {
        self.id = source.id;
        self.parent = source.parent;
        self.trace = source.trace;
        self.name = source.name;
        self.start_micros = source.start_micros;
        self.elapsed_micros = source.elapsed_micros;
        self.fields.clone_from(&source.fields);
        self.frame.clone_from(&source.frame);
    }

    /// Render this span as one JSON line (the flight recorder's and the
    /// blackbox dump's span encoding).
    pub fn render_line(&self) -> String {
        let mut line = String::with_capacity(96);
        line.push_str("{\"kind\":\"span\",\"name\":");
        write_json_string(self.name, &mut line);
        line.push_str(",\"id\":");
        line.push_str(&self.id.to_string());
        if let Some(parent) = self.parent {
            line.push_str(",\"parent\":");
            line.push_str(&parent.to_string());
        }
        line.push_str(",\"trace\":");
        line.push_str(&self.trace.to_string());
        if let Some(frame) = &self.frame {
            line.push_str(",\"frame\":");
            write_json_string(frame, &mut line);
        }
        line.push_str(",\"start_micros\":");
        line.push_str(&self.start_micros.to_string());
        line.push_str(",\"elapsed_micros\":");
        line.push_str(&self.elapsed_micros.to_string());
        if !self.fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_json_string(key, &mut line);
                line.push(':');
                value.write_json(&mut line);
            }
            line.push('}');
        }
        line.push('}');
        line
    }
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    start: Instant,
    start_micros: u64,
    fields: Vec<(&'static str, Value)>,
    frame: Option<Arc<str>>,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

struct Ring {
    buf: VecDeque<SpanRecord>,
    capacity: usize,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
        })
    })
}

/// Globally enable or disable tracing at runtime. Disabled spans cost one
/// relaxed atomic load; nothing is recorded.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether tracing is currently enabled (and not compiled out).
pub fn enabled() -> bool {
    !cfg!(feature = "off") && ENABLED.load(Ordering::Relaxed)
}

/// Resize the completed-span ring (drops the oldest overflow immediately).
pub fn set_ring_capacity(capacity: usize) {
    let mut ring = ring().lock().expect("span ring poisoned");
    ring.capacity = capacity.max(1);
    while ring.buf.len() > ring.capacity {
        ring.buf.pop_front();
    }
}

/// Discard every completed span (test isolation helper).
pub fn clear_spans() {
    ring().lock().expect("span ring poisoned").buf.clear();
}

/// The most recently completed spans, newest first, at most `limit`.
pub fn recent_spans(limit: usize) -> Vec<SpanRecord> {
    let ring = ring().lock().expect("span ring poisoned");
    ring.buf.iter().rev().take(limit).cloned().collect()
}

/// The id of the innermost open span on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    STACK.with(|stack| stack.borrow().last().map(|s| s.id))
}

/// The trace (root-span) id of the innermost open span on this thread.
pub fn current_trace_id() -> Option<u64> {
    STACK.with(|stack| stack.borrow().last().map(|s| s.trace))
}

/// RAII handle on an open span; dropping it closes the span and commits
/// the record to the ring. Not `Send`: spans close on the thread that
/// opened them (the stack is thread-local).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at open time (inert guard).
    id: Option<u64>,
    /// Keeps the guard `!Send`/`!Sync`.
    _not_send: PhantomData<*const ()>,
}

/// Open a span. Returns an inert guard when tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: None,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_micros = micros_since_start();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (parent, trace) = match stack.last() {
            Some(top) => (Some(top.id), top.trace),
            None => (None, id),
        };
        stack.push(ActiveSpan {
            id,
            parent,
            trace,
            name,
            start: Instant::now(),
            start_micros,
            fields: Vec::new(),
            frame: crate::frame::current_frame(),
        });
    });
    SpanGuard {
        id: Some(id),
        _not_send: PhantomData,
    }
}

impl SpanGuard {
    /// Attach a structured field to this span (last write wins on a
    /// duplicate key). A no-op on inert guards.
    pub fn record(&self, key: &'static str, value: impl Into<Value>) {
        let Some(id) = self.id else { return };
        let value = value.into();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(active) = stack.iter_mut().rev().find(|s| s.id == id) {
                match active.fields.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => *v = value,
                    None => active.fields.push((key, value)),
                }
            }
        });
    }

    /// This span's id (`None` for inert guards).
    pub fn id(&self) -> Option<u64> {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let record = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop LIFO under normal scoping; tolerate out-of-order
            // drops by searching for the matching frame.
            let pos = stack.iter().rposition(|s| s.id == id)?;
            let active = stack.remove(pos);
            Some(SpanRecord {
                id: active.id,
                parent: active.parent,
                trace: active.trace,
                name: active.name,
                start_micros: active.start_micros,
                elapsed_micros: active.start.elapsed().as_micros() as u64,
                fields: active.fields,
                frame: active.frame,
            })
        });
        if let Some(record) = record {
            // tee into this thread's flight ring before the global ring
            // takes ownership; the clone is cheap and rendering waits
            // until a blackbox snapshot actually needs the JSON line
            crate::recorder::record_span(&record);
            let mut ring = ring().lock().expect("span ring poisoned");
            if ring.buf.len() == ring.capacity {
                ring.buf.pop_front();
            }
            ring.buf.push_back(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_parent_and_trace_ids() {
        let _gate = crate::test_gate();
        clear_spans();
        set_enabled(true);
        {
            let outer = span("outer");
            outer.record("tenant", "edge");
            {
                let inner = span("inner");
                inner.record("layer", 2usize);
                assert_eq!(current_span_id(), inner.id());
            }
            assert_eq!(current_span_id(), outer.id());
        }
        assert_eq!(current_span_id(), None);
        let spans = recent_spans(2);
        assert_eq!(spans.len(), 2);
        // newest first: outer closed last
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace, outer.id);
        assert_eq!(outer.parent, None);
        assert_eq!(outer.trace, outer.id);
        assert_eq!(outer.field("tenant").and_then(Value::as_str), Some("edge"));
        assert_eq!(inner.field("layer").and_then(Value::as_u64), Some(2));
        assert!(outer.elapsed_micros >= inner.elapsed_micros);
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let _gate = crate::test_gate();
        clear_spans();
        set_enabled(true);
        set_ring_capacity(3);
        for _ in 0..10 {
            let _s = span("tick");
        }
        let spans = recent_spans(10);
        assert_eq!(spans.len(), 3);
        assert!(spans[0].id > spans[1].id && spans[1].id > spans[2].id);
        set_ring_capacity(DEFAULT_RING_CAPACITY);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _gate = crate::test_gate();
        clear_spans();
        set_enabled(false);
        {
            let s = span("invisible");
            assert_eq!(s.id(), None);
            s.record("k", 1usize); // must not panic
            assert_eq!(current_span_id(), None);
        }
        assert!(recent_spans(10).is_empty());
        set_enabled(true);
    }

    #[test]
    fn spans_carry_the_open_frame_context() {
        let _gate = crate::test_gate();
        clear_spans();
        set_enabled(true);
        let id = crate::frame::FrameId::mint("edge");
        {
            let _scope = crate::frame::frame_scope(&id);
            let s = span("framed");
            s.record("n", 1usize);
        }
        {
            let _s = span("unframed");
        }
        let spans = recent_spans(2);
        assert_eq!(spans[0].name, "unframed");
        assert_eq!(spans[0].frame, None);
        assert_eq!(spans[1].name, "framed");
        assert_eq!(spans[1].frame.as_deref(), Some(id.as_str()));
        let line = spans[1].render_line();
        assert!(line.contains("\"kind\":\"span\""), "{line}");
        assert!(
            line.contains(&format!("\"frame\":\"{}\"", id.as_str())),
            "{line}"
        );
        assert!(line.contains("\"fields\":{\"n\":1}"), "{line}");
    }

    #[test]
    fn duplicate_field_keys_keep_last_value() {
        let _gate = crate::test_gate();
        clear_spans();
        set_enabled(true);
        {
            let s = span("dup");
            s.record("n", 1usize);
            s.record("n", 2usize);
        }
        let spans = recent_spans(1);
        assert_eq!(spans[0].fields.len(), 1);
        assert_eq!(spans[0].field("n").and_then(Value::as_u64), Some(2));
    }
}
