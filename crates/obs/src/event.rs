//! Leveled structured events rendered as JSON lines.
//!
//! Events are point-in-time records (a span is an interval). Each event is
//! rendered as one JSON object per line and pushed to the process-global
//! sink installed via [`install_sink`] (rapd's `--log-json` installs
//! stderr). With no sink installed, events are dropped after the level
//! check — emitting is then just two relaxed atomic loads.
//!
//! Line schema:
//!
//! ```json
//! {"ts_micros":1234,"level":"info","target":"rapd.shard","msg":"incident",
//!  "span":17,"trace":12,"frame":"edge-0000002a-1754700000123",
//!  "fields":{"tenant":"edge","raps":2}}
//! ```
//!
//! `span`/`trace` are present only when the emitting thread has an open
//! span; `frame` only inside a [`crate::frame::frame_scope`]; `fields`
//! only when the event carries fields. When the emitting thread has a
//! registered flight recorder ([`crate::recorder`]), the rendered line is
//! also pushed into its ring — even with no global sink installed.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::span::{current_span_id, current_trace_id, micros_since_start};
use crate::value::{write_json_string, Value};

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (per-layer, per-candidate detail).
    Debug = 0,
    /// Normal operational signal (incidents, lifecycle).
    Info = 1,
    /// Degraded but continuing (queue drops, parse failures).
    Warn = 2,
    /// A request or component failed.
    Error = 3,
}

impl Level {
    /// The lowercase name used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Set the minimum level an event needs to reach the sink.
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current minimum level.
pub fn min_level() -> Level {
    Level::from_u8(MIN_LEVEL.load(Ordering::Relaxed))
}

/// Install the process-global event sink (e.g. stderr, a file, a test
/// buffer), replacing any previous sink. Each event is written as one
/// JSON line and flushed.
pub fn install_sink(sink_impl: Box<dyn Write + Send>) {
    *sink().lock().expect("event sink poisoned") = Some(sink_impl);
}

/// Remove the sink; subsequent events are dropped after the level check.
pub fn remove_sink() {
    *sink().lock().expect("event sink poisoned") = None;
}

/// Whether a sink is currently installed.
pub fn sink_installed() -> bool {
    sink().lock().expect("event sink poisoned").is_some()
}

/// Whether an event at `level` would actually be delivered somewhere (a
/// sink or this thread's flight recorder). Call-site guard for argument
/// construction: building an event's fields often allocates
/// (`to_string`, formatting), and that work is wasted when the event is
/// level-filtered — on hot paths, gate on this instead of
/// [`crate::enabled`] so a daemon running at the default `info` level
/// pays nothing for its `debug` call sites.
pub fn event_enabled(level: Level) -> bool {
    !cfg!(feature = "off")
        && crate::span::enabled()
        && level >= min_level()
        && (crate::recorder::active() || sink_installed())
}

/// Emit a structured event at `level` from `target` (a dotted component
/// path, e.g. `"rapd.shard"`). Fields are `(key, value)` pairs rendered
/// under `"fields"`. Dropped unless tracing is enabled, `level` clears the
/// minimum, and a sink is installed.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    if cfg!(feature = "off") || !crate::span::enabled() || level < min_level() {
        return;
    }
    // Events reach the thread's flight ring even with no global sink, so
    // blackbox dumps have context on quiet (non --log-json) daemons.
    let recorder_active = crate::recorder::active();
    let mut guard = sink().lock().expect("event sink poisoned");
    if guard.is_none() && !recorder_active {
        return;
    }
    let line = render_line(level, target, msg, fields);
    if let Some(out) = guard.as_mut() {
        // A broken sink (closed pipe) must never take down the caller.
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
    }
    drop(guard);
    if recorder_active {
        crate::recorder::record(&line);
    }
}

fn render_line(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) -> String {
    let mut line = String::with_capacity(96);
    line.push_str("{\"ts_micros\":");
    line.push_str(&micros_since_start().to_string());
    line.push_str(",\"level\":\"");
    line.push_str(level.as_str());
    line.push_str("\",\"target\":");
    write_json_string(target, &mut line);
    line.push_str(",\"msg\":");
    write_json_string(msg, &mut line);
    if let Some(span) = current_span_id() {
        line.push_str(",\"span\":");
        line.push_str(&span.to_string());
    }
    if let Some(trace) = current_trace_id() {
        line.push_str(",\"trace\":");
        line.push_str(&trace.to_string());
    }
    if let Some(frame) = crate::frame::current_frame() {
        line.push_str(",\"frame\":");
        write_json_string(&frame, &mut line);
    }
    if !fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
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

/// Emit a `Debug` event.
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Debug, target, msg, fields);
}

/// Emit an `Info` event.
pub fn info(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Info, target, msg, fields);
}

/// Emit a `Warn` event.
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Warn, target, msg, fields);
}

/// Emit an `Error` event.
pub fn error(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Error, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A sink that appends into a shared buffer for assertions.
    #[derive(Clone)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn renders_span_ids_and_fields() {
        let _gate = crate::test_gate();
        crate::span::set_enabled(true);
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install_sink(Box::new(Capture(buf.clone())));
        set_min_level(Level::Debug);
        {
            let s = crate::span::span("parent");
            info(
                "rapd.shard",
                "incident",
                &[("tenant", Value::from("edge")), ("raps", Value::from(2u64))],
            );
            let line = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            assert!(line.contains("\"level\":\"info\""), "{line}");
            assert!(line.contains("\"target\":\"rapd.shard\""), "{line}");
            assert!(
                line.contains(&format!("\"span\":{}", s.id().unwrap())),
                "{line}"
            );
            assert!(
                line.contains("\"fields\":{\"tenant\":\"edge\",\"raps\":2}"),
                "{line}"
            );
            assert!(line.ends_with("}\n"), "{line}");
        }
        remove_sink();
        set_min_level(Level::Info);
    }

    #[test]
    fn level_filter_drops_below_minimum() {
        let _gate = crate::test_gate();
        crate::span::set_enabled(true);
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install_sink(Box::new(Capture(buf.clone())));
        set_min_level(Level::Warn);
        info("t", "dropped", &[]);
        warn("t", "kept", &[]);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(!text.contains("dropped"));
        assert!(text.contains("kept"));
        remove_sink();
        set_min_level(Level::Info);
    }

    #[test]
    fn event_enabled_mirrors_the_delivery_conditions() {
        let _gate = crate::test_gate();
        crate::span::set_enabled(true);
        remove_sink();
        set_min_level(Level::Info);
        // no sink, no recorder: nothing would be delivered
        assert!(!event_enabled(Level::Info));
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install_sink(Box::new(Capture(buf.clone())));
        assert!(event_enabled(Level::Info));
        // level-filtered call sites must not pay for argument construction
        assert!(!event_enabled(Level::Debug));
        set_min_level(Level::Debug);
        assert!(event_enabled(Level::Debug));
        set_min_level(Level::Info);
        // tracing disabled wins over everything
        crate::span::set_enabled(false);
        assert!(!event_enabled(Level::Error));
        crate::span::set_enabled(true);
        remove_sink();
        // a flight recorder alone is a delivery target
        let rec = crate::recorder::register("event-enabled-test", 4);
        assert!(event_enabled(Level::Info));
        drop(rec);
        assert!(!event_enabled(Level::Info));
    }

    #[test]
    fn frame_context_is_stamped_on_lines() {
        let _gate = crate::test_gate();
        crate::span::set_enabled(true);
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install_sink(Box::new(Capture(buf.clone())));
        let id = crate::frame::FrameId::mint("edge");
        {
            let _scope = crate::frame::frame_scope(&id);
            info("t", "inside", &[]);
        }
        info("t", "outside", &[]);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let inside = text.lines().find(|l| l.contains("inside")).unwrap();
        let outside = text.lines().find(|l| l.contains("outside")).unwrap();
        assert!(
            inside.contains(&format!("\"frame\":\"{}\"", id.as_str())),
            "{inside}"
        );
        assert!(!outside.contains("\"frame\""), "{outside}");
        remove_sink();
    }

    #[test]
    fn events_reach_the_flight_recorder_without_a_sink() {
        let _gate = crate::test_gate();
        crate::span::set_enabled(true);
        remove_sink();
        let _rec = crate::recorder::register("event-tee-test", 8);
        warn("t", "recorded without sink", &[("k", Value::from(1u64))]);
        let snap = crate::recorder::snapshot()
            .into_iter()
            .find(|s| s.name == "event-tee-test")
            .expect("ring visible");
        assert_eq!(snap.lines.len(), 1);
        assert!(snap.lines[0].contains("recorded without sink"));
        assert!(snap.lines[0].contains("\"level\":\"warn\""));
    }

    #[test]
    fn no_sink_is_a_quiet_no_op() {
        let _gate = crate::test_gate();
        remove_sink();
        // Must not panic or block.
        error("t", "nobody listening", &[("k", Value::from(1u64))]);
        assert!(!sink_installed());
    }
}
