//! The NDJSON wire protocol: one JSON object per line, both directions.
//!
//! Requests (client → rapd):
//!
//! ```json
//! {"type":"schema","tenant":"cdn-edge","attributes":[["location",["L1","L2"]],["isp",["I1","I2"]]]}
//! {"type":"observe","tenant":"cdn-edge","ts":1700000000000,"rows":[[["L1","I1"],42.5],[["L2","I2"],17.0]]}
//! {"type":"flush"}
//! {"type":"stats"}
//! {"type":"incidents","limit":10}
//! {"type":"trace","limit":50}
//! {"type":"quarantine","limit":20}
//! {"type":"health"}
//! {"type":"debug","tenant":"cdn-edge"}
//! {"type":"shutdown"}
//! ```
//!
//! Every request gets exactly one reply line: `{"type":"ok",...}`, a typed
//! payload (`stats`, `incidents`), or `{"type":"error","reason":...}`.
//! Malformed input of any kind is a [`ProtoError`] — reader threads reply
//! and keep serving; they never panic or die on bad input.
//!
//! `observe` extras: `ts` (optional, milliseconds) routes the frame through
//! the per-tenant watermark reorder buffer; omitting it bypasses
//! reordering. A row *value* of JSON `null` is the wire encoding of a
//! missing/NaN measurement (JSON itself cannot carry NaN) — such frames
//! are accepted at the protocol layer and diverted by admission control,
//! never parsed as errors.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mdkpi::{ElementId, LeafFrame, Schema};

use crate::json::{exact_u64, parse, Json, Scanner};

/// A schema's attribute parts (`(name, element names)`), as
/// `Request::Schema` carries them and the WAL journals them.
pub type SchemaParts = Vec<(String, Vec<String>)>;

/// One parsed client request. `R` holds an observe's rows: the element
/// names as received for [`parse_request`], or whatever a crate-internal
/// reader resolved them into while reading the line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<R = Vec<(Vec<String>, f64)>> {
    /// Register (or idempotently re-register) a tenant's schema.
    Schema {
        /// The tenant id.
        tenant: String,
        /// `(attribute, elements)` pairs, the [`Schema::from_parts`] form.
        attributes: Vec<(String, Vec<String>)>,
    },
    /// Ingest one snapshot of per-leaf actual values.
    Observe {
        /// The tenant id.
        tenant: String,
        /// `(elements, value)` rows; elements are positional per the
        /// registered schema's attribute order. A value may be NaN (wire
        /// form: JSON `null`) — admission control quarantines such frames.
        rows: R,
        /// Optional event timestamp in milliseconds. Present → the frame
        /// goes through the watermark reorder buffer; absent → it is
        /// processed in arrival order.
        ts: Option<u64>,
    },
    /// Barrier: drain every shard queue before replying.
    Flush,
    /// Snapshot of the daemon counters.
    Stats,
    /// The most recent incidents from the in-memory ring.
    Incidents {
        /// Maximum number of incidents to return (newest first).
        limit: usize,
    },
    /// The most recently completed tracing spans from the in-process ring.
    Trace {
        /// Maximum number of spans to return (newest first).
        limit: usize,
    },
    /// The most recent quarantined frames from the in-memory ring.
    Quarantine {
        /// Maximum number of records to return (newest first).
        limit: usize,
    },
    /// Fault-tolerance health summary: spool degradation, open breakers,
    /// restart counters. `status` is `"degraded"` whenever any of those
    /// indicate reduced service, `"ok"` otherwise.
    Health,
    /// Live introspection of the daemon's internals: queue depths,
    /// per-tenant engine/breaker/reorder state, flight-recorder stats,
    /// memo and pool counters, end-to-end latency totals.
    Debug {
        /// Restrict the per-tenant breakdown to this tenant; `None`
        /// returns every tenant.
        tenant: Option<String>,
    },
    /// Graceful drain: flush every shard queue, checkpoint every tenant,
    /// fsync the spools, then exit 0. The reply
    /// (`{"type":"ok","draining":true}`) is sent before the process
    /// exits. This is the verb a SIGTERM wrapper should call — the
    /// daemon installs no signal handlers (the workspace forbids the
    /// unsafe code they require). The drain is bounded by
    /// `--shutdown-deadline-ms`; on overrun the daemon checkpoints what
    /// drained, logs the stragglers, and exits nonzero.
    Shutdown,
    /// Snapshot every tenant engine to the checkpoint store now, without
    /// draining reorder buffers, for example ahead of planned
    /// maintenance.
    Checkpoint,
    /// Write one tenant's final checkpoint, then forget its in-memory
    /// state (engine, breaker, reorder buffer, restore latch) so its next
    /// frame restores from whatever snapshot is in the checkpoint store.
    /// The reply's `adopted` is `false` when the final checkpoint could
    /// not be written: the tenant then stays live, and its WAL keeps every
    /// frame the older snapshot does not cover. A fleet handoff sends
    /// this to the tenant's source worker and goes on only on `true`.
    Adopt {
        /// The tenant whose live state is dropped.
        tenant: String,
    },
    /// Move one tenant to another worker (router-only verb): flush and
    /// `adopt` on the source, `import` on the target, and reroute. A
    /// single-process daemon answers this with an error.
    Handoff {
        /// The tenant to move.
        tenant: String,
        /// Target worker index; `None` lets the router pick the next
        /// worker on the ring.
        worker: Option<usize>,
    },
}

/// Why a request line was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The line exceeds the configured frame-size cap.
    Oversized {
        /// Bytes received.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The line is not valid JSON.
    BadJson(String),
    /// The document is not a JSON object.
    NotAnObject,
    /// The object has no string `type` field.
    MissingType,
    /// The `type` is not one of the protocol's messages.
    UnknownType(String),
    /// A required field is absent.
    MissingField {
        /// The message type.
        msg: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// A field has the wrong shape.
    BadField {
        /// The message type.
        msg: &'static str,
        /// The offending field.
        field: &'static str,
        /// What was expected there.
        expected: &'static str,
    },
    /// An observe row names a different number of elements than the
    /// tenant's schema has attributes.
    Arity {
        /// Attributes in the registered schema.
        expected: usize,
        /// Elements in the offending row.
        got: usize,
    },
    /// An observe row names an element absent from the schema attribute at
    /// that position.
    UnknownElement {
        /// The schema attribute name.
        attribute: String,
        /// The unknown element name.
        element: String,
    },
    /// `observe` arrived before any `schema` for that tenant.
    NoSchema {
        /// The tenant id.
        tenant: String,
    },
    /// The tenant re-registered with different attributes.
    SchemaConflict {
        /// The tenant id.
        tenant: String,
    },
    /// `schema` attributes failed schema validation (duplicates, empty…).
    BadSchema(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::BadJson(e) => write!(f, "malformed JSON: {e}"),
            ProtoError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtoError::MissingType => write!(f, "request object needs a string 'type' field"),
            ProtoError::UnknownType(t) => write!(f, "unknown message type '{t}'"),
            ProtoError::MissingField { msg, field } => {
                write!(f, "'{msg}' message is missing field '{field}'")
            }
            ProtoError::BadField {
                msg,
                field,
                expected,
            } => {
                write!(f, "'{msg}' field '{field}' must be {expected}")
            }
            ProtoError::Arity { expected, got } => write!(
                f,
                "observe row has {got} elements but the schema has {expected} attributes"
            ),
            ProtoError::UnknownElement { attribute, element } => {
                write!(f, "attribute '{attribute}' has no element '{element}'")
            }
            ProtoError::NoSchema { tenant } => {
                write!(f, "tenant '{tenant}' has no registered schema")
            }
            ProtoError::SchemaConflict { tenant } => write!(
                f,
                "tenant '{tenant}' is already registered with different attributes"
            ),
            ProtoError::BadSchema(e) => write!(f, "invalid schema: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The one-line `{"type":"error",...}` reply for this error.
    pub fn to_reply(&self) -> String {
        error_reply(&self.to_string())
    }
}

/// The one-line `{"type":"error","reason":...}` reply.
pub(crate) fn error_reply(reason: &str) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("error")),
        ("reason".to_string(), Json::str(reason)),
    ])
    .render()
}

/// Parse one request line, enforcing the frame-size cap.
///
/// # Errors
///
/// Any malformed input is a typed [`ProtoError`]; this function never
/// panics on untrusted bytes.
pub fn parse_request(line: &str, max_bytes: usize) -> Result<Request, ProtoError> {
    read_request(line, max_bytes, |_| Vec::new())
}

/// Receives an observe line's rows as [`read_request`] reads them: each
/// row's element names in order, then its value. A row of the wrong shape
/// can stop after some of its names; the request then fails and the sink
/// is dropped.
pub(crate) trait RowSink<'a> {
    /// The current row's element name at position `index`.
    fn name(&mut self, index: usize, name: Cow<'a, str>);
    /// The value that ends the current row, which had `names` names.
    fn row(&mut self, names: usize, value: f64);
}

/// Keeps nothing: for a reader that needs only the tenant and whether the
/// line has the observe shape.
impl<'a> RowSink<'a> for () {
    fn name(&mut self, _: usize, _: Cow<'a, str>) {}
    fn row(&mut self, _: usize, _: f64) {}
}

/// `None` checks the rows' shape and keeps nothing: a tenant with no
/// schema to resolve them against.
impl<'a, S: RowSink<'a>> RowSink<'a> for Option<S> {
    fn name(&mut self, index: usize, name: Cow<'a, str>) {
        if let Some(sink) = self {
            sink.name(index, name);
        }
    }

    fn row(&mut self, names: usize, value: f64) {
        if let Some(sink) = self {
            sink.row(names, value);
        }
    }
}

/// The rows as received, names owned: [`parse_request`]'s form.
impl<'a> RowSink<'a> for Vec<(Vec<String>, f64)> {
    fn name(&mut self, index: usize, name: Cow<'a, str>) {
        if index == 0 {
            self.push((Vec::new(), f64::NAN));
        }
        if let Some((names, _)) = self.last_mut() {
            names.push(name.into_owned());
        }
    }

    fn row(&mut self, names: usize, value: f64) {
        match self.last_mut() {
            Some(last) if names > 0 => last.1 = value,
            _ => self.push((Vec::new(), value)),
        }
    }
}

/// Read one request line, enforcing the frame-size cap. An observe line
/// is read in one pass: a key scan finds `type`, `tenant` and `ts` (the
/// first of each wins, as with [`Json::get`]) and checks every other
/// value, and the rows go to the sink `rows_for(tenant)` returns as they
/// are read. That is in the same pass when `type` and `tenant` come
/// before `rows`; otherwise the scan skips `rows` and they are read from
/// their offset once it ends. Every other message is read through a
/// [`Json`] tree.
///
/// The errors are [`parse_request`]'s, in the same precedence: a syntax
/// error before any shape error, and a wrong `tenant` before wrong `rows`
/// before a wrong `ts`.
pub(crate) fn read_request<'a, S: RowSink<'a>>(
    line: &'a str,
    max_bytes: usize,
    mut rows_for: impl FnMut(&str) -> S,
) -> Result<Request<S>, ProtoError> {
    if line.len() > max_bytes {
        return Err(ProtoError::Oversized {
            len: line.len(),
            max: max_bytes,
        });
    }
    match scan_observe(&mut Scanner::new(line), &mut rows_for) {
        Err(e) => Err(ProtoError::BadJson(e)),
        Ok(Some(found)) => found.into_request(line, rows_for),
        Ok(None) => parse_tree(line),
    }
}

/// The shape an observe's `rows` must have.
const ROWS_SHAPE: &str = "an array of [[elements...], value] pairs";

/// Where an observe line's key scan left its `rows`.
enum Rows<S> {
    /// Read during the scan into the sink; `false` when some value had
    /// the wrong shape.
    Read(S, bool),
    /// Skipped by the scan, which met `rows` before `type` or `tenant`:
    /// the value's byte offset.
    At(usize),
}

/// What the key scan found on an observe line: for `tenant` and `ts`,
/// `None` when the key is absent and `Some(None)` when its first value
/// has the wrong type.
struct KeyScan<'a, S> {
    tenant: Option<Option<Cow<'a, str>>>,
    ts: Option<Option<u64>>,
    rows: Option<Rows<S>>,
}

/// Scan a request object's keys, checking the whole line. `Ok(None)` when
/// the line is not an object whose first `type` is `"observe"`.
fn scan_observe<'a, S: RowSink<'a>>(
    sc: &mut Scanner<'a>,
    rows_for: &mut impl FnMut(&str) -> S,
) -> Result<Option<KeyScan<'a, S>>, String> {
    sc.skip_ws();
    if sc.peek() != Some(b'{') {
        return Ok(None);
    }
    let mut observe = false;
    let mut found = KeyScan {
        tenant: None,
        ts: None,
        rows: None,
    };
    if sc.open(b'{', b'}')? {
        loop {
            match &*sc.key()? {
                "type" if !observe => {
                    if sc.peek() != Some(b'"') || sc.string()? != "observe" {
                        return Ok(None);
                    }
                    observe = true;
                }
                "tenant" if found.tenant.is_none() => {
                    found.tenant = Some(if sc.peek() == Some(b'"') {
                        Some(sc.string()?)
                    } else {
                        sc.skip_value()?;
                        None
                    });
                }
                "ts" if found.ts.is_none() => {
                    found.ts = Some(if matches!(sc.peek(), Some(b'-' | b'0'..=b'9')) {
                        exact_u64(sc.number()?)
                    } else {
                        sc.skip_value()?;
                        None
                    });
                }
                "rows" if found.rows.is_none() => {
                    found.rows = Some(match &found.tenant {
                        Some(Some(tenant)) if observe => {
                            let mut sink = rows_for(tenant);
                            let shaped = read_rows(sc, &mut sink)?;
                            Rows::Read(sink, shaped)
                        }
                        _ => {
                            let at = sc.pos();
                            sc.skip_value()?;
                            Rows::At(at)
                        }
                    });
                }
                _ => sc.skip_value()?,
            }
            if !sc.next(b'}')? {
                break;
            }
        }
    }
    sc.finish()?;
    Ok(observe.then_some(found))
}

impl<'a, S: RowSink<'a>> KeyScan<'a, S> {
    /// The observe request, or its first shape error.
    fn into_request(
        self,
        line: &'a str,
        mut rows_for: impl FnMut(&str) -> S,
    ) -> Result<Request<S>, ProtoError> {
        let missing = |field| ProtoError::MissingField {
            msg: "observe",
            field,
        };
        let bad = |field, expected| ProtoError::BadField {
            msg: "observe",
            field,
            expected,
        };
        let tenant = match self.tenant {
            None => return Err(missing("tenant")),
            Some(None) => return Err(bad("tenant", "a string")),
            Some(Some(tenant)) => tenant,
        };
        let rows = match self.rows {
            None => return Err(missing("rows")),
            Some(Rows::Read(sink, true)) => sink,
            Some(Rows::Read(_, false)) => return Err(bad("rows", ROWS_SHAPE)),
            Some(Rows::At(at)) => {
                let mut sink = rows_for(&tenant);
                match read_rows(&mut Scanner::at(line, at), &mut sink) {
                    Ok(true) => sink,
                    Ok(false) => return Err(bad("rows", ROWS_SHAPE)),
                    // unreachable: the scan checked these bytes
                    Err(e) => return Err(ProtoError::BadJson(e)),
                }
            }
        };
        let ts = match self.ts {
            None => None,
            Some(Some(ts)) => Some(ts),
            Some(None) => {
                return Err(bad("ts", "a non-negative integer (milliseconds)"));
            }
        };
        Ok(Request::Observe {
            tenant: tenant.into_owned(),
            rows,
            ts,
        })
    }
}

/// Read an observe's `rows` value into `sink`. A value of the wrong shape
/// is still checked to its end, so a later syntax error wins over it:
/// `Ok(false)` then, and `Err` only for a syntax error.
fn read_rows<'a, S: RowSink<'a>>(sc: &mut Scanner<'a>, sink: &mut S) -> Result<bool, String> {
    if sc.peek() != Some(b'[') {
        sc.skip_value()?;
        return Ok(false);
    }
    let mut shaped = true;
    if sc.open(b'[', b']')? {
        loop {
            shaped &= read_row(sc, sink)?;
            if !sc.next(b']')? {
                break;
            }
        }
    }
    Ok(shaped)
}

/// One `[[elements...], value]` row; `null` is the wire form of NaN.
fn read_row<'a, S: RowSink<'a>>(sc: &mut Scanner<'a>, sink: &mut S) -> Result<bool, String> {
    if sc.peek() != Some(b'[') {
        sc.skip_value()?;
        return Ok(false);
    }
    if !sc.open(b'[', b']')? {
        return Ok(false);
    }
    let mut shaped = true;
    let mut names = 0;
    if sc.peek() == Some(b'[') {
        if sc.open(b'[', b']')? {
            loop {
                if sc.peek() == Some(b'"') {
                    sink.name(names, sc.string()?);
                } else {
                    sc.skip_value()?;
                    shaped = false;
                }
                names += 1;
                if !sc.next(b']')? {
                    break;
                }
            }
        }
    } else {
        sc.skip_value()?;
        shaped = false;
    }
    if !sc.next(b']')? {
        return Ok(false);
    }
    let value = match sc.peek() {
        Some(b'n') => sc.literal("null").map(|()| f64::NAN)?,
        Some(b'-' | b'0'..=b'9') => sc.number()?,
        _ => {
            sc.skip_value()?;
            shaped = false;
            f64::NAN
        }
    };
    if sc.next(b']')? {
        // a third item
        shaped = false;
        loop {
            sc.skip_value()?;
            if !sc.next(b']')? {
                break;
            }
        }
    }
    if shaped {
        sink.row(names, value);
    }
    Ok(shaped)
}

/// Every message but `observe`, through a [`Json`] tree.
fn parse_tree<R>(line: &str) -> Result<Request<R>, ProtoError> {
    let doc = parse(line).map_err(ProtoError::BadJson)?;
    let Json::Obj(_) = doc else {
        return Err(ProtoError::NotAnObject);
    };
    let msg_type = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or(ProtoError::MissingType)?;
    // an observe line never gets here: `read_request` read it
    match msg_type {
        "schema" => parse_schema(doc),
        "flush" => Ok(Request::Flush),
        "stats" => Ok(Request::Stats),
        "incidents" => {
            let limit = match doc.get("limit") {
                None => 20,
                Some(v) => v.as_u64().ok_or(ProtoError::BadField {
                    msg: "incidents",
                    field: "limit",
                    expected: "a non-negative integer",
                })? as usize,
            };
            Ok(Request::Incidents { limit })
        }
        "trace" => {
            let limit = match doc.get("limit") {
                None => 50,
                Some(v) => v.as_u64().ok_or(ProtoError::BadField {
                    msg: "trace",
                    field: "limit",
                    expected: "a non-negative integer",
                })? as usize,
            };
            Ok(Request::Trace { limit })
        }
        "quarantine" => {
            let limit = match doc.get("limit") {
                None => 20,
                Some(v) => v.as_u64().ok_or(ProtoError::BadField {
                    msg: "quarantine",
                    field: "limit",
                    expected: "a non-negative integer",
                })? as usize,
            };
            Ok(Request::Quarantine { limit })
        }
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        "checkpoint" => Ok(Request::Checkpoint),
        "adopt" => Ok(Request::Adopt {
            tenant: required_str(&doc, "adopt", "tenant")?,
        }),
        "handoff" => {
            let worker = match doc.get("worker") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or(ProtoError::BadField {
                    msg: "handoff",
                    field: "worker",
                    expected: "a non-negative integer",
                })? as usize),
            };
            Ok(Request::Handoff {
                tenant: required_str(&doc, "handoff", "tenant")?,
                worker,
            })
        }
        "debug" => {
            let tenant = match doc.get("tenant") {
                None => None,
                Some(v) => Some(v.as_str().map(str::to_string).ok_or(ProtoError::BadField {
                    msg: "debug",
                    field: "tenant",
                    expected: "a string",
                })?),
            };
            Ok(Request::Debug { tenant })
        }
        other => Err(ProtoError::UnknownType(other.to_string())),
    }
}

fn required_str(doc: &Json, msg: &'static str, field: &'static str) -> Result<String, ProtoError> {
    match doc.get(field) {
        None => Err(ProtoError::MissingField { msg, field }),
        Some(v) => v.as_str().map(str::to_string).ok_or(ProtoError::BadField {
            msg,
            field,
            expected: "a string",
        }),
    }
}

/// An owned `[a, b]` pair, if `v` is a two-element array.
fn into_pair(v: Json) -> Option<(Json, Json)> {
    let [a, b] = <[Json; 2]>::try_from(v.into_arr()?).ok()?;
    Some((a, b))
}

/// The owned strings of `v`, if it is an array of strings.
fn into_strings(v: Json) -> Option<Vec<String>> {
    v.into_arr()?.into_iter().map(Json::into_string).collect()
}

fn parse_schema<R>(mut doc: Json) -> Result<Request<R>, ProtoError> {
    let tenant = required_str(&doc, "schema", "tenant")?;
    let attrs = doc.take("attributes").ok_or(ProtoError::MissingField {
        msg: "schema",
        field: "attributes",
    })?;
    Ok(Request::Schema {
        tenant,
        attributes: attribute_parts(attrs, "schema")?,
    })
}

// The parsed tree is consumed: element names move into the request
// instead of being copied out of it.
fn attribute_parts(attrs: Json, msg: &'static str) -> Result<SchemaParts, ProtoError> {
    let bad = || ProtoError::BadField {
        msg,
        field: "attributes",
        expected: "an array of [name, [elements]] pairs",
    };
    let attrs = attrs.into_arr().ok_or_else(bad)?;
    let mut attributes = Vec::with_capacity(attrs.len());
    for pair in attrs {
        let (name, elements) = into_pair(pair).ok_or_else(bad)?;
        let name = name.into_string().ok_or_else(bad)?;
        let elements = into_strings(elements).ok_or_else(bad)?;
        attributes.push((name, elements));
    }
    Ok(attributes)
}

/// `(attribute, elements)` pairs as `schema` and `import` lines and the
/// WAL's schema journal write them.
pub(crate) fn attributes_json(parts: &[(String, Vec<String>)]) -> Json {
    Json::Arr(
        parts
            .iter()
            .map(|(name, elements)| {
                Json::Arr(vec![
                    Json::str(name),
                    Json::Arr(elements.iter().map(Json::str).collect()),
                ])
            })
            .collect(),
    )
}

/// The `import` line, the one router→worker verb: take `tenant` over from
/// worker `source`. No NDJSON front door knows it (`unknown message
/// type`); a fleet worker's envelope handler runs it.
pub(crate) fn import_line(
    tenant: &str,
    source: usize,
    attributes: Option<&[(String, Vec<String>)]>,
) -> String {
    let mut pairs = vec![
        ("type".to_string(), Json::str("import")),
        ("tenant".to_string(), Json::str(tenant)),
        ("source".to_string(), Json::Num(source as f64)),
    ];
    pairs.extend(attributes.map(|parts| ("attributes".to_string(), attributes_json(parts))));
    Json::Obj(pairs).render()
}

/// Read an [`import_line`]: its tenant, source worker and attributes.
pub(crate) fn read_import(line: &str) -> Result<(String, usize, Option<SchemaParts>), ProtoError> {
    let mut doc = parse(line).map_err(ProtoError::BadJson)?;
    let source = doc
        .get("source")
        .and_then(Json::as_u64)
        .ok_or(ProtoError::MissingField {
            msg: "import",
            field: "source",
        })?;
    let attributes = doc.take("attributes").map(|a| attribute_parts(a, "import"));
    Ok((
        required_str(&doc, "import", "tenant")?,
        source as usize,
        attributes.transpose()?,
    ))
}

/// Resolve an observe message's rows against the tenant's schema into a
/// [`LeafFrame`], enforcing row arity and element names.
///
/// # Errors
///
/// [`ProtoError::Arity`] when a row's element count differs from the
/// schema's attribute count, [`ProtoError::UnknownElement`] for element
/// names the schema does not contain.
pub fn build_frame(schema: &Schema, rows: &[(Vec<String>, f64)]) -> Result<LeafFrame, ProtoError> {
    let num_attrs = schema.num_attributes();
    let mut builder = LeafFrame::builder(schema);
    let mut elements: Vec<ElementId> = Vec::with_capacity(num_attrs);
    for (names, value) in rows {
        if names.len() != num_attrs {
            return Err(ProtoError::Arity {
                expected: num_attrs,
                got: names.len(),
            });
        }
        elements.clear();
        for (attr_id, name) in schema.attr_ids().zip(names) {
            let attr = schema.attribute(attr_id);
            let id = attr
                .element(name)
                .ok_or_else(|| ProtoError::UnknownElement {
                    attribute: attr.name().to_string(),
                    element: name.clone(),
                })?;
            elements.push(id);
        }
        builder.push(&elements, *value, 0.0);
    }
    Ok(builder.build())
}

// ---------------------------------------------------------------------------
// Sockets. A message sent in two writes (a body, then "\n") meets Nagle's
// algorithm: the second segment waits for the peer's ACK of the first,
// which the peer delays up to 40 ms while it waits for the whole message.
// So every stream rapd accepts or opens goes through `setup_stream`, and
// every message leaves in one `write_all`.
// ---------------------------------------------------------------------------

/// How often a blocked read on a rapd connection wakes to poll the
/// shutdown flag and request deadlines.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// Prepare a stream for request/reply traffic: set its read timeout
/// (`None` blocks) and turn on `TCP_NODELAY`.
///
/// # Errors
///
/// Any error from setting the socket options.
pub fn setup_stream(stream: &TcpStream, read_timeout: Option<Duration>) -> io::Result<()> {
    stream.set_read_timeout(read_timeout)?;
    stream.set_nodelay(true)
}

/// Write one NDJSON line — `line` plus `\n` — with a single `write_all`.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

enum LineRead {
    /// Connection closed (any final unterminated partial line is in `line`).
    Eof,
    /// One complete line is in `line`.
    Line,
    /// The line exceeded `max` bytes; the rest of it was discarded.
    Oversized(usize),
}

/// Read one `\n`-terminated line with a hard size cap, tolerating read
/// timeouts (the caller polls the shutdown flag between attempts).
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(LineRead::Eof);
        }
        if let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.len() > max {
                return Ok(LineRead::Oversized(line.len()));
            }
            return Ok(LineRead::Line);
        }
        let n = buf.len();
        line.extend_from_slice(buf);
        reader.consume(n);
        if line.len() > max {
            let total = discard_to_newline(reader, line.len())?;
            return Ok(LineRead::Oversized(total));
        }
    }
}

/// Discard bytes until (and including) the next newline; returns the total
/// size of the oversized line.
fn discard_to_newline(reader: &mut BufReader<TcpStream>, mut seen: usize) -> io::Result<usize> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(seen);
        }
        if let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            seen += pos;
            reader.consume(pos + 1);
            return Ok(seen);
        }
        seen += buf.len();
        let n = buf.len();
        reader.consume(n);
    }
}

/// Serve one NDJSON client connection until EOF, an I/O error, or
/// `shutdown`: every non-blank line (a final unterminated one included)
/// gets `dispatch`'s reply, and a line over `max` bytes gets an error
/// reply, counted in `protocol_errors`, without closing the connection.
/// The single-process daemon and the fleet router's front door differ
/// only in `dispatch`.
pub(crate) fn serve_lines(
    stream: TcpStream,
    max: usize,
    shutdown: &AtomicBool,
    protocol_errors: &AtomicU64,
    dispatch: impl Fn(&str) -> String,
) {
    if setup_stream(&stream, Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        let (reply, eof) = match read_line_limited(&mut reader, &mut line, max) {
            Err(e) => match e.kind() {
                // poll tick: partial data stays in `line`, keep reading
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => continue,
                _ => return,
            },
            Ok(LineRead::Oversized(len)) => {
                protocol_errors.fetch_add(1, Ordering::Relaxed);
                (Some(ProtoError::Oversized { len, max }.to_reply()), false)
            }
            Ok(read) => {
                let text = String::from_utf8_lossy(&line);
                let text = text.trim();
                let reply = (!text.is_empty()).then(|| dispatch(text));
                (reply, matches!(read, LineRead::Eof))
            }
        };
        if let Some(reply) = reply {
            if write_line(&mut writer, &reply).is_err() {
                return;
            }
        }
        if eof {
            return;
        }
        line.clear();
    }
}

/// One rapd front door: a bound TCP listener whose accept thread serves
/// each connection on a thread of its own. The single-process daemon, a
/// fleet worker and the fleet router differ only in the per-connection
/// function, which gets the stream and the listener's stop flag.
///
/// A finished connection's thread is joined at the next accept, so a
/// closed connection keeps no thread stack mapped. Stopping sets the flag,
/// wakes the accept with a self-connect, and joins the accept thread and
/// every connection thread; each connection polls the flag between reads.
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` (port 0 picks a free port) and serve each accepted
    /// connection with `serve`. `name` prefixes the thread names.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the accept thread cannot
    /// be spawned.
    pub(crate) fn bind<F>(addr: &str, name: &str, serve: F) -> io::Result<Listener>
    where
        F: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let serve = Arc::new(serve);
        let conn_name = format!("{name}-conn");
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    for done in conns.extract_if(.., |c| c.is_finished()) {
                        let _ = done.join();
                    }
                    let Ok(stream) = conn else { continue };
                    let (serve, flag) = (Arc::clone(&serve), Arc::clone(&flag));
                    let spawned = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || serve(stream, &flag));
                    match spawned {
                        Ok(handle) => conns.push(handle),
                        Err(e) => obs::warn(
                            "rapd.listener",
                            "connection_thread_spawn_failed",
                            &[
                                ("listener", obs::Value::Str(conn_name.clone())),
                                ("error", obs::Value::Str(e.to_string())),
                            ],
                        ),
                    }
                }
                for conn in conns {
                    let _ = conn.join();
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join every thread; later calls do nothing.
    pub(crate) fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // unblock accept() with one throwaway connection
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Fleet wire protocol: length-prefixed frames between the router and its
// workers.
//
// The public NDJSON protocol stays line-oriented; the router↔worker hop
// instead uses `u32` big-endian length-prefixed frames so a frame boundary
// survives any payload bytes and a torn connection is detected as a short
// read, never a silently merged line. A connection carries requests from
// its first frame: the router and its workers are one executable, and the
// supervisor refuses a worker whose announce line names another
// `WIRE_VERSION`. Each request frame is an envelope, a header line and then
// the request line byte for byte:
//
//   42 29 edge-0000002a-1754700000123\n{"type":"observe",...}
//   \n{"type":"flush"}
//
// An observe's header is its sequence, its token's length in bytes, and
// the token, raw (a tenant name may hold a newline or any other byte, so
// the length, not a delimiter, ends the token): the router mints the
// token, the worker adopts it, and the (tenant, seq) pair is the worker's
// redelivery-dedup key. Every other request has an empty header. The reply
// frame is the raw NDJSON reply line.
// ---------------------------------------------------------------------------

/// The wire-protocol version this build speaks; a worker announces it.
pub const WIRE_VERSION: u64 = 2;

/// The largest request envelope a router taking lines of up to
/// `max_frame_bytes` builds, which a worker reads requests under.
///
/// An observe's envelope is its line plus a header of two numbers and a
/// token embedding the tenant name, which the line spells out in at least
/// as many bytes. An `import` line renders a schema the router read from
/// a client line, and the JSON string writer spends at most six bytes for
/// each one the client sent (`\u0001` for a raw control byte, which the
/// reader accepts). So six lines' worth and the fixed fields cover every
/// envelope. An NDJSON line sent to a worker port by mistake fails its
/// first read: `{"ty` announces a frame of about 2 GB, over the bound for
/// any line cap under 340 MB.
pub(crate) fn wire_request_bound(max_frame_bytes: usize) -> usize {
    max_frame_bytes.saturating_mul(6).saturating_add(256)
}

/// The bound a router reads worker replies under: only the frame header's
/// `u32` length. A worker is the router's own child on loopback, and a
/// `quarantine` or `debug` reply grows with the ring and the tenant count,
/// not with any request.
pub(crate) const WIRE_REPLY_BOUND: usize = u32::MAX as usize;

/// Write one length-prefixed frame (`u32` big-endian length + payload)
/// with a single `write_all`.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_wire_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "wire frame over 4 GiB")
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// The outcome of one framed read.
#[derive(Debug)]
pub enum WireRead {
    /// One complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// No bytes arrived and `keep_waiting` said to stop.
    Idle,
}

/// Read one length-prefixed frame, tolerating read timeouts: on
/// `WouldBlock`/`TimedOut` the `keep_waiting` callback decides whether to
/// keep polling (a worker waiting for its next request checks the
/// shutdown flag here). A timeout mid-frame keeps reading as long as
/// `keep_waiting` allows; EOF mid-frame is an `UnexpectedEof` error.
///
/// # Errors
///
/// `InvalidData` when the frame exceeds `max` bytes, `UnexpectedEof` on a
/// mid-frame close, or any other I/O error from the reader.
pub fn read_wire_frame(
    r: &mut impl std::io::Read,
    max: usize,
    keep_waiting: impl Fn() -> bool,
) -> std::io::Result<WireRead> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(WireRead::Eof);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting() {
                    return Ok(WireRead::Idle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("wire frame of {len} bytes exceeds the {max}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "gave up mid-frame",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(WireRead::Frame(payload))
}

/// One request envelope on the router→worker hop.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope {
    /// The raw NDJSON request line to dispatch.
    pub line: String,
    /// For observes: the router-minted correlation token and its sequence
    /// number, adopted (and deduplicated) by the worker.
    pub frame: Option<(String, u64)>,
}

impl WireEnvelope {
    /// Render the envelope: its header, then the line as it is.
    pub fn render(&self) -> String {
        let mut out = match &self.frame {
            Some((token, seq)) => format!("{seq} {} {token}\n", token.len()),
            None => "\n".to_string(),
        };
        out.reserve_exact(self.line.len());
        out.push_str(&self.line);
        out
    }

    /// Parse one envelope payload.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the payload is not an envelope.
    pub fn parse(payload: &str) -> Result<WireEnvelope, String> {
        if let Some(line) = payload.strip_prefix('\n') {
            return Ok(WireEnvelope {
                line: line.to_string(),
                frame: None,
            });
        }
        let tagged = || {
            let (seq, rest) = payload.split_once(' ')?;
            let (len, rest) = rest.split_once(' ')?;
            let len: usize = len.parse().ok()?;
            let line = rest.get(len..)?.strip_prefix('\n')?;
            Some((seq.parse().ok()?, rest.get(..len)?, line))
        };
        let (seq, token, line) = tagged().ok_or("malformed envelope header")?;
        Ok(WireEnvelope {
            line: line.to_string(),
            frame: Some((token.to_string(), seq)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 1 << 16;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("location", ["L1", "L2"])
            .attribute("isp", ["I1", "I2"])
            .build()
            .unwrap()
    }

    #[test]
    fn parses_every_message_type() {
        let req = parse_request(
            r#"{"type":"schema","tenant":"t","attributes":[["a",["a1","a2"]]]}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Schema {
                tenant: "t".to_string(),
                attributes: vec![("a".to_string(), vec!["a1".to_string(), "a2".to_string()])],
            }
        );
        let req = parse_request(
            r#"{"type":"observe","tenant":"t","rows":[[["L1","I1"],42.5]]}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Observe {
                tenant: "t".to_string(),
                rows: vec![(vec!["L1".to_string(), "I1".to_string()], 42.5)],
                ts: None,
            }
        );
        let req = parse_request(
            r#"{"type":"observe","tenant":"t","ts":1700000000000,"rows":[[["L1","I1"],1.0]]}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Observe {
                tenant: "t".to_string(),
                rows: vec![(vec!["L1".to_string(), "I1".to_string()], 1.0)],
                ts: Some(1_700_000_000_000),
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"flush"}"#, MAX).unwrap(),
            Request::Flush
        );
        assert_eq!(
            parse_request(r#"{"type":"stats"}"#, MAX).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"type":"incidents","limit":5}"#, MAX).unwrap(),
            Request::Incidents { limit: 5 }
        );
        assert_eq!(
            parse_request(r#"{"type":"incidents"}"#, MAX).unwrap(),
            Request::Incidents { limit: 20 }
        );
        assert_eq!(
            parse_request(r#"{"type":"trace","limit":7}"#, MAX).unwrap(),
            Request::Trace { limit: 7 }
        );
        assert_eq!(
            parse_request(r#"{"type":"trace"}"#, MAX).unwrap(),
            Request::Trace { limit: 50 }
        );
        assert_eq!(
            parse_request(r#"{"type":"quarantine","limit":3}"#, MAX).unwrap(),
            Request::Quarantine { limit: 3 }
        );
        assert_eq!(
            parse_request(r#"{"type":"quarantine"}"#, MAX).unwrap(),
            Request::Quarantine { limit: 20 }
        );
        assert_eq!(
            parse_request(r#"{"type":"health"}"#, MAX).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"type":"debug"}"#, MAX).unwrap(),
            Request::Debug { tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"type":"debug","tenant":"edge"}"#, MAX).unwrap(),
            Request::Debug {
                tenant: Some("edge".to_string())
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"shutdown"}"#, MAX).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "not json at all",
            "{\"type\":",
            "[1,2,3]",
            "42",
            "{}",
            r#"{"type":17}"#,
            r#"{"type":"observe"}"#,
            r#"{"type":"observe","tenant":"t"}"#,
            r#"{"type":"observe","tenant":"t","rows":"nope"}"#,
            r#"{"type":"observe","tenant":"t","rows":[["missing-value"]]}"#,
            r#"{"type":"observe","tenant":"t","rows":[[["L1"],"NaN"]]}"#,
            r#"{"type":"observe","tenant":17,"rows":[]}"#,
            r#"{"type":"schema","tenant":"t"}"#,
            r#"{"type":"schema","tenant":"t","attributes":[["a"]]}"#,
            r#"{"type":"schema","tenant":"t","attributes":[["a","b"]]}"#,
            r#"{"type":"incidents","limit":-3}"#,
            r#"{"type":"incidents","limit":1.5}"#,
            r#"{"type":"trace","limit":-1}"#,
            r#"{"type":"trace","limit":"all"}"#,
            r#"{"type":"quarantine","limit":-1}"#,
            r#"{"type":"debug","tenant":17}"#,
            r#"{"type":"observe","tenant":"t","ts":-5,"rows":[]}"#,
            r#"{"type":"observe","tenant":"t","ts":1.5,"rows":[]}"#,
            r#"{"type":"observe","tenant":"t","ts":"now","rows":[]}"#,
        ] {
            let err = parse_request(line, MAX).expect_err(line);
            // every error renders a reply line that is itself valid JSON
            let reply = crate::json::parse(&err.to_reply()).unwrap();
            assert_eq!(reply.get("type").unwrap().as_str(), Some("error"));
        }
    }

    #[test]
    fn a_deeply_nested_line_is_bad_json_not_a_stack_overflow() {
        // 200 kB, under the default 1 MiB line cap: each level once cost a
        // stack frame, and this many overflowed a connection thread's stack
        for line in [
            "[".repeat(200_000),
            r#"{"a":"#.repeat(200_000),
            format!(
                r#"{{"type":"observe","tenant":"t","rows":{}"#,
                "[".repeat(200_000)
            ),
        ] {
            let head = &line[..20];
            let err = parse_request(&line, 1 << 20).expect_err(head);
            assert!(matches!(err, ProtoError::BadJson(_)), "{head}: {err}");
            // the router's validating scan
            let err = read_request(&line, 1 << 20, |_| ()).expect_err(head);
            assert!(matches!(err, ProtoError::BadJson(_)), "{head}: {err}");
        }
    }

    #[test]
    fn null_row_value_parses_to_nan() {
        // JSON cannot encode NaN; `null` is its wire form. The frame must
        // survive parsing so admission control can quarantine it with a
        // reason instead of the reader bouncing it as malformed.
        let req = parse_request(
            r#"{"type":"observe","tenant":"t","rows":[[["L1","I1"],null],[["L2","I2"],7.0]]}"#,
            MAX,
        )
        .unwrap();
        let Request::Observe { rows, .. } = req else {
            panic!("expected observe");
        };
        assert!(rows[0].1.is_nan());
        assert_eq!(rows[1].1, 7.0);
    }

    #[test]
    fn unknown_type_is_named_in_the_error() {
        let err = parse_request(r#"{"type":"observe2"}"#, MAX).unwrap_err();
        assert_eq!(err, ProtoError::UnknownType("observe2".to_string()));
        assert!(err.to_string().contains("observe2"));
    }

    #[test]
    fn oversized_frames_are_rejected_before_parsing() {
        let huge = format!(
            r#"{{"type":"observe","tenant":"t","rows":[{}]}}"#,
            "1,".repeat(500)
        );
        let err = parse_request(&huge, 64).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { max: 64, .. }));
    }

    #[test]
    fn build_frame_enforces_arity() {
        let s = schema();
        let err = build_frame(&s, &[(vec!["L1".to_string()], 1.0)]).unwrap_err();
        assert_eq!(
            err,
            ProtoError::Arity {
                expected: 2,
                got: 1
            }
        );
        let err = build_frame(
            &s,
            &[(
                vec!["L1".to_string(), "I1".to_string(), "X".to_string()],
                1.0,
            )],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ProtoError::Arity {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn build_frame_rejects_unknown_elements() {
        let s = schema();
        let err = build_frame(&s, &[(vec!["L1".to_string(), "I9".to_string()], 1.0)]).unwrap_err();
        assert_eq!(
            err,
            ProtoError::UnknownElement {
                attribute: "isp".to_string(),
                element: "I9".to_string(),
            }
        );
    }

    #[test]
    fn build_frame_produces_a_leaf_frame() {
        let s = schema();
        let frame = build_frame(
            &s,
            &[
                (vec!["L1".to_string(), "I1".to_string()], 10.0),
                (vec!["L2".to_string(), "I2".to_string()], 20.0),
            ],
        )
        .unwrap();
        assert_eq!(frame.num_rows(), 2);
        assert_eq!(frame.total_v(), 30.0);
    }

    #[test]
    fn fleet_verbs_parse() {
        assert_eq!(
            parse_request(r#"{"type":"checkpoint"}"#, MAX).unwrap(),
            Request::Checkpoint
        );
        assert_eq!(
            parse_request(r#"{"type":"adopt","tenant":"t"}"#, MAX).unwrap(),
            Request::Adopt {
                tenant: "t".to_string()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"handoff","tenant":"t","worker":2}"#, MAX).unwrap(),
            Request::Handoff {
                tenant: "t".to_string(),
                worker: Some(2)
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"handoff","tenant":"t"}"#, MAX).unwrap(),
            Request::Handoff {
                tenant: "t".to_string(),
                worker: None
            }
        );
        assert!(parse_request(r#"{"type":"adopt"}"#, MAX).is_err());
        assert!(parse_request(r#"{"type":"handoff","tenant":"t","worker":"x"}"#, MAX).is_err());
        // the router→worker verb: a worker reads it, no client front door
        let parts = vec![("loc".to_string(), vec!["L\"1".to_string()])];
        let import = import_line("t", 2, Some(&parts));
        let read = read_import(&import).unwrap();
        assert_eq!(read, ("t".to_string(), 2, Some(parts)));
        assert_eq!(read_import(&import_line("t", 0, None)).unwrap().2, None);
        assert!(read_import(r#"{"type":"import","tenant":"t"}"#).is_err());
        assert_eq!(
            parse_request(&import, MAX),
            Err(ProtoError::UnknownType("import".to_string()))
        );
    }

    #[test]
    fn wire_frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_wire_frame(&mut buf, b"hello").unwrap();
        write_wire_frame(&mut buf, b"").unwrap();
        write_wire_frame(&mut buf, b"world!").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let read = |c: &mut std::io::Cursor<Vec<u8>>| read_wire_frame(c, 1 << 20, || true);
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Frame(p) if p == b"hello"));
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Frame(p) if p.is_empty()));
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Frame(p) if p == b"world!"));
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Eof));
    }

    /// Keeps the bytes of each `write` call apart, the way an unbuffered
    /// socket sends each call as its own segment.
    #[derive(Default)]
    struct Segments(Vec<Vec<u8>>);

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_leaves_in_one_write() {
        let mut w = Segments::default();
        write_wire_frame(&mut w, b"payload").unwrap();
        write_line(&mut w, r#"{"type":"ok"}"#).unwrap();
        assert_eq!(w.0, [&b"\0\0\0\x07payload"[..], b"{\"type\":\"ok\"}\n"]);
    }

    #[test]
    fn wire_reads_reject_oversized_and_torn_frames() {
        let mut buf: Vec<u8> = Vec::new();
        write_wire_frame(&mut buf, b"0123456789").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let err = read_wire_frame(&mut cursor, 4, || true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // torn mid-frame: cut the payload short
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_wire_frame(&mut cursor, 1 << 20, || true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // torn mid-header
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        let err = read_wire_frame(&mut cursor, 1 << 20, || true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn wire_envelopes_round_trip() {
        let bare = WireEnvelope {
            line: r#"{"type":"stats"}"#.to_string(),
            frame: None,
        };
        assert_eq!(WireEnvelope::parse(&bare.render()).unwrap(), bare);
        // a token embeds the raw tenant name, and a line may hold any escape
        let every_escape =
            r#"{"type":"observe","tenant":"q\"\\\/\b\f\n\r\tz\u00e9\ud83d\ude00","rows":[]}"#;
        for token in [
            "t-0000002a-123",
            "edge eu 1-00000001-0",
            "a\nb-1-2",
            "\"q\"\t\\-00000001-0",
            "é日本-7-8",
            "",
        ] {
            for (line, seq) in [(every_escape, 42), ("", 0), ("\n 1 2 x\n", u64::MAX)] {
                let tagged = WireEnvelope {
                    line: line.to_string(),
                    frame: Some((token.to_string(), seq)),
                };
                // the header, then the line byte for byte
                let rendered = tagged.render();
                assert_eq!(rendered, format!("{seq} {} {token}\n{line}", token.len()));
                assert_eq!(WireEnvelope::parse(&rendered).unwrap(), tagged);
            }
        }
        for garbage in [
            r#"{"nope":1}"#,
            "1 5 abc\n{}",
            "x 1 a\n",
            "1 1 \u{e9}\n",
            "1 99 a\n",
        ] {
            assert!(WireEnvelope::parse(garbage).is_err(), "{garbage:?}");
        }
        // the largest observe a client may send, its tenant name filling
        // the line: the envelope carries the name twice and must still fit
        let max = 1 << 20;
        let shell = r#"{"type":"observe","tenant":"","rows":[]}"#;
        let tenant = "t".repeat(max - shell.len());
        let line = format!(r#"{{"type":"observe","tenant":"{tenant}","rows":[]}}"#);
        assert_eq!(line.len(), max);
        assert!(parse_request(&line, max).is_ok());
        // the longest token `obs::FrameId::mint` writes for that tenant
        let token = format!("{tenant}-{:08x}-{}", u64::MAX, u64::MAX);
        let longest = WireEnvelope {
            line,
            frame: Some((token, u64::MAX)),
        };
        assert!(longest.render().len() <= wire_request_bound(max));
        // the import of a schema whose names are raw control bytes, which
        // the JSON writer spells `\u0001`: six bytes for each one sent
        let names = || "\u{1}".repeat((max - 80) / 2);
        let schema = format!(
            r#"{{"type":"schema","tenant":"{}","attributes":[["{}",["e"]]]}}"#,
            names(),
            names()
        );
        assert!(schema.len() <= max);
        let Ok(Request::Schema { tenant, attributes }) = parse_request(&schema, max) else {
            panic!("a legal schema line");
        };
        let import = WireEnvelope {
            line: import_line(&tenant, usize::MAX, Some(&attributes)),
            frame: None,
        };
        assert!(import.render().len() <= wire_request_bound(max));
        assert!(
            import.render().len() > 5 * max,
            "the import case is the largest"
        );
    }
}
