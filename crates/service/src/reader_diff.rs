//! The observe reader against the tree it replaced, line by line.
//!
//! Seeded generated lines go through rapd's observe path — the one-pass
//! reader into id rows, admission on ids, the frame built from ids and the
//! journal line written from them — and through a reference kept here:
//! [`json::parse`], the observe rules `parse_request` applied to the tree,
//! admission on name rows, [`build_frame`] and
//! `WalEntry::to_json().render()`. On every line the request or error, the
//! verdict, the frame and the journal bytes must be equal.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;

use mdkpi::{ElementId, LeafFrame, Schema};
use obs::write_json_string;

use crate::admission::{AdmissionControl, IdRows, Verdict, WireRows};
use crate::json::{self, Json};
use crate::proto::{build_frame, parse_request, read_request, ProtoError, Request};
use crate::sync::lock_recover;
use crate::wal::{write_entry, WalEntry};

const MAX: usize = 1 << 20;
const TOKEN: &str = "t-0000002a-1754700000123";
const SEQ: u64 = 42;
const DRIFT_LIMIT: usize = 3;

// ---------------------------------------------------------------------------
// The reference: the tree path and name-row admission as they were.
// ---------------------------------------------------------------------------

fn ref_parse(line: &str) -> Result<Request, ProtoError> {
    let doc = json::parse(line).map_err(ProtoError::BadJson)?;
    let Json::Obj(_) = doc else {
        return Err(ProtoError::NotAnObject);
    };
    let msg_type = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or(ProtoError::MissingType)?;
    match msg_type {
        "observe" => ref_parse_observe(doc),
        "stats" => Ok(Request::Stats),
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

fn into_pair(v: Json) -> Option<(Json, Json)> {
    let [a, b] = <[Json; 2]>::try_from(v.into_arr()?).ok()?;
    Some((a, b))
}

fn into_strings(v: Json) -> Option<Vec<String>> {
    v.into_arr()?.into_iter().map(Json::into_string).collect()
}

fn ref_parse_observe(mut doc: Json) -> Result<Request, ProtoError> {
    let tenant = required_str(&doc, "observe", "tenant")?;
    let bad = || ProtoError::BadField {
        msg: "observe",
        field: "rows",
        expected: "an array of [[elements...], value] pairs",
    };
    let raw_rows = doc
        .take("rows")
        .ok_or(ProtoError::MissingField {
            msg: "observe",
            field: "rows",
        })?
        .into_arr()
        .ok_or_else(bad)?;
    let mut rows = Vec::with_capacity(raw_rows.len());
    for row in raw_rows {
        let (elements, value) = into_pair(row).ok_or_else(bad)?;
        let elements = into_strings(elements).ok_or_else(bad)?;
        let value = match value {
            Json::Null => f64::NAN,
            v => v.as_f64().ok_or_else(bad)?,
        };
        rows.push((elements, value));
    }
    let ts = match doc.get("ts") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or(ProtoError::BadField {
            msg: "observe",
            field: "ts",
            expected: "a non-negative integer (milliseconds)",
        })?),
    };
    Ok(Request::Observe { tenant, rows, ts })
}

enum RefVerdict {
    Admit {
        rows: WireRows,
        repairs: (u64, u64, u64),
    },
    Quarantine {
        reason: &'static str,
        detail: String,
        rows: WireRows,
    },
}

struct RefAdmission {
    drift_limit: usize,
    drifted: Mutex<HashMap<String, HashSet<(String, String)>>>,
}

impl RefAdmission {
    fn admit(
        &self,
        tenant: &str,
        schema: &Schema,
        mut rows: WireRows,
    ) -> Result<RefVerdict, ProtoError> {
        let num_attrs = schema.num_attributes();
        for (names, _) in &rows {
            if names.len() != num_attrs {
                return Err(ProtoError::Arity {
                    expected: num_attrs,
                    got: names.len(),
                });
            }
        }
        if let Some((names, value)) = rows.iter().find(|(_, value)| !value.is_finite()) {
            let detail = format!("leaf ({}) value {value} is not finite", names.join(", "));
            return Ok(RefVerdict::Quarantine {
                reason: "non_finite",
                detail,
                rows,
            });
        }
        let mut keep = vec![true; rows.len()];
        let mut ids: Vec<ElementId> = Vec::with_capacity(rows.len() * num_attrs);
        let mut repaired_drift = 0u64;
        let mut drifted = None;
        for (row, (names, _)) in rows.iter().enumerate() {
            let start = ids.len();
            for (attr_id, name) in schema.attr_ids().zip(names) {
                let attr = schema.attribute(attr_id);
                if let Some(id) = attr.element(name) {
                    ids.push(id);
                    continue;
                }
                let registry = drifted
                    .get_or_insert_with(|| lock_recover(&self.drifted))
                    .entry(tenant.to_string())
                    .or_default();
                let key = (attr.name().to_string(), name.clone());
                if !registry.contains(&key) {
                    if registry.len() >= self.drift_limit {
                        let detail = format!(
                            "unknown {}=\"{}\" exceeds the drift allowance of {}",
                            key.0, key.1, self.drift_limit
                        );
                        return Ok(RefVerdict::Quarantine {
                            reason: "schema_drift",
                            detail,
                            rows,
                        });
                    }
                    registry.insert(key);
                }
                repaired_drift += 1;
                ids.truncate(start);
                keep[row] = false;
                break;
            }
        }
        drop(drifted);
        if !rows.is_empty() && !keep.contains(&true) {
            return Ok(RefVerdict::Quarantine {
                reason: "schema_drift",
                detail: "every row referenced unknown attribute values".to_string(),
                rows,
            });
        }
        let mut leaves = ids.chunks_exact(num_attrs);
        let mut first: HashMap<&[ElementId], usize> = HashMap::with_capacity(rows.len());
        let mut repaired_duplicate = 0u64;
        for row in 0..rows.len() {
            if !keep[row] {
                continue;
            }
            let Some(leaf) = leaves.next() else { break };
            if let Some(&at) = first.get(leaf) {
                rows[at].1 = rows[row].1;
                keep[row] = false;
                repaired_duplicate += 1;
            } else {
                first.insert(leaf, row);
            }
        }
        let mut keep = keep.into_iter();
        rows.retain(|_| keep.next() == Some(true));
        let mut repaired_negative = 0u64;
        for (_, value) in &mut rows {
            if *value < 0.0 {
                *value = 0.0;
                repaired_negative += 1;
            }
        }
        Ok(RefVerdict::Admit {
            rows,
            repairs: (repaired_duplicate, repaired_negative, repaired_drift),
        })
    }
}

// ---------------------------------------------------------------------------
// One line through both paths.
// ---------------------------------------------------------------------------

/// What the observe path made of one line. Rows compare by their `Debug`
/// form, so a NaN value equals a NaN.
#[derive(Debug, PartialEq)]
enum Outcome {
    Error(ProtoError),
    Other(String),
    Quarantine {
        reason: &'static str,
        detail: String,
        rows: String,
    },
    Admit {
        rows: String,
        repairs: (u64, u64, u64),
        frame: LeafFrame,
        journal: String,
    },
}

fn reference(line: &str, schemas: &HashMap<String, Schema>, ac: &RefAdmission) -> Outcome {
    let request = match ref_parse(line) {
        Err(e) => return Outcome::Error(e),
        Ok(request) => request,
    };
    let Request::Observe { tenant, rows, ts } = request else {
        return Outcome::Other(format!("{request:?}"));
    };
    let Some(schema) = schemas.get(&tenant) else {
        return Outcome::Error(ProtoError::NoSchema { tenant });
    };
    match ac.admit(&tenant, schema, rows) {
        Err(e) => Outcome::Error(e),
        Ok(RefVerdict::Quarantine {
            reason,
            detail,
            rows,
        }) => Outcome::Quarantine {
            reason,
            detail,
            rows: format!("{rows:?}"),
        },
        Ok(RefVerdict::Admit { rows, repairs }) => {
            let frame = build_frame(schema, &rows).expect("admitted rows resolve");
            let entry = WalEntry {
                tenant,
                frame: TOKEN.to_string(),
                seq: SEQ,
                ts,
                rows,
            };
            Outcome::Admit {
                rows: format!("{:?}", entry.rows),
                repairs,
                frame,
                journal: entry.to_json().render(),
            }
        }
    }
}

fn observe_path(line: &str, schemas: &HashMap<String, Schema>, ac: &AdmissionControl) -> Outcome {
    let request = read_request(line, MAX, |tenant| {
        schemas
            .get(tenant)
            .map(|schema| IdRows::new(schema.clone(), line))
    });
    let (tenant, rows, ts) = match request {
        Err(e) => return Outcome::Error(e),
        Ok(Request::Observe { tenant, rows, ts }) => (tenant, rows, ts),
        Ok(other) => return Outcome::Other(format!("{other:?}")),
    };
    let Some(rows) = rows else {
        return Outcome::Error(ProtoError::NoSchema { tenant });
    };
    match ac.admit(&tenant, rows) {
        Err(e) => Outcome::Error(e),
        Ok(Verdict::Quarantine {
            reason,
            detail,
            rows,
        }) => Outcome::Quarantine {
            reason,
            detail,
            rows: format!("{rows:?}"),
        },
        Ok(Verdict::Admit(admitted)) => {
            let named: WireRows = admitted
                .named_rows()
                .map(|(names, value)| (names.map(str::to_string).collect(), value))
                .collect();
            Outcome::Admit {
                rows: format!("{named:?}"),
                repairs: (
                    admitted.repaired_duplicate,
                    admitted.repaired_negative,
                    admitted.repaired_drift,
                ),
                frame: admitted.frame(),
                journal: write_entry(&tenant, TOKEN, SEQ, ts, line.len(), admitted.named_rows()),
            }
        }
    }
}

/// The outcome's kind, for the coverage count.
fn kind(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Error(e) => {
            let text = format!("{e:?}");
            let name = text
                .split(['(', ' '])
                .next()
                .unwrap_or_default()
                .to_string();
            match e {
                ProtoError::MissingField { field, .. } | ProtoError::BadField { field, .. } => {
                    format!("{name} {field}")
                }
                _ => name,
            }
        }
        Outcome::Other(_) => "other".to_string(),
        Outcome::Quarantine { reason, .. } => format!("quarantine {reason}"),
        Outcome::Admit { repairs, .. } => match repairs {
            (0, 0, 0) => "admit".to_string(),
            (dup, neg, drift) => format!(
                "repair{}{}{}",
                if *dup > 0 { " duplicate" } else { "" },
                if *neg > 0 { " negative" } else { "" },
                if *drift > 0 { " drift" } else { "" }
            ),
        },
    }
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

/// splitmix64; no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

const ATTRIBUTES: [(&str, &[&str]); 3] = [
    ("location", &["L1", "L2", "L3", "L/1", "L\"q"]),
    ("isp", &["I1", "I2"]),
    ("site", &["S1", "Sé"]),
];

/// Names no attribute has.
const DRIFTED: [&str; 6] = ["L9", "L8", "Xé", "I7", "S\u{1}", "L\\"];

/// Rows of the wrong shape.
const MISSHAPEN: [&str; 10] = [
    r#"[["L1","I1","S1"],1,2]"#,
    r#"[[1,"I1","S1"],5]"#,
    r#"[["L1","I1","S1"],"5"]"#,
    "5",
    r#"["L1",5]"#,
    "[]",
    r#"[["L1","I1","S1"]]"#,
    r#"[["L1","I1","S1"],true]"#,
    r#"[[{"a":[1]},"I1","S1"],1]"#,
    r#"[["L1","I1","S1"],[1]]"#,
];

/// Whitespace, now and then, wherever JSON allows it.
fn ws(rng: &mut Rng) -> &'static str {
    if rng.one_in(6) {
        const SPACES: [&str; 6] = [" ", "\t", "\n", "\r", "  ", " \t\r\n"];
        SPACES[rng.below(SPACES.len())]
    } else {
        ""
    }
}

/// `s` as a JSON string, written one of several ways that decode to it:
/// plain, its first char as a `\uXXXX` escape, or `/` as `\/`.
fn encode(rng: &mut Rng, s: &str) -> String {
    let mut plain = String::new();
    write_json_string(s, &mut plain);
    match (rng.below(4), s.chars().next()) {
        (0, Some(c)) if (c as u32) < 0x1_0000 => {
            let mut rest = String::new();
            write_json_string(&s[c.len_utf8()..], &mut rest);
            if rng.one_in(2) {
                format!("\"\\u{:04x}{}", c as u32, &rest[1..])
            } else {
                format!("\"\\u{:04X}{}", c as u32, &rest[1..])
            }
        }
        (1, _) => plain.replace('/', "\\/"),
        _ => plain,
    }
}

fn value(rng: &mut Rng) -> String {
    match rng.below(24) {
        0 => "null".to_string(),
        1 | 2 => format!("-{}", rng.below(100)),
        3 => "1e3".to_string(),
        4 => "2.5E-1".to_string(),
        5 => "-0".to_string(),
        6 => "0.0".to_string(),
        7 => "1.5e2".to_string(),
        8..=15 => rng.below(1000).to_string(),
        _ => format!("{}.{}", rng.below(1000), rng.below(100)),
    }
}

fn row(rng: &mut Rng, earlier: &mut Vec<Vec<String>>) -> String {
    if rng.one_in(60) {
        return rng.pick(&MISSHAPEN).to_string();
    }
    let mut names: Vec<String> = if !earlier.is_empty() && rng.one_in(8) {
        // a duplicate leaf
        earlier[rng.below(earlier.len())].clone()
    } else {
        ATTRIBUTES
            .iter()
            .map(|(_, elements)| {
                if rng.one_in(25) {
                    rng.pick(&DRIFTED).to_string()
                } else {
                    rng.pick(elements).to_string()
                }
            })
            .collect()
    };
    if rng.one_in(60) {
        names.pop();
    } else if rng.one_in(60) {
        names.push("L1".to_string());
    }
    earlier.push(names.clone());
    let names: Vec<String> = names
        .iter()
        .map(|name| format!("{}{}{}", ws(rng), encode(rng, name), ws(rng)))
        .collect();
    format!(
        "[{}[{}]{},{}{}{}]",
        ws(rng),
        names.join(","),
        ws(rng),
        ws(rng),
        value(rng),
        ws(rng)
    )
}

fn rows(rng: &mut Rng) -> String {
    match rng.below(60) {
        0 => "\"nope\"".to_string(),
        1 => "{}".to_string(),
        2 => "null".to_string(),
        3 => "[]".to_string(),
        _ => {
            let mut earlier = Vec::new();
            let rows: Vec<String> = (0..1 + rng.below(6))
                .map(|_| format!("{}{}{}", ws(rng), row(rng, &mut earlier), ws(rng)))
                .collect();
            format!("[{}]", rows.join(","))
        }
    }
}

/// One observe line, most of them well formed.
fn line(rng: &mut Rng) -> String {
    if rng.one_in(200) {
        return rng
            .pick(&["[1,2]", "42", "\"observe\"", "null"])
            .to_string();
    }
    let mut pairs: Vec<(&str, String)> = Vec::new();
    match rng.below(40) {
        0 => {}
        1 => pairs.push(("type", "17".to_string())),
        2 => pairs.push(("type", "\"observe2\"".to_string())),
        3 => pairs.push(("type", "\"stats\"".to_string())),
        4 => pairs.push(("type", "\"obs\\u0065rve\"".to_string())),
        _ => pairs.push(("type", "\"observe\"".to_string())),
    }
    match rng.below(30) {
        0 => {}
        1 => pairs.push(("tenant", "17".to_string())),
        2 => pairs.push(("tenant", "\"ghost\"".to_string())),
        3 => pairs.push(("tenant", "\"\\u0074\"".to_string())),
        _ => pairs.push(("tenant", "\"t\"".to_string())),
    }
    if !rng.one_in(40) {
        pairs.push(("rows", rows(rng)));
    }
    match rng.below(16) {
        0 => pairs.push(("ts", "60000".to_string())),
        1 => pairs.push(("ts", "1e3".to_string())),
        2 => pairs.push(("ts", "1.5".to_string())),
        3 => pairs.push(("ts", "-1".to_string())),
        4 => pairs.push(("ts", "\"x\"".to_string())),
        5 => pairs.push(("ts", "null".to_string())),
        _ => {}
    }
    if rng.one_in(8) {
        let nested = rng.pick(&[
            r#"{"a":[1,{"b":null}],"c":"\u00e9"}"#,
            "[[],[[\"L1\"]],-2.5e-3]",
            "\"tenant\"",
            "true",
        ]);
        pairs.push(("extra", nested.to_string()));
    }
    if rng.one_in(10) {
        // a repeated key: the first occurrence wins
        let (key, value) = rng.pick(&[
            ("tenant", "\"ghost\""),
            ("rows", "[]"),
            ("type", "\"stats\""),
            ("ts", "\"x\""),
            ("rows", "\"nope\""),
        ]);
        pairs.push((key, value.to_string()));
    }
    if rng.one_in(3) {
        // `tenant` and `ts` after `rows`, and every other order
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i + 1));
        }
    }
    let members: Vec<String> = pairs
        .iter()
        .map(|(key, value)| {
            let key = encode(rng, key);
            format!("{}{key}{}:{}{value}{}", ws(rng), ws(rng), ws(rng), ws(rng))
        })
        .collect();
    let mut line = format!("{}{{{}}}{}", ws(rng), members.join(","), ws(rng));
    if rng.one_in(20) {
        // cut at a random offset
        let mut at = rng.below(line.len() + 1);
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        line.truncate(at);
    } else if rng.one_in(20) {
        // one stray byte
        let mut at = rng.below(line.len() + 1);
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let stray = rng.pick(&[
            '{', '}', '[', ']', ',', ':', '"', '\\', 'a', '0', '-', '.', 'e', ' ', 'é',
        ]);
        line.insert(at, *stray);
    }
    line
}

#[test]
fn the_observe_reader_agrees_with_the_tree_line_by_line() {
    let schema = Schema::from_parts(
        ATTRIBUTES
            .iter()
            .map(|(name, elements)| (name.to_string(), elements.to_vec())),
    )
    .unwrap();
    let schemas: HashMap<String, Schema> = [("t".to_string(), schema)].into();
    let mut rng = Rng(0x0B5E_27E5);
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let (mut ac, mut reference_ac) = (None, None);
    for n in 0..6000 {
        if n % 40 == 0 {
            // fresh drift registries, so frames land both within and
            // beyond the allowance
            ac = Some(AdmissionControl::new(DRIFT_LIMIT));
            reference_ac = Some(RefAdmission {
                drift_limit: DRIFT_LIMIT,
                drifted: Mutex::new(HashMap::new()),
            });
        }
        let (ac, reference_ac) = (ac.as_ref().unwrap(), reference_ac.as_ref().unwrap());
        let line = line(&mut rng);

        // the public entry point, which still returns name rows
        let expected = ref_parse(&line);
        assert_eq!(
            format!("{:?}", parse_request(&line, MAX)),
            format!("{expected:?}"),
            "parse_request on line {n}: {line}"
        );
        // the router's scan, which keeps only the tenant and `ts`
        let routed = read_request(&line, MAX, |_| ()).map(|r| match r {
            Request::Observe { tenant, ts, .. } => format!("observe {tenant} {ts:?}"),
            other => format!("{other:?}"),
        });
        let expected = expected.map(|r| match r {
            Request::Observe { tenant, ts, .. } => format!("observe {tenant} {ts:?}"),
            other => format!("{other:?}"),
        });
        assert_eq!(routed, expected, "router scan on line {n}: {line}");

        // the daemon's observe path: verdict, frame and journal bytes
        let outcome = observe_path(&line, &schemas, ac);
        assert_eq!(
            outcome,
            reference(&line, &schemas, reference_ac),
            "observe path on line {n}: {line}"
        );
        *kinds.entry(kind(&outcome)).or_default() += 1;
    }
    // every case the generator aims at was met
    for kind in [
        "admit",
        "duplicate",
        "negative",
        "drift",
        "quarantine non_finite",
        "quarantine schema_drift",
        "BadJson",
        "NotAnObject",
        "MissingType",
        "UnknownType",
        "MissingField tenant",
        "BadField tenant",
        "MissingField rows",
        "BadField rows",
        "BadField ts",
        "NoSchema",
        "Arity",
        "other",
    ] {
        assert!(
            kinds
                .keys()
                .any(|k| k.starts_with(kind) || k.starts_with("repair") && k.contains(kind)),
            "no line produced {kind}: {kinds:?}"
        );
    }
}
