//! Typed errors for the inspection engine.

use std::fmt;

/// Errors surfaced by DeepBase operations.
///
/// Marked `#[non_exhaustive]`: the set grows as the pipeline hardens, and
/// future variants must not be semver-breaking for downstream matchers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DniError {
    /// A record violated dataset invariants.
    BadRecord {
        /// Record id.
        record: usize,
        /// Description.
        msg: String,
    },
    /// A hypothesis emitted an invalid behavior vector (wrong length or
    /// non-finite values); checked at execution time per §4.1.
    BadHypothesisOutput {
        /// Offending hypothesis id.
        hypothesis: String,
        /// Record being evaluated.
        record: usize,
        /// Description.
        msg: String,
    },
    /// A unit group referenced units outside the model.
    BadUnitGroup {
        /// Offending group id.
        group: String,
        /// Description.
        msg: String,
    },
    /// Invalid inspection configuration.
    BadConfig(String),
    /// INSPECT query syntax or binding error.
    Query(String),
    /// The run budget's wall-clock deadline (or a row/pass cap) expired
    /// before the pass could produce a result. An INSPECT degrades
    /// gracefully instead of raising this; only a view build, which needs
    /// a complete pass, surfaces it as an error.
    DeadlineExceeded(String),
    /// The run was cancelled through a [`CancelToken`](crate::prelude::CancelToken).
    /// As with [`DniError::DeadlineExceeded`], an INSPECT degrades
    /// gracefully instead; a view build or refresh raises this.
    Cancelled,
    /// A hypothesis or extractor panicked, on the batch's thread or a
    /// fan-out thread; the panic was contained at the extraction-group
    /// boundary and its original payload is carried here verbatim. One
    /// poisoned group fails only its own queries — siblings complete.
    Internal(String),
    /// A view-catalog I/O failure (loading, saving or dropping a view
    /// file). The behavior *store* keeps its own fail-soft error channel
    /// (`StoreStats::errors`) because persistence there is an
    /// accelerator; a view is the answer itself, so its I/O failures
    /// surface as typed errors. (The display prefix `ingest io error:` is
    /// part of the wire format and stays.)
    Io(String),
    /// A view operation named a view the catalog doesn't hold.
    UnknownView(String),
    /// A `read_view` found the stored frame out of date with the current
    /// inputs; the reason says whether a refresh (dataset grew) or a full
    /// rebuild (anything else changed) would cure it. Reads never rebuild
    /// implicitly — that would silently forfeit the replay guarantee.
    ViewStale {
        /// View name.
        view: String,
        /// Human-readable staleness cause.
        reason: String,
    },
}

impl fmt::Display for DniError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DniError::BadRecord { record, msg } => write!(f, "record {record}: {msg}"),
            DniError::BadHypothesisOutput {
                hypothesis,
                record,
                msg,
            } => {
                write!(f, "hypothesis {hypothesis:?} on record {record}: {msg}")
            }
            DniError::BadUnitGroup { group, msg } => write!(f, "unit group {group:?}: {msg}"),
            DniError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            DniError::Query(msg) => write!(f, "query error: {msg}"),
            DniError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            DniError::Cancelled => write!(f, "run cancelled"),
            DniError::Internal(msg) => write!(f, "internal error (worker panic): {msg}"),
            DniError::Io(msg) => write!(f, "ingest io error: {msg}"),
            DniError::UnknownView(name) => write!(f, "unknown view {name:?}"),
            DniError::ViewStale { view, reason } => {
                write!(f, "view {view:?} is stale: {reason}")
            }
        }
    }
}

impl std::error::Error for DniError {}

/// Parses a Rust `{:?}`-escaped string literal at the head of `s`:
/// returns the unescaped contents and the remainder after the closing
/// quote. Handles the escapes `escape_debug` emits (`\"`, `\\`, `\n`,
/// `\r`, `\t`, `\0`, `\'` and `\u{..}`), which is exactly what
/// [`DniError`]'s `Display` produces for its quoted fields.
fn parse_debug_str(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &rest[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                '0' => out.push('\0'),
                '\'' => out.push('\''),
                'u' => {
                    let (open, _) = chars.next()?;
                    let hex_start = open + 1;
                    let mut hex_end = hex_start;
                    for (j, h) in chars.by_ref() {
                        hex_end = j;
                        if h == '}' {
                            break;
                        }
                    }
                    let code = u32::from_str_radix(&rest[hex_start..hex_end], 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            other => out.push(other),
        }
    }
    None
}

impl DniError {
    /// Stable numeric code of this error variant, for the wire protocol
    /// and greppable logs. Codes are append-only: a variant's code never
    /// changes and codes of removed variants are never reused. Code `0`
    /// is reserved for protocol-level (non-`DniError`) failures.
    ///
    /// The match is intentionally exhaustive *inside this crate* (where
    /// `#[non_exhaustive]` still permits it): adding a variant without
    /// assigning a code is a compile error, which is what keeps the
    /// wire mapping total (see the `codes_are_exhaustive_and_stable`
    /// test).
    pub fn code(&self) -> u16 {
        match self {
            DniError::BadRecord { .. } => 1,
            DniError::BadHypothesisOutput { .. } => 2,
            DniError::BadUnitGroup { .. } => 3,
            DniError::BadConfig(_) => 4,
            DniError::Query(_) => 5,
            DniError::DeadlineExceeded(_) => 6,
            DniError::Cancelled => 7,
            DniError::Internal(_) => 8,
            DniError::Io(_) => 9,
            DniError::UnknownView(_) => 10,
            DniError::ViewStale { .. } => 11,
        }
    }

    /// Reconstructs an error from its wire form: the stable
    /// [`DniError::code`] plus the `Display` rendering. The round trip
    /// `DniError::from_wire(e.code(), &e.to_string()) == e` holds for
    /// every variant (structured fields are parsed back out of the
    /// display prefix), so errors serialize losslessly over the wire.
    /// Unknown codes — a newer server talking to an older client — and
    /// unparseable messages degrade to [`DniError::Query`] carrying the
    /// raw message rather than being dropped.
    pub fn from_wire(code: u16, message: &str) -> DniError {
        fn tail<'m>(message: &'m str, prefix: &str) -> Option<&'m str> {
            message.strip_prefix(prefix)
        }
        let parsed = match code {
            1 => tail(message, "record ").and_then(|rest| {
                let (record, msg) = rest.split_once(": ")?;
                Some(DniError::BadRecord {
                    record: record.parse().ok()?,
                    msg: msg.to_string(),
                })
            }),
            2 => tail(message, "hypothesis ").and_then(|rest| {
                let (hypothesis, rest) = parse_debug_str(rest)?;
                let rest = rest.strip_prefix(" on record ")?;
                let (record, msg) = rest.split_once(": ")?;
                Some(DniError::BadHypothesisOutput {
                    hypothesis,
                    record: record.parse().ok()?,
                    msg: msg.to_string(),
                })
            }),
            3 => tail(message, "unit group ").and_then(|rest| {
                let (group, rest) = parse_debug_str(rest)?;
                let msg = rest.strip_prefix(": ")?;
                Some(DniError::BadUnitGroup {
                    group,
                    msg: msg.to_string(),
                })
            }),
            4 => tail(message, "bad configuration: ").map(|m| DniError::BadConfig(m.to_string())),
            5 => tail(message, "query error: ").map(|m| DniError::Query(m.to_string())),
            6 => tail(message, "deadline exceeded: ")
                .map(|m| DniError::DeadlineExceeded(m.to_string())),
            7 => Some(DniError::Cancelled),
            8 => tail(message, "internal error (worker panic): ")
                .map(|m| DniError::Internal(m.to_string())),
            9 => tail(message, "ingest io error: ").map(|m| DniError::Io(m.to_string())),
            10 => tail(message, "unknown view ").and_then(|rest| {
                let (name, rest) = parse_debug_str(rest)?;
                rest.is_empty().then_some(DniError::UnknownView(name))
            }),
            11 => tail(message, "view ").and_then(|rest| {
                let (view, rest) = parse_debug_str(rest)?;
                let reason = rest.strip_prefix(" is stale: ")?;
                Some(DniError::ViewStale {
                    view,
                    reason: reason.to_string(),
                })
            }),
            _ => None,
        };
        parsed.unwrap_or_else(|| DniError::Query(format!("[code {code}] {message}")))
    }

    /// True for errors that a retry of the same statement could clear
    /// without any change to query, catalog, or configuration: budget
    /// expiry and cancellation. Everything else — bad inputs, corrupt
    /// state, contained panics — is deterministic and will recur. The
    /// store retry path uses the same transient/permanent split for IO
    /// errors (see `deepbase_store::StoreError::is_transient`).
    pub fn is_transient(&self) -> bool {
        matches!(self, DniError::DeadlineExceeded(_) | DniError::Cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = DniError::BadHypothesisOutput {
            hypothesis: "kw:SELECT".into(),
            record: 3,
            msg: "behavior length 5 != ns 30".into(),
        };
        let s = e.to_string();
        assert!(s.contains("kw:SELECT"));
        assert!(s.contains("record 3"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            DniError::BadConfig("x".into()),
            DniError::BadConfig("x".into())
        );
        assert_ne!(DniError::BadConfig("x".into()), DniError::Query("x".into()));
    }

    /// Every variant carries a distinct, stable, non-zero code. The list
    /// below is the full constructor set; `DniError::code` uses an
    /// exhaustive in-crate match, so a new variant fails compilation
    /// there until a code is assigned, and fails this test until the
    /// sample list (and the wire docs) are extended.
    fn one_of_each_variant() -> Vec<DniError> {
        vec![
            DniError::BadRecord {
                record: 7,
                msg: "empty symbol stream".into(),
            },
            DniError::BadHypothesisOutput {
                hypothesis: "kw:\"SELECT\"\n\ttab".into(),
                record: 3,
                msg: "behavior length 5 != ns 30".into(),
            },
            DniError::BadUnitGroup {
                group: "layer-1\\cells".into(),
                msg: "unit 99 out of range".into(),
            },
            DniError::BadConfig("block_records must be > 0".into()),
            DniError::Query("unknown dataset \"D\"".into()),
            DniError::DeadlineExceeded("10ms elapsed before first block".into()),
            DniError::Cancelled,
            DniError::Internal("worker panic: index out of bounds".into()),
            DniError::Io("view \"dash\" save failed: disk full".into()),
            DniError::UnknownView("dash\"board\"".into()),
            DniError::ViewStale {
                view: "dashboard\ttab".into(),
                reason: "2 new segments; REFRESH to fold them in".into(),
            },
        ]
    }

    #[test]
    fn codes_are_exhaustive_and_stable() {
        let samples = one_of_each_variant();
        let codes: Vec<u16> = samples.iter().map(DniError::code).collect();
        // Pinned assignments: these are wire-visible and append-only.
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // Distinct and never the reserved protocol-error code 0.
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
        assert!(codes.iter().all(|&c| c != 0));
    }

    #[test]
    fn wire_round_trip_is_lossless_for_every_variant() {
        for e in one_of_each_variant() {
            let back = DniError::from_wire(e.code(), &e.to_string());
            assert_eq!(back, e, "round trip mangled {e:?}");
        }
    }

    #[test]
    fn from_wire_degrades_gracefully_on_unknown_or_mangled_input() {
        // Unknown code (newer server, older client): keep the message.
        let e = DniError::from_wire(4242, "some future failure");
        assert_eq!(e, DniError::Query("[code 4242] some future failure".into()));
        // Known code but a message that doesn't match the variant's
        // display grammar: degrade, don't panic or drop.
        let e = DniError::from_wire(1, "not the bad-record shape");
        assert!(matches!(e, DniError::Query(_)));
        assert!(e.to_string().contains("not the bad-record shape"));
    }

    #[test]
    fn transience_splits_budget_errors_from_everything_else() {
        assert!(DniError::DeadlineExceeded("10ms".into()).is_transient());
        assert!(DniError::Cancelled.is_transient());
        assert!(!DniError::Internal("boom".into()).is_transient());
        assert!(!DniError::BadConfig("x".into()).is_transient());
        assert!(!DniError::Query("x".into()).is_transient());
    }
}
