//! The `INSPECT` SQL extension (paper Appendix B): catalog, lexer and
//! parser.
//!
//! DNI embeds naturally in a SQL-like language: models, hidden units,
//! hypotheses and input datasets are catalog relations, `INSPECT ... USING
//! ... OVER ...` runs the inspection, and ordinary `WHERE` / `GROUP BY` /
//! `HAVING` / `SELECT` clauses pre-filter units and post-process scores:
//!
//! ```sql
//! SELECT M.epoch, S.uid
//! INSPECT U.uid AND H.h USING corr OVER D.seq AS S
//! FROM models M, units U, hypotheses H, inputs D
//! WHERE M.mid = 'sqlparser' AND U.layer = 0 AND H.name = 'keywords'
//! GROUP BY M.epoch
//! HAVING S.unit_score > 0.8
//! ```
//!
//! This module owns the surface: a hand-written lexer + recursive-descent
//! parser producing [`InspectQuery`], and the [`Catalog`] the planner
//! binds against. Nothing here executes: a statement is bound and
//! optimized by the `plan` module and run by a
//! [`crate::session::Session`] (prepared statements, plan cache, store,
//! views, admission control) — the only way to execute one.

use crate::error::DniError;
use crate::extract::Extractor;
use crate::measure::Measure;
use crate::model::{Dataset, HypothesisFn};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

/// Metadata of one hidden unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitMeta {
    /// Unit index within the model.
    pub uid: usize,
    /// Layer the unit belongs to.
    pub layer: i64,
}

/// One registered model.
///
/// Cloning is cheap (the extractor is `Arc`-shared) and **preserves
/// extractor identity** — a cloned catalog's queries group, deduplicate,
/// fingerprint and hypothesis-cache exactly like the original's. The
/// serving frontend relies on this: every connection's session clones
/// one master catalog.
#[derive(Clone)]
pub struct CatalogModel {
    /// Model identifier (`M.mid`).
    pub mid: String,
    /// Training epoch (`M.epoch`), for epoch-wise comparisons.
    pub epoch: i64,
    /// The model's behavior extractor.
    pub extractor: Arc<dyn Extractor>,
    /// Per-unit metadata (`U.uid`, `U.layer`).
    pub units: Vec<UnitMeta>,
}

/// The catalog the query planner binds against.
///
/// Cloning shares every registered entry (`Arc` clones, identity
/// preserved — see [`CatalogModel`]); the clone only copies the id maps.
#[derive(Clone, Default)]
pub struct Catalog {
    models: Vec<CatalogModel>,
    hypothesis_sets: BTreeMap<String, Vec<Arc<dyn HypothesisFn>>>,
    datasets: BTreeMap<String, Arc<Dataset>>,
    measures: BTreeMap<String, Arc<dyn Measure>>,
}

impl Catalog {
    /// Empty catalog with the standard measure library pre-registered.
    pub fn new() -> Catalog {
        let mut catalog = Catalog::default();
        for m in crate::measure::standard_library() {
            let m: Arc<dyn Measure> = Arc::from(m);
            catalog.measures.insert(m.id().to_string(), m);
        }
        catalog
    }

    /// Registers a model with uniform layer 0 metadata.
    pub fn add_model(&mut self, mid: &str, epoch: i64, extractor: Arc<dyn Extractor>) {
        let units = (0..extractor.n_units())
            .map(|uid| UnitMeta { uid, layer: 0 })
            .collect();
        self.models.push(CatalogModel {
            mid: mid.to_string(),
            epoch,
            extractor,
            units,
        });
    }

    /// Registers a model with explicit unit metadata.
    pub fn add_model_with_units(
        &mut self,
        mid: &str,
        epoch: i64,
        extractor: Arc<dyn Extractor>,
        units: Vec<UnitMeta>,
    ) {
        self.models.push(CatalogModel {
            mid: mid.to_string(),
            epoch,
            extractor,
            units,
        });
    }

    /// Registers a named hypothesis set (`H.name`).
    pub fn add_hypotheses(&mut self, name: &str, hyps: Vec<Arc<dyn HypothesisFn>>) {
        self.hypothesis_sets.insert(name.to_string(), hyps);
    }

    /// Registers a dataset (`D.name`).
    pub fn add_dataset(&mut self, name: &str, dataset: Arc<Dataset>) {
        self.datasets.insert(name.to_string(), dataset);
    }

    /// Appends a batch of records to a registered dataset as one new
    /// sealed segment, re-registering the grown dataset under the same
    /// name. The existing segments (and their content fingerprints) are
    /// untouched, so store columns keyed per segment stay warm and a
    /// re-run extracts only the appended records.
    pub fn append_to_dataset(
        &mut self,
        name: &str,
        records: Vec<crate::model::Record>,
    ) -> Result<(), DniError> {
        let dataset = self
            .datasets
            .get(name)
            .ok_or_else(|| DniError::Query(format!("unknown dataset {name:?}")))?;
        let grown = dataset.append_segment(records)?;
        self.datasets.insert(name.to_string(), Arc::new(grown));
        Ok(())
    }

    /// Registered models, in registration order.
    pub fn models(&self) -> &[CatalogModel] {
        &self.models
    }

    /// Registered hypothesis sets, in name order.
    pub fn hypothesis_sets(
        &self,
    ) -> impl Iterator<Item = (&str, &Vec<Arc<dyn HypothesisFn>>)> + '_ {
        self.hypothesis_sets.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Looks up a dataset by registration name.
    pub fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets.get(name).cloned()
    }

    /// Registered datasets, in name order.
    pub fn datasets(&self) -> impl Iterator<Item = (&str, &Arc<Dataset>)> + '_ {
        self.datasets.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// Looks up a measure by id.
    pub(crate) fn measure(&self, id: &str) -> Option<Arc<dyn Measure>> {
        self.measures.get(id).cloned()
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    Dot,
    Comma,
    Op(String),
    Eof,
}

fn lex(input: &str) -> Result<Vec<Tok>, DniError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '.' {
            toks.push(Tok::Dot);
            i += 1;
        } else if c == ',' {
            toks.push(Tok::Comma);
            i += 1;
        } else if c == '\'' {
            let mut s = String::new();
            i += 1;
            let mut closed = false;
            while i < chars.len() {
                if chars[i] == '\'' {
                    closed = true;
                    i += 1;
                    break;
                }
                s.push(chars[i]);
                i += 1;
            }
            if !closed {
                return Err(DniError::Query("unterminated string literal".into()));
            }
            toks.push(Tok::Str(s));
        } else if c.is_ascii_digit()
            || (c == '-'
                && chars
                    .get(i + 1)
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false))
        {
            let start = i;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let num = text
                .parse::<f64>()
                .map_err(|e| DniError::Query(format!("bad number {text:?}: {e}")))?;
            toks.push(Tok::Num(num));
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok::Ident(chars[start..i].iter().collect()));
        } else if "=<>!".contains(c) {
            let mut op = String::from(c);
            i += 1;
            if i < chars.len() && "=<>".contains(chars[i]) {
                op.push(chars[i]);
                i += 1;
            }
            toks.push(Tok::Op(op));
        } else {
            return Err(DniError::Query(format!("unexpected character {c:?}")));
        }
    }
    toks.push(Tok::Eof);
    Ok(toks)
}

/// Canonicalizes a statement for plan-cache keying: lexes it and joins
/// the tokens with single spaces, lowercasing identifiers (the parser
/// lowercases every identifier it consumes, so two statements with the
/// same normalization always bind to the same plan). The result is
/// itself a parseable statement.
pub(crate) fn normalize_statement(input: &str) -> Result<String, DniError> {
    let mut out = String::new();
    for tok in lex(input)? {
        let piece = match tok {
            Tok::Eof => break,
            Tok::Ident(s) => s.to_lowercase(),
            Tok::Str(s) => format!("'{s}'"),
            Tok::Num(n) => format!("{n}"),
            Tok::Dot => ".".to_string(),
            Tok::Comma => ",".to_string(),
            Tok::Op(op) => op,
        };
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&piece);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// AST + parser
// ---------------------------------------------------------------------

/// A qualified column reference `alias.attr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    /// Relation alias.
    pub alias: String,
    /// Attribute name.
    pub attr: String,
}

/// A comparison literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
}

/// One predicate `alias.attr op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Column operand.
    pub col: ColRef,
    /// Comparison operator (`=`, `!=`/`<>`, `<`, `<=`, `>`, `>=`).
    pub op: String,
    /// Literal operand.
    pub value: Literal,
}

/// A parsed INSPECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectQuery {
    /// Projected columns.
    pub select: Vec<ColRef>,
    /// Unit operand of the INSPECT clause.
    pub inspect_units: ColRef,
    /// Hypothesis operand.
    pub inspect_hyps: ColRef,
    /// Measure names (defaults to `corr` per the paper).
    pub measures: Vec<String>,
    /// Dataset operand of OVER.
    pub over: ColRef,
    /// Result alias (AS S; defaults to `s`).
    pub result_alias: String,
    /// FROM relations as `(relation, alias)`.
    pub from: Vec<(String, String)>,
    /// WHERE conjuncts.
    pub where_conds: Vec<Cond>,
    /// GROUP BY columns.
    pub group_by: Vec<ColRef>,
    /// HAVING conjuncts (over the result alias).
    pub having: Vec<Cond>,
}

/// The token the parser hands out once input is exhausted. Returning a
/// reference needs a value with static lifetime.
const EOF: Tok = Tok::Eof;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        self.toks.get(self.pos).unwrap_or(&EOF)
    }

    /// Consumes one token. Past the end of input this returns [`Tok::Eof`]
    /// forever — it must never clamp the cursor and hand the *last real
    /// token* out again, which would let a truncated statement parse as if
    /// its final token repeated (and turn "unexpected end of input" errors
    /// into misleading ones).
    fn next(&mut self) -> Tok {
        let t = self.toks.get(self.pos).cloned().unwrap_or(Tok::Eof);
        self.pos += 1;
        t
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DniError> {
        match self.next() {
            Tok::Ident(id) if id.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(DniError::Query(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(id) if id.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, DniError> {
        match self.next() {
            Tok::Ident(id) => Ok(id),
            other => Err(DniError::Query(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn col_ref(&mut self) -> Result<ColRef, DniError> {
        let alias = self.ident()?;
        match self.next() {
            Tok::Dot => {}
            other => return Err(DniError::Query(format!("expected '.', found {other:?}"))),
        }
        let attr = self.ident()?;
        Ok(ColRef {
            alias: alias.to_lowercase(),
            attr: attr.to_lowercase(),
        })
    }

    fn col_ref_list(&mut self) -> Result<Vec<ColRef>, DniError> {
        let mut cols = vec![self.col_ref()?];
        while matches!(self.peek(), Tok::Comma) {
            self.next();
            cols.push(self.col_ref()?);
        }
        Ok(cols)
    }

    fn cond(&mut self) -> Result<Cond, DniError> {
        let col = self.col_ref()?;
        let op = match self.next() {
            Tok::Op(op) => match op.as_str() {
                "=" | "!=" | "<>" | "<" | "<=" | ">" | ">=" => op,
                other => return Err(DniError::Query(format!("unknown operator {other:?}"))),
            },
            other => {
                return Err(DniError::Query(format!(
                    "expected operator, found {other:?}"
                )))
            }
        };
        let value = match self.next() {
            Tok::Num(n) => Literal::Num(n),
            Tok::Str(s) => Literal::Str(s),
            other => {
                return Err(DniError::Query(format!(
                    "expected literal, found {other:?}"
                )))
            }
        };
        Ok(Cond { col, op, value })
    }

    fn cond_list(&mut self) -> Result<Vec<Cond>, DniError> {
        let mut conds = vec![self.cond()?];
        while self.peek_keyword("and") {
            self.next();
            conds.push(self.cond()?);
        }
        Ok(conds)
    }
}

/// Parses an INSPECT query. Statements must be complete — input ending
/// mid-clause is an error — and must end after the statement: trailing
/// tokens are rejected with a [`DniError::Query`].
pub fn parse(input: &str) -> Result<InspectQuery, DniError> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
    };

    p.keyword("select")?;
    let select = p.col_ref_list()?;

    p.keyword("inspect")?;
    let inspect_units = p.col_ref()?;
    p.keyword("and")?;
    let inspect_hyps = p.col_ref()?;

    let mut measures = Vec::new();
    if p.peek_keyword("using") {
        p.next();
        measures.push(p.ident()?.to_lowercase());
        while matches!(p.peek(), Tok::Comma) {
            p.next();
            measures.push(p.ident()?.to_lowercase());
        }
    } else {
        // Paper: "By default, DeepBase measures correlation".
        measures.push("corr".into());
    }

    p.keyword("over")?;
    let over = p.col_ref()?;
    let result_alias = if p.peek_keyword("as") {
        p.next();
        p.ident()?.to_lowercase()
    } else {
        "s".into()
    };

    p.keyword("from")?;
    let mut from = Vec::new();
    loop {
        let relation = p.ident()?.to_lowercase();
        let alias = p.ident()?.to_lowercase();
        from.push((relation, alias));
        if matches!(p.peek(), Tok::Comma) {
            p.next();
        } else {
            break;
        }
    }

    let mut where_conds = Vec::new();
    if p.peek_keyword("where") {
        p.next();
        where_conds = p.cond_list()?;
    }
    let mut group_by = Vec::new();
    if p.peek_keyword("group") {
        p.next();
        p.keyword("by")?;
        group_by = p.col_ref_list()?;
    }
    let mut having = Vec::new();
    if p.peek_keyword("having") {
        p.next();
        having = p.cond_list()?;
    }
    match p.peek() {
        Tok::Eof => Ok(InspectQuery {
            select,
            inspect_units,
            inspect_hyps,
            measures,
            over,
            result_alias,
            from,
            where_conds,
            group_by,
            having,
        }),
        other => Err(DniError::Query(format!("trailing tokens near {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::PrecomputedExtractor;
    use crate::model::{FnHypothesis, Record};
    use crate::session::{Session, SessionConfig};
    use deepbase_relational::Table;
    use deepbase_relational::Value;
    use deepbase_tensor::Matrix;

    const PAPER_QUERY: &str = "
        SELECT M.epoch, S.uid
        INSPECT U.uid AND H.h USING corr OVER D.seq AS S
        FROM models M, units U, hypotheses H, inputs D
        WHERE M.mid = 'sqlparser' AND U.layer = 0 AND H.name = 'keywords'
        GROUP BY M.epoch
        HAVING S.unit_score > 0.8
    ";

    #[test]
    fn parses_the_papers_example_query() {
        let q = parse(PAPER_QUERY).unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(
            q.select[0],
            ColRef {
                alias: "m".into(),
                attr: "epoch".into()
            }
        );
        assert_eq!(
            q.inspect_units,
            ColRef {
                alias: "u".into(),
                attr: "uid".into()
            }
        );
        assert_eq!(q.measures, vec!["corr".to_string()]);
        assert_eq!(q.result_alias, "s");
        assert_eq!(q.from.len(), 4);
        assert_eq!(q.where_conds.len(), 3);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.having.len(), 1);
    }

    #[test]
    fn default_measure_is_corr() {
        let q = parse(
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq \
             FROM models M, units U, hypotheses H, inputs D",
        )
        .unwrap();
        assert_eq!(q.measures, vec!["corr".to_string()]);
        assert_eq!(q.result_alias, "s");
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("SELECT").is_err());
        assert!(parse("INSPECT U.uid").is_err());
        assert!(parse("SELECT S.uid INSPECT U.uid AND H.h OVER D.seq").is_err()); // no FROM
        assert!(parse(
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM models M WHERE M.mid = "
        )
        .is_err());
        assert!(
            parse("SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM models M extra junk q")
                .is_err()
        );
    }

    #[test]
    fn end_of_input_is_a_clear_eof_error_not_a_repeated_token() {
        // `Parser::next` used to clamp its cursor at the final token; a
        // statement truncated mid-clause must surface end-of-input, not
        // whatever token happened to be last.
        let err = parse("SELECT S.uid INSPECT U.uid AND").unwrap_err();
        match err {
            DniError::Query(msg) => assert!(msg.contains("Eof"), "got: {msg}"),
            other => panic!("expected a query error, got {other:?}"),
        }
        // Truncation in every later clause position is an error too.
        for truncated in [
            "SELECT",
            "SELECT S.uid INSPECT",
            "SELECT S.uid INSPECT U.uid AND H.h USING",
            "SELECT S.uid INSPECT U.uid AND H.h OVER",
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM",
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM models M WHERE",
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM models M GROUP BY",
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM models M HAVING S.unit_score >",
        ] {
            assert!(parse(truncated).is_err(), "must reject {truncated:?}");
        }
    }

    #[test]
    fn trailing_tokens_after_a_complete_statement_are_rejected() {
        let complete = "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq \
                        FROM models M, units U, hypotheses H, inputs D";
        assert!(parse(complete).is_ok());
        // A trailing comma continues the FROM list and dies on EOF
        // instead; it is still an error, just not a trailing-token one.
        assert!(parse(&format!("{complete} ,")).is_err());
        for junk in [" 42", " M.mid", " SELECT", " 'str'"] {
            let err = parse(&format!("{complete}{junk}")).unwrap_err();
            match err {
                DniError::Query(msg) => {
                    assert!(msg.contains("trailing tokens"), "got: {msg}")
                }
                other => panic!("expected a query error, got {other:?}"),
            }
        }
    }

    #[test]
    fn normalization_canonicalizes_case_and_whitespace() {
        let a = normalize_statement(
            "SELECT  S.uid   INSPECT U.uid AND H.h OVER D.seq \
             FROM models M, units U, hypotheses H, inputs D WHERE M.mid = 'X'",
        )
        .unwrap();
        let b = normalize_statement(
            "select s . uid inspect u.uid and h.h over d.seq \
             from MODELS m, UNITS u, HYPOTHESES h, INPUTS d where m.MID = 'X'",
        )
        .unwrap();
        assert_eq!(a, b);
        // String literal case is significant.
        let c = normalize_statement(
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq \
             FROM models M, units U, hypotheses H, inputs D WHERE M.mid = 'x'",
        )
        .unwrap();
        assert_ne!(a, c);
        // The normalized form reparses to the same AST.
        let orig = parse(
            "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq \
             FROM models M, units U, hypotheses H, inputs D WHERE M.mid = 'X'",
        )
        .unwrap();
        assert_eq!(parse(&a).unwrap(), orig);
    }

    /// The reference answer: a bare session — no store, no score reuse,
    /// a hypothesis cache too small to hold two entries.
    fn bare(catalog: &Catalog) -> Session {
        Session::with_config(
            catalog.clone(),
            SessionConfig {
                reuse_scores: false,
                cache_bytes: 0,
                ..SessionConfig::default()
            },
        )
    }

    fn test_catalog() -> Catalog {
        // Behaviors: unit 0 mirrors "is-a" hypothesis, unit 1 is noise.
        let records: Vec<Record> = (0..16)
            .map(|i| {
                let text: String = (0..8)
                    .map(|t| if (i + t) % 3 == 0 { 'a' } else { 'b' })
                    .collect();
                Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
            })
            .collect();
        let dataset = Arc::new(Dataset::new("seq", 8, records.clone()).unwrap());
        let mut behaviors = Matrix::zeros(16 * 8, 2);
        for (ri, rec) in records.iter().enumerate() {
            for (t, c) in rec.text.chars().enumerate() {
                behaviors.set(ri * 8 + t, 0, if c == 'a' { 0.9 } else { 0.05 });
                behaviors.set(ri * 8 + t, 1, ((ri * 31 + t * 7) % 13) as f32 / 13.0);
            }
        }
        let mut catalog = Catalog::new();
        catalog.add_model_with_units(
            "sqlparser",
            3,
            Arc::new(PrecomputedExtractor::new(behaviors, 8)),
            vec![UnitMeta { uid: 0, layer: 0 }, UnitMeta { uid: 1, layer: 1 }],
        );
        catalog.add_hypotheses(
            "keywords",
            vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
        );
        catalog.add_dataset("seq", dataset);
        catalog
    }

    #[test]
    fn executes_end_to_end_with_having_filter() {
        let catalog = test_catalog();
        let table = bare(&catalog)
            .run(
                "SELECT M.epoch, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D \
             WHERE M.mid = 'sqlparser' \
             HAVING S.unit_score > 0.8",
            )
            .unwrap();
        // Only the mirroring unit survives the HAVING filter.
        assert_eq!(table.len(), 1);
        assert_eq!(table.value(0, "s_uid"), Some(Value::Int(0)));
        assert_eq!(table.value(0, "m_epoch"), Some(Value::Int(3)));
    }

    #[test]
    fn layer_filter_restricts_units() {
        let catalog = test_catalog();
        let table = bare(&catalog)
            .run(
                "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D \
             WHERE U.layer = 1",
            )
            .unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(table.value(0, "s_uid"), Some(Value::Int(1)));
    }

    #[test]
    fn group_by_layer_creates_groups() {
        let catalog = test_catalog();
        let table = bare(&catalog)
            .run(
                "SELECT S.group_id, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D \
             GROUP BY U.layer",
            )
            .unwrap();
        assert_eq!(table.len(), 2);
        let g0 = table.value(0, "s_group_id").unwrap();
        let g1 = table.value(1, "s_group_id").unwrap();
        assert_ne!(g0, g1, "layers form distinct groups");
    }

    #[test]
    fn unknown_measure_is_a_query_error() {
        let catalog = test_catalog();
        let err = bare(&catalog)
            .run(
                "SELECT S.uid INSPECT U.uid AND H.h USING nope OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D",
            )
            .unwrap_err();
        assert!(matches!(err, DniError::Query(_)));
    }

    #[test]
    fn no_matching_model_is_a_query_error() {
        let catalog = test_catalog();
        let err = bare(&catalog)
            .run(
                "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq \
             FROM models M, units U, hypotheses H, inputs D WHERE M.mid = 'missing'",
            )
            .unwrap_err();
        assert!(matches!(err, DniError::Query(_)));
    }

    #[test]
    fn missing_dataset_is_a_query_error_not_a_panic() {
        // A catalog with models and hypotheses but no datasets used to
        // panic on `datasets.values().next().unwrap()` when the query
        // named no dataset; it must be a diagnosable query error.
        let mut catalog = Catalog::new();
        catalog.add_model(
            "m",
            0,
            Arc::new(PrecomputedExtractor::new(Matrix::zeros(4, 1), 2)),
        );
        catalog.add_hypotheses(
            "h",
            vec![Arc::new(FnHypothesis::char_class("x", |c| c == 'x'))],
        );
        let err = bare(&catalog)
            .run(
                "SELECT S.uid INSPECT U.uid AND H.h OVER D.seq \
             FROM models M, units U, hypotheses H, inputs D",
            )
            .unwrap_err();
        match err {
            DniError::Query(msg) => {
                assert!(msg.contains("no datasets registered"), "got: {msg}")
            }
            other => panic!("expected a query error, got {other:?}"),
        }
    }

    #[test]
    fn dead_unit_with_large_constant_activation_scores_zero() {
        // A saturated unit (constant large activation) must score 0, not
        // clamped cancellation noise, so HAVING filters stay meaningful.
        let records: Vec<Record> = (0..32)
            .map(|i| {
                let text: String = (0..4)
                    .map(|t| if (i + t) % 2 == 0 { 'a' } else { 'b' })
                    .collect();
                Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
            })
            .collect();
        let mut behaviors = Matrix::zeros(32 * 4, 1);
        for r in 0..32 * 4 {
            behaviors.set(r, 0, 5.5e8);
        }
        let mut catalog = Catalog::new();
        catalog.add_model("dead", 0, Arc::new(PrecomputedExtractor::new(behaviors, 4)));
        catalog.add_hypotheses(
            "ha",
            vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
        );
        catalog.add_dataset("seq", Arc::new(Dataset::new("seq", 4, records).unwrap()));
        let table = bare(&catalog)
            .run(
                "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D",
            )
            .unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(table.value(0, "s_unit_score"), Some(Value::Float(0.0)));
    }

    const BATCH_QUERIES: [&str; 3] = [
        "SELECT M.epoch, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D \
         WHERE M.mid = 'sqlparser' HAVING S.unit_score > 0.8",
        "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D WHERE U.layer = 1",
        "SELECT S.group_id, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D GROUP BY U.layer",
    ];

    #[test]
    fn batch_matches_sequential_execution() {
        let catalog = test_catalog();
        let sequential: Vec<Table> = BATCH_QUERIES
            .iter()
            .map(|q| bare(&catalog).run(q).unwrap())
            .collect();
        let batch = bare(&catalog)
            .run_batch(&BATCH_QUERIES)
            .expect("batch executes");
        assert_eq!(batch.tables, sequential);
        // All three queries inspect the same (model, dataset): one group,
        // one extraction pass.
        assert_eq!(batch.report.groups.len(), 1);
        assert_eq!(batch.report.groups[0].extraction_passes, 1);
        assert_eq!(batch.report.groups[0].queries, vec![0, 1, 2]);
        assert_eq!(batch.report.per_query.len(), 3);
        assert!(batch.report.per_query.iter().all(|p| p.records_read > 0));
    }

    #[test]
    fn batch_of_one_matches_execute() {
        let catalog = test_catalog();
        let single = bare(&catalog).run(BATCH_QUERIES[0]).unwrap();
        let batch = bare(&catalog).run_batch(&BATCH_QUERIES[..1]).unwrap();
        assert_eq!(batch.tables, vec![single]);
    }

    #[test]
    fn batch_bind_errors_surface() {
        let catalog = test_catalog();
        let err = bare(&catalog)
            .run_batch(&[
                BATCH_QUERIES[0],
                "SELECT S.uid INSPECT U.uid AND H.h USING nope OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D",
            ])
            .unwrap_err();
        assert!(matches!(err, DniError::Query(_)));
    }
}
