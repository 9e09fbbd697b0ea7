//! The Deep Neural Inspection problem model (paper §3).
//!
//! A [`Dataset`] is `nd` fixed-length records of `ns` symbols; a
//! [`HypothesisFn`] maps a record to a per-symbol behavior vector; a
//! [`UnitGroup`] names the hidden units under inspection. The engine
//! validates hypothesis outputs at execution time (length and finiteness),
//! as §4.1 prescribes ("output formats are checked during execution").

use crate::error::DniError;
use deepbase_lang::ParseTree;
use deepbase_lang::{EarleyParser, Grammar, TreeHypothesis, TreeRepr};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One record: a fixed-length window of symbols, with provenance into the
/// source string it was cut from (so parse-derived hypotheses can label it
/// from a single parse of the source, §6.1).
#[derive(Debug, Clone)]
pub struct Record {
    /// Record index within its dataset.
    pub id: usize,
    /// Symbol ids fed to the model (length = dataset `ns`, padded).
    pub symbols: Vec<u32>,
    /// The window text (padded, same length as `symbols` for char data).
    pub text: String,
    /// Index of the source string this window came from.
    pub source_id: usize,
    /// The full source string.
    pub source_text: Arc<String>,
    /// Offset of the first visible symbol within the source.
    pub offset: usize,
    /// Number of non-padding symbols.
    pub visible: usize,
}

impl Record {
    /// Builds a standalone record (its own source; no windowing).
    pub fn standalone(id: usize, symbols: Vec<u32>, text: String) -> Record {
        let visible = symbols.len();
        Record {
            id,
            symbols,
            source_text: Arc::new(text.clone()),
            text,
            source_id: id,
            offset: 0,
            visible,
        }
    }
}

/// One sealed segment of a [`Dataset`]: a contiguous record range with
/// its own content fingerprint (the per-segment behavior-store key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index within the dataset, in append order.
    pub index: usize,
    /// First record position covered by the segment.
    pub start: usize,
    /// Number of records in the segment (may be zero).
    pub len: usize,
}

/// A dataset `D`: `nd` records of exactly `ns` symbols each, organized as
/// one or more sealed immutable **segments**.
///
/// A dataset built by [`Dataset::new`] is the one-segment case — every
/// pre-segmentation caller compiles and behaves bit-identically, and its
/// sole segment fingerprints equal to the whole dataset (so behavior
/// columns stored before the first append are reused as segment 0 after
/// it). [`Dataset::with_segments`] builds an explicitly segmented
/// dataset, and [`Dataset::append_segment`] is the functional grow step:
/// existing segments (and their cached fingerprints) are carried over
/// unchanged, so warm per-segment store columns keep hitting while only
/// the new segment extracts live.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Stable identifier (a name: the hypothesis cache keys on the
    /// catalog `Arc`, never on it).
    pub id: String,
    /// Symbols per record.
    pub ns: usize,
    /// The records, concatenated across segments in segment order.
    pub records: Vec<Record>,
    /// Cumulative segment end offsets (`seg_ends[i]` = one past the last
    /// record of segment `i`). Empty means "one segment covering
    /// everything" — the [`Dataset::new`] case. Kept private so the
    /// segment map can only be built through the validating
    /// constructors; if `records` is mutated out from under it (it is a
    /// public field for compatibility), [`Dataset::segments`] detects the
    /// inconsistency and falls back to the single-segment view.
    seg_ends: Vec<usize>,
    /// Lazily computed whole-dataset fingerprint. Binding and optimizing
    /// fingerprint the dataset once per batch; caching here means the
    /// full symbol data is hashed once per dataset, not once per batch.
    fp: OnceLock<u64>,
    /// Lazily computed per-segment fingerprints (empty for the
    /// single-segment representation, which reuses `fp`).
    seg_fps: Vec<OnceLock<u64>>,
}

fn check_record_lengths(records: &[Record], ns: usize) -> Result<(), DniError> {
    for r in records {
        if r.symbols.len() != ns {
            return Err(DniError::BadRecord {
                record: r.id,
                msg: format!("record length {} != ns {}", r.symbols.len(), ns),
            });
        }
    }
    Ok(())
}

/// Fingerprints a record range with the store's FNV-1a hasher. The
/// "dataset" tag plus (ns, len, per-record id + symbols) schema is shared
/// by whole-dataset and per-segment fingerprints, so a one-segment
/// dataset's segment fingerprint equals its dataset fingerprint.
fn fingerprint_records(ns: usize, records: &[Record]) -> u64 {
    let mut h = deepbase_store::FpHasher::new();
    h.write_str("dataset")
        .write_u64(ns as u64)
        .write_u64(records.len() as u64);
    for r in records {
        h.write_u64(r.id as u64);
        h.write_u64(r.symbols.len() as u64);
        for &s in &r.symbols {
            h.write_u32(s);
        }
    }
    h.finish()
}

impl Dataset {
    /// Creates a single-segment dataset, checking record lengths.
    pub fn new(id: &str, ns: usize, records: Vec<Record>) -> Result<Dataset, DniError> {
        check_record_lengths(&records, ns)?;
        Ok(Dataset {
            id: id.to_string(),
            ns,
            records,
            seg_ends: Vec::new(),
            fp: OnceLock::new(),
            seg_fps: Vec::new(),
        })
    }

    /// Creates an explicitly segmented dataset from per-segment record
    /// lists (segments may be empty), checking record lengths.
    pub fn with_segments(
        id: &str,
        ns: usize,
        segments: Vec<Vec<Record>>,
    ) -> Result<Dataset, DniError> {
        let mut records = Vec::with_capacity(segments.iter().map(Vec::len).sum());
        let mut seg_ends = Vec::with_capacity(segments.len());
        for seg in segments {
            check_record_lengths(&seg, ns)?;
            records.extend(seg);
            seg_ends.push(records.len());
        }
        let seg_fps = seg_ends.iter().map(|_| OnceLock::new()).collect();
        Ok(Dataset {
            id: id.to_string(),
            ns,
            records,
            seg_ends,
            fp: OnceLock::new(),
            seg_fps,
        })
    }

    /// Functionally appends one sealed segment: a new dataset whose
    /// existing segments — and their already computed fingerprints — are
    /// carried over unchanged, with `records` as one new segment at the
    /// end. The whole-dataset fingerprint restarts (the content changed),
    /// so whole-dataset keys miss while per-segment keys keep hitting.
    pub fn append_segment(&self, records: Vec<Record>) -> Result<Dataset, DniError> {
        check_record_lengths(&records, self.ns)?;
        let mut all = self.records.clone();
        all.extend(records);
        let (mut seg_ends, mut seg_fps) = if self.seg_ends.is_empty() {
            // Single-segment representation: materialize it as segment 0,
            // reusing the whole-dataset fingerprint cell (they are equal
            // by construction of `fingerprint_records`).
            (vec![self.records.len()], vec![self.fp.clone()])
        } else {
            (self.seg_ends.clone(), self.seg_fps.clone())
        };
        seg_ends.push(all.len());
        seg_fps.push(OnceLock::new());
        Ok(Dataset {
            id: self.id.clone(),
            ns: self.ns,
            records: all,
            seg_ends,
            fp: OnceLock::new(),
            seg_fps,
        })
    }

    /// Number of records `nd`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of symbols (`nd * ns`) — the behavior-matrix height.
    pub fn total_symbols(&self) -> usize {
        self.len() * self.ns
    }

    /// True when the private segment map still describes `records` (the
    /// public field may have been mutated since construction).
    fn seg_map_consistent(&self) -> bool {
        !self.seg_ends.is_empty()
            && self.seg_ends.last() == Some(&self.records.len())
            && self.seg_ends.windows(2).all(|w| w[0] <= w[1])
            && self.seg_fps.len() == self.seg_ends.len()
    }

    /// Number of sealed segments (at least 1; a dataset whose segment map
    /// was invalidated by direct `records` mutation reads as 1).
    pub fn segment_count(&self) -> usize {
        if self.seg_map_consistent() {
            self.seg_ends.len()
        } else {
            1
        }
    }

    /// The segment map, in append order. Always covers `records` exactly.
    pub fn segments(&self) -> Vec<SegmentInfo> {
        if !self.seg_map_consistent() {
            return vec![SegmentInfo {
                index: 0,
                start: 0,
                len: self.records.len(),
            }];
        }
        let mut start = 0;
        self.seg_ends
            .iter()
            .enumerate()
            .map(|(index, &end)| {
                let info = SegmentInfo {
                    index,
                    start,
                    len: end - start,
                };
                start = end;
                info
            })
            .collect()
    }

    /// Content fingerprint of one segment (same observable-content schema
    /// as [`Dataset::content_fingerprint`], over the segment's records) —
    /// the per-segment behavior-store key. Cached per segment.
    ///
    /// # Panics
    /// Panics when `index >= segment_count()`.
    pub fn segment_fingerprint(&self, index: usize) -> u64 {
        if !self.seg_map_consistent() {
            assert_eq!(index, 0, "single-segment dataset has only segment 0");
            return self.content_fingerprint();
        }
        let start = if index == 0 {
            0
        } else {
            self.seg_ends[index - 1]
        };
        let end = self.seg_ends[index];
        *self.seg_fps[index].get_or_init(|| fingerprint_records(self.ns, &self.records[start..end]))
    }

    /// Content fingerprint of everything an extractor can observe: the
    /// shape, each record's id (the `PrecomputedExtractor` addressing
    /// key) and its symbols. Keys the persistent behavior store, so two
    /// datasets fingerprint equal iff extraction over them is
    /// bit-identical; window text and provenance are deliberately
    /// excluded (extractors never read them). Segment boundaries are
    /// excluded too — extraction does not depend on them — and the value
    /// is cached (`OnceLock`), so binding and optimizing never rehash the
    /// full symbol data per batch.
    pub fn content_fingerprint(&self) -> u64 {
        *self
            .fp
            .get_or_init(|| fingerprint_records(self.ns, &self.records))
    }
}

/// A named group of hidden units `U ⊆ M` (paper Def. 1: measures score a
/// *group*, because joint measures depend on which units train together).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitGroup {
    /// Group name (e.g. `layer0`, `all`, `epoch3/layer1`).
    pub id: String,
    /// Unit indices into the model's unit vector.
    pub units: Vec<usize>,
}

impl UnitGroup {
    /// Convenience constructor.
    pub fn new(id: &str, units: Vec<usize>) -> UnitGroup {
        UnitGroup {
            id: id.to_string(),
            units,
        }
    }

    /// The group `0..n` named `all`.
    pub fn all(n: usize) -> UnitGroup {
        UnitGroup {
            id: "all".into(),
            units: (0..n).collect(),
        }
    }
}

/// A hypothesis function `h(d) ∈ R^ns` (paper §3): annotates every symbol
/// of a record with high-level logic.
pub trait HypothesisFn: Send + Sync {
    /// Stable identifier (e.g. `where_clause:time`, `pos:CC`).
    fn id(&self) -> &str;

    /// Evaluates the hypothesis over one record. The engine checks that
    /// the result has exactly `ns` finite entries.
    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError>;
}

/// Validates a hypothesis output per §4.1: exact length and finite values.
pub(crate) fn validate_behavior(
    hyp_id: &str,
    record: &Record,
    ns: usize,
    b: &[f32],
) -> Result<(), DniError> {
    if b.len() != ns {
        return Err(DniError::BadHypothesisOutput {
            hypothesis: hyp_id.to_string(),
            record: record.id,
            msg: format!("behavior length {} != ns {}", b.len(), ns),
        });
    }
    if let Some(pos) = b.iter().position(|v| !v.is_finite()) {
        return Err(DniError::BadHypothesisOutput {
            hypothesis: hyp_id.to_string(),
            record: record.id,
            msg: format!("non-finite behavior value at symbol {pos}"),
        });
    }
    Ok(())
}

/// Boxed behavior closure backing [`FnHypothesis`].
type BehaviorFn = Box<dyn Fn(&Record) -> Vec<f32> + Send + Sync>;

/// A hypothesis defined by a plain closure over the record text — the
/// "arbitrary Python function" path of the paper's API.
pub struct FnHypothesis {
    id: String,
    f: BehaviorFn,
}

impl FnHypothesis {
    /// Wraps a closure producing a per-symbol behavior.
    pub fn new(id: &str, f: impl Fn(&Record) -> Vec<f32> + Send + Sync + 'static) -> Self {
        FnHypothesis {
            id: id.to_string(),
            f: Box::new(f),
        }
    }

    /// Keyword-detector hypothesis over the window text.
    pub fn keyword(keyword: &str) -> Self {
        let kw = keyword.to_string();
        FnHypothesis::new(&format!("kw:{keyword}"), move |rec| {
            deepbase_lang::hypothesis::keyword_behavior(&rec.text, &kw)
        })
    }

    /// Character-class hypothesis over the window text.
    pub fn char_class(id: &str, pred: impl Fn(char) -> bool + Send + Sync + 'static) -> Self {
        FnHypothesis::new(id, move |rec| {
            deepbase_lang::hypothesis::char_class_behavior(&rec.text, &pred)
        })
    }

    /// Position-counter hypothesis ("does the model count symbols?").
    pub fn position_counter() -> Self {
        FnHypothesis::new("counter", |rec| {
            deepbase_lang::hypothesis::position_counter_behavior(&rec.text)
        })
    }
}

impl HypothesisFn for FnHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        Ok((self.f)(record))
    }
}

/// One source's cache entry: its parse (`None`: unparseable) and, beside
/// it, the source's spans per rule. Both are once-cells, so the map lock
/// is never held while parsing or walking: threads missing the same source
/// wait on that source's cell, one of them does the work, and other
/// sources are done alongside.
#[derive(Default)]
struct ParsedSource {
    tree: OnceLock<Option<Arc<ParseTree>>>,
    spans: OnceLock<SourceSpans>,
}

/// What every parse hypothesis reads of one parsed source, gathered by one
/// pre-order walk of its tree: the source's length in characters and, per
/// rule key ([`ParseCache`]'s interner), the `(start, end)` spans of the
/// rule's nodes in pre-order. A key past the end names a rule the tree does
/// not hold.
struct SourceSpans {
    chars: usize,
    by_rule: Vec<Vec<(usize, usize)>>,
}

impl SourceSpans {
    fn of(&self, rule: usize) -> &[(usize, usize)] {
        self.by_rule.get(rule).map_or(&[], Vec::as_slice)
    }
}

impl ParsedSource {
    fn tree(&self) -> Option<&Arc<ParseTree>> {
        self.tree.get().and_then(Option::as_ref)
    }
}

/// Shared parse cache: each source string is parsed at most once, and the
/// tree is shared by every parse-derived hypothesis (paper §6.1: "the
/// other hypothesis functions based on the parser do not need to re-parse
/// the input text"). `None` records an unparseable source.
///
/// Rules are named by integer keys it hands out, one per rule name and
/// fixed for its lifetime, so hypotheses built from different libraries
/// agree on them. The
/// first time any hypothesis reads a source, one walk of its tree collects
/// the spans of every rule it holds, keyed so.
#[derive(Default)]
pub struct ParseCache {
    sources: Mutex<HashMap<usize, Arc<ParsedSource>>>,
    /// Rule name → key, in first-seen order.
    rules: Mutex<HashMap<String, usize>>,
    /// Number of parser invocations (cache misses), for the Fig. 9 cost
    /// accounting.
    misses: AtomicUsize,
    /// Wall time spent inside those invocations, in nanoseconds.
    parse_nanos: AtomicU64,
}

/// The key of `rule` in `rules`, added if new.
fn intern(rules: &mut HashMap<String, usize>, rule: &str) -> usize {
    if let Some(&key) = rules.get(rule) {
        return key;
    }
    let key = rules.len();
    rules.insert(rule.to_string(), key);
    key
}

impl ParseCache {
    /// Empty cache.
    pub fn new() -> Arc<ParseCache> {
        Arc::new(ParseCache::default())
    }

    /// Pre-populates the cache with a ground-truth tree (PCFG sampling
    /// yields the derivation for free).
    pub(crate) fn insert(&self, source_id: usize, tree: ParseTree) {
        let parsed = ParsedSource {
            tree: OnceLock::from(Some(Arc::new(tree))),
            spans: OnceLock::new(),
        };
        self.sources.lock().insert(source_id, Arc::new(parsed));
    }

    /// The entry of a source, parsed by `parse` if nobody asked before.
    fn source(
        &self,
        source_id: usize,
        parse: impl FnOnce() -> Option<ParseTree>,
    ) -> Arc<ParsedSource> {
        let source = Arc::clone(self.sources.lock().entry(source_id).or_default());
        source.tree.get_or_init(|| {
            let started = Instant::now();
            let tree = parse().map(Arc::new);
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.parse_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            tree
        });
        source
    }

    /// The spans of a parsed source whose text is `text`, walked out of
    /// its tree on first use; `None` for an unparseable source.
    fn spans<'s>(&self, source: &'s ParsedSource, text: &str) -> Option<&'s SourceSpans> {
        let tree = source.tree()?;
        Some(source.spans.get_or_init(|| {
            let mut by_rule: Vec<Vec<(usize, usize)>> = Vec::new();
            let mut rules = self.rules.lock();
            let mut stack = vec![&**tree];
            while let Some(node) = stack.pop() {
                let key = intern(&mut rules, &node.rule);
                if by_rule.len() <= key {
                    by_rule.resize_with(key + 1, Vec::new);
                }
                by_rule[key].push((node.start, node.end));
                stack.extend(node.children.iter().rev());
            }
            SourceSpans {
                chars: text.chars().count(),
                by_rule,
            }
        }))
    }

    /// Number of parser invocations so far.
    pub fn miss_count(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Wall time spent in those parser invocations.
    pub fn parse_time(&self) -> Duration {
        Duration::from_nanos(self.parse_nanos.load(Ordering::Relaxed))
    }
}

/// A parse-derived hypothesis (paper Fig. 3): a [`TreeHypothesis`] on the
/// record's *source* parse, rendered over the record's window straight
/// from the rule's spans in the shared [`ParseCache`] — what
/// `TreeHypothesis::behavior` on the whole source followed by
/// `project_behavior` onto the window gives, without building either.
pub struct ParseHypothesis {
    id: String,
    grammar: Arc<Grammar>,
    repr: TreeRepr,
    /// The rule's key in `cache`.
    rule: usize,
    cache: Arc<ParseCache>,
}

impl ParseHypothesis {
    /// Creates a hypothesis for one grammar rule + representation, sharing
    /// `cache` with its siblings.
    pub(crate) fn new(
        grammar: Arc<Grammar>,
        inner: TreeHypothesis,
        cache: Arc<ParseCache>,
    ) -> Self {
        let rule = intern(&mut cache.rules.lock(), &inner.rule);
        ParseHypothesis {
            id: inner.name(),
            grammar,
            repr: inner.repr,
            rule,
            cache,
        }
    }

    /// Builds the paper's default library: one hypothesis per nonterminal
    /// per representation, all sharing one parse cache.
    pub fn library(
        grammar: &Arc<Grammar>,
        reprs: &[TreeRepr],
        cache: &Arc<ParseCache>,
    ) -> Vec<ParseHypothesis> {
        deepbase_lang::grammar_hypotheses(grammar, reprs)
            .into_iter()
            .map(|inner| ParseHypothesis::new(Arc::clone(grammar), inner, Arc::clone(cache)))
            .collect()
    }
}

impl HypothesisFn for ParseHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        let source = self.cache.source(record.source_id, || {
            EarleyParser::new(&self.grammar).parse(&record.source_text)
        });
        let ns = record.symbols.len();
        let mut out = vec![0.0; ns];
        // Unparseable source: the hypothesis is silent everywhere.
        if let Some(spans) = self.cache.spans(&source, &record.source_text) {
            // Padding comes first; the visible symbols are source
            // characters `offset..offset + visible`.
            let visible = &mut out[ns - record.visible..];
            let rule = spans.of(self.rule);
            self.repr
                .render_window(rule, spans.chars, record.offset, visible);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fetches the parse of a source, running `parse` on a miss.
    fn get_or_parse(
        cache: &ParseCache,
        source_id: usize,
        parse: impl FnOnce() -> Option<ParseTree>,
    ) -> Option<Arc<ParseTree>> {
        cache.source(source_id, parse).tree().cloned()
    }

    fn record(text: &str) -> Record {
        Record::standalone(
            0,
            text.chars().map(|c| c as u32).collect(),
            text.to_string(),
        )
    }

    #[test]
    fn dataset_rejects_ragged_records() {
        let r1 = record("abc");
        let r2 = record("abcd");
        assert!(Dataset::new("d", 3, vec![r1.clone()]).is_ok());
        assert!(Dataset::new("d", 3, vec![r1, r2]).is_err());
    }

    #[test]
    fn dataset_total_symbols() {
        let d = Dataset::new("d", 3, vec![record("abc"), record("xyz")]).unwrap();
        assert_eq!(d.total_symbols(), 6);
    }

    #[test]
    fn unit_group_all() {
        let g = UnitGroup::all(4);
        assert_eq!(g.units, vec![0, 1, 2, 3]);
        assert_eq!(g.id, "all");
    }

    #[test]
    fn validate_behavior_checks_length_and_nan() {
        let r = record("ab");
        assert!(validate_behavior("h", &r, 2, &[0.0, 1.0]).is_ok());
        assert!(validate_behavior("h", &r, 2, &[0.0]).is_err());
        assert!(validate_behavior("h", &r, 2, &[0.0, f32::NAN]).is_err());
        assert!(validate_behavior("h", &r, 2, &[0.0, f32::INFINITY]).is_err());
    }

    #[test]
    fn fn_hypothesis_keyword() {
        let h = FnHypothesis::keyword("ab");
        let b = h.behavior(&record("xabx")).unwrap();
        assert_eq!(b, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(h.id(), "kw:ab");
    }

    #[test]
    fn fn_hypothesis_char_class_and_counter() {
        let h = FnHypothesis::char_class("ws", char::is_whitespace);
        assert_eq!(h.behavior(&record("a b")).unwrap(), vec![0.0, 1.0, 0.0]);
        let c = FnHypothesis::position_counter();
        assert_eq!(c.behavior(&record("abc")).unwrap(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn parse_cache_parses_once() {
        let cache = ParseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let t = get_or_parse(&cache, 7, || {
                calls += 1;
                Some(ParseTree {
                    rule: "s".into(),
                    start: 0,
                    end: 1,
                    children: vec![],
                })
            });
            assert!(t.is_some());
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn parse_cache_remembers_failures() {
        let cache = ParseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let t = get_or_parse(&cache, 1, || {
                calls += 1;
                None
            });
            assert!(t.is_none());
        }
        assert_eq!(calls, 1, "failure must also be cached");
    }

    #[test]
    fn concurrent_misses_of_one_source_parse_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc::channel;
        let leaf = || ParseTree {
            rule: "s".into(),
            start: 0,
            end: 1,
            children: vec![],
        };
        let cache = ParseCache::new();
        let calls = AtomicUsize::new(0);
        let (started_tx, started_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let (early, alongside) = std::thread::scope(|s| {
            // The first thread is held inside its parse of source 7 ...
            let (cache, calls) = (&cache, &calls);
            s.spawn(move || {
                get_or_parse(cache, 7, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    Some(leaf())
                })
            });
            started_rx.recv().unwrap();
            // ... while seven more miss the same source. A cache that
            // forgets the parse in flight lets them parse and answer now.
            for _ in 0..7 {
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    let tree = get_or_parse(cache, 7, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        Some(leaf())
                    });
                    done_tx.send(tree.is_some()).unwrap();
                });
            }
            let early = done_rx.recv_timeout(Duration::from_millis(200)).is_ok();
            // Another source is not behind the one in flight.
            let alongside = get_or_parse(cache, 8, || Some(leaf())).is_some();
            go_tx.send(()).unwrap();
            (early, alongside)
        });
        assert!(!early, "a waiter answered before the parse finished");
        assert!(alongside);
        assert_eq!(done_rx.try_iter().collect::<Vec<_>>(), vec![true; 7]);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "source 7 parsed once");
        assert_eq!(cache.miss_count(), 2, "one miss per source");
    }

    #[test]
    fn parse_cache_accounts_parser_wall_time() {
        let grammar = Grammar::from_spec("expr -> term | expr '+' term ; term -> '1' ;").unwrap();
        let cache = ParseCache::new();
        assert_eq!(cache.parse_time(), Duration::ZERO);
        let source = vec!["1"; 200].join("+");
        for _ in 0..2 {
            let tree = get_or_parse(&cache, 0, || EarleyParser::new(&grammar).parse(&source));
            assert!(tree.is_some());
        }
        let spent = cache.parse_time();
        assert!(spent > Duration::ZERO);
        // A hit adds nothing.
        get_or_parse(&cache, 0, || unreachable!("cached"));
        assert_eq!(cache.parse_time(), spent);
    }

    #[test]
    fn parse_hypothesis_labels_window_from_source_parse() {
        let grammar = Arc::new(
            Grammar::from_spec("expr -> term | expr '+' term ; term -> '1' | '2' ;").unwrap(),
        );
        let cache = ParseCache::new();
        let hyp = ParseHypothesis::new(
            Arc::clone(&grammar),
            TreeHypothesis {
                rule: "term".into(),
                repr: TreeRepr::Time,
            },
            Arc::clone(&cache),
        );
        // Source "1+2", window covering chars 1..3 ("+2") padded to 3.
        let source = Arc::new("1+2".to_string());
        let rec = Record {
            id: 0,
            symbols: vec![0, '+' as u32, '2' as u32],
            text: "~+2".into(),
            source_id: 0,
            source_text: source,
            offset: 1,
            visible: 2,
        };
        let b = hyp.behavior(&rec).unwrap();
        // Pad position 0, '+' not a term, '2' is a term.
        assert_eq!(b, vec![0.0, 0.0, 1.0]);
        assert_eq!(cache.miss_count(), 1);
        // Second evaluation hits the cache.
        let _ = hyp.behavior(&rec).unwrap();
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn parse_hypothesis_windows_equal_the_projected_tree_behavior() {
        use deepbase_lang::vocab::{project_behavior, sliding_windows, Window};
        let grammar = Arc::new(
            Grammar::from_spec("expr -> term | expr '+' term ; term -> '1' | '2' | '(' expr ')' ;")
                .unwrap(),
        );
        let cache = ParseCache::new();
        // Two libraries with different representation lists share the
        // cache; the second is built after the first has read a source.
        let first = [TreeRepr::Time, TreeRepr::Signal];
        let second = [TreeRepr::Depth, TreeRepr::Time];
        let mut libraries = vec![(
            &first[..],
            ParseHypothesis::library(&grammar, &first, &cache),
        )];
        let sources = ["(1+2)+((2+1)+1)", "1+(2)", "1+"];
        for pass in 0..2 {
            if pass == 1 {
                libraries.push((
                    &second[..],
                    ParseHypothesis::library(&grammar, &second, &cache),
                ));
            }
            for (source_id, source) in sources.iter().enumerate() {
                let len = source.chars().count();
                let tree = EarleyParser::new(&grammar).parse(source);
                for ns in [1, 4, 7] {
                    // Stride windows (left-padded at the start), then
                    // windows across and past the source's end.
                    let mut windows = sliding_windows(source, ns, 2);
                    for (offset, visible) in [(len - 1, ns), (len, ns), (len + 2, ns - 1)] {
                        windows.push(Window {
                            text: String::new(),
                            offset,
                            visible,
                            target: None,
                        });
                    }
                    for window in &windows {
                        let record = Record {
                            id: 0,
                            symbols: vec![0; ns],
                            text: window.text.clone(),
                            source_id,
                            source_text: Arc::new(source.to_string()),
                            offset: window.offset,
                            visible: window.visible,
                        };
                        for (reprs, library) in &libraries {
                            let spec = deepbase_lang::grammar_hypotheses(&grammar, reprs);
                            for (hyp, inner) in library.iter().zip(spec) {
                                let want = match &tree {
                                    Some(tree) => {
                                        project_behavior(&inner.behavior(tree, len), window, ns)
                                    }
                                    None => vec![0.0; ns],
                                };
                                let got = hyp.behavior(&record).unwrap();
                                assert_eq!(
                                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                    "{} on {source:?} at {window:?}",
                                    hyp.id()
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cache.miss_count(), sources.len(), "one parse per source");
    }

    #[test]
    fn parse_hypothesis_unparseable_source_is_silent() {
        let grammar = Arc::new(Grammar::from_spec("s -> 'x' ;").unwrap());
        let cache = ParseCache::new();
        let hyp = ParseHypothesis::new(
            Arc::clone(&grammar),
            TreeHypothesis {
                rule: "s".into(),
                repr: TreeRepr::Time,
            },
            cache,
        );
        let rec = record("zz");
        assert_eq!(hyp.behavior(&rec).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn parse_library_shares_cache() {
        let grammar = Arc::new(Grammar::from_spec("a -> b ; b -> 'x' ;").unwrap());
        let cache = ParseCache::new();
        let lib = ParseHypothesis::library(&grammar, &[TreeRepr::Time, TreeRepr::Signal], &cache);
        assert_eq!(lib.len(), 4);
        let rec = record("x");
        for h in &lib {
            let _ = h.behavior(&rec).unwrap();
        }
        assert_eq!(cache.miss_count(), 1, "one parse serves all hypotheses");
    }
}
