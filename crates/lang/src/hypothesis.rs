//! Hypothesis-behavior generators (paper §4.2).
//!
//! A hypothesis function maps a record to a per-symbol behavior vector.
//! This module generates such behaviors from the artifacts the paper
//! catalogues: parse trees (time-domain, signal and nesting-depth
//! representations of Fig. 3), keyword detectors and counting iterators.
//! The engine-facing trait lives in `deepbase-core`; here are the pure
//! functions it wraps.

use crate::grammar::Grammar;
use crate::tree::ParseTree;
use serde::{Deserialize, Serialize};

/// How a parse-tree node set is rendered into a behavior vector (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeRepr {
    /// 1 for every character covered by a node of the rule (h2/h3 in the
    /// paper's figure).
    Time,
    /// 1 only at the first and last character of each node's span (h4/h5).
    Signal,
    /// Nesting depth of the rule at each character (the composite h1).
    Depth,
}

impl TreeRepr {
    /// Short name used in hypothesis identifiers.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            TreeRepr::Time => "time",
            TreeRepr::Signal => "signal",
            TreeRepr::Depth => "depth",
        }
    }

    /// Renders one rule's node `spans` over a source of `len` characters
    /// into `out`, where `out[i]` is source character `offset + i`; entries
    /// at or past `len` are left alone. It writes what
    /// [`TreeHypothesis::behavior`] gives those characters, without
    /// building the whole source's vector.
    pub fn render_window(
        self,
        spans: &[(usize, usize)],
        len: usize,
        offset: usize,
        out: &mut [f32],
    ) {
        // The window's characters that exist: `offset..end`.
        let end = (offset + out.len()).min(len).max(offset);
        // The part of `start..stop` inside the window, as `out` indices.
        let clip = |start: usize, stop: usize| {
            let lo = start.clamp(offset, end);
            lo - offset..stop.clamp(lo, end) - offset
        };
        for &(start, stop) in spans {
            match self {
                TreeRepr::Time => out[clip(start, stop)].fill(1.0),
                TreeRepr::Signal if stop > start => {
                    for at in [start, stop - 1] {
                        if (offset..end).contains(&at) {
                            out[at - offset] = 1.0;
                        }
                    }
                }
                TreeRepr::Signal => {}
                TreeRepr::Depth => {
                    for v in &mut out[clip(start, stop)] {
                        *v += 1.0;
                    }
                }
            }
        }
    }
}

/// A parse-derived hypothesis: one grammar rule under one representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TreeHypothesis {
    /// Rule (nonterminal) name whose spans drive the behavior.
    pub rule: String,
    /// Rendering of spans into behaviors.
    pub repr: TreeRepr,
}

impl TreeHypothesis {
    /// Stable identifier, e.g. `where_clause:time`.
    pub fn name(&self) -> String {
        format!("{}:{}", self.rule, self.repr.tag())
    }

    /// Evaluates the hypothesis over a parse tree for a string of `len`
    /// characters. The output always has exactly `len` entries.
    pub fn behavior(&self, tree: &ParseTree, len: usize) -> Vec<f32> {
        match self.repr {
            TreeRepr::Time => {
                let mut out = vec![0.0f32; len];
                for (start, end) in tree.spans_of(&self.rule) {
                    for v in out.iter_mut().take(end.min(len)).skip(start) {
                        *v = 1.0;
                    }
                }
                out
            }
            TreeRepr::Signal => {
                let mut out = vec![0.0f32; len];
                for (start, end) in tree.spans_of(&self.rule) {
                    if start < len && end > start {
                        out[start] = 1.0;
                        if end - 1 < len {
                            out[end - 1] = 1.0;
                        }
                    }
                }
                out
            }
            TreeRepr::Depth => tree.nesting_depth(&self.rule, len),
        }
    }
}

/// Generates the paper's default hypothesis library for a grammar: one
/// hypothesis per nonterminal per requested representation (§6.2 builds
/// two per nonterminal — time and signal — giving 190 hypotheses for the
/// 95-nonterminal grammar).
pub fn grammar_hypotheses(grammar: &Grammar, reprs: &[TreeRepr]) -> Vec<TreeHypothesis> {
    let mut out = Vec::with_capacity(grammar.nonterminal_names().len() * reprs.len());
    for name in grammar.nonterminal_names() {
        for &repr in reprs {
            out.push(TreeHypothesis {
                rule: name.clone(),
                repr,
            });
        }
    }
    out
}

/// Keyword detector: 1 for every character inside an occurrence of
/// `keyword` in `text` (the paper's running "detects the SELECT keyword"
/// example). Matches are case-sensitive and may not overlap.
pub fn keyword_behavior(text: &str, keyword: &str) -> Vec<f32> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = vec![0.0f32; chars.len()];
    if keyword.is_empty() {
        return out;
    }
    let kw: Vec<char> = keyword.chars().collect();
    let mut i = 0;
    while i + kw.len() <= chars.len() {
        if chars[i..i + kw.len()] == kw[..] {
            for v in out.iter_mut().skip(i).take(kw.len()) {
                *v = 1.0;
            }
            i += kw.len();
        } else {
            i += 1;
        }
    }
    out
}

/// Character-class detector: 1 where the predicate holds. Used for
/// low-level hypotheses like "whitespace", "period", "digit".
/// Allocates once: a string has at most as many characters as bytes.
pub fn char_class_behavior(text: &str, pred: impl Fn(char) -> bool) -> Vec<f32> {
    let mut out = Vec::with_capacity(text.len());
    out.extend(text.chars().map(|c| if pred(c) { 1.0 } else { 0.0 }));
    out
}

/// Position counter: the 0-based index of each character, the paper's
/// "model counts the number of characters" hypothesis (§3: behaviors need
/// not be binary).
pub fn position_counter_behavior(text: &str) -> Vec<f32> {
    (0..text.chars().count()).map(|i| i as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Grammar;

    fn tree() -> ParseTree {
        // paren[0..6] containing paren[1..5] — "((xx))"-style nesting.
        ParseTree {
            rule: "paren".into(),
            start: 0,
            end: 6,
            children: vec![ParseTree {
                rule: "paren".into(),
                start: 1,
                end: 5,
                children: vec![ParseTree {
                    rule: "atom".into(),
                    start: 2,
                    end: 4,
                    children: vec![],
                }],
            }],
        }
    }

    #[test]
    fn time_representation_covers_spans() {
        let h = TreeHypothesis {
            rule: "atom".into(),
            repr: TreeRepr::Time,
        };
        assert_eq!(h.behavior(&tree(), 6), vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn signal_representation_marks_endpoints() {
        let h = TreeHypothesis {
            rule: "atom".into(),
            repr: TreeRepr::Signal,
        };
        assert_eq!(h.behavior(&tree(), 6), vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        let h2 = TreeHypothesis {
            rule: "paren".into(),
            repr: TreeRepr::Signal,
        };
        // Outer span marks 0 and 5; inner marks 1 and 4.
        assert_eq!(h2.behavior(&tree(), 6), vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn depth_representation_counts_nesting() {
        let h = TreeHypothesis {
            rule: "paren".into(),
            repr: TreeRepr::Depth,
        };
        assert_eq!(h.behavior(&tree(), 6), vec![1.0, 2.0, 2.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn behavior_length_always_matches_len() {
        for repr in [TreeRepr::Time, TreeRepr::Signal, TreeRepr::Depth] {
            let h = TreeHypothesis {
                rule: "paren".into(),
                repr,
            };
            for len in [0usize, 3, 6, 10] {
                assert_eq!(h.behavior(&tree(), len).len(), len);
            }
        }
    }

    #[test]
    fn a_rendered_window_is_the_behavior_sliced() {
        let tree = tree();
        for rule in ["paren", "atom", "missing"] {
            let spans = tree.spans_of(rule);
            for repr in [TreeRepr::Time, TreeRepr::Signal, TreeRepr::Depth] {
                let full = TreeHypothesis {
                    rule: rule.into(),
                    repr,
                }
                .behavior(&tree, 6);
                // Windows inside the source, across its end and past it.
                for offset in 0..9 {
                    for width in 0..9 {
                        let mut out = vec![0.0; width];
                        repr.render_window(&spans, 6, offset, &mut out);
                        let want: Vec<f32> = (offset..offset + width)
                            .map(|at| full.get(at).copied().unwrap_or(0.0))
                            .collect();
                        assert_eq!(out, want, "{rule} {repr:?} {offset}+{width}");
                    }
                }
            }
        }
    }

    #[test]
    fn absent_rule_gives_zero_vector() {
        let h = TreeHypothesis {
            rule: "missing".into(),
            repr: TreeRepr::Time,
        };
        assert!(h.behavior(&tree(), 6).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grammar_hypotheses_two_per_nonterminal() {
        let g = Grammar::from_spec("a -> b ; b -> 'x' ;").unwrap();
        let hyps = grammar_hypotheses(&g, &[TreeRepr::Time, TreeRepr::Signal]);
        assert_eq!(hyps.len(), 4);
        let names: Vec<String> = hyps.iter().map(|h| h.name()).collect();
        assert!(names.contains(&"a:time".to_string()));
        assert!(names.contains(&"b:signal".to_string()));
    }

    #[test]
    fn keyword_behavior_marks_occurrences() {
        let b = keyword_behavior("SELECT 1 FROM a", "SELECT");
        assert_eq!(&b[..6], &[1.0; 6]);
        assert!(b[6..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn keyword_behavior_multiple_and_adjacent() {
        let b = keyword_behavior("abab", "ab");
        assert_eq!(b, vec![1.0, 1.0, 1.0, 1.0]);
        let b2 = keyword_behavior("aaa", "aa");
        // Non-overlapping matching: first two chars only.
        assert_eq!(b2, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn keyword_behavior_empty_keyword_is_zero() {
        assert!(keyword_behavior("abc", "").iter().all(|&v| v == 0.0));
    }

    #[test]
    fn char_class_and_counter() {
        assert_eq!(
            char_class_behavior("a b", char::is_whitespace),
            vec![0.0, 1.0, 0.0]
        );
        assert_eq!(position_counter_behavior("abcd"), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
