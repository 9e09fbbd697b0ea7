//! Parse trees over character spans.
//!
//! Both the PCFG sampler (ground-truth derivations) and the Earley parser
//! produce this structure; the hypothesis generators in
//! [`crate::hypothesis`] consume it.

use serde::{Deserialize, Serialize};

/// A node of a parse tree. `start..end` is the character span the node
/// derives (end-exclusive); leaves of the grammar (terminal characters) are
/// not materialized as nodes — a node with no children derives its span
/// entirely via terminals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseTree {
    /// Name of the nonterminal (production LHS) at this node.
    pub rule: String,
    /// First character position covered (inclusive).
    pub start: usize,
    /// One past the last character position covered.
    pub end: usize,
    /// Child nonterminal nodes, in textual order.
    pub children: Vec<ParseTree>,
}

impl ParseTree {
    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(ParseTree::node_count)
            .sum::<usize>()
    }

    /// Maximum depth (a lone root has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(ParseTree::depth)
            .max()
            .unwrap_or(0)
    }

    /// Pre-order traversal visiting every node.
    pub(crate) fn visit(&self, f: &mut impl FnMut(&ParseTree, usize)) {
        self.visit_inner(f, 0);
    }

    fn visit_inner(&self, f: &mut impl FnMut(&ParseTree, usize), depth: usize) {
        f(self, depth);
        for child in &self.children {
            child.visit_inner(f, depth + 1);
        }
    }

    /// All `(start, end)` spans of nodes labelled `rule`.
    pub(crate) fn spans_of(&self, rule: &str) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        self.visit(&mut |node, _| {
            if node.rule == rule {
                spans.push((node.start, node.end));
            }
        });
        spans
    }

    /// Nesting depth of `rule` at each character position: how many
    /// ancestors (including the node itself) labelled `rule` cover the
    /// position. This is the composite representation `h1` of paper Fig. 3.
    pub(crate) fn nesting_depth(&self, rule: &str, len: usize) -> Vec<f32> {
        let mut depths = vec![0.0f32; len];
        self.visit(&mut |node, _| {
            if node.rule == rule {
                for d in depths.iter_mut().take(node.end.min(len)).skip(node.start) {
                    *d += 1.0;
                }
            }
        });
        depths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> ParseTree {
        // expr[0..5] -> term[0..1], expr[2..5](term[2..3], term[4..5])
        ParseTree {
            rule: "expr".into(),
            start: 0,
            end: 5,
            children: vec![
                ParseTree {
                    rule: "term".into(),
                    start: 0,
                    end: 1,
                    children: vec![],
                },
                ParseTree {
                    rule: "expr".into(),
                    start: 2,
                    end: 5,
                    children: vec![
                        ParseTree {
                            rule: "term".into(),
                            start: 2,
                            end: 3,
                            children: vec![],
                        },
                        ParseTree {
                            rule: "term".into(),
                            start: 4,
                            end: 5,
                            children: vec![],
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn node_count_and_depth() {
        let t = sample_tree();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn spans_of_collects_all_matches() {
        let t = sample_tree();
        assert_eq!(t.spans_of("term"), vec![(0, 1), (2, 3), (4, 5)]);
        assert_eq!(t.spans_of("expr"), vec![(0, 5), (2, 5)]);
        assert!(t.spans_of("missing").is_empty());
    }

    #[test]
    fn nesting_depth_counts_overlapping_spans() {
        let t = sample_tree();
        let d = t.nesting_depth("expr", 5);
        assert_eq!(d, vec![1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn nesting_depth_respects_len_clamp() {
        let t = sample_tree();
        let d = t.nesting_depth("expr", 3);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn visit_is_preorder() {
        let t = sample_tree();
        let mut order = Vec::new();
        t.visit(&mut |node, depth| order.push((node.rule.clone(), depth)));
        assert_eq!(order[0], ("expr".to_string(), 0));
        assert_eq!(order[1], ("term".to_string(), 1));
        assert_eq!(order[2], ("expr".to_string(), 1));
    }
}
