//! # deepbase-lang
//!
//! Language substrate for the DeepBase reproduction: the grammars, parser
//! and hypothesis generators the paper borrows from NLTK, implemented from
//! scratch. The §6.3 POS probes need no tagger: [`corpus`] generates its
//! sentences with their ground-truth tags, which stand in for the paper's
//! CoreNLP annotations.
//!
//! * `grammar` ([`Grammar`]) — probabilistic context-free grammars with a text DSL and
//!   weighted sampling (the paper's synthetic-SQL generator).
//! * `earley` ([`EarleyParser`]) — Earley chart parser over character terminals (the NLTK
//!   chart-parser replacement, including epsilon productions): a chart of
//!   `Copy` items with back-pointers, one tree built at accept.
//! * `tree` ([`ParseTree`]) — parse trees over character spans.
//! * [`hypothesis`] — hypothesis-behavior generators: parse-tree
//!   time/signal/depth representations (paper Fig. 3), keyword and
//!   char-class detectors, counters.
//! * [`vocab`] — character vocabularies, left-padded sliding windows
//!   (paper §3, §6.2) and behavior projection onto windows.
//! * [`sql`] — the scalability benchmark's SQL grammar with 95–171 rule
//!   presets (§6.1).
//! * [`paren`] — the Appendix C nested-parentheses grammar and its
//!   ground-truth hypotheses.
//! * [`corpus`] — synthetic English→German parallel corpus with
//!   ground-truth tags (the WMT15 stand-in for §6.3).

pub mod corpus;
mod earley;
mod grammar;
pub mod hypothesis;
pub mod paren;
pub mod sql;
mod tree;
pub mod vocab;

pub use earley::EarleyParser;
pub use grammar::{Grammar, Sym};
pub use hypothesis::{grammar_hypotheses, TreeHypothesis, TreeRepr};
pub use tree::ParseTree;
pub use vocab::PAD;
