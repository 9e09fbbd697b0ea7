//! # deepbase-lang
//!
//! Language substrate for the DeepBase reproduction: everything the paper
//! borrows from NLTK and Stanford CoreNLP, implemented from scratch.
//!
//! * [`grammar`] — probabilistic context-free grammars with a text DSL and
//!   weighted sampling (the paper's synthetic-SQL generator).
//! * [`earley`] — Earley chart parser over character terminals (the NLTK
//!   chart-parser replacement, including epsilon productions): a chart of
//!   `Copy` items with back-pointers, one tree built at accept.
//! * [`tree`] — parse trees over character spans.
//! * [`hypothesis`] — hypothesis-behavior generators: parse-tree
//!   time/signal/depth representations (paper Fig. 3), keyword and
//!   char-class detectors, annotations, counters.
//! * [`vocab`] — character vocabularies, left-padded sliding windows
//!   (paper §3, §6.2) and behavior projection onto windows.
//! * [`sql`] — the scalability benchmark's SQL grammar with 95–171 rule
//!   presets (§6.1).
//! * [`paren`] — the Appendix C nested-parentheses grammar and its
//!   ground-truth hypotheses.
//! * [`fsm`] — DFA-based hypotheses with a KMP keyword compiler (§4.2).
//! * [`pos`] — the Penn Treebank tagset and a rule-based POS tagger (the
//!   CoreNLP stand-in for §6.3).
//! * [`corpus`] — synthetic English→German parallel corpus with
//!   ground-truth tags (the WMT15 stand-in for §6.3).

pub mod corpus;
pub mod earley;
pub mod fsm;
pub mod grammar;
pub mod hypothesis;
pub mod paren;
pub mod pos;
pub mod sql;
pub mod tree;
pub mod vocab;

pub use earley::EarleyParser;
pub use grammar::{Grammar, GrammarError, Production, Sym};
pub use hypothesis::{grammar_hypotheses, TreeHypothesis, TreeRepr};
pub use tree::ParseTree;
pub use vocab::{sliding_windows, Vocab, Window, PAD};
