//! # deepbase-relational
//!
//! A miniature in-memory columnar relational engine: the substrate for the
//! paper's DB-oriented baseline (§5.1.1, "MADLib"), which materializes
//! behavior matrices as dense relations and computes affinity scores with
//! SQL aggregates and in-database ML UDAs.
//!
//! * `table` ([`Table`], [`Schema`], [`Value`]) — typed columnar tables
//!   with schemas and text rendering.
//! * `exec` — full-scan [`select`], hash group-by with aggregate functions
//!   ([`aggregate`]: `count/sum/avg/min/max/corr`), an iterative
//!   logistic-regression training UDA ([`logreg_train_uda`], one full
//!   scan per epoch, like MADLib), scan metering ([`ExecStats`]) and the
//!   PostgreSQL 1,600-expression statement limit that forces batched
//!   scans.
//!
//! The DeepBase core crate builds its `Engine::Madlib` baseline and the
//! INSPECT post-processing on these primitives.

mod exec;
mod table;

pub use exec::{
    aggregate, logreg_train_uda, select, AggFn, ExecStats, MAX_EXPRESSIONS_PER_STATEMENT,
};
pub use table::{ColType, Schema, Table, Value};
