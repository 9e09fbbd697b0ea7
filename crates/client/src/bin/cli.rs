//! `deepbase-cli`: command-line client for the inspection server.
//!
//! ```text
//! deepbase-cli ADDR inspect STATEMENT [--deadline-ms N]
//!                                     [--max-records N] [--max-blocks N]
//! deepbase-cli ADDR explain STATEMENT
//! deepbase-cli ADDR view-create NAME STATEMENT
//! deepbase-cli ADDR view-read NAME
//! deepbase-cli ADDR view-refresh NAME
//! deepbase-cli ADDR view-drop NAME
//! deepbase-cli ADDR view-list
//! deepbase-cli ADDR stats
//! deepbase-cli ADDR shutdown
//! ```

use deepbase_client::{Client, ViewRefreshOutcome};
use deepbase_server::wire::{status_name, WireBudget};
use std::io::{ErrorKind, Write};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: deepbase-cli ADDR COMMAND\n\
         commands:\n  \
         inspect STATEMENT [--deadline-ms N] [--max-records N] [--max-blocks N]\n  \
         explain STATEMENT\n  \
         view-create NAME STATEMENT\n  \
         view-read NAME\n  \
         view-refresh NAME\n  \
         view-drop NAME\n  \
         view-list\n  \
         stats\n  \
         shutdown"
    );
    exit(2)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("deepbase-cli: {message}");
    exit(1)
}

fn num(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => fail(format!("{flag} needs a numeric argument")),
    }
}

/// Writes the command's output through locked stdout. A reader that went
/// away early (`deepbase-cli … | head`) ends the program quietly with
/// success; any other write error fails it.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => exit(0),
        Err(e) => fail(format!("writing to stdout: {e}")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(addr), Some(command)) = (args.next(), args.next()) else {
        usage()
    };
    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => fail(format!("could not connect to {addr}: {e}")),
    };
    let text = match command.as_str() {
        "inspect" => {
            let Some(statement) = args.next() else {
                usage()
            };
            let mut budget = WireBudget::default();
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--deadline-ms" => budget.deadline_ms = num(&flag, args.next()),
                    "--max-records" => budget.max_records = num(&flag, args.next()),
                    "--max-blocks" => budget.max_blocks = num(&flag, args.next()),
                    other => fail(format!("unknown inspect flag {other}")),
                }
            }
            match client.inspect_with_budget(&statement, budget) {
                Ok(result) => format!(
                    "{}-- {} rows, {} records read, {}\n",
                    result.table.render(50),
                    result.table.len(),
                    result.rows_read,
                    status_name(result.status)
                ),
                Err(e) => fail(e),
            }
        }
        "explain" => {
            let Some(statement) = args.next() else {
                usage()
            };
            client.explain(&statement).unwrap_or_else(|e| fail(e))
        }
        "view-create" => {
            let (Some(name), Some(statement)) = (args.next(), args.next()) else {
                usage()
            };
            match client.create_view(&name, &statement) {
                Ok(()) => format!("view {name} materialized\n"),
                Err(e) => fail(e),
            }
        }
        "view-read" => {
            let Some(name) = args.next() else { usage() };
            match client.read_view(&name) {
                Ok(table) => format!(
                    "{}-- {} rows, replayed from view {name}\n",
                    table.render(50),
                    table.len()
                ),
                Err(e) => fail(e),
            }
        }
        "view-refresh" => {
            let Some(name) = args.next() else { usage() };
            match client.refresh_view(&name) {
                Ok(ViewRefreshOutcome::Noop) => format!("view {name} already fresh\n"),
                Ok(ViewRefreshOutcome::Incremental { new_segments }) => {
                    format!("view {name} folded {new_segments} new segments\n")
                }
                Ok(ViewRefreshOutcome::Rebuilt) => format!("view {name} rebuilt\n"),
                Err(e) => fail(e),
            }
        }
        "view-drop" => {
            let Some(name) = args.next() else { usage() };
            match client.drop_view(&name) {
                Ok(true) => format!("view {name} dropped\n"),
                Ok(false) => format!("view {name} did not exist\n"),
                Err(e) => fail(e),
            }
        }
        "view-list" => match client.list_views() {
            Ok(views) if views.is_empty() => "no views\n".to_string(),
            Ok(views) => views
                .into_iter()
                .map(|(name, freshness, statement)| format!("{name} [{freshness}] {statement}\n"))
                .collect(),
            Err(e) => fail(e),
        },
        "stats" => client.stats().unwrap_or_else(|e| fail(e)),
        "shutdown" => match client.shutdown() {
            Ok(()) => "server draining\n".to_string(),
            Err(e) => fail(e),
        },
        _ => usage(),
    };
    emit(&text);
}
