//! `deepbase-server` binary: serves the demo char-LSTM catalog over TCP.
//!
//! ```text
//! deepbase-server [ADDR] [--store DIR] [--stream-width N]
//!                 [--scan-width N] [--idle-ms N]
//! ```
//!
//! * `ADDR` — listen address, default `127.0.0.1:4517` (port 0 picks an
//!   ephemeral port, printed on stdout with the kernel copy in use,
//!   `avx2` or `baseline`).
//! * `--store DIR` — open (or create) a read-write behavior store at
//!   `DIR`, shared by every connection.
//! * `--stream-width N` / `--scan-width N` — admission budgets of the
//!   template session, whose scheduler every connection's fork shares.
//! * `--idle-ms N` — close connections idle longer than N milliseconds.
//!
//! The process exits after a client sends a SHUTDOWN frame (e.g.
//! `deepbase-cli <addr> shutdown`): in-flight passes drain, sessions
//! flush, the store compacts, and the acceptor joins every handler.

use deepbase::prelude::{AdmissionConfig, SessionConfig, StoreConfig};
use deepbase_server::{demo, InspectionServer, ServerConfig};
use std::process::exit;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: deepbase-server [ADDR] [--store DIR] [--stream-width N] \
         [--scan-width N] [--idle-ms N]"
    );
    exit(2)
}

fn parse_num(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("deepbase-server: {flag} needs a numeric argument");
            usage()
        }
    }
}

fn main() {
    let mut addr = String::from("127.0.0.1:4517");
    let mut store_dir: Option<String> = None;
    let mut stream_width: Option<usize> = None;
    let mut scan_width: Option<usize> = None;
    let mut idle_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store_dir = Some(parse_str("--store", args.next())),
            "--stream-width" => {
                stream_width = Some(parse_num("--stream-width", args.next()) as usize)
            }
            "--scan-width" => scan_width = Some(parse_num("--scan-width", args.next()) as usize),
            "--idle-ms" => idle_ms = Some(parse_num("--idle-ms", args.next())),
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => {
                eprintln!("deepbase-server: unknown flag {flag}");
                usage()
            }
            positional => addr = positional.to_string(),
        }
    }

    let passes = Arc::new(AtomicUsize::new(0));
    let catalog = demo::catalog(&passes);
    let config = ServerConfig {
        session: SessionConfig {
            inspection: demo::inspection(),
            admission: AdmissionConfig {
                max_stream_width: stream_width,
                max_scan_width: scan_width,
            },
            store: store_dir.map(|dir| StoreConfig {
                block_records: 64,
                ..StoreConfig::at(dir)
            }),
            ..SessionConfig::default()
        },
        idle_timeout: idle_ms.map(Duration::from_millis),
        ..ServerConfig::default()
    };

    let handle = match InspectionServer::start(&addr, catalog, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("deepbase-server: could not bind {addr}: {e}");
            exit(1)
        }
    };
    println!(
        "deepbase-server listening on {} (kernels: {})",
        handle.addr(),
        deepbase_tensor::simd::path()
    );
    handle.join();
    println!("deepbase-server: drained and shut down");
}

fn parse_str(flag: &str, value: Option<String>) -> String {
    match value {
        Some(v) => v,
        None => {
            eprintln!("deepbase-server: {flag} needs an argument");
            usage()
        }
    }
}
