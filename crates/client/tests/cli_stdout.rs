//! `deepbase-cli` writes its answer through stdout; a reader that closes
//! the pipe early (`deepbase-cli ADDR inspect "$Q" | head -3`) must end
//! it quietly with success, not with a panic and its backtrace.

use deepbase_server::{demo, InspectionServer, ServerConfig};
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

#[test]
fn a_closed_stdout_ends_the_cli_quietly_with_success() {
    let passes = Arc::new(AtomicUsize::new(0));
    let server = InspectionServer::start(
        "127.0.0.1:0",
        demo::catalog(&passes),
        ServerConfig::default(),
    )
    .expect("bind an ephemeral port");
    let mut child = Command::new(env!("CARGO_BIN_EXE_deepbase-cli"))
        .arg(server.addr().to_string())
        .arg("inspect")
        .arg(demo::QUERIES[2])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deepbase-cli");
    // Close the read end before the answer comes back: every write the
    // CLI makes meets a broken pipe.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for deepbase-cli");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "the CLI panicked:\n{stderr}");
    assert!(
        output.status.success(),
        "exit {:?}, stderr:\n{stderr}",
        output.status
    );
}
