//! Command-line handling of the `mutation_guard` binary.

use std::fs;
use std::process::Command;

/// A flag the guard does not know must fail fast with a usage message,
/// never be mistaken for the report path, and never start the campaign.
#[test]
fn unknown_flag_is_rejected_before_the_campaign() {
    let dir = std::env::temp_dir().join(format!("mutation-guard-cli-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    let out = Command::new(env!("CARGO_BIN_EXE_mutation_guard"))
        .args(["--backend", "native"])
        .current_dir(&dir)
        .output()
        .expect("run mutation_guard");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "unknown flag must fail: {stdout}");
    assert!(stderr.contains("usage: mutation_guard"), "stderr: {stderr}");
    assert!(
        !stdout.contains("seed"),
        "the campaign must not start: {stdout}"
    );
    let written: Vec<_> = fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(written.is_empty(), "no report may be written: {written:?}");
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}
