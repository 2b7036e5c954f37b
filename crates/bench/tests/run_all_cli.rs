//! `run_all`'s command line, driven as a process.

use std::process::Command;

use clic_bench::experiments;

#[test]
fn an_unknown_name_exits_nonzero_and_lists_the_table() {
    let out_dir = std::env::temp_dir().join(format!("clic-run-all-cli-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--quick", "table_fig2", "fig99_nonesuch", "--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("run_all launches");
    assert!(!output.status.success(), "an unknown name must be an error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("fig99_nonesuch"),
        "names the culprit: {stderr}"
    );
    for name in experiments::names() {
        assert!(stderr.contains(name), "lists {name}: {stderr}");
    }
    assert!(
        !out_dir.exists(),
        "nothing may run when any name is unknown, not even the valid ones before it"
    );
}
