//! End-to-end tests of the compiled `rapminer` binary (process boundary:
//! exit codes, stdout, stderr).

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_rapminer"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn help_exits_zero_with_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    // no arguments behaves like help
    let (stdout, _, ok) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_message() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn missing_file_exits_nonzero() {
    let (_, stderr, ok) = run(&["localize", "--input", "/definitely/missing.csv"]);
    assert!(!ok);
    assert!(stderr.contains("cannot open"));
}

#[test]
fn full_generate_localize_evaluate_flow() {
    let dir = std::env::temp_dir().join(format!("rapminer_bin_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap();
    let (stdout, stderr, ok) = run(&[
        "generate",
        "--dataset",
        "squeeze",
        "--out",
        dir_s,
        "--cases-per-group",
        "1",
        "--seed",
        "11",
    ]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("9 cases"));

    let case = dir.join("squeeze_d2_r1_000.csv");
    let (stdout, stderr, ok) = run(&["localize", "--input", case.to_str().unwrap()]);
    assert!(ok, "localize failed: {stderr}");
    assert!(stdout.contains("root anomaly pattern"), "got: {stdout}");

    let (stdout, stderr, ok) = run(&[
        "evaluate",
        "--dir",
        dir_s,
        "--protocol",
        "rc",
        "--k",
        "1,3",
        "--method",
        "rapminer",
    ]);
    assert!(ok, "evaluate failed: {stderr}");
    assert!(stdout.contains("RC@1"), "got: {stdout}");
    assert!(stdout.contains("rapminer"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn methods_lists_all_six() {
    let (stdout, _, ok) = run(&["methods"]);
    assert!(ok);
    for name in [
        "rapminer",
        "squeeze",
        "fp-growth",
        "adtributor",
        "idice",
        "hotspot",
    ] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
}
