//! End-to-end tests of the compiled `rapminer` binary (process boundary:
//! exit codes, stdout, stderr).

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

/// `rapminer serve` on `spool`, with both listeners on ephemeral ports.
fn serve(spool: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rapminer"));
    cmd.args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--metrics-listen",
        "127.0.0.1:0",
        "--shards",
        "1",
        "--spool",
        spool.to_str().expect("utf8 spool path"),
    ]);
    cmd
}

#[test]
fn a_second_daemon_on_a_held_spool_exits_naming_the_holder() {
    let spool = std::env::temp_dir().join(format!("rapminer_bin_lock_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let mut first = serve(&spool)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("first daemon spawns");
    // kept open for the whole test: the daemon keeps writing to stdout
    let mut first_stdout = BufReader::new(first.stdout.take().expect("stdout piped"));
    let mut announce = String::new();
    first_stdout
        .read_line(&mut announce)
        .expect("read the first daemon's announce");
    assert!(announce.starts_with("rapd listening on "), "{announce:?}");

    let mut second = serve(&spool)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("second daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = second.try_wait().expect("poll the second daemon") {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = second.kill();
            let _ = second.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    if let Some(mut pipe) = second.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    let holder = first.id();
    let _ = first.kill();
    let _ = first.wait();
    let _ = std::fs::remove_dir_all(&spool);

    let status = status.unwrap_or_else(|| panic!("the second daemon booted on a held spool"));
    assert!(!status.success(), "the second daemon exited 0: {stderr}");
    assert!(
        stderr.contains(&format!("pid {holder}")),
        "the refusal must name the holder (pid {holder}): {stderr}"
    );
}
