//! The `concorde` binary's flag handling: a flag the subcommand does not
//! accept is a usage error (exit 2, naming the flag), never silently
//! ignored; accepted flags still run.

use std::process::{Command, Output};

fn concorde(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_concorde"))
        .args(args)
        .output()
        .expect("run the concorde binary")
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        &["bound", "S5", "--arhc", "big"][..],
        &["serve", "--model-encoding", "int8"],
        &["serve", "--inline-miss"],
    ] {
        let out = concorde(args);
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: the error must name {flag}: {stderr}"
        );
    }
}

#[test]
fn accepted_flags_still_run() {
    let out = concorde(&["bound", "S5", "--len", "2000", "--arch", "big"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("min-bound CPI"));
}
