//! Real-process checks that non-finite and overflowing input reaches the
//! exact operator (DS) as IEEE values, not as a panic: `compare` runs every
//! algorithm, so one operator that cannot hold an infinity used to abort
//! the whole table with exit 101.

use std::process::{Command, Output};

fn repro_reduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro-reduce"))
        .args(args)
        .output()
        .expect("spawn repro-reduce")
}

fn stdout_of(args: &[&str]) -> String {
    let out = repro_reduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{args:?} exited {:?}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn compare_on_an_infinity_exits_zero() {
    let out = stdout_of(&["compare", "1", "inf"]);
    let ds = out
        .lines()
        .find(|l| l.trim_start().starts_with("DS "))
        .unwrap_or_else(|| panic!("no DS row: {out}"));
    assert!(ds.contains("+inf"), "{ds}");
}

#[test]
fn ds_sums_follow_ieee_on_infinities_and_overflow() {
    let result_bits = |args: &[&str]| -> String {
        let out = stdout_of(args);
        let manifest = out.lines().find(|l| l.starts_with("# manifest: ")).unwrap();
        let at = manifest.find("\"result_bits\":\"").unwrap() + 15;
        manifest[at..at + 16].to_string()
    };
    let inf = "7ff0000000000000";
    assert_eq!(result_bits(&["sum", "--alg", "DS", "1", "inf"]), inf);
    assert_eq!(result_bits(&["sum", "--alg", "DS", "1e308", "1e308"]), inf);
    assert_eq!(
        result_bits(&["sum", "--alg", "DS", "-inf", "1"]),
        "fff0000000000000"
    );
}
