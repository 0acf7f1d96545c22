//! Real-process check that `--n` below two is a bad option value (exit 1)
//! for every command that takes it, never a panic (exit 101) inside the
//! generators.

use std::process::Command;

#[test]
fn n_below_two_is_rejected_not_a_panic() {
    let commands: [&[&str]; 6] = [
        &["gen"],
        &["calibrate"],
        &["chaos"],
        &["trace", "chaos"],
        &["trace", "reduce"],
        &["report"],
    ];
    for cmd in commands {
        for n in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_repro-reduce"))
                .args(cmd)
                .args(["--n", n])
                .output()
                .expect("spawn repro-reduce");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_ne!(out.status.code(), Some(101), "{cmd:?} --n {n}: {stderr}");
            assert_eq!(out.status.code(), Some(1), "{cmd:?} --n {n}: {stderr}");
            assert!(stderr.contains("bad --n"), "{cmd:?} --n {n}: {stderr}");
        }
    }
}
