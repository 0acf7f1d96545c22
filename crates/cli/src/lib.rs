//! # `repro-cli` — the `repro-reduce` command
//!
//! A thin, dependency-free command-line front end over `repro-core`. The
//! commands, their flags and the exit-code contract are documented once,
//! in [`USAGE`] (what `repro-reduce --help` prints).
//!
//! Every command is a pure function from arguments + input to an output
//! string — [`run`] takes the filesystem as a closure — so the entire CLI
//! is unit-testable without spawning processes. One parser turns a
//! command's arguments into one options struct, admitting only the flags
//! on that command's allow-list; the modules hold the command families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod chaos;
mod manifest;
mod opts;
mod tools;
mod trace;
mod values;

use opts::Opts;

/// CLI errors: user-facing messages, no panics for bad input.
///
/// `code` is the process exit status the binary maps the error to, so
/// scripts can tell *why* a command failed without parsing stderr:
/// `1` for ordinary failures and numerical divergence (`trace diff`
/// finding divergent nodes, `replay` not matching bitwise), `2` for
/// parse/schema errors (a malformed trace or manifest, an unsupported
/// schema version, an invalid environment).
#[derive(Debug, PartialEq)]
pub struct CliError {
    /// The user-facing message.
    pub msg: String,
    /// Process exit code: 1 = failure/divergence, 2 = parse/schema error.
    pub code: i32,
}

impl CliError {
    /// An ordinary failure or numerical divergence (exit code 1).
    pub fn new(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            code: 1,
        }
    }

    /// A parse/schema error (exit code 2).
    pub fn schema(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            code: 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::new(msg)
}

fn err_schema(msg: impl Into<String>) -> CliError {
    CliError::schema(msg)
}

/// Validate the `REPRO_SIMD` dispatch environment: `Ok` when it resolves to
/// a runnable tier, `Err` with the structured [`repro_core::fp::simd::TierError`]
/// rendered as a user-facing message otherwise. The binary calls this before
/// dispatching any command so an invalid override is a clean startup
/// diagnostic (nonzero exit) instead of a mid-run library panic or a silent
/// fallback.
pub fn check_dispatch_env() -> Result<(), CliError> {
    repro_core::fp::simd::try_active_tier()
        .map(|_| ())
        .map_err(|e| err(e.to_string()))
}

/// Initialize the process-global flight recorder from the environment
/// (`REPRO_FLIGHT`, `REPRO_POSTMORTEM`) and install the panic hook that
/// dumps a post-mortem when the process dies mid-reduction. The binary
/// calls this once before dispatching; it is idempotent.
pub fn init_flight_from_env() {
    let _ = repro_core::obs::flight::global();
    repro_core::obs::flight::install_panic_hook();
}

/// Usage text.
pub const USAGE: &str = "\
repro-reduce — reproducible floating-point reductions

USAGE:
  repro-reduce sum     [--alg ST|K|N|PW|CP|DD|PR|DS] [--hex] [--file F] [VALUES...]
  repro-reduce profile [--file F] [VALUES...]
  repro-reduce select  --tolerance T [--relative|--bitwise] [--explain]
                       [--file F] [VALUES...]
  repro-reduce verify  [--tolerance T] [--bitwise] [--file F] [VALUES...]
  repro-reduce compare [--file F] [VALUES...]
  repro-reduce gen     --n N [--k K|inf] [--dr D] [--seed S]
  repro-reduce dot     --file-x FX --file-y FY [--alg ST|CP|PR]
  repro-reduce calibrate [--n N] [--perms P] [--seed S]
  repro-reduce tree    [--shape balanced|serial|random|binomial] [--alg A]
                       [--dot] [--seed S] [--file F] [VALUES...]
  repro-reduce chaos   [--ranks R] [--n N] [--dr D] [--seed S] [--drop P]
                       [--delay P] [--dup P] [--reorder P] [--kill K]
                       [--topology binomial|flat|chain]
  repro-reduce trace reduce [--n N] [--k K|inf] [--dr D] [--seed S]
                       [--tolerance T] [--bitwise] [--wall] [--telemetry]
                       [--sample N] [--perturb I] [--file F] [VALUES...]
  repro-reduce trace chaos  [--ranks R] [--n N] [--dr D] [--seed S] [--drop P]
                       [--delay P] [--dup P] [--reorder P] [--kill K]
                       [--telemetry] [--sample N] [--perturb I]
  repro-reduce trace check  --file F
  repro-reduce trace diff   A.jsonl B.jsonl
  repro-reduce report  [--format prom|html] [--n N] [--k K|inf] [--dr D]
                       [--seed S] [--sample N] [--file F] [VALUES...]
  repro-reduce bench   [--out PATH|-]
  repro-reduce simd    [--check scalar|sse2|avx2]
  repro-reduce replay  MANIFEST.json
  repro-reduce flight  [--dump DIR]
  repro-reduce agg loadgen [--aggregates A] [--clients C] [--batches B]
                       [--batch-len L] [--shards K] [--workers W]
                       [--seed S] [--shuffle X]
  repro-reduce agg serve   (loadgen flags) [--restore PATH] [--snapshot PATH]
                       [--start-at I] [--stop-at I] [--manifest PATH]
  repro-reduce agg bench   (loadgen flags; sweeps shards 1/4/16)
  repro-reduce agg check   --file F

Every command, and the trace and agg families, prints this text for
help, --help or -h. A flag another command takes is rejected with the
list of commands that take it.

Values come from positional args and/or --file (whitespace-separated;
'-' = stdin). trace emits JSONL events plus '#' summary lines; with the
same seed, 'trace chaos' event streams are byte-identical across runs.
--telemetry adds per-node accuracy events (partial sums, Higham bounds,
sampled exact-ulp deviations); 'trace diff' aligns two traces by node id
and walks any divergence to its leaf origin; 'report' renders the
metrics registry as Prometheus text or HTML.

sum / trace reduce / trace chaos end with a '# manifest: {...}' line
capturing the run's full determinism context (--manifest PATH also
writes it to a file); 'replay' re-executes a manifest (or the manifest
line of a saved trace) and succeeds only on bitwise-identical results.
'flight' shows the always-on flight recorder's rings and overhead
accounting; --dump writes a postmortem.jsonl. REPRO_FLIGHT=off disables
the recorder; REPRO_POSTMORTEM=DIR enables incident dumps.

'agg' drives the sharded aggregation engine: 'loadgen' runs the seeded
client swarm and prints byte-comparable 'agg'/'digest' lines (identical
for any --shuffle/--shards/--workers); 'serve' adds snapshot/restore +
kill-point control and ends finished runs with a replayable manifest;
'agg bench' sweeps shards 1/4/16 and exits 1 on digest divergence;
'agg check' strict-parses a saved state document (exit 2 when invalid).
Defaults scale with REPRO_SCALE.

Exit codes: 0 = success; 1 = failure or numerical divergence ('trace
diff' divergent nodes, 'replay' mismatch); 2 = parse/schema error
(malformed trace or manifest, unsupported schema, invalid REPRO_SIMD).";

/// The filesystem as the commands see it (a closure, for testability).
type ReadFile<'a> = dyn Fn(&str) -> Result<String, CliError> + 'a;

/// A command's body.
type Handler = fn(&Opts, &ReadFile) -> Result<String, CliError>;

/// One command: the words that name it, whether it takes positional
/// arguments (values or paths), the flags it accepts (space-separated
/// groups), and its body.
struct Command {
    name: &'static str,
    positionals: bool,
    flags: &'static [&'static str],
    run: Handler,
}

impl Command {
    fn accepts(&self, flag: &str) -> bool {
        self.flags
            .iter()
            .flat_map(|g| g.split(' '))
            .any(|f| f == flag)
    }
}

const fn cmd(
    name: &'static str,
    positionals: bool,
    flags: &'static [&'static str],
    run: Handler,
) -> Command {
    Command {
        name,
        positionals,
        flags,
        run,
    }
}

const GEN: &str = "--n --k --dr --seed";
const TOLERANCE: &str = "--tolerance --relative --bitwise";
const TELEMETRY: &str = "--telemetry --sample --perturb";
const FAULTS: &str = "--ranks --n --dr --seed --drop --delay --dup --reorder --kill";
const LOAD: &str =
    "--aggregates --clients --batches --batch-len --shards --workers --seed --shuffle";

/// Every command and the flags it accepts: the allow-lists the parser
/// enforces. A two-word name belongs to a family (`trace`, `agg`).
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("sum",          true,  &["--alg --hex --file --manifest"], values::sum),
    cmd("profile",      true,  &["--file"], values::profile),
    cmd("select",       true,  &[TOLERANCE, "--explain --file"], values::select),
    cmd("verify",       true,  &[TOLERANCE, "--seed --file"], values::verify),
    cmd("compare",      true,  &["--file"], values::compare),
    cmd("gen",          false, &[GEN], values::gen),
    cmd("dot",          false, &["--file-x --file-y --alg"], values::dot),
    cmd("calibrate",    false, &["--n --perms --seed"], values::calibrate),
    cmd("tree",         true,  &["--shape --alg --dot --seed --file"], values::tree),
    cmd("chaos",        false, &[FAULTS, "--topology"], chaos::chaos),
    cmd("trace reduce", true,  &[GEN, TOLERANCE, TELEMETRY, "--wall --file --manifest"], trace::reduce),
    cmd("trace chaos",  false, &[FAULTS, TELEMETRY, "--manifest"], chaos::trace_chaos),
    cmd("trace check",  false, &["--file"], trace::check),
    cmd("trace diff",   true,  &[], trace::diff),
    cmd("report",       true,  &[GEN, TOLERANCE, "--format --sample --file"], trace::report),
    cmd("bench",        false, &["--out"], tools::bench),
    cmd("simd",         false, &["--check"], tools::simd),
    cmd("replay",       true,  &[], manifest::replay),
    cmd("flight",       false, &["--dump"], tools::flight),
    cmd("agg loadgen",  false, &[LOAD], agg::loadgen),
    cmd("agg serve",    false, &[LOAD, "--restore --snapshot --start-at --stop-at --manifest"], agg::serve),
    cmd("agg bench",    false, &[LOAD], agg::bench),
    cmd("agg check",    false, &["--file"], agg::check),
];

fn is_help(arg: &str) -> bool {
    matches!(arg, "help" | "--help" | "-h")
}

/// Run one command; `read_file` abstracts the filesystem for testability.
pub fn run(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let (word, rest) = args.split_first().ok_or_else(|| err(USAGE))?;
    if is_help(word) {
        return Ok(USAGE.to_string());
    }
    let subs = COMMANDS
        .iter()
        .filter_map(|c| c.name.strip_prefix(word.as_str())?.strip_prefix(' '))
        .collect::<Vec<_>>()
        .join("|");
    let (name, rest, unknown) = match rest.split_first() {
        _ if subs.is_empty() => (
            word.clone(),
            rest,
            format!("unknown command {word:?}\n\n{USAGE}"),
        ),
        None => return Err(err(format!("{word} needs a subcommand: {subs}"))),
        Some((sub, _)) if is_help(sub) => return Ok(USAGE.to_string()),
        Some((sub, tail)) => (
            format!("{word} {sub}"),
            tail,
            format!("unknown {word} subcommand {sub:?} (expected {subs})"),
        ),
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| err(unknown))?;
    match opts::parse(command, rest)? {
        Some(o) => (command.run)(&o, read_file),
        None => Ok(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::obs::RunManifest;

    fn no_fs(_: &str) -> Result<String, CliError> {
        Err(err("no filesystem in tests"))
    }

    fn run_cmd(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &no_fs)
    }

    #[test]
    fn bench_emits_schema_entries_and_summary() {
        std::env::set_var("REPRO_SCALE", "quick");
        let out = run_cmd(&["bench", "--out", "-"]).unwrap();
        assert!(
            out.contains("\"schema\": \"repro-bench-throughput-v1\""),
            "{out}"
        );
        for op in [
            "superacc/scalar",
            "superacc/batched",
            "lanes/4",
            "select/profile",
        ] {
            assert!(out.contains(op), "missing {op} in {out}");
        }
        assert!(out.contains("# batched/scalar superaccumulator"), "{out}");
        // The document half parses as JSON on its own.
        let json: String = out.lines().take_while(|l| !l.starts_with('#')).collect();
        assert!(repro_core::obs::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn bench_covers_one_simd_op_per_supported_tier() {
        std::env::set_var("REPRO_SCALE", "quick");
        let out = run_cmd(&["bench", "--out", "-"]).unwrap();
        for tier in repro_core::fp::simd::supported_tiers() {
            let op = format!("simd/{}", tier.label());
            assert!(out.contains(&op), "missing {op} in {out}");
        }
    }

    #[test]
    fn simd_reports_dispatch_and_supported_tiers() {
        let out = run_cmd(&["simd"]).unwrap();
        assert!(out.contains("active: "), "{out}");
        assert!(out.contains("source: "), "{out}");
        assert!(out.contains("supported: scalar"), "{out}");
    }

    #[test]
    fn simd_check_answers_by_exit_status() {
        // scalar is supported everywhere; an unknown tier is a usage error.
        assert!(run_cmd(&["simd", "--check", "scalar"]).is_ok());
        assert!(run_cmd(&["simd", "--check", "mmx"]).is_err());
        assert!(run_cmd(&["simd", "--bogus"]).is_err());
        for tier in ["sse2", "avx2"] {
            let got = run_cmd(&["simd", "--check", tier]);
            let supported = repro_core::fp::simd::SimdTier::parse(tier)
                .map(repro_core::fp::simd::tier_supported)
                .unwrap_or(false);
            assert_eq!(got.is_ok(), supported, "tier {tier}");
        }
    }

    /// The byte-comparable half of agg output (everything not `#`).
    fn agg_lines(out: &str) -> Vec<&str> {
        out.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect()
    }

    const AGG_SMALL: &[&str] = &[
        "--aggregates",
        "2",
        "--clients",
        "12",
        "--batches",
        "3",
        "--batch-len",
        "32",
    ];

    fn agg_cmd(prefix: &[&str], extra: &[&str]) -> Vec<String> {
        prefix
            .iter()
            .chain(AGG_SMALL)
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn agg_loadgen_lines_are_invariant_to_shuffle_shards_workers() {
        let base = run(&agg_cmd(&["agg", "loadgen"], &[]), &no_fs).unwrap();
        assert_eq!(agg_lines(&base).len(), 3, "{base}"); // 2 aggregates + digest
        assert!(base.contains("updates/sec"), "{base}");
        for extra in [
            ["--shuffle", "99", "--shards", "1", "--workers", "1"],
            ["--shuffle", "7", "--shards", "16", "--workers", "8"],
        ] {
            let out = run(&agg_cmd(&["agg", "loadgen"], &extra), &no_fs).unwrap();
            assert_eq!(agg_lines(&out), agg_lines(&base), "extra: {extra:?}");
        }
        // A different payload seed is a genuinely different workload.
        let other = run(&agg_cmd(&["agg", "loadgen"], &["--seed", "3"]), &no_fs).unwrap();
        assert_ne!(agg_lines(&other), agg_lines(&base));
    }

    #[test]
    fn agg_serve_restore_resume_matches_uninterrupted_run() {
        use repro_core::agg::{loadgen, AggConfig, AggEngine, LoadSpec};
        let spec = LoadSpec {
            aggregates: 2,
            clients: 12,
            batches: 3,
            batch_len: 32,
            seed: 2015,
            shuffle: 1,
            workers: 4,
        };
        // First half via the library, "killed" into a snapshot string...
        let first = AggEngine::new(AggConfig::default());
        loadgen::run(&first, &spec, 0, Some(spec.total_batches() / 2));
        let snapshot = first.serialize();
        let fs = move |path: &str| {
            if path == "snap" {
                Ok(snapshot.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        // ...resumed through the CLI from the kill point.
        let cut = (spec.total_batches() / 2).to_string();
        let resumed = run(
            &agg_cmd(
                &["agg", "serve"],
                &["--restore", "snap", "--start-at", &cut],
            ),
            &fs,
        )
        .unwrap();
        let full = run(&agg_cmd(&["agg", "serve"], &[]), &no_fs).unwrap();
        assert_eq!(agg_lines(&resumed), agg_lines(&full));
        assert!(resumed.contains("# manifest: "), "{resumed}");
    }

    #[test]
    fn agg_serve_partial_run_emits_no_manifest() {
        let out = run(&agg_cmd(&["agg", "serve"], &["--stop-at", "5"]), &no_fs).unwrap();
        assert!(out.contains("# partial run"), "{out}");
        assert!(!out.contains("# manifest: "), "{out}");
    }

    #[test]
    fn agg_replay_round_trips_a_serve_manifest() {
        let served = run(&agg_cmd(&["agg", "serve"], &["--workers", "2"]), &no_fs).unwrap();
        let fs = move |path: &str| {
            if path == "run.out" {
                Ok(served.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let out = run(&["replay".to_string(), "run.out".to_string()], &fs).unwrap();
        assert!(out.starts_with("replay OK (bitwise): cmd=agg"), "{out}");
    }

    #[test]
    fn agg_bench_sweeps_shards_and_agrees_bitwise() {
        let out = run(&agg_cmd(&["agg", "bench"], &[]), &no_fs).unwrap();
        for shards in ["# shards=1:", "# shards=4:", "# shards=16:"] {
            assert!(out.contains(shards), "missing {shards} in {out}");
        }
        assert!(agg_lines(&out).last().unwrap().starts_with("digest "));
    }

    #[test]
    fn agg_check_accepts_real_state_and_rejects_garbage_with_exit_2() {
        use repro_core::agg::{AggConfig, AggEngine};
        let engine = AggEngine::new(AggConfig::default());
        engine
            .declare("demo", &[1.0, 2.0])
            .ingest(0, &[1.0, 2.0, 3.0]);
        let good = engine.serialize();
        let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        let fs = move |path: &str| match path {
            "good" => Ok(good.clone()),
            "trunc" => Ok(truncated.clone()),
            "garbage" => Ok("repro-agg-snapshot-v9 aggregates=1".to_string()),
            _ => Err(err("unknown file")),
        };
        let args = |f: &str| {
            vec![
                "agg".to_string(),
                "check".to_string(),
                "--file".into(),
                f.into(),
            ]
        };
        let ok = run(&args("good"), &fs).unwrap();
        assert!(ok.contains("agg state OK: aggregates=1 updates=3"), "{ok}");
        for bad in ["trunc", "garbage"] {
            let e = run(&args(bad), &fs).unwrap_err();
            assert_eq!(e.code, 2, "{bad}: {}", e.msg);
        }
    }

    #[test]
    fn agg_loadgen_rejects_serve_only_flags() {
        let e = run(&agg_cmd(&["agg", "loadgen"], &["--stop-at", "3"]), &no_fs).unwrap_err();
        assert!(e.msg.contains("agg serve"), "{}", e.msg);
        let e = run_cmd(&["agg", "frobnicate"]).unwrap_err();
        assert!(e.msg.contains("unknown agg subcommand"), "{}", e.msg);
    }

    #[test]
    fn sum_defaults_to_pr() {
        let out = run_cmd(&["sum", "1e16", "1", "-1e16"]).unwrap();
        assert!(out.starts_with("1.0"), "{out}");
        assert!(out.contains("PR(fold=3)"));
    }

    #[test]
    fn sum_hex_output_round_trips() {
        let out = run_cmd(&["sum", "--hex", "--alg", "CP", "0.1", "0.2"]).unwrap();
        let first = out.lines().next().unwrap();
        let parsed = repro_core::fp::parse_hex(first).unwrap();
        assert_eq!(parsed.to_bits(), (0.1f64 + 0.2f64).to_bits());
    }

    #[test]
    fn sum_with_explicit_algorithm() {
        let out = run_cmd(&["sum", "--alg", "ST", "1e16", "1", "-1e16"]).unwrap();
        assert!(out.starts_with("0"), "{out}");
        assert!(out.contains("exact error: 1.000e0"));
    }

    #[test]
    fn profile_reports_k_dr_and_recommendations() {
        let out = run_cmd(&["profile", "3.14e4", "1.59e-4", "-3.14e4", "-1.59e-4"]).unwrap();
        assert!(out.contains("inf"), "{out}");
        assert!(out.contains('8'), "{out}");
        assert!(out.contains("recommendations"), "{out}");
        assert!(out.contains("Bitwise"), "{out}");
    }

    #[test]
    fn select_escalates_on_hostile_input() {
        let out = run_cmd(&[
            "select",
            "--tolerance",
            "1e-30",
            "3.14e8",
            "1.59e-8",
            "-3.14e8",
            "-1.59e-8",
        ])
        .unwrap();
        assert!(out.contains("# selected: DS"), "{out}");
    }

    #[test]
    fn verify_defaults_to_bitwise_and_reports_ladder() {
        let out = run_cmd(&["verify", "1.0", "2.0", "3.0"]).unwrap();
        assert!(out.contains("accepted: ST"), "{out}");
    }

    #[test]
    fn compare_lists_every_algorithm_and_exact() {
        let out = run_cmd(&["compare", "0.1", "0.2", "0.3"]).unwrap();
        for label in ["ST", "K", "CP", "PR(fold=3)", "DS", "exact"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn gen_emits_n_parseable_values_with_target_properties() {
        let out = run_cmd(&[
            "gen", "--n", "100", "--k", "inf", "--dr", "8", "--seed", "7",
        ])
        .unwrap();
        let values: Vec<f64> = out.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(values.len(), 100);
        let m = repro_core::gen::measure(&values);
        assert_eq!(m.sum, 0.0);
    }

    #[test]
    fn gen_pipes_into_sum() {
        let data = run_cmd(&["gen", "--n", "50", "--k", "1000", "--dr", "4"]).unwrap();
        let fs = move |path: &str| {
            if path == "pipe" {
                Ok(data.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["sum", "--file", "pipe"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.contains("algorithm"), "{out}");
    }

    #[test]
    fn dot_command_reads_two_files() {
        let fs = |path: &str| match path {
            "x" => Ok("1 2 3".to_string()),
            "y" => Ok("4 5 6".to_string()),
            _ => Err(err("nope")),
        };
        let args: Vec<String> = ["dot", "--file-x", "x", "--file-y", "y", "--alg", "PR"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.starts_with("3.2"), "{out}"); // 4+10+18 = 32
        assert!(out.contains("exact error: 0"));
    }

    #[test]
    fn calibrate_emits_parseable_csv() {
        let out = run_cmd(&["calibrate", "--n", "128", "--perms", "4"]).unwrap();
        let table = repro_core::select::CalibrationTable::from_csv(&out).expect("parse");
        assert!(!table.cells.is_empty());
        assert_eq!(table.n, 128);
    }

    #[test]
    fn select_explains_its_decision_on_request() {
        let out = run_cmd(&[
            "select",
            "--tolerance",
            "1e-30",
            "--explain",
            "3.14e8",
            "1.59e-8",
            "-3.14e8",
            "-1.59e-8",
        ])
        .unwrap();
        assert!(out.contains("CHOSEN"), "{out}");
        assert!(out.contains("exceeds budget"), "{out}");
        assert!(out.contains("budget (absolute spread)"), "{out}");
    }

    #[test]
    fn tree_renders_ascii_with_attribution() {
        let out = run_cmd(&["tree", "--shape", "serial", "1e16", "1", "-1e16"]).unwrap();
        assert!(out.contains("total rounding error: 1.000e0"), "{out}");
        assert!(out.contains("worst nodes"), "{out}");
        // Balanced shape on the same data commutes the loss to a different node
        // but the CLI still reports it.
        let out = run_cmd(&["tree", "--shape", "balanced", "1", "1e16", "-1e16"]).unwrap();
        assert!(out.contains("result:"), "{out}");
    }

    #[test]
    fn tree_emits_graphviz_dot() {
        let out = run_cmd(&["tree", "--dot", "0.1", "0.2", "0.3"]).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        assert!(out.contains("->"), "{out}");
    }

    #[test]
    fn tree_rejects_unknown_shape() {
        assert!(run_cmd(&["tree", "--shape", "mobius", "1", "2"]).is_err());
    }

    #[test]
    fn chaos_clean_run_is_bitwise_ok() {
        let out = run_cmd(&["chaos", "--ranks", "6", "--n", "512", "--seed", "42"]).unwrap();
        assert!(out.contains("OK (bitwise)"), "{out}");
        assert!(out.contains("completed=6 failed=0"), "{out}");
        assert!(out.contains("(rounds=1)"), "{out}");
        assert!(out.contains("replay: repro-reduce chaos"), "{out}");
    }

    #[test]
    fn chaos_heals_around_kills_and_stays_bitwise() {
        let out = run_cmd(&[
            "chaos",
            "--ranks",
            "6",
            "--n",
            "512",
            "--seed",
            "7",
            "--kill",
            "1",
            "--drop",
            "0.05",
            "--topology",
            "chain",
        ])
        .unwrap();
        assert!(out.contains("OK (bitwise)"), "{out}");
        assert!(out.contains("failed=1"), "{out}");
        // The checkpoint demo always injects one chunk failure.
        assert!(
            out.contains("checkpoint demo: retries=1 heals=1 checkpoint_restores=0"),
            "{out}"
        );
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        let args = [
            "chaos", "--ranks", "5", "--n", "256", "--seed", "11", "--drop", "0.2",
        ];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        let head = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.contains("report:")) // retry counts are timing-dependent
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&a), head(&b));
    }

    #[test]
    fn chaos_rejects_bad_knobs() {
        assert!(run_cmd(&["chaos", "--topology", "mesh"]).is_err());
        assert!(run_cmd(&["chaos", "--drop", "1.5"]).is_err());
        assert!(run_cmd(&["chaos", "--ranks", "0"]).is_err());
    }

    /// JSONL event lines only — the deterministic part of a trace.
    fn event_lines(out: &str) -> Vec<&str> {
        out.lines().filter(|l| !l.starts_with('#')).collect()
    }

    #[test]
    fn trace_reduce_emits_decision_and_runtime_spans() {
        let out = run_cmd(&["trace", "reduce", "--n", "512", "--dr", "8", "--seed", "3"]).unwrap();
        let summary = repro_core::obs::validate_trace(&out).expect("schema");
        assert_eq!(summary.subsystems, vec!["runtime", "select"]);
        let events = event_lines(&out);
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"decision\"")),
            "{out}"
        );
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"reduce_end\"")),
            "{out}"
        );
        assert!(
            out.contains("# metric counter runtime.tasks_executed"),
            "{out}"
        );
    }

    #[test]
    fn trace_reduce_event_stream_is_deterministic_without_wall_clock() {
        let args = ["trace", "reduce", "--n", "256", "--k", "inf", "--dr", "4"];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        assert_eq!(event_lines(&a), event_lines(&b));
        assert!(!a.contains("wall_us"), "{a}");
        let walled = run_cmd(&["trace", "reduce", "--wall", "--n", "64"]).unwrap();
        assert!(walled.contains("wall_us"), "{walled}");
    }

    #[test]
    fn trace_chaos_replays_byte_identically() {
        let args = [
            "trace", "chaos", "--ranks", "4", "--n", "256", "--seed", "909", "--drop", "0.3",
            "--dup", "0.2", "--kill", "1",
        ];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        // Full byte identity — summary lines included — because the script
        // excludes every timing-dependent quantity.
        assert_eq!(a, b);
        let events = event_lines(&a);
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"decision\"")),
            "{a}"
        );
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"kill\"")),
            "{a}"
        );
        assert!(
            events
                .iter()
                .any(|l| l.contains("\"kind\":\"gather_done\"")),
            "{a}"
        );
        assert!(a.contains("OK (bitwise)"), "{a}");
        assert!(a.contains("failed=1"), "{a}");
    }

    #[test]
    fn trace_chaos_clean_run_keeps_every_rank() {
        let out = run_cmd(&[
            "trace", "chaos", "--ranks", "3", "--n", "128", "--seed", "5",
        ])
        .unwrap();
        assert!(out.contains("# survivors: [0, 1, 2]"), "{out}");
        assert!(out.contains("OK (bitwise)"), "{out}");
        repro_core::obs::validate_trace(&out).expect("schema");
    }

    #[test]
    fn trace_check_round_trips_a_generated_trace() {
        let trace =
            run_cmd(&["trace", "chaos", "--ranks", "3", "--n", "64", "--seed", "8"]).unwrap();
        let fs = move |path: &str| {
            if path == "t.jsonl" {
                Ok(trace.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["trace", "check", "--file", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.contains("trace OK"), "{out}");
        assert!(out.contains("select"), "{out}");

        let bad_fs = |path: &str| {
            if path == "bad.jsonl" {
                Ok("{\"sub\":\"x\",\"seq\":1,\"kind\":\"a\"}\n{\"sub\":\"x\",\"seq\":1,\"kind\":\"b\"}".to_string())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["trace", "check", "--file", "bad.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &bad_fs).unwrap_err();
        assert!(e.msg.contains("invalid trace"), "{e}");
    }

    #[test]
    fn trace_error_paths() {
        assert!(run_cmd(&["trace"]).is_err(), "needs subcommand");
        assert!(run_cmd(&["trace", "bogus"]).is_err(), "unknown subcommand");
        assert!(run_cmd(&["trace", "check"]).is_err(), "check needs --file");
        assert!(
            run_cmd(&["trace", "check", "--seed", "1"]).is_err(),
            "check rejects stray options"
        );
        assert!(
            run_cmd(&["trace", "chaos", "--drop", "2.0"]).is_err(),
            "invalid fault probability"
        );
    }

    #[test]
    fn trace_reduce_telemetry_emits_node_events_and_realized_spread() {
        let off = run_cmd(&["trace", "reduce", "--n", "256", "--dr", "8", "--seed", "3"]).unwrap();
        assert!(!off.contains("\"kind\":\"node\""), "{off}");
        assert!(!off.contains("realized_spread"), "{off}");
        let on = run_cmd(&[
            "trace",
            "reduce",
            "--n",
            "256",
            "--dr",
            "8",
            "--seed",
            "3",
            "--telemetry",
        ])
        .unwrap();
        repro_core::obs::validate_trace(&on).expect("schema");
        assert!(on.contains("\"kind\":\"node\""), "{on}");
        assert!(on.contains("realized_spread"), "{on}");
        assert!(on.contains("runtime.nodes_observed"), "{on}");
        // Telemetry is additive: the traced run computes the same sum.
        let sum_line = |s: &str| {
            s.lines()
                .find(|l| l.contains("PR sum="))
                .unwrap()
                .to_string()
        };
        assert_eq!(sum_line(&off), sum_line(&on));
    }

    #[test]
    fn trace_diff_is_clean_on_identical_telemetry_traces() {
        let t = run_cmd(&["trace", "reduce", "--n", "128", "--dr", "4", "--telemetry"]).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" | "b.jsonl" => Ok(t.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.contains("no divergent nodes"), "{out}");
    }

    #[test]
    fn trace_diff_localizes_a_one_ulp_perturbation() {
        // The perturbed element dominates its chunk, so the one-ulp nudge
        // survives the leaf's rounding and the diff can name the origin.
        let vals = [
            "1.0", "1e-30", "1e-30", "1e-30", "1e-30", "1e-30", "1e-30", "1e-30",
        ];
        let mut base = vec!["trace", "reduce", "--telemetry"];
        base.extend_from_slice(&vals);
        let a = run_cmd(&base).unwrap();
        let mut pert = vec!["trace", "reduce", "--telemetry", "--perturb", "0"];
        pert.extend_from_slice(&vals);
        let b = run_cmd(&pert).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" => Ok(a.clone()),
            "b.jsonl" => Ok(b.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        assert!(e.msg.contains("first divergent node"), "{e}");
        assert!(
            e.msg
                .contains("origin: node runtime/c0 leaf interval [0, 8)"),
            "{e}"
        );
    }

    #[test]
    fn trace_chaos_telemetry_replays_byte_identically() {
        let args = [
            "trace",
            "chaos",
            "--ranks",
            "3",
            "--n",
            "96",
            "--seed",
            "5",
            "--telemetry",
        ];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        assert_eq!(a, b);
        repro_core::obs::validate_trace(&a).expect("schema");
        assert!(a.contains("\"node\":\"root\""), "{a}");
        assert!(a.contains("\"node\":\"leaf.r1.s0\""), "{a}");
        // The replay line advertises the telemetry flag so a copy-pasted
        // rerun reproduces the telemetried stream, not the bare one.
        assert!(a.contains("--kill 0 --telemetry"), "{a}");
    }

    #[test]
    fn trace_chaos_perturbation_diverges_at_the_root() {
        let base = [
            "trace",
            "chaos",
            "--ranks",
            "3",
            "--n",
            "96",
            "--seed",
            "5",
            "--telemetry",
        ];
        let a = run_cmd(&base).unwrap();
        let pert = [
            "trace",
            "chaos",
            "--ranks",
            "3",
            "--n",
            "96",
            "--seed",
            "5",
            "--telemetry",
            "--perturb",
            "40",
        ];
        let b = run_cmd(&pert).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" => Ok(a.clone()),
            "b.jsonl" => Ok(b.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        // The zero-sum input makes the perturbation visible in the merged
        // gather result no matter what the leaf rounding absorbs.
        assert!(e.msg.contains("rank0/root"), "{e}");
        assert!(e.msg.contains("origin: node"), "{e}");
    }

    #[test]
    fn report_renders_prometheus_and_html() {
        let prom = run_cmd(&["report", "--n", "128", "--dr", "4", "--seed", "7"]).unwrap();
        assert!(prom.contains("# TYPE"), "{prom}");
        assert!(prom.contains("runtime_nodes_observed"), "{prom}");
        assert!(prom.contains("select_spread_drift"), "{prom}");
        let html = run_cmd(&[
            "report", "--format", "html", "--n", "128", "--dr", "4", "--seed", "7",
        ])
        .unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
        assert!(html.contains("Error trajectory"), "{html}");
    }

    #[test]
    fn telemetry_error_paths() {
        assert!(
            run_cmd(&["trace", "diff", "only-one.jsonl"]).is_err(),
            "diff needs two files"
        );
        assert!(
            run_cmd(&["trace", "diff", "a", "b", "c"]).is_err(),
            "diff rejects three files"
        );
        assert!(
            run_cmd(&["trace", "diff", "--file", "a"]).is_err(),
            "diff rejects options"
        );
        assert!(
            run_cmd(&["trace", "reduce", "--perturb", "99", "1", "2"]).is_err(),
            "perturb out of range"
        );
        assert!(
            run_cmd(&["report", "--format", "yaml"]).is_err(),
            "unknown report format"
        );
        assert!(
            run_cmd(&["trace", "reduce", "--sample", "-1"]).is_err(),
            "bad sample"
        );
    }

    /// The `# manifest: ` trailer of a command's output.
    fn manifest_line(out: &str) -> &str {
        out.lines()
            .rev()
            .find_map(|l| l.strip_prefix("# manifest: "))
            .expect("output carries a manifest trailer")
    }

    #[test]
    fn trace_reduce_manifest_parses_and_replays_bitwise() {
        let out = run_cmd(&["trace", "reduce", "--n", "256", "--dr", "6", "--seed", "11"]).unwrap();
        let m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        assert_eq!(m.cmd, "reduce");
        assert_eq!(m.n, 256);
        assert_eq!(m.seed, 11);
        assert_eq!(m.source, "generated");
        assert!(m.replayable());
        assert!(m.result_bits.is_some());
        assert!(m.selector_bits.is_some());
        assert!(!m.algorithm.is_empty());
        // `replay` accepts the saved trace text directly (manifest trailer).
        let fs = move |path: &str| {
            if path == "t.jsonl" {
                Ok(out.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ok = run(&args, &fs).unwrap();
        assert!(ok.contains("replay OK (bitwise)"), "{ok}");
    }

    #[test]
    fn trace_chaos_manifest_round_trips_fault_spec_and_replays() {
        let out = run_cmd(&[
            "trace", "chaos", "--ranks", "4", "--n", "128", "--seed", "9", "--kill", "1", "--drop",
            "0.1",
        ])
        .unwrap();
        let m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        assert_eq!(m.cmd, "chaos");
        assert_eq!(m.workers, 4);
        let fault = m.fault.as_ref().expect("chaos manifest carries faults");
        assert_eq!(fault.kill, 1);
        assert_eq!(fault.drop, 0.1);
        let json = m.to_json();
        let fs = move |path: &str| {
            if path == "m.json" {
                Ok(json.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "m.json"].iter().map(|s| s.to_string()).collect();
        let ok = run(&args, &fs).unwrap();
        assert!(ok.contains("replay OK (bitwise)"), "{ok}");
    }

    #[test]
    fn sum_manifest_embeds_values_and_replays() {
        let out = run_cmd(&["sum", "--alg", "K", "1e16", "1", "-1e16"]).unwrap();
        let m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        assert_eq!(m.cmd, "sum");
        assert_eq!(m.source, "embedded");
        assert_eq!(m.values_bits.as_ref().map(Vec::len), Some(3));
        assert_eq!(m.algorithm, "K");
        let json = m.to_json();
        let fs = move |path: &str| {
            if path == "m.json" {
                Ok(json.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "m.json"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args, &fs).unwrap().contains("replay OK"), "sum replay");
    }

    #[test]
    fn replay_detects_a_perturbed_manifest_with_exit_code_1() {
        let out = run_cmd(&["trace", "reduce", "--n", "128", "--dr", "8", "--seed", "11"]).unwrap();
        // A different seed generates different data: the recorded result
        // bits can no longer be reproduced, which is exactly the
        // divergence the replay gate must catch.
        let perturbed = manifest_line(&out).replace("\"seed\":\"11\"", "\"seed\":\"12\"");
        assert_ne!(perturbed, manifest_line(&out), "seed field must rewrite");
        let fs = move |path: &str| {
            if path == "m.json" {
                Ok(perturbed.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "m.json"].iter().map(|s| s.to_string()).collect();
        let e = run(&args, &fs).unwrap_err();
        assert_eq!(e.code, 1, "{e}");
        assert!(e.msg.contains("replay DIVERGED"), "{e}");
        assert!(e.msg.contains("result_bits"), "{e}");
    }

    #[test]
    fn replay_rejects_malformed_manifests_with_exit_code_2() {
        let fs = |path: &str| match path {
            "garbage.json" => Ok("this is not a manifest".to_string()),
            "badschema.json" => {
                Ok("{\"schema\":\"repro-manifest-v999\",\"cmd\":\"reduce\"}".to_string())
            }
            _ => Err(err("unknown file")),
        };
        for path in ["garbage.json", "badschema.json"] {
            let args: Vec<String> = ["replay", path].iter().map(|s| s.to_string()).collect();
            let e = run(&args, &fs).unwrap_err();
            assert_eq!(e.code, 2, "{path}: {e}");
        }
        assert!(run_cmd(&["replay"]).is_err(), "replay needs a path");
    }

    #[test]
    fn trace_diff_exit_codes_distinguish_parse_from_divergence() {
        // Unparseable input: schema error, exit 2.
        let bad_fs = |_: &str| Ok("not json at all {".to_string());
        let args: Vec<String> = ["trace", "diff", "a", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &bad_fs).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        // Numerical divergence: exit 1.
        let vals = ["1.0", "1e-30", "1e-30", "1e-30"];
        let mut base = vec!["trace", "reduce", "--telemetry"];
        base.extend_from_slice(&vals);
        let a = run_cmd(&base).unwrap();
        let mut pert = vec!["trace", "reduce", "--telemetry", "--perturb", "0"];
        pert.extend_from_slice(&vals);
        let b = run_cmd(&pert).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" => Ok(a.clone()),
            "b.jsonl" => Ok(b.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        assert_eq!(e.code, 1, "{e}");
    }

    #[test]
    fn flight_subcommand_reports_rings_and_overhead() {
        // Drive at least one reduction through the process-global recorder
        // so the status has something to show.
        run_cmd(&["trace", "reduce", "--n", "64"]).unwrap();
        let out = run_cmd(&["flight"]).unwrap();
        assert!(out.contains("# flight recorder: enabled="), "{out}");
        assert!(out.contains("capacity="), "{out}");
        assert!(out.contains("obs.overhead.events"), "{out}");
        assert!(out.contains("# ring select:"), "{out}");
        assert!(run_cmd(&["flight", "--bogus"]).is_err());
        assert!(run_cmd(&["flight", "--dump"]).is_err(), "--dump needs dir");
    }

    #[test]
    fn manifests_are_deterministic_across_runs() {
        let args = ["trace", "reduce", "--n", "128", "--dr", "4", "--seed", "3"];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        assert_eq!(manifest_line(&a), manifest_line(&b));
    }

    /// The one parser against its contract: every command `USAGE` lists
    /// exists and accepts every flag `USAGE` gives it; the rejections the
    /// per-family parsers made stay rejections (exit 1); and help is one
    /// case at every level.
    #[test]
    fn parser_accepts_usage_flags_and_keeps_rejections() {
        let section = USAGE.split("USAGE:\n").nth(1).unwrap();
        let mut documented: Vec<(String, Vec<String>)> = Vec::new();
        for line in section.split("\n\n").next().unwrap().lines() {
            let line = line.trim_start();
            if let Some(rest) = line.strip_prefix("repro-reduce ") {
                let name: Vec<&str> = rest
                    .split_whitespace()
                    .take_while(|w| w.bytes().all(|b| b.is_ascii_lowercase()))
                    .collect();
                documented.push((name.join(" "), Vec::new()));
            }
            let mut flags: Vec<String> = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|t| t.starts_with("--"))
                .map(String::from)
                .collect();
            if line.contains("(loadgen flags") {
                let loadgen = documented.iter().find(|(n, _)| n == "agg loadgen").unwrap();
                flags.extend(loadgen.1.clone());
            }
            documented.last_mut().unwrap().1.extend(flags);
        }
        let names: Vec<&str> = documented.iter().map(|(n, _)| n.as_str()).collect();
        let table: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(
            names, table,
            "USAGE and the command table list the same commands"
        );
        for (name, flags) in &documented {
            let command = COMMANDS.iter().find(|c| c.name == name.as_str()).unwrap();
            for flag in flags {
                let parses = |args: &[&str]| {
                    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
                    opts::parse(command, &args).is_ok()
                };
                // `--n` needs at least 2, so "1" alone is not a probe.
                assert!(
                    parses(&[flag]) || parses(&[flag, "1"]) || parses(&[flag, "2"]),
                    "{name} rejects its documented {flag}"
                );
            }
        }

        let serve_only = [
            "--restore",
            "--snapshot",
            "--start-at",
            "--stop-at",
            "--manifest",
        ];
        for flag in serve_only {
            let e = run_cmd(&["agg", "loadgen", flag, "1"]).unwrap_err();
            assert!(e.msg.contains("agg serve"), "{flag}: {}", e.msg);
        }
        for args in [
            &["agg", "loadgen", "--alg", "PR"][..],
            &["agg", "serve", "--tolerance", "1"],
            &["agg", "bench", "--n", "8"],
            &["agg", "check", "--bitwise", "--file", "f"],
            &["agg", "loadgen", "1.5"],
            &["flight", "--seed", "1"],
            &["trace", "check", "--file", "t", "--seed", "1"],
            &["simd", "--n", "4"],
            &["simd", "--bogus"],
            &["agg", "loadgen", "--stop-at", "3"],
            &["trace", "diff", "--file", "a"],
            &["trace", "diff", "--telemetry", "a", "b"],
            &["sum", "--nope", "1"],
            &["trace", "reduce", "--nope"],
            &["agg", "serve", "--nope", "1"],
            &["bogus-command"],
        ] {
            let e = run_cmd(args).unwrap_err();
            assert_eq!(e.code, 1, "{args:?}: {}", e.msg);
        }

        for args in [
            &["help"][..],
            &["--help"],
            &["-h"],
            &["agg", "help"],
            &["agg", "--help"],
            &["agg", "-h"],
            &["agg", "loadgen", "--help"],
            &["agg", "check", "-h"],
            &["trace", "--help"],
            &["trace", "reduce", "help"],
            &["trace", "diff", "--help"],
            &["sum", "--help"],
            &["sum", "1", "2", "-h"],
            &["flight", "--help"],
            &["simd", "--help"],
            &["replay", "--help"],
        ] {
            assert_eq!(run_cmd(args).unwrap(), USAGE, "{args:?}");
        }
    }

    #[test]
    fn error_paths() {
        assert!(run_cmd(&["sum"]).is_err(), "no values");
        assert!(run_cmd(&["sum", "abc"]).is_err(), "bad value");
        assert!(run_cmd(&["sum", "--alg", "XX", "1"]).is_err(), "bad alg");
        assert!(run_cmd(&["select", "1.0"]).is_err(), "missing tolerance");
        assert!(run_cmd(&["gen"]).is_err(), "gen needs --n");
        assert!(run_cmd(&["dot"]).is_err(), "dot needs files");
        assert!(run_cmd(&["bogus"]).is_err(), "unknown command");
        assert!(run_cmd(&["sum", "--nope", "1"]).is_err(), "unknown option");
        let usage = run_cmd(&["help"]).unwrap();
        assert!(usage.contains("USAGE"));
    }
}
