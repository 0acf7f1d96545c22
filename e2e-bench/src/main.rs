//! End-to-end and per-layer benchmark of the repro-reduce serving paths.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload reduce-narrow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Untraced (`--trace 0`) it runs the workload closed-loop for the given
//! time and reports the end-to-end metrics; traced (`--trace 1`) it splits
//! the time into an untraced and a traced half and reports the per-layer
//! metrics, an attribution table and the tracing overhead. Either way the
//! last line of standard output is one JSON object. See README.md.

mod agg;
mod cli;
mod common;
mod reduce;
mod stats;
mod trace;

use common::{Family, Layers, Limit, Phase, Tally};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Attribution, Tracer};

/// Elements per reduce call: 8 MiB per array.
const REDUCE_N: usize = 1 << 20;
/// Arrays in the narrow reduce pool.
const NARROW_POOL: usize = 8;
/// Arrays in the wide reduce pool. About a quarter of wide arrays pass the
/// sampled bounds and skip the full profile, so the mix of the two paths
/// varies with the seed; a larger pool keeps that mix steadier.
const WIDE_POOL: usize = 32;
/// Seed of the reduce set-up's warm-up array: fixed, so which path the
/// first call takes, and so `setup_s`, does not depend on `--seed`.
const WARMUP_SEED: u64 = 2015;
/// Decades of dynamic range of the wide (zero-sum) arrays.
const WIDE_DR: u32 = 32;
/// Values per agg batch, and batches in the agg payload pool.
const BATCH_LEN: usize = 256;
const AGG_POOL: usize = 4096;
/// Values per CLI input, and inputs in the CLI pool.
const CLI_N: usize = 4096;
const CLI_POOL: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ReduceNarrow,
    ReduceWide,
    AggIngest,
    CliRoundtrip,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("reduce-narrow", Workload::ReduceNarrow),
    ("reduce-wide", Workload::ReduceWide),
    ("agg-ingest", Workload::AggIngest),
    ("cli-roundtrip", Workload::CliRoundtrip),
];

/// End-to-end metrics: (name, unit). Every workload reports all of them;
/// "op" is the workload's primary request. The median op latency is
/// printed but not among them: on a shared host its run-to-run spread
/// exceeds any bound the benchmark may set (see README.md).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("mval_s", "Mval/s"),
    ("op_ms_p90", "ms"),
];

/// Per-layer metrics: (name, unit).
const PER_LAYER: [(&str, &str); 43] = [
    ("select.sample_ns_per_elem", "ns/elem"),
    ("select.profile_ns_per_elem", "ns/elem"),
    ("select.fallback_ratio", "frac"),
    ("select.cache_hit_ratio", "frac"),
    ("select.chosen_ST", "frac"),
    ("select.chosen_PW", "frac"),
    ("select.chosen_K", "frac"),
    ("select.chosen_N", "frac"),
    ("select.chosen_CP", "frac"),
    ("select.chosen_DD", "frac"),
    ("select.chosen_PR", "frac"),
    ("select.chosen_DS", "frac"),
    ("select.self_ms_p50", "ms"),
    ("sum.kernel_ns_per_elem", "ns/elem"),
    ("sum.bytes_read_per_elem", "B/elem"),
    ("fp.superacc_ns_per_elem", "ns/elem"),
    ("agg.ingest_ns_per_upd", "ns/upd"),
    ("agg.kernel_ns_per_upd", "ns/upd"),
    ("agg.lock_wait_ns_per_upd", "ns/upd"),
    ("agg.shard_skew", "ratio"),
    ("agg.merged_state_us", "us"),
    ("agg.finalize_us", "us"),
    ("agg.serialize_us", "us"),
    ("agg.restore_us", "us"),
    ("agg.state_bytes", "B"),
    ("agg.exact_aggregates", "count"),
    ("agg.ingest_batch_us_p99", "us"),
    ("agg.query_us_p50", "us"),
    ("agg.query_us_p90", "us"),
    ("agg.recover_us_p50", "us"),
    ("agg.recover_us_p90", "us"),
    ("obs.manifest_parse_ms", "ms"),
    ("obs.manifest_render_us", "us"),
    ("obs.manifest_bytes", "B"),
    ("obs.flight_events_per_op", "events/op"),
    ("obs.flight_bytes_per_op", "B/op"),
    ("cli.read_us", "us"),
    ("cli.sum_ms", "ms"),
    ("cli.replay_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("gen.s", "s"),
    ("trace.residual_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: repro-e2e-bench --workload <reduce-narrow|reduce-wide|agg-ingest|cli-roundtrip> \
     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|(n, _)| n == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(*w);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The workload's inputs, generated from the seed.
enum Inputs {
    Arrays {
        pool: Vec<Vec<f64>>,
        warmup: Vec<f64>,
    },
    Batches(Vec<Vec<f64>>),
    Files(Vec<Vec<f64>>),
}

fn generate(w: Workload, seed: u64) -> Inputs {
    let sub = |i: usize| common::mix(seed, 0x0069_6e70_7574, i as u64);
    match w {
        Workload::ReduceNarrow => {
            let narrow = |s| repro_gen::uniform(REDUCE_N, 0.0, 1.0, s);
            Inputs::Arrays {
                pool: (0..NARROW_POOL).map(|i| narrow(sub(i))).collect(),
                warmup: narrow(WARMUP_SEED),
            }
        }
        Workload::ReduceWide => {
            let wide = |s| repro_gen::zero_sum_with_range(REDUCE_N, WIDE_DR, s);
            Inputs::Arrays {
                pool: (0..WIDE_POOL).map(|i| wide(sub(i))).collect(),
                warmup: wide(WARMUP_SEED),
            }
        }
        Workload::AggIngest => Inputs::Batches(
            (0..AGG_POOL)
                .map(|j| {
                    let event = repro_agg::LoadEvent {
                        aggregate: (j % agg::AGGREGATES) as u32,
                        client: ((j / agg::AGGREGATES) % 16) as u32,
                        batch: (j / 64) as u32,
                    };
                    let mut out = Vec::with_capacity(BATCH_LEN);
                    repro_agg::batch_values_into(seed, event, BATCH_LEN, &mut out);
                    out
                })
                .collect(),
        ),
        Workload::CliRoundtrip => Inputs::Files(
            (0..CLI_POOL)
                .map(|i| repro_gen::uniform(CLI_N, 0.0, 1.0, sub(i)))
                .collect(),
        ),
    }
}

impl Inputs {
    /// Up to the first 2^20 input values, concatenated: what the other
    /// families' layer probes run on.
    fn flat(&self) -> Vec<f64> {
        let parts = match self {
            Inputs::Arrays { pool: v, .. } | Inputs::Batches(v) | Inputs::Files(v) => v,
        };
        parts.iter().flatten().copied().take(REDUCE_N).collect()
    }
}

/// A family over the workload's own inputs.
fn own_family(inputs: Inputs, seed: u64) -> (Box<dyn Family>, f64) {
    match inputs {
        Inputs::Arrays { pool, warmup } => {
            let f = reduce::Reduce::new(pool, &warmup, seed);
            let s = f.setup_s;
            (Box::new(f), s)
        }
        Inputs::Batches(b) => {
            let f = agg::Agg::new(b, seed);
            let s = f.setup_s;
            (Box::new(f), s)
        }
        Inputs::Files(v) => {
            let f = cli::Cli::new(v);
            let s = f.setup_s;
            (Box::new(f), s)
        }
    }
}

/// The two families the workload does not run, over its values, for the
/// layer probes: every layer metric is reported on every workload.
fn probe_families(w: Workload, flat: &[f64], seed: u64) -> Vec<(Box<dyn Family>, Limit)> {
    let mut out: Vec<(Box<dyn Family>, Limit)> = Vec::new();
    if !matches!(w, Workload::ReduceNarrow | Workload::ReduceWide) {
        out.push((
            Box::new(reduce::Reduce::new(vec![flat.to_vec()], flat, seed)),
            Limit::Rounds(8),
        ));
    }
    if w != Workload::AggIngest {
        let batches = flat
            .chunks(BATCH_LEN)
            .take(AGG_POOL)
            .map(<[f64]>::to_vec)
            .collect();
        out.push((Box::new(agg::Agg::new(batches, seed)), Limit::Rounds(2)));
    }
    if w != Workload::CliRoundtrip {
        let files = flat.chunks(CLI_N).take(4).map(<[f64]>::to_vec).collect();
        out.push((Box::new(cli::Cli::new(files)), Limit::Rounds(1)));
    }
    out
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Report {
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
    text: String,
}

fn run_untraced(
    fam: &mut dyn Family,
    setup_s: f64,
    args: &Args,
    mut tally: Tally,
) -> Result<Report, String> {
    let ph = fam.run(
        &mut Tracer::off(),
        Limit::Time(Duration::from_secs_f64(args.seconds)),
    );
    tally.add(ph.tally);
    tally.add(fam.finish());
    let lat = ph.sorted_lat();
    let values: BTreeMap<&str, f64> = [
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()?),
        (
            "ok_frac",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        ),
        ("mval_s", ph.values as f64 / ph.wall_s / 1e6),
        ("op_ms_p90", stats::pct(&lat, 90.0) * 1e3),
    ]
    .into_iter()
    .collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# {} seed={} seconds={} (end to end, tracing off)",
        args.name, args.seed, args.seconds
    );
    let _ = writeln!(
        text,
        "# {:<14} {:>16}  {:<8} samples",
        "metric", "value", "unit"
    );
    let samples = |name: &str| match name {
        "setup_s" => "median of set-ups".to_string(),
        "op_ms_p90" | "mval_s" => format!("{} ops", lat.len()),
        "ok_frac" => format!("attempted={} failed={}", tally.attempted, tally.failed),
        _ => "1".to_string(),
    };
    let mut metrics = Vec::new();
    for (name, unit) in END_TO_END {
        let v = values[name];
        let _ = writeln!(text, "# {name:<14} {v:>16.6}  {unit:<8} {}", samples(name));
        metrics.push((name, unit, v));
    }
    // The same figures under this workload's own names, plus its
    // secondary requests (reported, not bounded).
    let op_ms = |p: f64| stats::pct(&lat, p) * 1e3;
    let mut view = vec![
        (
            "failed_frac",
            tally.failed as f64 / tally.attempted as f64,
            "frac",
        ),
        ("op_ms_p50 (unbounded)", op_ms(50.0), "ms"),
    ];
    match args.workload {
        Workload::ReduceNarrow | Workload::ReduceWide => view.extend([
            ("reduce_melem_s", values["mval_s"], "Melem/s"),
            ("reduce_call_ms_p50", op_ms(50.0), "ms"),
            ("reduce_call_ms_p90", op_ms(90.0), "ms"),
        ]),
        Workload::AggIngest => view.extend([
            ("ingest_mupd_s", values["mval_s"], "Mupd/s"),
            ("ingest_batch_us_p50", op_ms(50.0) * 1e3, "us"),
            ("ingest_batch_us_p99", op_ms(99.0) * 1e3, "us"),
            ("query_us_p50", ph.extra["agg.query_us_p50"], "us"),
            ("query_us_p90", ph.extra["agg.query_us_p90"], "us"),
            ("recover_us_p50", ph.extra["agg.recover_us_p50"], "us"),
            ("recover_us_p90", ph.extra["agg.recover_us_p90"], "us"),
        ]),
        Workload::CliRoundtrip => view.extend([
            ("cli_roundtrip_ms_p50", op_ms(50.0), "ms"),
            ("cli_roundtrip_ms_p90", op_ms(90.0), "ms"),
        ]),
    }
    let _ = writeln!(
        text,
        "# workload view ({} ops; agg queries {}, recoveries {}):",
        ph.ops,
        ph.extra.get("agg.queries").copied().unwrap_or(0.0),
        ph.extra.get("agg.recoveries").copied().unwrap_or(0.0)
    );
    for (name, v, unit) in view {
        let _ = writeln!(text, "#   {name:<22} {v:>14.6}  {unit}");
    }
    if stats::beyond(lat.len(), 90.0) < 10.0 {
        let _ = writeln!(
            text,
            "# warning: op_ms_p90 has fewer than 10 samples beyond it"
        );
    }
    Ok(Report {
        tally,
        metrics,
        text,
    })
}

fn run_traced(
    mut fam: Box<dyn Family>,
    w: Workload,
    flat: &[f64],
    gen_s: f64,
    args: &Args,
    mut tally: Tally,
) -> Report {
    let half = Limit::Time(Duration::from_secs_f64(args.seconds / 2.0));
    let untraced = fam.run(&mut Tracer::off(), half);
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let traced = fam.run(&mut tr, half);
    tally.add(untraced.tally);
    tally.add(traced.tally);
    tally.add(fam.finish());
    let mut layers = Layers::new();
    fam.layers(&tr, &untraced, &traced, &mut layers);

    let base_ms = stats::pct(&untraced.sorted_lat(), 50.0) * 1e3;
    let traced_ms = stats::pct(&traced.sorted_lat(), 50.0) * 1e3;
    let overhead = traced_ms / base_ms - 1.0;
    let at = Attribution::of(&tr);
    // Per-request spread within this run (IQR over median of the untraced
    // latencies): the yardstick a residual is flagged against.
    let lat = untraced.sorted_lat();
    let spread = (stats::pct(&lat, 75.0) - stats::pct(&lat, 25.0)) / stats::pct(&lat, 50.0);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# {} seed={} seconds={} (traced)",
        args.name, args.seed, args.seconds
    );
    let _ = writeln!(
        text,
        "# attribution: e2e {:.3} ms over {} requests; untraced op p50 {:.4} ms, traced {:.4} ms",
        at.e2e_ns as f64 / 1e6,
        traced.ops,
        base_ms,
        traced_ms
    );
    let _ = writeln!(text, "# {:<10} {:>14} {:>8}", "layer", "self ms", "share");
    let covered: u64 = at.layers.iter().map(|(_, ns)| ns).sum();
    for (l, ns) in &at.layers {
        let _ = writeln!(
            text,
            "# {l:<10} {:>14.3} {:>8.4}",
            *ns as f64 / 1e6,
            *ns as f64 / at.e2e_ns as f64
        );
    }
    let _ = writeln!(
        text,
        "# {:<10} {:>14.3} {:>8.4}",
        "Σ layers",
        covered as f64 / 1e6,
        covered as f64 / at.e2e_ns as f64
    );
    let _ = writeln!(
        text,
        "# {:<10} {:>14.3} {:>8.4}",
        "residual",
        at.residual_ns as f64 / 1e6,
        at.residual_frac()
    );
    if w == Workload::CliRoundtrip {
        // The front end is opaque to spans: split it with the side probes.
        let per_op_ms = (layers["cli.sum_ms"] + layers["cli.replay_ms"]).max(f64::MIN_POSITIVE);
        let kernel_ms = 2.0 * layers["sum.kernel_ns_per_elem"] * CLI_N as f64 / 1e6;
        let _ = writeln!(
            text,
            "# derived split of one round trip ({per_op_ms:.3} ms):"
        );
        for (what, ms) in [
            ("obs.manifest_parse", layers["obs.manifest_parse_ms"]),
            (
                "obs.manifest_render",
                layers["obs.manifest_render_us"] / 1e3,
            ),
            ("sum.kernel (x2)", kernel_ms),
            ("cli.read (x2)", 2.0 * layers["cli.read_us"] / 1e3),
            ("cli.self", layers["cli.self_ms"]),
        ] {
            let _ = writeln!(text, "#   {what:<20} {ms:>10.3} ms {:>8.4}", ms / per_op_ms);
        }
    }
    let _ = writeln!(
        text,
        "# tracing overhead (traced vs untraced op p50): {overhead:+.4}"
    );
    let _ = writeln!(
        text,
        "# traced-phase checks passed (reduce: bits equal to the untraced call's): {}/{}",
        traced.tally.attempted - traced.tally.failed,
        traced.tally.attempted
    );
    if at.residual_frac().abs() > spread {
        let _ = writeln!(
            text,
            "# FLAG: residual {:.4} exceeds the per-request spread {spread:.4}",
            at.residual_frac()
        );
    }
    layers.insert("trace.residual_frac", at.residual_frac());
    layers.insert("trace.overhead_frac", overhead);
    layers.insert("gen.s", gen_s);
    layers.insert(
        "obs.flight_events_per_op",
        untraced.flight_events as f64 / untraced.ops as f64,
    );
    layers.insert(
        "obs.flight_bytes_per_op",
        untraced.flight_bytes as f64 / untraced.ops as f64,
    );

    // Layers this workload does not enter: probe them on its own values.
    for (mut probe, limit) in probe_families(w, flat, args.seed) {
        tally.add(probe.verify());
        let mut ptr = Tracer::new(true, Instant::now(), 1 << 50);
        let u: Phase = probe.run(&mut Tracer::off(), limit);
        let t: Phase = probe.run(&mut ptr, limit);
        tally.add(u.tally);
        tally.add(t.tally);
        tally.add(probe.finish());
        let mut got = Layers::new();
        probe.layers(&ptr, &u, &t, &mut got);
        for (k, v) in got {
            layers.entry(k).or_insert(v);
        }
    }

    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.name, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.jsonl())) {
        Ok(()) => {
            let _ = writeln!(
                text,
                "# spans: {} kept, written to {}",
                tr.kept.len(),
                path.display()
            );
        }
        Err(e) => {
            let _ = writeln!(text, "# spans not written: {e}");
        }
    }
    let mut metrics = Vec::new();
    let _ = writeln!(text, "# {:<28} {:>16}  unit", "per-layer metric", "value");
    for (name, unit) in PER_LAYER {
        let v = layers.get(name).copied().unwrap_or(f64::NAN);
        let _ = writeln!(text, "# {name:<28} {v:>16.6}  {unit}");
        metrics.push((name, unit, v));
    }
    Report {
        tally,
        metrics,
        text,
    }
}

fn json_line(r: &Report) -> String {
    let mut m = String::new();
    for (i, (name, unit, v)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let inputs = generate(args.workload, args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    let flat = if args.trace {
        inputs.flat()
    } else {
        Vec::new()
    };
    let (mut fam, setup_s) = own_family(inputs, args.seed);
    let tally = fam.verify();
    let report = if args.trace {
        Ok(run_traced(fam, args.workload, &flat, gen_s, &args, tally))
    } else {
        run_untraced(fam.as_mut(), setup_s, &args, tally)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.text);
    if let Some((name, _, v)) = report.metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("error: metric {name} is not a number ({v})");
        std::process::exit(1);
    }
    println!("{}", json_line(&report));
}
