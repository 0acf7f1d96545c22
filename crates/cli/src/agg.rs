//! The `agg` family: drive the sharded aggregation engine (`repro-agg`).

use crate::manifest::{finish_with_manifest, manifest_for};
use crate::opts::Opts;
use crate::{err, err_schema, CliError, ReadFile};
use repro_core::agg::{loadgen, AggConfig, AggEngine, LoadSpec};

/// The load shape from the flags, defaulting at the current `REPRO_SCALE`.
/// The default scale is the headline configuration — thousands of
/// clients, millions of updates — sized so `agg bench` still finishes in
/// seconds.
fn load_spec(o: &Opts) -> Result<LoadSpec, CliError> {
    let (aggregates, clients, batches, batch_len) = match repro_bench::scale() {
        repro_bench::Scale::Quick => (2, 64, 4, 64),
        repro_bench::Scale::Default => (4, 1024, 8, 256),
        repro_bench::Scale::Full => (8, 4096, 16, 256),
    };
    let spec = LoadSpec {
        aggregates: o.aggregates.unwrap_or(aggregates),
        clients: o.clients.unwrap_or(clients),
        batches: o.batches.unwrap_or(batches),
        batch_len: o.batch_len.unwrap_or(batch_len),
        seed: o.seed,
        shuffle: o.shuffle,
        workers: o.workers,
    };
    if spec.aggregates == 0 || o.shards == 0 {
        return Err(err("agg needs --aggregates >= 1 and --shards >= 1"));
    }
    Ok(spec)
}

/// Drain schedule events `[start_at, stop_at)` of `spec` into `engine`,
/// timed: "N updates in T s (R updates/sec)".
fn timed_load(
    engine: &AggEngine,
    spec: &LoadSpec,
    start_at: usize,
    stop_at: Option<usize>,
) -> String {
    let started = std::time::Instant::now();
    let deposited = loadgen::run(engine, spec, start_at, stop_at);
    let elapsed = started.elapsed().as_secs_f64();
    let rate = if elapsed > 0.0 {
        deposited as f64 / elapsed
    } else {
        f64::INFINITY
    };
    format!("{deposited} updates in {elapsed:.3}s ({rate:.0} updates/sec)")
}

/// The byte-comparable half of `agg` output: one line per aggregate
/// (name order) plus the engine digest. CI smoke gates diff exactly
/// these lines (everything not starting with `#`) across shuffles,
/// shard counts, and kill/restore splits.
fn render_agg_lines(engine: &AggEngine) -> String {
    let mut out = String::new();
    for agg in engine.aggregates() {
        let bits = agg.finalize_bits();
        out.push_str(&format!(
            "agg {} {bits:016x} {:.17e} op={} updates={}\n",
            agg.name(),
            f64::from_bits(bits),
            agg.op().label(),
            agg.updates(),
        ));
    }
    out.push_str(&format!("digest {:016x}", engine.digest_bits()));
    out
}

pub fn loadgen(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    run_load(o, false, read_file)
}

pub fn serve(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    run_load(o, true, read_file)
}

/// `agg loadgen` / `agg serve`: drain the seeded client swarm into a
/// fresh (or `--restore`d) engine, print the comparable `agg`/`digest`
/// lines plus `#` throughput stats, optionally `--snapshot` the final
/// state, and — for `serve` runs that completed the schedule — append
/// the replayable `# manifest:` trailer.
fn run_load(o: &Opts, serve: bool, read_file: &ReadFile) -> Result<String, CliError> {
    let spec = load_spec(o)?;
    let config = AggConfig {
        shards: o.shards,
        ..AggConfig::default()
    };
    let engine = match &o.restore {
        Some(path) => AggEngine::restore(&read_file(path)?, config)
            .map_err(|e| err_schema(format!("agg serve --restore {path}: {e}")))?,
        None => AggEngine::new(config),
    };
    let load = timed_load(&engine, &spec, o.start_at, o.stop_at);
    if let Some(path) = &o.snapshot {
        std::fs::write(path, engine.serialize())
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    let mut out = render_agg_lines(&engine);
    out.push_str(&format!(
        "\n# agg: aggregates={} clients={} batches={} batch_len={} shards={} workers={} seed={} shuffle={}",
        spec.aggregates,
        spec.clients,
        spec.batches,
        spec.batch_len,
        o.shards,
        spec.workers,
        spec.seed,
        spec.shuffle,
    ));
    out.push_str(&format!("\n# deposited {load}"));
    if let Some(path) = &o.snapshot {
        out.push_str(&format!("\n# snapshot: wrote {path}"));
    }
    if !serve {
        return Ok(out);
    }
    // Only a *finished* schedule gets a manifest: a partial run's digest
    // is not what a fresh replay of the full workload would produce.
    if let Some(stop) = o.stop_at.filter(|&stop| stop < spec.total_batches()) {
        out.push_str(&format!(
            "\n# partial run (stopped at event {stop} of {}): no manifest",
            spec.total_batches(),
        ));
        return Ok(out);
    }
    // The generic numeric slots carry the load shape — `dr` = aggregates,
    // `k` = clients, `perturb` = batches, `sample` = batch_len, `n` =
    // total updates — and shards / shuffle are intentionally omitted: the
    // digest is invariant to both, so `replay` re-runs with defaults and
    // must still match bitwise.
    let mut manifest = manifest_for("agg", o, &[], true);
    manifest.n = spec.total_updates();
    manifest.k = Some(spec.clients as f64);
    manifest.dr = spec.aggregates as u64;
    manifest.workers = spec.workers as u64;
    manifest.sample = Some(spec.batch_len as u64);
    manifest.perturb = Some(spec.batches as u64);
    manifest.result_bits = Some(engine.digest_bits());
    finish_with_manifest(out, &manifest, o.manifest.as_deref())
}

/// `agg bench`: run the identical workload at shard counts 1, 4, and 16,
/// report per-configuration throughput, and fail (exit 1) unless every
/// configuration finalizes to bit-identical digests — the engine's
/// headline claim, measured and enforced in one command.
pub fn bench(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    let spec = load_spec(o)?;
    let mut out = String::new();
    let mut digests: Vec<(usize, u64)> = Vec::new();
    let mut last: Option<AggEngine> = None;
    for shards in [1usize, 4, 16] {
        let engine = AggEngine::new(AggConfig {
            shards,
            ..AggConfig::default()
        });
        let load = timed_load(&engine, &spec, 0, None);
        out.push_str(&format!("# shards={shards}: {load}\n"));
        digests.push((shards, engine.digest_bits()));
        last = Some(engine);
    }
    let base = digests[0].1;
    if let Some(&(shards, bits)) = digests.iter().find(|&&(_, bits)| bits != base) {
        repro_core::obs::flight::incident("agg.bench.divergence");
        return Err(err(format!(
            "agg bench DIVERGED: shards=1 digest {base:016x} but shards={shards} digest {bits:016x}"
        )));
    }
    let engine = last.expect("three configurations ran");
    Ok(format!("{}{}", out, render_agg_lines(&engine)))
}

/// `agg check`: strict-parse a saved `repro-agg-snapshot-v1` (or a single
/// `repro-agg-state-v1` document) and summarize it. Any malformed,
/// truncated, or unknown-schema input exits 2 — the same contract as
/// `trace check` and `replay`.
pub fn check(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    use repro_core::agg::{parse_aggregate, parse_snapshot, ParsedAggregate, STATE_SCHEMA};
    let path = o.file().ok_or_else(|| err("agg check requires --file"))?;
    let text = read_file(path)?;
    let parsed: Vec<ParsedAggregate> = if text.starts_with(STATE_SCHEMA) {
        let mut lines = text.lines();
        let one = parse_aggregate(&mut lines)
            .map_err(|e| err_schema(format!("invalid agg state: {e}")))?;
        if lines.next().is_some() {
            return Err(err_schema(
                "invalid agg state: trailing lines after end marker",
            ));
        }
        vec![one]
    } else {
        parse_snapshot(&text).map_err(|e| err_schema(format!("invalid agg state: {e}")))?
    };
    let updates: u64 = parsed.iter().map(|a| a.updates).sum();
    let mut out = format!(
        "# agg state OK: aggregates={} updates={updates}",
        parsed.len()
    );
    for a in &parsed {
        out.push_str(&format!(
            "\n# {} op={} shards={} updates={} batches={}",
            a.name,
            a.op.label(),
            a.shards.len(),
            a.updates,
            a.batches,
        ));
    }
    Ok(out)
}
