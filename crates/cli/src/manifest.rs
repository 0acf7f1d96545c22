//! Run manifests: what every manifest-carrying command records, the one
//! `# manifest:` trailer path, and `replay`, which re-executes a manifest.

use crate::opts::Opts;
use crate::{chaos, err, err_schema, trace, values, CliError, ReadFile};
use repro_core::obs::RunManifest;
use repro_core::prelude::Tolerance;

/// The `REPRO_*` environment variables that can change a run's numerics
/// or its observability envelope — the set a manifest must capture for
/// the replay contract to hold across shells.
const MANIFEST_ENV_VARS: [&str; 5] = [
    "REPRO_FLIGHT",
    "REPRO_POSTMORTEM",
    "REPRO_RUNTIME_WORKERS",
    "REPRO_SCALE",
    "REPRO_SIMD",
];

/// The active SIMD tier's label for manifest embedding. Dispatch was
/// validated at startup, so an error here degenerates to a marker rather
/// than failing the run.
fn simd_tier_label() -> String {
    repro_core::fp::simd::try_active_tier()
        .map(|t| t.label().to_string())
        .unwrap_or_else(|_| "invalid".to_string())
}

/// A tolerance the way manifests spell it: `bitwise`, `abs:<v>` or
/// `rel:<v>`; [`parse_tolerance`] reads it back.
fn tolerance_label(t: Tolerance) -> String {
    match t {
        Tolerance::Bitwise => "bitwise".to_string(),
        Tolerance::AbsoluteSpread(t) => format!("abs:{t}"),
        Tolerance::RelativeSpread(t) => format!("rel:{t}"),
    }
}

fn parse_tolerance(label: &str) -> Option<Tolerance> {
    if label == "bitwise" {
        return Some(Tolerance::Bitwise);
    }
    if let Some(v) = label.strip_prefix("abs:") {
        return v.parse().ok().map(Tolerance::AbsoluteSpread);
    }
    label
        .strip_prefix("rel:")?
        .parse()
        .ok()
        .map(Tolerance::RelativeSpread)
}

/// Start a manifest for one CLI workload with everything that is known
/// before the reduction runs: shape knobs, tolerance, environment (only
/// variables that are set, in sorted order), SIMD tier, telemetry policy,
/// and the input itself (embedded as exact bit patterns when explicit and
/// small enough, else marked generated or external). `pre_perturb` must
/// be the input *before* `--perturb` was applied — replay re-applies the
/// recorded perturbation.
pub fn manifest_for(cmd: &str, o: &Opts, pre_perturb: &[f64], generated: bool) -> RunManifest {
    use repro_core::obs::manifest::MAX_EMBEDDED_VALUES;
    let mut m = RunManifest::new(cmd);
    m.n = pre_perturb.len() as u64;
    m.dr = o.dr as u64;
    m.seed = o.seed;
    m.tolerance = tolerance_label(o.tolerance_or_bitwise());
    m.simd_tier = simd_tier_label();
    m.env = MANIFEST_ENV_VARS
        .iter()
        .filter_map(|name| std::env::var(name).ok().map(|v| (name.to_string(), v)))
        .collect();
    m.telemetry = o.telemetry;
    m.sample = o.sample;
    m.perturb = o.perturb.map(|i| i as u64);
    if generated {
        m.source = "generated".to_string();
    } else if pre_perturb.len() <= MAX_EMBEDDED_VALUES {
        m.source = "embedded".to_string();
        m.values_bits = Some(pre_perturb.iter().map(|v| v.to_bits()).collect());
    } else {
        m.source = "external".to_string();
    }
    m
}

/// Finish a manifest-carrying command: append the `# manifest: {...}`
/// trailer (the last line of the output, so `replay` can consume a saved
/// trace directly), park the final manifest on the flight recorder for
/// post-mortem embedding, and honor `--manifest PATH`.
pub fn finish_with_manifest(
    mut out: String,
    manifest: &RunManifest,
    path: Option<&str>,
) -> Result<String, CliError> {
    let json = manifest.to_json();
    repro_core::obs::flight::global().set_manifest_json(Some(json.clone()));
    out.push_str("\n# manifest: ");
    out.push_str(&json);
    if let Some(path) = path {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    Ok(out)
}

/// Pull the manifest JSON out of what `replay` was handed: either a bare
/// manifest file (one JSON object) or a saved trace whose last
/// `# manifest: ` trailer carries it.
fn extract_manifest_json(text: &str) -> Option<&str> {
    let trimmed = text.trim();
    if trimmed.starts_with('{') && !trimmed.contains('\n') {
        return Some(trimmed);
    }
    trimmed
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("# manifest: "))
}

/// `replay`: re-execute the run a manifest describes and compare results
/// bitwise. A manifest that cannot be parsed, has an unsupported schema,
/// or is not replayable exits 2; a bitwise mismatch — the replay contract
/// broken — exits 1; only exact bit-for-bit agreement exits 0.
pub fn replay(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let [path] = o.args()[..] else {
        return Err(err("usage: repro-reduce replay MANIFEST.json"));
    };
    let text = read_file(path)?;
    let json = extract_manifest_json(&text)
        .ok_or_else(|| err_schema(format!("replay: no manifest found in {path}")))?;
    let stored = RunManifest::parse(json).map_err(|e| err_schema(format!("replay: {e}")))?;
    if !stored.replayable() {
        return Err(err_schema(format!(
            "replay: manifest source {:?} is not replayable (input neither embedded nor generated)",
            stored.source
        )));
    }

    let fresh = replay_execute(&stored)?;

    let mut mismatches = Vec::new();
    let mut check_bits = |what: &str, recorded: Option<u64>, replayed: Option<u64>| {
        if let (Some(a), Some(b)) = (recorded, replayed) {
            if a != b {
                mismatches.push(format!("{what}: recorded {a:016x} replayed {b:016x}"));
            }
        }
    };
    check_bits("result_bits", stored.result_bits, fresh.result_bits);
    check_bits("selector_bits", stored.selector_bits, fresh.selector_bits);
    if !stored.algorithm.is_empty() && stored.algorithm != fresh.algorithm {
        mismatches.push(format!(
            "algorithm: recorded {} replayed {}",
            stored.algorithm, fresh.algorithm
        ));
    }
    if !mismatches.is_empty() {
        repro_core::obs::flight::incident("replay.divergence");
        return Err(err(format!(
            "replay DIVERGED: cmd={} n={} seed={}\n  {}",
            stored.cmd,
            stored.n,
            stored.seed,
            mismatches.join("\n  "),
        )));
    }
    let bits = stored.result_bits.unwrap_or(0);
    Ok(format!(
        "replay OK (bitwise): cmd={} n={} seed={} algorithm={} result_bits={bits:016x}\n\
         # manifest simd_tier={} current={}",
        stored.cmd,
        stored.n,
        stored.seed,
        fresh.algorithm,
        stored.simd_tier,
        simd_tier_label(),
    ))
}

/// Re-execute the workload a manifest describes and return the freshly
/// completed manifest (carrying the recomputed result bits).
fn replay_execute(m: &RunManifest) -> Result<RunManifest, CliError> {
    let tolerance = parse_tolerance(&m.tolerance)
        .ok_or_else(|| err_schema(format!("replay: bad manifest tolerance {:?}", m.tolerance)))?;
    let mut o = Opts {
        n: Some(m.n as usize),
        k: m.k,
        dr: m.dr as u32,
        seed: m.seed,
        tolerance: Some(tolerance),
        telemetry: m.telemetry,
        sample: m.sample,
        perturb: m.perturb.map(|i| i as usize),
        ranks: Some(m.workers as usize),
        ..Opts::default()
    };
    if let Some(fault) = &m.fault {
        o.drop = fault.drop;
        o.delay = fault.delay;
        o.dup = fault.dup;
        o.reorder = fault.reorder;
        o.kill = fault.kill as usize;
    }
    let values: Vec<f64> = m
        .values_bits
        .iter()
        .flatten()
        .map(|&b| f64::from_bits(b))
        .collect();
    match m.cmd.as_str() {
        "reduce" => trace::reduce_with_manifest(&o, values).map(|(_, manifest)| manifest),
        "chaos" => chaos::trace_chaos_with_manifest(&o).map(|(_, manifest)| manifest),
        "sum" => {
            if values.is_empty() {
                return Err(err_schema("replay: sum manifest has no embedded values"));
            }
            let alg = values::parse_algorithm(&m.algorithm)
                .map_err(|e| err_schema(format!("replay: {}", e.msg)))?;
            let mut fresh = m.clone();
            fresh.result_bits = Some(alg.sum(&values).to_bits());
            Ok(fresh)
        }
        // `agg serve` manifests reuse the generic numeric slots (see
        // `agg::serve`): dr = aggregates, k = clients, perturb = batches,
        // sample = batch_len. Shards and arrival shuffle are deliberately
        // NOT recorded — the digest is invariant to both, so replaying
        // with the defaults is a *stronger* check than repeating the
        // recorded topology.
        "agg" => {
            use repro_core::agg::{loadgen, AggConfig, AggEngine, LoadSpec};
            let spec = LoadSpec {
                aggregates: m.dr as usize,
                clients: m.k.unwrap_or(0.0) as usize,
                batches: m.perturb.unwrap_or(0) as usize,
                batch_len: m.sample.unwrap_or(0) as usize,
                seed: m.seed,
                shuffle: 0,
                workers: (m.workers as usize).max(1),
            };
            if spec.total_updates() == 0 || spec.total_updates() != m.n {
                return Err(err_schema(format!(
                    "replay: agg manifest shape mismatch (n={} vs aggregates*clients*batches*batch_len={})",
                    m.n,
                    spec.total_updates(),
                )));
            }
            let engine = AggEngine::new(AggConfig::default());
            loadgen::run(&engine, &spec, 0, None);
            let mut fresh = m.clone();
            fresh.result_bits = Some(engine.digest_bits());
            Ok(fresh)
        }
        other => Err(err_schema(format!(
            "replay: unknown manifest cmd {other:?}"
        ))),
    }
}
