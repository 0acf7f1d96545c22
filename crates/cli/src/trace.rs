//! The observability commands: `trace reduce`, `trace check`, `trace diff`
//! and `report`. (`trace chaos` lives with `chaos`.)

use crate::manifest::{finish_with_manifest, manifest_for};
use crate::opts::Opts;
use crate::values::values_or_grid;
use crate::{err, err_schema, CliError, ReadFile};
use repro_core::obs::{RunManifest, TelemetryConfig};
use repro_core::prelude::*;

/// Resolve `--telemetry` / `--sample` into a sampling policy. Telemetry is
/// strictly opt-in: without `--telemetry` the config is off and the traced
/// commands stay byte-identical to their pre-telemetry output.
pub fn telemetry_cfg(o: &Opts) -> TelemetryConfig {
    if !o.telemetry {
        TelemetryConfig::off()
    } else {
        match o.sample {
            Some(every) => TelemetryConfig::sampled(every),
            None => TelemetryConfig::full(),
        }
    }
}

/// Apply `--perturb I`: nudge input `I` by exactly one ulp (one step in the
/// bit representation). The forensic scenario — a single least-significant
/// perturbation whose propagation `trace diff` then localizes.
pub fn apply_perturb(values: &mut [f64], perturb: Option<usize>) -> Result<(), CliError> {
    let Some(idx) = perturb else { return Ok(()) };
    let v = *values.get(idx).ok_or_else(|| {
        err(format!(
            "--perturb {idx} out of range (only {} values)",
            values.len()
        ))
    })?;
    values[idx] = f64::from_bits(v.to_bits() + 1);
    Ok(())
}

/// `trace reduce`: run the selector and the threaded runtime over one input
/// with tracing on. The selector contributes a `decision` record in the
/// `select` subsystem; the runtime contributes plan-derived `chunk_exec` /
/// `merge` spans in the `runtime` subsystem (identical for any worker
/// count); execution facts land in the metrics registry, rendered as `#`
/// comment lines so the JSONL stream stays deterministic.
pub fn reduce(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let (out, manifest) = reduce_with_manifest(o, o.values(read_file)?)?;
    finish_with_manifest(out, &manifest, o.manifest.as_deref())
}

/// The `trace reduce` workload proper over `values` (generated when
/// empty), returning the rendered trace (sans manifest trailer) alongside
/// the completed [`RunManifest`] — `replay` re-runs this and compares
/// manifests instead of scraping output text.
pub fn reduce_with_manifest(o: &Opts, values: Vec<f64>) -> Result<(String, RunManifest), CliError> {
    use repro_core::obs::{render_jsonl, Registry, Trace};

    let (mut values, generated) = values_or_grid(o, values);
    let mut manifest = manifest_for("reduce", o, &values, generated);
    manifest.workers = 2;
    if generated {
        manifest.k = Some(o.k.unwrap_or(1.0));
    }
    // Park the provisional manifest before any numeric work: a post-mortem
    // from a mid-reduction death must still say what run was in flight.
    repro_core::obs::flight::global().set_manifest_json(Some(manifest.to_json()));
    apply_perturb(&mut values, o.perturb)?;
    let tol = o.tolerance_or_bitwise();
    let telemetry = telemetry_cfg(o);

    let (trace, sink) = Trace::to_memory();
    let trace = trace.with_wall_clock(o.wall);
    let registry = Registry::new();

    let mut select_scope = trace.scope("select");
    let reducer = AdaptiveReducer::heuristic(tol);
    // With telemetry on, the selector also measures the realized spread of
    // its choice and records it beside the prediction (calibration drift).
    let outcome = if telemetry.enabled() {
        reducer.reduce_telemetry(&values, &mut select_scope, Some(&registry))
    } else {
        reducer.reduce_traced(&values, &mut select_scope)
    };

    // Test hook for the post-mortem contract: die between selection and
    // the runtime reduction, exactly where a real crash loses the most
    // context — the subprocess test asserts the dump still explains us.
    if std::env::var("REPRO_FLIGHT_TEST_PANIC").as_deref() == Ok("reduce") {
        panic!("injected mid-reduction panic (REPRO_FLIGHT_TEST_PANIC=reduce)");
    }

    let mut runtime_scope = trace.scope("runtime");
    let rt = Runtime::new(2);
    let plan = ReductionPlan::for_len(values.len());
    let (sum, stats) = rt.reduce_telemetry(
        &values,
        &plan,
        || BinnedSum::new(3),
        &mut runtime_scope,
        telemetry,
        Some(&registry),
    );

    stats.publish(&registry, "runtime");

    manifest.algorithm = outcome.algorithm.abbrev().to_string();
    manifest.cost_source = repro_core::select::explain(&outcome.profile, tol).cost_source;
    manifest.selector_bits = Some(outcome.sum.to_bits());
    manifest.result_bits = Some(sum.to_bits());

    let mut out = render_jsonl(&sink.drain());
    out.push_str(&format!(
        "# trace reduce: n={} selected={} selector sum={:.17e} PR sum={:.17e}\n",
        values.len(),
        outcome.algorithm,
        outcome.sum,
        sum,
    ));
    for line in registry.snapshot().render().lines() {
        out.push_str("# metric ");
        out.push_str(line);
        out.push('\n');
    }
    out.pop();
    Ok((out, manifest))
}

/// `trace check`: re-parse a saved trace and enforce the schema contract
/// (JSON object per line, string `sub`/`kind`, strictly increasing `seq`
/// per subsystem; `#` comments and blank lines ignored).
pub fn check(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let path = o.file().ok_or_else(|| err("trace check requires --file"))?;
    let summary = repro_core::obs::validate_trace(&read_file(path)?)
        .map_err(|e| err_schema(format!("invalid trace: {e}")))?;
    Ok(format!(
        "# trace OK: events={} subsystems={:?} dropped={}",
        summary.events, summary.subsystems, summary.dropped
    ))
}

/// `trace diff`: align two saved traces by plan-derived node id (never by
/// sequence position), report the first numerically divergent node, and
/// walk the divergence to its leaf-interval origin. A clean diff returns
/// `Ok` (exit 0); any divergence or alignment gap returns the same report
/// as an error (exit 1), so CI can gate on it directly.
pub fn diff(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let [a, b] = o.args()[..] else {
        return Err(err(format!(
            "trace diff requires exactly two trace files, got {}",
            o.args().len()
        )));
    };
    let (a, b) = (read_file(a)?, read_file(b)?);
    // Parse/schema failures exit 2; numerical divergence exits 1 — CI can
    // distinguish "the traces disagree" from "I couldn't read the traces".
    let report = repro_core::obs::forensics::diff_traces(&a, &b)
        .map_err(|e| err_schema(format!("trace diff: {e}")))?;
    let rendered = report.render();
    if report.is_clean() {
        Ok(rendered)
    } else {
        // A divergence is an incident: flush the flight rings so the
        // post-mortem (when configured) carries the forensic context.
        repro_core::obs::flight::incident("trace.diff.divergence");
        Err(err(rendered))
    }
}

/// `report`: run one telemetried workload (selector + threaded runtime over
/// a generated or given input) and render the resulting metrics registry —
/// node counts, the ulp-deviation histogram, predicted vs realized selector
/// spread — as Prometheus text exposition or as a self-contained
/// zero-dependency HTML page with the per-node error trajectory.
pub fn report(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    use repro_core::obs::{forensics, render_jsonl, report, Registry, Trace};

    let (values, _) = values_or_grid(o, o.values(read_file)?);
    // A report without node telemetry would be empty, so the sampling
    // policy defaults to full instead of off here.
    let telemetry = match o.sample {
        Some(every) => TelemetryConfig::sampled(every),
        None => TelemetryConfig::full(),
    };
    let tol = o.tolerance_or_bitwise();

    let (trace, sink) = Trace::to_memory();
    let registry = Registry::new();

    let mut select_scope = trace.scope("select");
    let reducer = AdaptiveReducer::heuristic(tol);
    let outcome = reducer.reduce_telemetry(&values, &mut select_scope, Some(&registry));

    let mut runtime_scope = trace.scope("runtime");
    let rt = Runtime::new(2);
    // Eight-way chunking (rather than the default single chunk at these
    // sizes) so the error trajectory shows a real merge tree.
    let plan = ReductionPlan::with_chunk_count(values.len(), 8);
    let (_, stats) = rt.reduce_telemetry(
        &values,
        &plan,
        || BinnedSum::new(3),
        &mut runtime_scope,
        telemetry,
        Some(&registry),
    );
    stats.publish(&registry, "runtime");

    let text = render_jsonl(&sink.drain());
    let nodes = forensics::collect_nodes(&text).map_err(|e| err(format!("report: {e}")))?;
    let snap = registry.snapshot();
    match o.format.as_deref().unwrap_or("prom") {
        "prom" => Ok(report::render_prometheus(&snap)),
        "html" => Ok(report::render_html(
            &format!(
                "repro-reduce report — n={} seed={} selected={}",
                values.len(),
                o.seed,
                outcome.algorithm,
            ),
            &snap,
            &nodes,
        )),
        other => Err(err(format!(
            "unknown report format {other:?} (expected prom|html)"
        ))),
    }
}
