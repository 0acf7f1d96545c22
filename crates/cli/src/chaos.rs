//! The fault-injection commands: `chaos` (the fault-tolerant collective)
//! and `trace chaos` (a fixed, seed-deterministic gather script).

use crate::manifest::{finish_with_manifest, manifest_for};
use crate::opts::Opts;
use crate::trace::{apply_perturb, telemetry_cfg};
use crate::{err, CliError, ReadFile};
use repro_core::mpisim::FaultPlan;
use repro_core::obs::{FaultSpec, RunManifest};
use repro_core::prelude::*;

/// The seeded fault plan both commands run: the `--drop/--delay/--dup/
/// --reorder` probabilities, plus `--kill K`, which kills the K highest
/// ranks (never the root) a few ops in — early enough that a single
/// collective actually observes the failure and heals around it.
fn fault_plan(o: &Opts, ranks: usize) -> Result<FaultPlan, CliError> {
    let mut plan = FaultPlan::new(o.seed)
        .with_drop(o.drop)
        .with_delay(o.delay, 1_500)
        .with_duplicate(o.dup)
        .with_reorder(o.reorder)
        .with_timeouts(std::time::Duration::from_millis(10), 2);
    for i in 0..o.kill.min(ranks.saturating_sub(1)) {
        plan = plan.with_kill(ranks - 1 - i, 3 + i as u64);
    }
    plan.validate().map_err(|e| err(e.0))?;
    Ok(plan)
}

/// Rank `rank`'s contiguous share of `values` split `ranks` ways, with the
/// share's nominal start offset (`rank * ceil(n / ranks)`).
fn share(values: &[f64], ranks: usize, rank: usize) -> (usize, &[f64]) {
    let n = values.len();
    let per = n.div_ceil(ranks.max(1));
    let start = rank * per;
    (start, &values[start.min(n)..(start + per).min(n)])
}

/// The fault knobs as the `# replay:` line spells them.
fn replay_flags(o: &Opts, ranks: usize, n: usize) -> String {
    format!(
        "--ranks {ranks} --n {n} --dr {} --seed {} --drop {} --delay {} --dup {} --reorder {} --kill {}",
        o.dr, o.seed, o.drop, o.delay, o.dup, o.reorder, o.kill,
    )
}

/// `chaos`: run a fault-injected distributed reduction and check that the
/// healed result is bitwise identical to a sequential reference over the
/// survivor set, then demo the checkpoint-resumable engine on the same data.
pub fn chaos(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    use repro_core::mpisim::{ft_reduce_sum, ReduceConfig, ReduceTopology, World};
    use repro_core::runtime::CheckpointStore;

    let ranks = o.ranks.unwrap_or(8);
    let n = o.n.unwrap_or(4096);
    let topo_name = o.topology.as_deref().unwrap_or("binomial");
    let topology = match topo_name {
        "binomial" => ReduceTopology::Binomial,
        "flat" => ReduceTopology::FlatArrival,
        "chain" => ReduceTopology::Chain,
        other => {
            return Err(err(format!(
                "unknown topology {other:?} (expected binomial|flat|chain)"
            )))
        }
    };
    let cfg = ReduceConfig::validated(topology, 0, 0).map_err(|e| err(e.0))?;
    let plan = fault_plan(o, ranks)?;

    let values = repro_core::gen::zero_sum_with_range(n, o.dr, o.seed);
    let report = World::run_report(ranks, &plan, |comm| {
        let mine = share(&values, ranks, comm.rank()).1;
        ft_reduce_sum(comm, mine, Algorithm::PR, 0, &cfg)
    })
    .map_err(|e| err(e.0))?;

    let outcome = match &report.results[0] {
        Ok(out) => out,
        Err(e) => {
            return Err(err(format!(
                "root rank failed: {e}\n# report: {}",
                report.summary()
            )))
        }
    };
    let sum = outcome
        .value
        .ok_or_else(|| err("root rank returned no value"))?;
    let check = survivor_check(&values, ranks, &outcome.survivors, sum);

    // Checkpoint-resumable engine demo on the same data: chunk 0 fails its
    // first attempt, the engine retries it and heals the plan.
    let rt = Runtime::new(2);
    let rplan = ReductionPlan::with_chunk_count(values.len(), ranks.max(2));
    let mut store = CheckpointStore::for_plan(&rplan);
    let fail_once = |c: usize, attempt: u32| c == 0 && attempt == 0;
    let (_, stats) = rt
        .accumulate_resumable(
            &values,
            &rplan,
            || BinnedSum::new(3),
            &mut store,
            Some(&fail_once),
        )
        .map_err(|e| err(e.to_string()))?;

    Ok(format!(
        "{sum:.17e}\n\
         # survivors: {:?} (rounds={})\n\
         # report: {}\n\
         # survivor reference (PR fold=3): {check}\n\
         # checkpoint demo: retries={} heals={} checkpoint_restores={}\n\
         # replay: repro-reduce chaos {} --topology {topo_name}",
        outcome.survivors,
        outcome.rounds,
        report.summary(),
        stats.retries,
        stats.heals,
        stats.checkpoint_restores,
        replay_flags(o, ranks, n),
    ))
}

/// Sequential reference over the survivor set's inputs: PR is bitwise
/// reproducible (invariant under deposit order and merge trees), so the
/// healed distributed result must match it exactly.
fn survivor_check(values: &[f64], ranks: usize, survivors: &[usize], sum: f64) -> String {
    let mut reference = BinnedSum::new(3);
    for &rank in survivors {
        reference.add_slice(share(values, ranks, rank).1);
    }
    if reference.finalize().to_bits() == sum.to_bits() {
        "OK (bitwise)".to_string()
    } else {
        format!("FAIL (reference {:.17e})", reference.finalize())
    }
}

/// `trace chaos`: a fault-injected distributed gather whose event stream is
/// a pure function of the seed. Unlike the `chaos` command's fault-tolerant
/// collective (whose retry/round structure depends on thread timing), this
/// runs a fixed communication script: every non-root rank sends its chunk
/// as [`SEGMENTS`] PR-checkpoint strings on predetermined tags, and the root
/// polls every (rank, segment) slot with directed timed receives in a fixed
/// order, dropping a rank wholesale on its first timeout. All fault draws
/// come from per-rank seeded streams, so two runs with the same seed yield
/// byte-identical JSONL (and PR merging keeps the healed sum bitwise equal
/// to a sequential reference over the survivor set). With `--telemetry`,
/// every segment (`leaf.r{rank}.s{seg}`), the root's own chunk (`leaf.r0`)
/// and the gathered result (`root`) emit a `node` event; the ids derive
/// from the fixed script, never from timing, so `trace diff` aligns runs
/// with different fault draws.
pub fn trace_chaos(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    let (out, manifest) = trace_chaos_with_manifest(o)?;
    finish_with_manifest(out, &manifest, o.manifest.as_deref())
}

const SEGMENTS: usize = 4;

/// The `trace chaos` workload proper, returning the rendered trace (sans
/// manifest trailer) alongside the completed [`RunManifest`] — `replay`
/// re-runs this and compares manifests instead of scraping output text.
pub fn trace_chaos_with_manifest(o: &Opts) -> Result<(String, RunManifest), CliError> {
    use repro_core::mpisim::{FaultError, World};
    use repro_core::obs::{f, node_fields, render_jsonl, ExactShadow, Trace};

    let ranks = o.ranks.unwrap_or(6);
    let n = o.n.unwrap_or(2048);
    let telemetry = telemetry_cfg(o);
    let plan = fault_plan(o, ranks)?;

    let mut values = repro_core::gen::zero_sum_with_range(n, o.dr, o.seed);
    let mut manifest = manifest_for("chaos", o, &values, true);
    manifest.workers = ranks as u64;
    manifest.algorithm = "PR".to_string();
    manifest.fault = Some(FaultSpec {
        drop: o.drop,
        delay: o.delay,
        dup: o.dup,
        reorder: o.reorder,
        kill: o.kill as u64,
    });
    // Parked before the world runs: a fault-plane kill triggers an
    // incident dump that must name this run.
    repro_core::obs::flight::global().set_manifest_json(Some(manifest.to_json()));
    apply_perturb(&mut values, o.perturb)?;
    let values = values;
    let tag = |rank: usize, seg: usize| ((rank as u64) << 8) | seg as u64;

    let (report, events) = World::run_report_traced(ranks, &plan, true, |comm| {
        let rank = comm.rank();
        let (start, mine) = share(&values, ranks, rank);
        if rank == 0 {
            let mut merged = BinnedSum::new(3);
            merged.add_slice(mine);
            if telemetry.enabled() {
                // The root's own chunk is its leaf in the gather tree.
                let shadow = ExactShadow::over(mine);
                let (fields, _) =
                    node_fields(&telemetry, 1, "leaf.r0", 0, merged.finalize(), &shadow);
                comm.trace_event("node", fields);
            }
            let mut survivors = vec![0usize];
            for src in 1..comm.size() {
                let mut partials = Vec::with_capacity(SEGMENTS);
                for seg in 0..SEGMENTS {
                    match comm.recv_timeout::<String>(src, tag(src, seg)) {
                        Ok(cp) => match BinnedSum::restore(&cp) {
                            Some(p) => partials.push(p),
                            None => {
                                partials.clear();
                                break;
                            }
                        },
                        Err(FaultError::Timeout { .. }) => {
                            // A dead or lossy rank: skip its remaining
                            // segments rather than paying the timeout
                            // budget three more times.
                            partials.clear();
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if partials.len() == SEGMENTS {
                    for p in &partials {
                        merged.merge(p);
                    }
                    survivors.push(src);
                }
            }
            let sum = merged.finalize();
            if telemetry.enabled() {
                // The merged gather result over the survivor set — ordinal 0
                // so the root is always exact-sampled when sampling is on.
                let mut shadow = ExactShadow::default();
                for &r in &survivors {
                    shadow.absorb(&ExactShadow::over(share(&values, ranks, r).1));
                }
                let (fields, _) = node_fields(&telemetry, 0, "root", 0, sum, &shadow);
                comm.trace_event("node", fields);
            }
            comm.trace_event(
                "gather_done",
                vec![
                    f("survivors", format!("{survivors:?}")),
                    f("sum_bits", format!("{:016x}", sum.to_bits())),
                ],
            );
            Ok((sum, survivors))
        } else {
            let seg_len = mine.len().div_ceil(SEGMENTS).max(1);
            for seg in 0..SEGMENTS {
                let lo = (seg * seg_len).min(mine.len());
                let hi = ((seg + 1) * seg_len).min(mine.len());
                let mut part = BinnedSum::new(3);
                part.add_slice(&mine[lo..hi]);
                if telemetry.enabled() {
                    let (fields, _) = node_fields(
                        &telemetry,
                        (rank * SEGMENTS + seg) as u64 + 1,
                        &format!("leaf.r{rank}.s{seg}"),
                        start + lo,
                        part.finalize(),
                        &ExactShadow::over(&mine[lo..hi]),
                    );
                    comm.trace_event("node", fields);
                }
                comm.try_send(0, tag(rank, seg), part.checkpoint())?;
            }
            Ok((0.0, Vec::new()))
        }
    })
    .map_err(|e| err(e.0))?;

    let (sum, survivors) = match &report.results[0] {
        Ok(v) => v.clone(),
        Err(e) => return Err(err(format!("root rank failed: {e}"))),
    };
    let check = survivor_check(&values, ranks, &survivors, sum);

    // One selector decision record per traced run: profile the full input
    // and record what the selector would do for a bitwise budget.
    let (trace, sink) = Trace::to_memory();
    let mut select_scope = trace.scope("select");
    let profile = repro_core::select::profile_parallel(&values);
    let explanation = repro_core::select::explain(&profile, Tolerance::Bitwise);
    repro_core::select::record_decision(&mut select_scope, &profile, &explanation);
    let select_events = sink.drain();
    let total_events = select_events.len() + events.len();

    let mut out = render_jsonl(&select_events);
    out.push_str(&render_jsonl(&events));
    out.push_str(&format!(
        "# trace chaos: ranks={ranks} n={n} seed={} events={total_events}\n\
         # ranks: completed={} failed={}\n\
         # survivors: {survivors:?}\n\
         # sum: {sum:.17e}\n\
         # survivor reference (PR fold=3): {check}\n\
         # replay: repro-reduce trace chaos {}",
        o.seed,
        report.completed,
        report.failed,
        replay_flags(o, ranks, n),
    ));
    if o.telemetry {
        out.push_str(" --telemetry");
        if let Some(every) = o.sample {
            out.push_str(&format!(" --sample {every}"));
        }
    }
    if let Some(idx) = o.perturb {
        out.push_str(&format!(" --perturb {idx}"));
    }
    manifest.cost_source = explanation.cost_source.clone();
    manifest.result_bits = Some(sum.to_bits());
    Ok((out, manifest))
}
