//! The tooling commands: `bench`, `simd` and `flight`.

use crate::opts::Opts;
use crate::{err, CliError, ReadFile};

/// `bench`: run the tracked throughput harness (`repro_bench::throughput`)
/// at the current `REPRO_SCALE` and write the fixed-schema `BENCH_*.json`
/// document — the repo's perf trajectory, one comparable point per PR.
/// `--out -` prints the JSON (plus `#` summary lines) instead of writing;
/// the default target is `BENCH_10.json` in the working directory.
pub fn bench(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    use repro_bench::throughput;
    let entries = throughput::run_suite();
    let json = throughput::render_json(&entries);
    let ratio = throughput::batched_over_scalar_ratio(&entries)
        .ok_or_else(|| err("bench suite missing superaccumulator entries"))?;
    let summary = format!(
        "# {} ops at scale {:?}, n = {}, seed = {}, rev = {}\n\
         # batched/scalar superaccumulator throughput ratio: {ratio:.2}x",
        entries.len(),
        repro_bench::scale(),
        entries.first().map(|e| e.n).unwrap_or(0),
        entries.first().map(|e| e.seed).unwrap_or(0),
        entries.first().map(|e| e.git_rev.as_str()).unwrap_or("?"),
    );
    let out = o.out.as_deref().unwrap_or("BENCH_10.json");
    if out == "-" {
        Ok(format!("{json}{summary}"))
    } else {
        std::fs::write(out, &json).map_err(|e| err(format!("writing {out}: {e}")))?;
        Ok(format!("# wrote {out}\n{summary}"))
    }
}

/// `simd`: report the runtime SIMD dispatch decision. Without `--check`,
/// prints the active tier, where the decision came from (`REPRO_SIMD`
/// override or CPU feature detection), and every tier this CPU supports.
/// `--check <tier>` answers through the exit status — the CI matrix probes
/// it before exporting `REPRO_SIMD=<tier>`, so an unavailable tier is
/// skipped loudly instead of silently exercising the fallback.
pub fn simd(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    use repro_core::fp::simd;
    let Some(tier) = &o.check else {
        // Surface an invalid REPRO_SIMD as a diagnostic + nonzero exit,
        // not the silent library fallback (and never a panic).
        let active = simd::try_active_tier().map_err(|e| err(e.to_string()))?;
        let tiers: Vec<&str> = simd::supported_tiers().iter().map(|t| t.label()).collect();
        return Ok(format!(
            "active: {}\nsource: {}\nsupported: {}",
            active.label(),
            simd::dispatch_source(),
            tiers.join(" "),
        ));
    };
    let t = simd::SimdTier::parse(tier)
        .ok_or_else(|| err(format!("--check {tier:?}: expected scalar|sse2|avx2")))?;
    if simd::tier_supported(t) {
        Ok(format!("{} supported", t.label()))
    } else {
        Err(err(format!("{} not supported on this CPU", t.label())))
    }
}

/// `flight`: show the process-global flight recorder — enabled state, ring
/// capacity, per-subsystem retained/dropped/recorded counts, and the
/// `obs.overhead.*` self-accounting. `--dump DIR` additionally writes a
/// `postmortem.jsonl` there, the same document an incident would produce.
pub fn flight(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    let rec = repro_core::obs::flight::global();
    let ring = rec.ring();
    let mut out = format!(
        "# flight recorder: enabled={} capacity={} dumps={}",
        rec.enabled(),
        ring.capacity(),
        rec.dumps_written(),
    );
    for snap in ring.snapshot() {
        out.push_str(&format!(
            "\n# ring {}: retained={} dropped={} recorded={}",
            snap.sub,
            snap.events.len(),
            snap.dropped,
            snap.recorded,
        ));
    }
    let registry = repro_core::obs::Registry::new();
    rec.account(&registry);
    for line in registry.snapshot().render().lines() {
        out.push_str("\n# metric ");
        out.push_str(line);
    }
    if let Some(dir) = &o.dump {
        rec.set_dump_dir(Some(std::path::PathBuf::from(dir)));
        match rec.dump("cli.flight.dump") {
            Some(path) => out.push_str(&format!("\n# wrote {}", path.display())),
            None => out.push_str("\n# no dump written (recorder disabled)"),
        }
    }
    Ok(out)
}
