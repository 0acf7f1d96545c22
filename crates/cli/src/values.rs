//! The value commands: sum, profile, select, verify, compare, gen, dot,
//! tree and calibrate.

use crate::manifest::{finish_with_manifest, manifest_for};
use crate::opts::{floats, Opts};
use crate::{err, CliError, ReadFile};
use repro_core::prelude::*;
use repro_core::select::VerifiedReducer;
use repro_core::stats::{table::sci, Table};

pub fn parse_algorithm(s: &str) -> Result<Algorithm, CliError> {
    Algorithm::ALL
        .into_iter()
        .find(|a| a.abbrev().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            err(format!(
                "unknown algorithm {:?} (expected ST|K|N|PW|CP|DD|PR|DS)",
                s.to_ascii_uppercase()
            ))
        })
}

/// A generated `grid_cell` input of `n` values shaped by `--k`/`--dr`/`--seed`.
fn grid(o: &Opts, n: usize) -> Vec<f64> {
    repro_core::gen::grid_cell(n, o.k.unwrap_or(1.0), o.dr, o.seed, 1e16)
}

/// The given input values or, when there are none, a generated [`grid`]
/// of `--n` values (default 4096); the flag says whether it generated.
pub fn values_or_grid(o: &Opts, values: Vec<f64>) -> (Vec<f64>, bool) {
    if values.is_empty() {
        (grid(o, o.n.unwrap_or(4096)), true)
    } else {
        (values, false)
    }
}

pub fn sum(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let values = o.need_values(read_file)?;
    let alg = parse_algorithm(o.alg.as_deref().unwrap_or("PR"))?;
    let result = alg.sum(&values);
    let rendered = if o.hex {
        repro_core::fp::format_hex(result)
    } else {
        format!("{result:.17e}")
    };
    let mut manifest = manifest_for("sum", o, &values, false);
    manifest.workers = 1;
    manifest.algorithm = alg.abbrev().to_string();
    manifest.result_bits = Some(result.to_bits());
    finish_with_manifest(
        format!(
            "{rendered}\n# algorithm: {alg} ({})\n# exact error: {}",
            alg.name(),
            sci(repro_core::fp::abs_error(result, &values)),
        ),
        &manifest,
        o.manifest.as_deref(),
    )
}

pub fn profile(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let values = o.need_values(read_file)?;
    let p = repro_core::select::profile(&values);
    let m = repro_core::gen::measure(&values);
    let mut t = Table::new(&["quantity", "estimated (1 pass)", "exact"]);
    t.row(&["n".into(), p.n.to_string(), m.n.to_string()]);
    t.row(&["condition number k".into(), sci(p.k), sci(m.k)]);
    t.row(&[
        "dynamic range (decades)".into(),
        p.dr_decades().to_string(),
        m.dr.to_string(),
    ]);
    t.row(&["Σ|x|".into(), sci(p.abs_sum), sci(m.abs_sum)]);
    t.row(&["Σx".into(), sci(p.sum_estimate), sci(m.sum)]);
    let mut rec = Table::new(&["tolerance", "recommended operator"]);
    for r in repro_core::select::recommendations(&values) {
        rec.row(&[format!("{:?}", r.tolerance), r.algorithm.to_string()]);
    }
    Ok(format!(
        "{}\nrecommendations:\n{}",
        t.render(),
        rec.render()
    ))
}

pub fn select(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let values = o.need_values(read_file)?;
    let tol = o
        .tolerance
        .ok_or_else(|| err("--tolerance (or --bitwise) is required"))?;
    let reducer = AdaptiveReducer::heuristic(tol);
    let out = reducer.reduce(&values);
    let mut text = format!(
        "{:.17e}\n# selected: {} ({})\n# profile: n = {}, k ≈ {}, dr ≈ {} decades",
        out.sum,
        out.algorithm,
        out.algorithm.name(),
        out.profile.n,
        sci(out.profile.k),
        out.profile.dr_decades(),
    );
    if o.explain {
        text.push('\n');
        text.push_str(&repro_core::select::explain(&out.profile, tol).render());
    }
    Ok(text)
}

pub fn verify(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let values = o.need_values(read_file)?;
    let reducer = VerifiedReducer::new(o.tolerance_or_bitwise(), o.seed);
    let out = reducer
        .reduce(&values)
        .ok_or_else(|| err("no algorithm on the ladder satisfied the tolerance"))?;
    let ladder = out
        .disagreements
        .iter()
        .map(|(a, d)| format!("{}: disagreement {}", a.abbrev(), sci(*d)))
        .collect::<Vec<_>>()
        .join("\n# ");
    Ok(format!(
        "{:.17e}\n# accepted: {}\n# {}",
        out.sum, out.algorithm, ladder
    ))
}

pub fn compare(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let values = o.need_values(read_file)?;
    let exact = repro_core::fp::exact_sum_acc(&values);
    let mut t = Table::new(&["algorithm", "result", "|error| vs exact", "reproducible"]);
    for alg in Algorithm::ALL {
        let r = alg.sum(&values);
        t.row(&[
            alg.to_string(),
            format!("{r:+.17e}"),
            sci(repro_core::fp::abs_error_vs(&exact, r)),
            if alg.is_reproducible() {
                "bitwise".into()
            } else {
                "no".into()
            },
        ]);
    }
    t.row(&[
        "exact".into(),
        format!("{:+.17e}", exact.to_f64()),
        "0".into(),
        "—".into(),
    ]);
    Ok(t.render())
}

pub fn gen(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    let n = o.n.ok_or_else(|| err("gen requires --n"))?;
    let values = grid(o, n);
    let mut out = String::with_capacity(values.len() * 24);
    for v in &values {
        out.push_str(&format!("{v:e}\n"));
    }
    out.pop();
    Ok(out)
}

pub fn dot(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    use repro_core::sum::{dot2, dot_exact, dot_reproducible, dot_standard};
    let read = |path: &Option<String>, flag: &str| match path {
        Some(path) => floats(&read_file(path)?),
        None => Err(err(format!("dot requires {flag}"))),
    };
    let x = read(&o.file_x, "--file-x")?;
    let y = read(&o.file_y, "--file-y")?;
    if x.len() != y.len() {
        return Err(err(format!("length mismatch: {} vs {}", x.len(), y.len())));
    }
    let result = match o
        .alg
        .as_deref()
        .unwrap_or("PR")
        .to_ascii_uppercase()
        .as_str()
    {
        "ST" => dot_standard(&x, &y),
        "CP" => dot2(&x, &y),
        "PR" => dot_reproducible(&x, &y, 3),
        other => return Err(err(format!("dot supports ST|CP|PR, got {other:?}"))),
    };
    Ok(format!(
        "{result:.17e}\n# exact error: {}",
        sci((result - dot_exact(&x, &y)).abs())
    ))
}

pub fn tree(o: &Opts, read_file: &ReadFile) -> Result<String, CliError> {
    let values = o.need_values(read_file)?;
    let shape = match o.shape.as_deref().unwrap_or("balanced") {
        "balanced" => repro_core::tree::TreeShape::Balanced,
        "serial" => repro_core::tree::TreeShape::Serial,
        "random" => repro_core::tree::TreeShape::Random { seed: o.seed },
        "binomial" => repro_core::tree::TreeShape::Binomial,
        other => {
            return Err(err(format!(
                "unknown shape {other:?} (expected balanced|serial|random|binomial)"
            )))
        }
    };
    let tree = repro_core::tree::ReductionTree::build(shape, values.len());
    if o.dot {
        return Ok(tree.render_dot(&values));
    }
    let (root, residuals) = tree.error_attribution(&values);
    let total = repro_core::fp::exact_sum(&residuals);
    let mut out = tree.render(&values);
    out.push_str(&format!(
        "\n# result: {root:.17e}\n# total rounding error: {}\n# worst nodes:",
        sci(total.abs()),
    ));
    for (id, e) in tree.worst_nodes(&values, 3) {
        out.push_str(&format!("\n#   node {id}: {}", sci(e)));
    }
    Ok(out)
}

pub fn calibrate(o: &Opts, _: &ReadFile) -> Result<String, CliError> {
    let cfg = repro_core::select::CalibrationConfig {
        n: o.n.unwrap_or(4096),
        permutations: o.perms,
        seed: o.seed,
        ..Default::default()
    };
    Ok(repro_core::select::calibrate(&cfg).to_csv())
}
