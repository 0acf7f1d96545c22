//! The CLI family: `repro_cli::run(["sum", "--file", F, "--hex"])`, then
//! `run(["replay", M])` on the manifest the sum emitted, one thread,
//! round-robin over a pool of inputs. Files are served from memory through
//! the `read_file` closure, so no disk I/O is timed.
//!
//! The front end is one opaque call per command. The traced run therefore
//! times the pieces it cannot see inside from outside, on the same inputs:
//! the PR kernel, and parsing and rendering the emitted manifest.

use crate::common::{flight_counts, median_setup, Family, Layers, Limit, Phase, Tally};
use crate::stats::Reservoir;
use crate::trace::Tracer;
use repro_cli::CliError;
use repro_obs::RunManifest;
use repro_sum::Algorithm;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const INPUT: &str = "input.txt";
const MANIFEST: &str = "run.manifest.json";
const SETUP_REPS: usize = 7;

pub struct Cli {
    inputs: Vec<Vec<f64>>,
    /// Each input as the text file `sum --file` reads.
    texts: Vec<String>,
    /// `format_hex` of `Algorithm::PR.sum` over each input.
    expected_hex: Vec<String>,
    /// Bytes of the manifest each input's `sum` emitted.
    manifest_bytes: Vec<usize>,
    /// Set-up time (median), seconds.
    pub setup_s: f64,
}

/// The text of a value file, one value per line, shortest round-trip form.
fn render_values(values: &[f64]) -> String {
    let mut s = String::with_capacity(values.len() * 24);
    for v in values {
        let _ = writeln!(s, "{v:e}");
    }
    s
}

/// The manifest trailer of a `sum` output.
fn manifest_of(out: &str) -> Option<&str> {
    out.lines()
        .rev()
        .find_map(|l| l.strip_prefix("# manifest: "))
}

/// One sum → replay round trip over `text`, spans into `tr`. Returns the
/// two outputs.
fn roundtrip(text: &str, tr: &RefCell<Tracer>) -> Result<(String, String), CliError> {
    let served = |want: &'static str, body: &str| {
        let body = body.to_string();
        move |path: &str| {
            tr.borrow_mut().begin("cli.read");
            let r = if path == want {
                Ok(body.clone())
            } else {
                Err(CliError::new(format!("no such file: {path}")))
            };
            tr.borrow_mut().end();
            r
        }
    };
    let sum_args = ["sum", "--file", INPUT, "--hex"].map(String::from);
    tr.borrow_mut().begin("op.roundtrip");
    tr.borrow_mut().begin("cli.sum");
    let out = repro_cli::run(&sum_args, &served(INPUT, text));
    tr.borrow_mut().end();
    let result = out.and_then(|out| {
        let manifest = manifest_of(&out)
            .ok_or_else(|| CliError::new("sum emitted no manifest"))?
            .to_string();
        let replay_args = ["replay", MANIFEST].map(String::from);
        tr.borrow_mut().begin("cli.replay");
        let replay = repro_cli::run(&replay_args, &served(MANIFEST, &manifest));
        tr.borrow_mut().end();
        Ok((out, replay?))
    });
    tr.borrow_mut().end();
    result
}

/// Whether a round trip's outputs are right: the first line of `sum` is
/// the expected hex result, and `replay` agrees bitwise.
fn roundtrip_ok(result: &Result<(String, String), CliError>, expected_hex: &str) -> bool {
    match result {
        Ok((sum, replay)) => {
            sum.lines().next() == Some(expected_hex) && replay.starts_with("replay OK")
        }
        Err(_) => false,
    }
}

impl Cli {
    /// Set up over `inputs` (timed: the first round trip).
    pub fn new(inputs: Vec<Vec<f64>>) -> Self {
        assert!(!inputs.is_empty());
        let texts: Vec<String> = inputs.iter().map(|v| render_values(v)).collect();
        let off = RefCell::new(Tracer::off());
        let (_, setup_s) = median_setup(SETUP_REPS, || roundtrip(&texts[0], &off));
        Cli {
            inputs,
            texts,
            expected_hex: Vec::new(),
            manifest_bytes: Vec::new(),
            setup_s,
        }
    }

    #[cfg(test)]
    pub fn corrupt_expected(&mut self) {
        for h in &mut self.expected_hex {
            let bits = repro_fp::parse_hex(h).expect("hex").to_bits() ^ 1;
            *h = repro_fp::format_hex(f64::from_bits(bits));
        }
    }
}

impl Family for Cli {
    fn verify(&mut self) -> Tally {
        let mut tally = Tally::default();
        let off = RefCell::new(Tracer::off());
        self.expected_hex = self
            .inputs
            .iter()
            .map(|v| repro_fp::format_hex(Algorithm::PR.sum(v)))
            .collect();
        self.manifest_bytes.clear();
        for (text, hex) in self.texts.iter().zip(&self.expected_hex) {
            let r = roundtrip(text, &off);
            tally.record(roundtrip_ok(&r, hex));
            let bytes = r
                .as_ref()
                .ok()
                .and_then(|(out, _)| manifest_of(out))
                .map_or(0, str::len);
            self.manifest_bytes.push(bytes);
        }
        tally
    }

    fn run(&mut self, tr: &mut Tracer, limit: Limit) -> Phase {
        let traced = tr.on();
        let cell = RefCell::new(std::mem::replace(tr, Tracer::off()));
        let mut lat = Reservoir::new(1 << 16);
        let mut tally = Tally::default();
        let (mut parse, mut render, mut kernel) = (Vec::new(), Vec::new(), Vec::new());
        let (ev0, by0) = flight_counts();
        let start = Instant::now();
        let mut busy = 0.0;
        let mut rounds = 0;
        loop {
            for (i, text) in self.texts.iter().enumerate() {
                let t = Instant::now();
                let r = roundtrip(black_box(text), &cell);
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                lat.push(dt);
                tally.record(roundtrip_ok(&r, &self.expected_hex[i]));
                // Outside the request: the pieces `run` hides.
                if traced {
                    if let Some(m) = r.as_ref().ok().and_then(|(out, _)| manifest_of(out)) {
                        let t = Instant::now();
                        let parsed = RunManifest::parse(black_box(m));
                        parse.push(t.elapsed().as_secs_f64());
                        if let Ok(p) = parsed {
                            let t = Instant::now();
                            black_box(p.to_json());
                            render.push(t.elapsed().as_secs_f64());
                        }
                    }
                    let t = Instant::now();
                    black_box(Algorithm::PR.sum(black_box(&self.inputs[i])));
                    kernel.push(t.elapsed().as_secs_f64() / self.inputs[i].len() as f64);
                }
            }
            rounds += 1;
            if limit.done(start, rounds) {
                break;
            }
        }
        let (ev1, by1) = flight_counts();
        *tr = cell.into_inner();
        let ops = rounds * self.texts.len() as u64;
        let values = rounds * self.inputs.iter().map(|v| v.len() as u64).sum::<u64>();
        let mut extra = BTreeMap::new();
        if traced {
            extra.insert("obs.manifest_parse_ms", crate::stats::mean(&parse) * 1e3);
            extra.insert("obs.manifest_render_us", crate::stats::mean(&render) * 1e6);
            extra.insert("sum.kernel_ns_per_elem", crate::stats::mean(&kernel) * 1e9);
        }
        Phase {
            lat: vec![lat],
            ops,
            values,
            // Request time only: the traced run's side probes are excluded.
            wall_s: busy,
            tally,
            flight_events: ev1 - ev0,
            flight_bytes: by1 - by0,
            extra,
        }
    }

    fn layers(&mut self, tr: &Tracer, _untraced: &Phase, traced: &Phase, out: &mut Layers) {
        let read_ns = tr.mean_ns("cli.read");
        let sum_ns = tr.mean_ns("cli.sum");
        let replay_ns = tr.mean_ns("cli.replay");
        let parse_ms = traced.extra["obs.manifest_parse_ms"];
        let render_us = traced.extra["obs.manifest_render_us"];
        let kernel_ns = traced.extra["sum.kernel_ns_per_elem"];
        let n = crate::stats::mean(
            &self
                .inputs
                .iter()
                .map(|v| v.len() as f64)
                .collect::<Vec<_>>(),
        );
        // Both commands read one file and run the PR kernel once; sum
        // renders the manifest, replay parses it.
        let self_ns = sum_ns + replay_ns
            - 2.0 * read_ns
            - 2.0 * kernel_ns * n
            - parse_ms * 1e6
            - render_us * 1e3;
        out.insert("cli.read_us", read_ns / 1e3);
        out.insert("cli.sum_ms", sum_ns / 1e6);
        out.insert("cli.replay_ms", replay_ns / 1e6);
        out.insert("cli.self_ms", self_ns / 1e6);
        out.insert("obs.manifest_parse_ms", parse_ms);
        out.insert("obs.manifest_render_us", render_us);
        out.insert("sum.kernel_ns_per_elem", kernel_ns);
        let bytes: Vec<f64> = self.manifest_bytes.iter().map(|&b| b as f64).collect();
        out.insert("obs.manifest_bytes", crate::stats::mean(&bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cli {
        Cli::new(vec![
            repro_gen::uniform(64, 0.0, 1.0, 1),
            repro_gen::uniform(64, 0.0, 1.0, 2),
        ])
    }

    #[test]
    fn roundtrip_passes_its_checks() {
        let mut c = small();
        assert_eq!(
            c.verify(),
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let ph = c.run(&mut tr, Limit::Rounds(1));
        assert_eq!(
            ph.tally,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        // Each round trip reads two files, inside the two commands.
        assert_eq!(tr.stat("cli.read").count, 4);
        assert_eq!(tr.stat("op.roundtrip").count, 2);
    }

    #[test]
    fn a_flipped_low_bit_counts_as_failed() {
        let mut c = small();
        c.verify();
        c.corrupt_expected();
        let ph = c.run(&mut Tracer::off(), Limit::Rounds(1));
        assert_eq!(
            ph.tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }
}
