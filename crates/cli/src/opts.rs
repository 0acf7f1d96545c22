//! The one option parser: every command's arguments go through [`parse`]
//! into one [`Opts`], admitting only the flags on the command's allow-list.

use crate::{err, is_help, CliError, Command, ReadFile, COMMANDS};
use repro_core::prelude::Tolerance;

/// A positional argument or a `--file` path, kept raw and in command-line
/// order (the order input values are summed in).
#[derive(Debug)]
pub enum Input {
    Arg(String),
    File(String),
}

/// Every option any command takes. A command only ever sees the flags on
/// its allow-list; every other field keeps its default.
#[derive(Debug, Default)]
pub struct Opts {
    pub inputs: Vec<Input>,
    pub alg: Option<String>,
    pub file_x: Option<String>,
    pub file_y: Option<String>,
    pub perms: u64,
    /// `--bitwise`, else `--tolerance T` (relative with `--relative`);
    /// `None` when neither was given.
    pub tolerance: Option<Tolerance>,
    pub hex: bool,
    pub shape: Option<String>,
    pub dot: bool,
    pub explain: bool,
    pub n: Option<usize>,
    pub k: Option<f64>,
    pub dr: u32,
    pub seed: u64,
    pub ranks: Option<usize>,
    pub drop: f64,
    pub delay: f64,
    pub dup: f64,
    pub reorder: f64,
    pub kill: usize,
    pub topology: Option<String>,
    pub wall: bool,
    pub telemetry: bool,
    pub sample: Option<u64>,
    pub perturb: Option<usize>,
    pub format: Option<String>,
    pub out: Option<String>,
    pub manifest: Option<String>,
    pub aggregates: Option<usize>,
    pub clients: Option<usize>,
    pub batches: Option<usize>,
    pub batch_len: Option<usize>,
    pub shards: usize,
    pub workers: usize,
    pub shuffle: u64,
    pub restore: Option<String>,
    pub snapshot: Option<String>,
    pub start_at: usize,
    pub stop_at: Option<usize>,
    pub check: Option<String>,
    pub dump: Option<String>,
}

fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, CliError> {
    v.parse().map_err(|_| err(format!("bad {flag}: {v:?}")))
}

/// Parse `args` (everything after the command words) for `cmd`. `Ok(None)`
/// means help was asked for: `help` first, or `--help`/`-h` anywhere.
pub fn parse(cmd: &Command, args: &[String]) -> Result<Option<Opts>, CliError> {
    if args.first().is_some_and(|a| is_help(a)) {
        return Ok(None);
    }
    let mut o = Opts {
        perms: 20,
        seed: 2015,
        shards: 4,
        workers: 4,
        shuffle: 1,
        ..Default::default()
    };
    let (mut tolerance, mut relative, mut bitwise) = (None, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        if !flag.starts_with("--") {
            if !cmd.positionals {
                return Err(err(format!(
                    "{} takes no positional arguments, got {a:?}",
                    cmd.name
                )));
            }
            o.inputs.push(Input::Arg(a.clone()));
            continue;
        }
        if !cmd.accepts(flag) {
            let takers: Vec<&str> = COMMANDS
                .iter()
                .filter(|c| c.accepts(flag))
                .map(|c| c.name)
                .collect();
            return Err(err(if takers.is_empty() {
                format!("unknown option {flag}")
            } else {
                format!(
                    "{} does not take {flag} (accepted by: {})",
                    cmd.name,
                    takers.join(", ")
                )
            }));
        }
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag {
            "--file" => o.inputs.push(Input::File(val()?)),
            "--alg" => o.alg = Some(val()?),
            "--file-x" => o.file_x = Some(val()?),
            "--file-y" => o.file_y = Some(val()?),
            "--shape" => o.shape = Some(val()?),
            "--topology" => o.topology = Some(val()?),
            "--format" => o.format = Some(val()?),
            "--out" => o.out = Some(val()?),
            "--manifest" => o.manifest = Some(val()?),
            "--restore" => o.restore = Some(val()?),
            "--snapshot" => o.snapshot = Some(val()?),
            "--check" => o.check = Some(val()?),
            "--dump" => o.dump = Some(val()?),
            "--tolerance" => tolerance = Some(num(flag, val()?)?),
            "--relative" => relative = true,
            "--bitwise" => bitwise = true,
            "--hex" => o.hex = true,
            "--dot" => o.dot = true,
            "--explain" => o.explain = true,
            "--wall" => o.wall = true,
            "--telemetry" => o.telemetry = true,
            "--n" => {
                // Every generator and workload behind --n needs two values.
                let n: usize = num(flag, val()?)?;
                if n < 2 {
                    return Err(err(format!("bad {flag}: {n} (need at least 2)")));
                }
                o.n = Some(n);
            }
            "--k" => o.k = Some(num(flag, val()?)?),
            "--dr" => o.dr = num(flag, val()?)?,
            "--perms" => o.perms = num(flag, val()?)?,
            "--seed" => o.seed = num(flag, val()?)?,
            "--ranks" => o.ranks = Some(num(flag, val()?)?),
            "--drop" => o.drop = num(flag, val()?)?,
            "--delay" => o.delay = num(flag, val()?)?,
            "--dup" => o.dup = num(flag, val()?)?,
            "--reorder" => o.reorder = num(flag, val()?)?,
            "--kill" => o.kill = num(flag, val()?)?,
            "--sample" => o.sample = Some(num(flag, val()?)?),
            "--perturb" => o.perturb = Some(num(flag, val()?)?),
            "--aggregates" => o.aggregates = Some(num(flag, val()?)?),
            "--clients" => o.clients = Some(num(flag, val()?)?),
            "--batches" => o.batches = Some(num(flag, val()?)?),
            "--batch-len" => o.batch_len = Some(num(flag, val()?)?),
            "--shards" => o.shards = num(flag, val()?)?,
            "--workers" => o.workers = num(flag, val()?)?,
            "--shuffle" => o.shuffle = num(flag, val()?)?,
            "--start-at" => o.start_at = num(flag, val()?)?,
            "--stop-at" => o.stop_at = Some(num(flag, val()?)?),
            _ => return Err(err(format!("unknown option {flag}"))),
        }
    }
    o.tolerance = if bitwise {
        Some(Tolerance::Bitwise)
    } else {
        tolerance.map(|t| {
            if relative {
                Tolerance::RelativeSpread(t)
            } else {
                Tolerance::AbsoluteSpread(t)
            }
        })
    };
    Ok(Some(o))
}

/// Whitespace-separated floats, as `--file` inputs hold them.
pub fn floats(text: &str) -> Result<Vec<f64>, CliError> {
    text.split_whitespace()
        .map(|tok| {
            tok.parse()
                .map_err(|_| err(format!("bad value in file: {tok:?}")))
        })
        .collect()
}

impl Opts {
    /// The tolerance the traced and verifying commands run under: bitwise
    /// unless `--tolerance` says otherwise.
    pub fn tolerance_or_bitwise(&self) -> Tolerance {
        self.tolerance.unwrap_or(Tolerance::Bitwise)
    }

    /// The input values: positional arguments and `--file` contents, in
    /// command-line order.
    pub fn values(&self, read_file: &ReadFile) -> Result<Vec<f64>, CliError> {
        let mut values = Vec::new();
        for input in &self.inputs {
            match input {
                Input::Arg(a) => {
                    values.push(a.parse().map_err(|_| err(format!("bad value: {a:?}")))?)
                }
                Input::File(path) => values.extend(floats(&read_file(path)?)?),
            }
        }
        Ok(values)
    }

    /// [`Opts::values`] for the commands that need at least one.
    pub fn need_values(&self, read_file: &ReadFile) -> Result<Vec<f64>, CliError> {
        let values = self.values(read_file)?;
        if values.is_empty() {
            return Err(err("no input values (pass numbers or --file)"));
        }
        Ok(values)
    }

    /// The positional arguments, for the commands that take paths.
    pub fn args(&self) -> Vec<&str> {
        self.inputs
            .iter()
            .filter_map(|i| match i {
                Input::Arg(a) => Some(a.as_str()),
                Input::File(_) => None,
            })
            .collect()
    }

    /// The last `--file` path, for the commands that read one document.
    pub fn file(&self) -> Option<&str> {
        self.inputs.iter().rev().find_map(|i| match i {
            Input::File(path) => Some(path.as_str()),
            Input::Arg(_) => None,
        })
    }
}
