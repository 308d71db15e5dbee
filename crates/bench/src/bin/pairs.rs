//! `pairs` — paired end-to-end evidence between two `svc_bench` builds.
//!
//! Runs binary `a` (the parent) and binary `b` (the change) on one workload
//! in alternating pairs — `a` first in even pairs, `b` first in odd ones —
//! one run at a time, and writes each end-to-end metric's evidence
//! ([`fdc_bench::paired`]): each side's median and interquartile range,
//! the median of the per-pair ratios `b / a`, the pairs `b` won, and a
//! bootstrap 95 % interval of that median, beside the host's thread count
//! and both builds' git revisions.
//!
//! ```text
//! cargo run --release -p fdc-bench --bin pairs -- \
//!     --a PARENT/examples/svc_bench/target/release/svc_bench \
//!     --b examples/svc_bench/target/release/svc_bench \
//!     --workload hot_inline [--pairs 10] [--seed 7] [--seconds 8] \
//!     [--rounds R] [--out pairs.json]
//! ```
//!
//! Each binary runs in the root of the git checkout it was built in (the
//! nearest ancestor directory holding `.git`, else the current directory),
//! and that checkout's `git describe --always --dirty` is its revision.  A
//! run that reports `"correct": false` or failed operations stops the tool.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fdc_bench::paired::{paired_evidence, quartiles};

/// The end-to-end metrics of `svc_bench run`, and whether higher is better.
const METRICS: [(&str, bool); 4] = [
    ("setup_s", false),
    ("ops_per_s", true),
    ("req_p50_us", false),
    ("peak_rss_mb", false),
];

/// Where `ops_per_s` lies in [`METRICS`]: the metric each pair prints.
const OPS_PER_S: usize = 1;

/// One side of the comparison: a `svc_bench` binary and where it runs.
struct Side {
    binary: PathBuf,
    checkout: PathBuf,
    revision: String,
    /// Per metric of [`METRICS`], the value of each run, in pair order.
    runs: Vec<Vec<f64>>,
}

impl Side {
    fn new(binary: &str) -> Result<Side, String> {
        let binary = std::fs::canonicalize(binary)
            .map_err(|error| format!("cannot find the binary `{binary}`: {error}"))?;
        let checkout = binary
            .ancestors()
            .find(|dir| dir.join(".git").exists())
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
        let revision = Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=40"])
            .current_dir(&checkout)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Ok(Side {
            binary,
            checkout,
            revision,
            runs: vec![Vec::new(); METRICS.len()],
        })
    }

    /// One `svc_bench run`; its end-to-end metrics join `runs`.
    fn run(&mut self, args: &[String]) -> Result<(), String> {
        let out = Command::new(&self.binary)
            .arg("run")
            .args(args)
            .current_dir(&self.checkout)
            .output()
            .map_err(|error| format!("cannot start `{}`: {error}", self.binary.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|line| line.starts_with('{'))
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "`{}` printed no result line: {}",
                    self.binary.display(),
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        if !line.contains("\"correct\": true") || !line.contains("\"failed\": 0,") {
            return Err(format!(
                "`{}` ran incorrectly: {line}",
                self.binary.display()
            ));
        }
        for ((name, _), runs) in METRICS.iter().zip(&mut self.runs) {
            runs.push(metric(line, name).ok_or_else(|| format!("no `{name}` in {line}"))?);
        }
        Ok(())
    }
}

/// The value of metric `name` in `svc_bench`'s result line:
/// `"name": {"value": V, …}`.
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    const KNOWN: [&str; 8] = [
        "a", "b", "workload", "pairs", "seed", "seconds", "rounds", "out",
    ];
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] => flag
                .strip_prefix("--")
                .filter(|name| KNOWN.contains(name))
                .map(|name| (name, value.as_str()))
                .ok_or_else(|| format!("unexpected argument `{flag}`")),
            [flag] => Err(format!("`{flag}` needs a value")),
            _ => unreachable!("chunks of two"),
        })
        .collect()
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn side_json(side: &Side, metric: usize) -> String {
    let runs = &side.runs[metric];
    let (q1, median, q3) = quartiles(runs);
    let values: Vec<String> = runs.iter().map(|&v| json_number(v)).collect();
    format!(
        "{{ \"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr\": {}, \"runs\": [{}] }}",
        json_number(median),
        json_number(q1),
        json_number(q3),
        json_number(q3 - q1),
        values.join(", ")
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pairs: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = flags(&args)?;
    let get = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    let required = |name: &str| get(name).ok_or_else(|| format!("--{name} is required"));
    let number = |name: &str| -> Result<Option<u64>, String> {
        get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} takes a number, not `{v}`"))
            })
            .transpose()
    };
    let workload = required("workload")?;
    let pairs = number("pairs")?.unwrap_or(10).max(1) as usize;
    let seed = number("seed")?.unwrap_or(7);
    let seconds = number("seconds")?.unwrap_or(8);
    let rounds = number("rounds")?;
    let out_path = get("out").map_or_else(|| format!("pairs_{workload}.json"), str::to_owned);
    let mut run_args = vec![
        "--workload".to_owned(),
        workload.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--seconds".to_owned(),
        seconds.to_string(),
    ];
    if let Some(rounds) = rounds {
        run_args.extend(["--rounds".to_owned(), rounds.to_string()]);
    }
    let mut a = Side::new(required("a")?)?;
    let mut b = Side::new(required("b")?)?;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "pairs: {workload} seed {seed}, {pairs} pairs, host_threads {host_threads}\n  a {} ({})\n  b {} ({})",
        a.binary.display(),
        a.revision,
        b.binary.display(),
        b.revision
    );
    for pair in 0..pairs {
        if pair % 2 == 0 {
            a.run(&run_args)?;
            b.run(&run_args)?;
        } else {
            b.run(&run_args)?;
            a.run(&run_args)?;
        }
        println!(
            "  pair {pair}: ops_per_s a {:.0} b {:.0} ({:.3}x)",
            a.runs[OPS_PER_S][pair],
            b.runs[OPS_PER_S][pair],
            b.runs[OPS_PER_S][pair] / a.runs[OPS_PER_S][pair]
        );
    }
    let mut metrics = Vec::new();
    for (i, &(name, higher_is_better)) in METRICS.iter().enumerate() {
        let evidence = paired_evidence(&a.runs[i], &b.runs[i], higher_is_better);
        println!(
            "{name}: median ratio {:.3} [{:.3}, {:.3}], b better in {}/{}",
            evidence.ratio_median, evidence.ratio_low, evidence.ratio_high, evidence.wins, pairs
        );
        metrics.push(format!(
            "    \"{name}\": {{\n      \"better\": \"{}\",\n      \"a\": {},\n      \"b\": {},\n      \
             \"ratio_median\": {},\n      \"ratio_ci95\": [{}, {}],\n      \"wins\": {}\n    }}",
            if higher_is_better { "higher" } else { "lower" },
            side_json(&a, i),
            side_json(&b, i),
            json_number(evidence.ratio_median),
            json_number(evidence.ratio_low),
            json_number(evidence.ratio_high),
            evidence.wins
        ));
    }
    let rounds = rounds.map_or_else(|| "null".to_owned(), |r| r.to_string());
    let json = format!(
        "{{\n  \"tool\": \"pairs\",\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"rounds\": {rounds},\n  \"pairs\": {pairs},\n  \
         \"host_threads\": {host_threads},\n  \"a\": {{ \"revision\": \"{}\" }},\n  \
         \"b\": {{ \"revision\": \"{}\" }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        a.revision,
        b.revision,
        metrics.join(",\n")
    );
    std::fs::write(&out_path, json)
        .map_err(|error| format!("cannot write `{out_path}`: {error}"))?;
    println!("wrote {out_path}");
    Ok(())
}
