//! `svc_bench`: the end-to-end + layer-ladder benchmark of the disclosure
//! service.  See `README.md` beside this file.
//!
//! ```text
//! svc_bench run   --workload W --seed S [--seconds T] [--trace 0|1] [--out F]
//!                 [--trace-out F] [--scratch D] [--rounds R]
//! svc_bench trace --workload W --seed S [--trace-out F] …   (run --trace 1)
//! svc_bench list [--json]
//! svc_bench selfcheck [--scratch D]
//! svc_bench compare A… -- B…
//! ```

mod catalog;
mod compare;
mod hist;
mod ladder;
mod measure;
mod report;
mod run;
mod selfcheck;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use measure::Options;
use workload::Workload;

/// Seconds of timed work per run when `--seconds` is not given; also the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 8;

/// The scratch directory, removed when the process is done with it.
struct Scratch(PathBuf);

impl Scratch {
    /// `--scratch`, or a per-process directory under the build's target
    /// directory (inside the checkout, ignored by git).
    fn new(given: Option<&str>) -> Scratch {
        let root = given.map_or_else(
            || PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into())),
            PathBuf::from,
        );
        Scratch(root.join(format!("svc_bench-scratch-{}", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let Some(name) = flag.strip_prefix("--").filter(|name| known.contains(name)) else {
                return Err(format!("unexpected argument `{flag}`"));
            };
            let value = args
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|text| {
                text.parse()
                    .map_err(|_| format!("--{name}: `{text}` is not a valid number"))
            })
            .transpose()
    }
}

fn run(args: &[String], force_trace: bool) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "workload",
            "seed",
            "seconds",
            "trace",
            "out",
            "trace-out",
            "scratch",
            "rounds",
        ],
    )?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name)
        .ok_or_else(|| format!("unknown workload `{name}`; `svc_bench list` names them"))?;
    let traced = force_trace || flags.number::<u8>("trace")?.unwrap_or(0) != 0;
    let scratch = Scratch::new(flags.get("scratch"));
    let options = Options {
        workload,
        seed: flags.number("seed")?.unwrap_or(1),
        seconds: flags.number("seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
        scale_div: 1,
        scratch: scratch.0.clone(),
        rounds: flags.number("rounds")?,
    };
    let outcome = if traced {
        measure::measure_traced(&options)?
    } else {
        measure::measure(&options)?
    };
    report::print_text(&outcome);
    if let Some(path) = flags.get("out") {
        report::write_result(&outcome, &scratch.0, Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let (Some(path), Some(trace)) = (flags.get("trace-out"), &outcome.trace) {
        trace
            .write_jsonl(Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report::json_line(&outcome, traced));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or("no subcommand")?;
    match command.as_str() {
        "run" => run(rest, false),
        "trace" => run(rest, true),
        "list" => {
            if rest.first().map(String::as_str) == Some("--json") {
                print!("{}", catalog::benchmark_json(RUN_SECONDS));
            } else {
                catalog::print_list();
            }
            Ok(ExitCode::SUCCESS)
        }
        "selfcheck" => {
            let flags = Flags::parse(rest, &["scratch"])?;
            let scratch = Scratch::new(flags.get("scratch"));
            selfcheck::selfcheck(&scratch.0)?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let split = rest
                .iter()
                .position(|arg| arg == "--")
                .ok_or("compare needs `A… -- B…`")?;
            let worse = compare::compare(&rest[..split], &rest[split + 1..])?;
            Ok(if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("svc_bench: {message}");
            eprintln!("usage: svc_bench run|trace|list|selfcheck|compare …  (see README.md)");
            ExitCode::from(2)
        }
    }
}
