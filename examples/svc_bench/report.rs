//! What a run prints and writes: one `name value unit n=<samples>` line per
//! metric, the driver's JSON result line, and the result file `compare`
//! reads back.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;

use crate::catalog::{self, Kind};
use crate::measure::Outcome;

fn unit_of(name: &str) -> &'static str {
    catalog::spec(name).map_or("?", |spec| spec.unit)
}

/// The metric lines, in catalogue order.
fn metric_lines(outcome: &Outcome) -> Vec<String> {
    catalog::METRICS
        .iter()
        .filter_map(|spec| outcome.metrics.iter().find(|m| m.name == spec.name))
        .map(|m| format!("{} {} {} n={}", m.name, m.value, unit_of(m.name), m.n))
        .collect()
}

pub fn print_text(outcome: &Outcome) {
    for (key, value) in &outcome.meta {
        println!("# {key}: {value}");
    }
    for note in &outcome.round_notes {
        println!("# {note}");
    }
    for line in metric_lines(outcome) {
        println!("{line}");
    }
    if let Some(failure) = &outcome.failure {
        println!("# FAILED: {failure}");
    }
}

/// The driver's result line: every `end_to_end` metric of `BENCHMARK.json`
/// for an untraced run, every `per_layer` metric for a traced one (0 where
/// the workload does not exercise the layer).
pub fn json_line(outcome: &Outcome, traced: bool) -> String {
    let entries: Vec<String> = catalog::METRICS
        .iter()
        .filter(|spec| match spec.kind {
            Kind::EndToEnd => !traced,
            Kind::PerLayer | Kind::EndToEndDurable => traced,
            Kind::TextOnly => false,
        })
        .map(|spec| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == spec.name)
                .map_or(0.0, |m| m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name, value, spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        entries.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The filesystem type `path` lives on, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = fs::canonicalize(path) else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    // `<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> ...`
    mounts
        .lines()
        .filter_map(|line| {
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fstype = tail.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}

/// Writes the result file: run and host facts as `meta` lines, then the
/// metric lines.
pub fn write_result(outcome: &Outcome, scratch: &Path, path: &Path) -> io::Result<()> {
    let mut text = String::from("svc_bench result v1\n");
    for (key, value) in &outcome.meta {
        text.push_str(&format!("meta {key} {value}\n"));
    }
    text.push_str(&format!(
        "meta rustc {}\n",
        command_line("rustc", &["--version"])
    ));
    text.push_str(&format!(
        "meta git_commit {}\n",
        command_line("git", &["rev-parse", "HEAD"])
    ));
    text.push_str(&format!("meta scratch {}\n", scratch.display()));
    text.push_str(&format!("meta scratch_fs {}\n", filesystem_of(scratch)));
    text.push_str(&format!(
        "meta correct {} attempted {} failed {}\n",
        outcome.correct, outcome.attempted, outcome.failed
    ));
    for line in metric_lines(outcome) {
        text.push_str(&format!("metric {line}\n"));
    }
    fs::write(path, text)
}

/// A result file read back: its workload and metric values.
pub struct ResultFile {
    pub workload: String,
    pub metrics: BTreeMap<String, f64>,
}

pub fn read_result(path: &Path) -> Result<ResultFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut workload = None;
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let mut words = line.split(' ');
        match words.next() {
            Some("meta") if words.next() == Some("workload") => {
                workload = words.next().map(str::to_owned);
            }
            Some("metric") => {
                let (Some(name), Some(value)) = (words.next(), words.next()) else {
                    return Err(format!("{}: malformed line `{line}`", path.display()));
                };
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("{}: `{value}` is not a number", path.display()))?;
                metrics.insert(name.to_owned(), value);
            }
            _ => {}
        }
    }
    Ok(ResultFile {
        workload: workload.ok_or_else(|| format!("{}: no workload line", path.display()))?,
        metrics,
    })
}
