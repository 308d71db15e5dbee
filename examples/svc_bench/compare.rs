//! `svc_bench compare A… -- B…`: result files of two sides, grouped by
//! workload × metric, with medians, quartiles and a verdict by the bounds of
//! the catalogue.
//!
//! The protocol the verdicts assume (choosing-metrics guide, section 8; not
//! automated here): build each commit once into its own target directory,
//! then run at least ten pairs, alternating which side goes first —
//!
//! ```text
//! for i in 1..=10:  if i is odd { run A; run B } else { run B; run A }
//!                   with  --workload W --seed i --out {A,B}/W.i.txt
//! ```
//!
//! — so drift of the host hits both sides alike, and list the files in pair
//! order on both sides of `--`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalog::{self, Better};
use crate::measure::median;
use crate::report;

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * fraction
    };
    Some([at(1), at(2), at(3)])
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(files: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for file in files {
        let result = report::read_result(Path::new(file))?;
        for (metric, value) in result.metrics {
            samples
                .entry((result.workload.clone(), metric))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Unchanged,
    Worse,
    Better,
    Unresolved,
    /// No bound in the catalogue (per-layer metrics): reported, not judged.
    Info,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Judges side B against side A.
///
/// * *worse*: B's median is worse than A's by more than the bound;
/// * *unresolved*: either side's own spread (interquartile range / median)
///   is wider than the bound, unless every B run beats every A run;
/// * *better*: B wins at least nine tenths of the pairs and the medians
///   differ by more than A's own interquartile range;
/// * *unchanged* otherwise.
fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a.to_vec()), median(b.to_vec()));
    if med_a == 0.0 {
        return if med_b == 0.0 || (better == Better::Higher) == (med_b > 0.0) {
            Verdict::Unchanged
        } else {
            Verdict::Worse
        };
    }
    let beats = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    // Positive when B is worse.
    let worse_by = match better {
        Better::Higher => (med_a - med_b) / med_a,
        Better::Lower => (med_b - med_a) / med_a,
    };
    let spread = |values: &[f64]| {
        quartiles(values).map_or(
            0.0,
            |[q1, q2, q3]| if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 },
        )
    };
    let sweep = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if spread(a) > bound || spread(b) > bound {
        return if sweep {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| beats(y, x)).count();
    let decided = a.iter().zip(b).filter(|(x, y)| x != y).count();
    if pairs >= 2 && wins * 10 >= decided.max(1) * 9 && decided > 0 && -worse_by > spread(a) {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// Prints the comparison; returns whether any metric is *worse*.
pub fn compare(side_a: &[String], side_b: &[String]) -> Result<bool, String> {
    let a = load(side_a)?;
    let b = load(side_b)?;
    let mut any_worse = false;
    println!(
        "{:<12} {:<38} {:>14} {:>14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A"
    );
    for ((workload, metric), values_a) in &a {
        let Some(values_b) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let spec = catalog::spec(metric);
        let verdict = match spec.and_then(|s| s.bound.map(|bound| (s.better, bound))) {
            Some((better, bound)) => judge(values_a, values_b, better, bound),
            None => Verdict::Info,
        };
        any_worse |= verdict == Verdict::Worse;
        let (med_a, med_b) = (median(values_a.clone()), median(values_b.clone()));
        let range = |values: &[f64]| {
            quartiles(values).map_or_else(
                || "n<2".to_owned(),
                |[q1, _, q3]| format!("{:.4}", if med_a == 0.0 { 0.0 } else { (q3 - q1) / med_a }),
            )
        };
        let change = if med_a == 0.0 {
            "-".to_owned()
        } else {
            format!("{:+.2}%", (med_b - med_a) / med_a * 100.0)
        };
        println!(
            "{:<12} {:<38} {:>14.4} {:>14} {:>14.4} {:>14} {:>8}  {}",
            workload,
            metric,
            med_a,
            range(values_a),
            med_b,
            range(values_b),
            change,
            verdict.word()
        );
    }
    println!(
        "\nq1..q3 is the interquartile range as a share of A's median; `B vs A` is the change \
         of the median.  Bounds and directions: `svc_bench list`."
    );
    Ok(any_worse)
}
