//! `svc_bench selfcheck`: the instrument checks itself.
//!
//! Every workload runs twice at 1/20 scale (one untraced + one traced round
//! each).  Each run is checked against its sequential reference and the
//! ladder as always; on top, with `workers: 1` the decision digest and every
//! count the benchmark calls exact must repeat between the two runs, the
//! three workloads sharing the hot stream must share a digest, and the
//! histogram and quartile arithmetic is checked against sorted vectors.

use std::path::Path;

use crate::catalog::{self, Kind};
use crate::compare::quartiles;
use crate::hist;
use crate::measure::{self, Options, Outcome};
use crate::workload::{Plan, Workload, WORKLOADS};

const SCALE_DIV: usize = 20;

/// Metrics that must read exactly the same on two runs of one seed at
/// `workers: 1`.
const EXACT: &[&str] = &[
    "cq.intern.distinct_shapes",
    "core.label.hits",
    "core.label.misses",
    "core.label.query_refreshes",
    "core.label.atom_refreshes",
    "core.label.batch_dedup_hits",
    "core.label.entries",
    "durability.wal.commits",
    "durability.wal.fsyncs",
    "durability.wal.appends",
    "durability.wal.records_per_commit",
    "durability.wal.bytes_per_record",
    "service.checkpoint.bytes",
    "service.recover.records_replayed",
    "disk_bytes_per_op",
    "policy.allow_share",
];

fn check_catalog() -> Result<(), String> {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = catalog::METRICS.iter().map(|m| m.name).collect();
    names.extend(WORKLOADS.iter().map(|w| w.name()));
    for name in &names {
        if !name_ok(name) {
            return Err(format!("`{name}` is not a valid BENCHMARK.json name"));
        }
    }
    names.sort_unstable();
    if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(format!("the name `{}` is used twice", pair[0]));
    }
    for m in catalog::METRICS {
        let unit_ok = !m.unit.is_empty()
            && m.unit.len() <= 16
            && m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        if !unit_ok {
            return Err(format!("unit `{}` of {} is not valid", m.unit, m.name));
        }
        if m.kind == Kind::EndToEnd && !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            return Err(format!("{} needs a bound in (0, 0.25]", m.name));
        }
    }
    for workload in WORKLOADS {
        if workload.why().len() > 200 || workload.why().contains('\n') {
            return Err(format!(
                "the why of {} is not one line of at most 200 characters",
                workload.name()
            ));
        }
    }
    Ok(())
}

fn value(outcome: &Outcome, name: &str) -> Option<f64> {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
}

fn meta<'a>(outcome: &'a Outcome, key: &str) -> &'a str {
    outcome
        .meta
        .iter()
        .find(|(k, _)| *k == key)
        .map_or("", |(_, v)| v.as_str())
}

pub fn selfcheck(scratch: &Path) -> Result<(), String> {
    hist::selfcheck()?;
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    if quartiles(&ten) != Some([2.75, 5.5, 8.25]) {
        return Err("quartiles disagree with Python's statistics.quantiles".into());
    }
    check_catalog()?;
    println!("histogram, quartiles and catalogue: ok");

    let mut hot_digest: Option<String> = None;
    for workload in WORKLOADS {
        let plan = match Plan::new(workload, SCALE_DIV) {
            Ok(plan) => plan,
            Err(reason) => {
                println!("{:<12} skipped: {reason}", workload.name());
                continue;
            }
        };
        let options = Options {
            workload,
            seed: 7,
            seconds: 0.0,
            scale_div: SCALE_DIV,
            scratch: scratch.to_path_buf(),
            rounds: Some(1),
        };
        let first = measure::measure_traced(&options)?;
        let second = measure::measure_traced(&options)?;
        for outcome in [&first, &second] {
            if !outcome.correct {
                return Err(format!(
                    "{}: {}",
                    workload.name(),
                    outcome.failure.as_deref().unwrap_or("operations failed")
                ));
            }
        }
        let digest = meta(&first, "reference_digest").to_owned();
        if digest != meta(&second, "reference_digest") {
            return Err(format!(
                "{}: the reference digest does not repeat",
                workload.name()
            ));
        }
        if matches!(
            workload,
            Workload::HotInline | Workload::HotPooled | Workload::Durable
        ) {
            match &hot_digest {
                None => hot_digest = Some(digest.clone()),
                Some(hot) if *hot != digest => {
                    return Err(format!(
                        "{} answers the hot stream differently from hot_inline",
                        workload.name()
                    ));
                }
                Some(_) => {}
            }
        }
        if plan.workers == 1 {
            for name in EXACT {
                if value(&first, name) != value(&second, name) {
                    return Err(format!(
                        "{}: {name} read {:?} then {:?}; it must repeat exactly",
                        workload.name(),
                        value(&first, name),
                        value(&second, name)
                    ));
                }
            }
        }
        println!(
            "{:<12} ok: {} ops checked twice against the reference and the ladder; {digest}",
            workload.name(),
            first.attempted
        );
    }
    println!("selfcheck passed");
    Ok(())
}
