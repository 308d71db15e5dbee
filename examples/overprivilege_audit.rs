//! Overprivilege auditing (Section 2.2): detect apps that request more
//! permissions than their observed workload needs.
//!
//! Two apps run against the Facebook-like evaluation ecosystem.  A birthday
//! calendar app requests the birthday, location and likes permissions but
//! only ever asks for birthdays; the audit flags the two unused permissions.
//! A photo browser requests only photo metadata but also tries to read full
//! user profiles; the audit flags the uncovered queries instead.
//!
//! The third section runs the audit as a *live service operation*: a
//! [`DisclosureService`] serves a generated workload (Section 7.2 queries
//! with light permission churn), records each app's observed queries, and
//! `AuditApp` compares them against the app's current policy — requested
//! permissions derived live, including grants applied mid-stream.
//!
//! Run with `cargo run --example overprivilege_audit`.

use fdc::cq::parser::parse_query;
use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc::policy::{audit_app, PrincipalId};
use fdc::service::{Operation, Response, ServiceConfig};

fn main() {
    let eco = Ecosystem::new();
    let catalog = &eco.schema.catalog;
    let views = &eco.views;

    // Shorthand: the full 34-column User atom with only uid + birthday exposed.
    let birthday_query = parse_query(
        catalog,
        "Q(u, b) :- User(u, n, fn, mn, ln, g, lo, la, un, tp, tz, ut, v, bio, b, d, e, em, h, ii, \
         loc, p, fa, ft, pic, pu, q, rs, r, so, w, wo, ia, fr)",
    )
    .unwrap();
    let photo_meta_query =
        parse_query(catalog, "Q(u, pid) :- Photo(pid, u, aid, c, pl, ct, l, fr)").unwrap();
    let full_profile_query = parse_query(
        catalog,
        "Q(u, n, em) :- User(u, n, fn, mn, ln, g, lo, la, un, tp, tz, ut, v, bio, b, d, e, em, h, \
         ii, loc, p, fa, ft, pic, pu, q, rs, r, so, w, wo, ia, fr)",
    )
    .unwrap();

    let id = |name: &str| {
        views
            .id_by_name(name)
            .unwrap_or_else(|| panic!("view {name}"))
    };

    // --- App 1: a birthday calendar that asks for too much -----------------
    let requested = [id("user_birthday"), id("user_location"), id("user_likes")];
    let workload = vec![birthday_query.clone()];
    let report = audit_app(&eco.bitvec, requested, &workload);
    println!("birthday-calendar app:");
    println!("{}", indent(&report.describe(views)));
    println!(
        "  verdict: {}\n",
        if report.is_overprivileged() {
            "OVERPRIVILEGED — drop the unused permissions"
        } else {
            "tight"
        }
    );

    // --- App 2: a photo browser that asks for too little --------------------
    let requested = [id("photo_meta"), id("photo_presence")];
    let workload = vec![photo_meta_query, full_profile_query];
    let report = audit_app(&eco.bitvec, requested, &workload);
    println!("photo-browser app:");
    println!("{}", indent(&report.describe(views)));
    println!(
        "  verdict: {}",
        if report.uncovered_queries.is_empty() {
            "tight".to_owned()
        } else {
            format!(
                "UNDERPRIVILEGED — {} quer{} cannot be answered with the requested permissions",
                report.uncovered_queries.len(),
                if report.uncovered_queries.len() == 1 {
                    "y"
                } else {
                    "ies"
                }
            )
        }
    );

    // --- Live service: AuditApp over a generated workload -------------------
    let num_apps = 12;
    let mut service = eco.disclosure_service(
        PolicyGeneratorConfig {
            max_partitions: 1,
            max_elements_per_partition: 12,
            template_pool: 0,
            seed: 0xA0D17,
        },
        num_apps,
        ServiceConfig::default(),
    );
    let mut churn = eco.churn(ChurnConfig {
        mutation_ratio: 0.02,
        add_view_share: 0.0,
        query_pool: 64,
        num_principals: num_apps,
        seed: 0xA0D17,
        workload: WorkloadConfig::base(0xA0D18),
        ..ChurnConfig::default()
    });
    service.run_pipelined(&churn.ops(3_000));

    println!("\nservice-driven audit of {num_apps} apps over a generated workload:");
    let mut overprivileged = 0;
    for app in 0..num_apps {
        let principal = PrincipalId(app as u32);
        let Response::Audit(report) = service.apply(&Operation::AuditApp { principal }) else {
            panic!("audit of app {app} failed");
        };
        if report.is_overprivileged() {
            overprivileged += 1;
        }
        println!(
            "  app {app:>2}: requested {:>2}, used {:>2}, unused {:>2}, uncovered queries {:>3}{}",
            report.requested.len(),
            report.used.len(),
            report.unused.len(),
            report.uncovered_queries.len(),
            if report.is_overprivileged() {
                "  ← OVERPRIVILEGED"
            } else {
                ""
            }
        );
    }
    println!(
        "  {overprivileged}/{num_apps} apps request permissions their observed workload never needed"
    );
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
