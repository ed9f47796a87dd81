//! Inequality denial constraints at scale: the TaxB/φ2 workload.
//!
//! The DC `¬(t1.salary > t2.salary ∧ t1.rate < t2.rate)` cannot be
//! blocked on equality, so the planner routes candidate generation to
//! OCJoin (§4.3): range partition on salary, sort, prune partition pairs
//! by min/max, and merge-join the survivors. This example shows the
//! plan choice, the pruning metrics, and a hypergraph-algorithm repair.
//!
//! Run with: `cargo run --release --example tax_audit`

use bigdansing::{BigDansing, CleanseOptions, HypergraphRepair, IterateStrategy, RepairStrategy};
use bigdansing_datagen::tax;
use bigdansing_plan::physical::choose_strategy;
use bigdansing_rules::DcRule;
use std::sync::Arc;

fn main() {
    // TaxB: clean tax records with a monotone salary→rate schedule,
    // then 10% numeric noise on the rate column
    let gt = tax::taxb(4_000, 0.10, 42);
    println!(
        "TaxB: {} rows, {} rate cells perturbed",
        gt.dirty.len(),
        gt.error_count()
    );

    let dc = DcRule::parse(
        "t1.salary > t2.salary & t1.rate < t2.rate",
        gt.dirty.schema(),
    )
    .unwrap();

    // the planner's enhancer selection (§4.2)
    match choose_strategy(&dc, None) {
        IterateStrategy::OcJoin(conds) => {
            println!("planner: OCJoin with {} ordering conditions", conds.len())
        }
        other => println!("planner: {other:?}"),
    }

    let mut sys = BigDansing::parallel(4);
    sys.add_rule(Arc::new(dc));

    let report = sys.detect(&gt.dirty).unwrap();
    let m = sys.engine().metrics().snapshot();
    println!(
        "detected {} violating pairs; OCJoin pruned {} of {} partition pairs",
        report.violation_count(),
        m.partitions_pruned,
        m.partitions_pruned + m.partitions_joined,
    );

    // repair with the hypergraph algorithm: inequality fixes move the
    // offending cell to the violated bound
    let options = CleanseOptions {
        strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
        max_iterations: 3,
        ..Default::default()
    };
    let result = sys.cleanse(&gt.dirty, options).expect("cleanse runs");
    let before = gt.mean_numeric_distance(&gt.dirty, tax::attr::RATE);
    let after = gt.mean_numeric_distance(&result.table, tax::attr::RATE);
    println!(
        "repair: {} iterations, {} cells changed; mean |rate − truth| {:.2} → {:.2}",
        result.iterations, result.cells_changed, before, after
    );
    let remaining = sys.detect(&result.table).unwrap().violation_count();
    println!("remaining violations: {remaining} (0 = converged; >0 = unfixable residue per §2.2)");
}
