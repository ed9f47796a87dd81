//! Repair-strategy selection and the repair round, shared by the batch
//! cleanse loop and the incremental session.
//!
//! The strategy names the paper's two distribution routes (§5.1 black
//! box per connected component, §5.2 native equivalence classes) plus
//! the centralized baseline; [`run_repair`] dispatches one repair over
//! a violation set accordingly, and [`repair_round`] turns its
//! assignment into the updates a cleanse loop applies.

use crate::blackbox::RepairOptions;
use crate::dist_equivalence::repair_distributed_equivalence;
use crate::{repair_parallel, repair_serial, Assignment, Detected};
use crate::{EquivalenceClassRepair, RepairAlgorithm};
use bigdansing_common::error::Result;
use bigdansing_common::{Cell, Value};
use bigdansing_dataflow::Engine;
use std::collections::HashMap;
use std::sync::Arc;

/// How repairs are computed each iteration.
#[derive(Clone)]
pub enum RepairStrategy {
    /// §5.1: run a centralized algorithm per connected component, in
    /// parallel (the default, with the equivalence-class algorithm).
    ParallelBlackBox(Arc<dyn RepairAlgorithm>),
    /// The centralized baseline: one instance over all violations.
    SerialBlackBox(Arc<dyn RepairAlgorithm>),
    /// §5.2: the natively distributed equivalence-class algorithm
    /// (two map-reduce rounds).
    DistributedEquivalence,
}

impl Default for RepairStrategy {
    fn default() -> Self {
        RepairStrategy::ParallelBlackBox(Arc::new(EquivalenceClassRepair))
    }
}

impl std::fmt::Debug for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairStrategy::ParallelBlackBox(a) => write!(f, "ParallelBlackBox({})", a.name()),
            RepairStrategy::SerialBlackBox(a) => write!(f, "SerialBlackBox({})", a.name()),
            RepairStrategy::DistributedEquivalence => write!(f, "DistributedEquivalence"),
        }
    }
}

/// Run one repair round over `detected` with the chosen strategy.
pub fn run_repair(
    engine: &Engine,
    detected: &[Detected],
    strategy: &RepairStrategy,
    options: RepairOptions,
) -> Result<Assignment> {
    match strategy {
        RepairStrategy::ParallelBlackBox(algo) => {
            repair_parallel(engine, detected, algo.as_ref(), options)
        }
        RepairStrategy::SerialBlackBox(algo) => Ok(repair_serial(detected, algo.as_ref())),
        RepairStrategy::DistributedEquivalence => repair_distributed_equivalence(engine, detected),
    }
}

/// The cleanse loop's termination rule (§2.2: "the algorithm puts a
/// special variable on such units after a fixed number of
/// iterations"): a per-cell change counter. A cell updated `limit`
/// times is frozen and takes no further updates.
#[derive(Debug, Clone)]
pub struct FreezeCounter {
    limit: usize,
    changes: HashMap<Cell, usize>,
}

impl FreezeCounter {
    /// A counter freezing cells after `limit` updates.
    pub fn new(limit: usize) -> FreezeCounter {
        FreezeCounter {
            limit,
            changes: HashMap::new(),
        }
    }
}

/// The updates one repair round applies.
#[derive(Debug, Default)]
pub struct RepairRound {
    /// Cell updates that passed the freeze counter and change a value.
    pub updates: Assignment,
    /// Σ distance(old, new) over `updates` (§2.1's repair cost).
    pub cost: f64,
    /// Cells that reached the freeze limit this round.
    pub frozen: usize,
    /// True when the freeze counter withheld an update this round.
    pub withheld: bool,
}

/// One repair round of the detect ⇄ repair loop: repair `detected`
/// with `strategy`, drop updates to frozen cells and updates that would
/// leave the cell's current value (`value_of`) unchanged, count the
/// rest against `freeze`, and sum their cost.
pub fn repair_round<'t>(
    engine: &Engine,
    detected: &[Detected],
    strategy: &RepairStrategy,
    options: RepairOptions,
    freeze: &mut FreezeCounter,
    value_of: impl Fn(Cell) -> Option<&'t Value>,
) -> Result<RepairRound> {
    let mut round = RepairRound::default();
    for (cell, value) in run_repair(engine, detected, strategy, options)? {
        let count = freeze.changes.entry(cell).or_insert(0);
        if *count >= freeze.limit {
            round.withheld = true;
            continue;
        }
        let old = value_of(cell);
        if old == Some(&value) {
            continue;
        }
        *count += 1;
        if *count == freeze.limit {
            round.frozen += 1;
        }
        if let Some(old) = old {
            round.cost += old.distance(&value);
        }
        round.updates.insert(cell, value);
    }
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{Cell, Value};
    use bigdansing_rules::{Fix, Violation};

    fn one_violation() -> Vec<Detected> {
        let ca = Cell::new(1, 0);
        let cb = Cell::new(2, 0);
        let mut v = Violation::new("fd");
        v.add_cell(ca, Value::str("A"));
        v.add_cell(cb, Value::str("B"));
        vec![(
            v,
            vec![Fix::assign_cell(ca, Value::str("A"), cb, Value::str("B"))],
        )]
    }

    #[test]
    fn all_strategies_dispatch() {
        let engine = Engine::parallel(2);
        let detected = one_violation();
        for strategy in [
            RepairStrategy::default(),
            RepairStrategy::SerialBlackBox(Arc::new(EquivalenceClassRepair)),
            RepairStrategy::DistributedEquivalence,
        ] {
            let a = run_repair(&engine, &detected, &strategy, RepairOptions::default()).unwrap();
            assert!(!a.is_empty(), "{strategy:?} produced no assignment");
        }
    }

    #[test]
    fn debug_names_the_algorithm() {
        let s = format!("{:?}", RepairStrategy::default());
        assert!(s.contains("ParallelBlackBox"));
    }
}
