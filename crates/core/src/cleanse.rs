//! The iterative detect ⇄ repair loop (§2.2 of the paper).
//!
//! "An iterative process terminates if there are no more violations or
//! there are only violations with no corresponding possible fixes. The
//! repair step may introduce new violations … to ensure termination, the
//! algorithm puts a special variable on such units after a fixed number
//! of iterations" — here a per-cell change counter; cells that exceed it
//! are *frozen* and excluded from further updates.

use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, Result, Table};
use bigdansing_dataflow::bulkhead::{Bulkhead, RuleGuard};
use bigdansing_plan::physical::pipeline_for_rule;
use bigdansing_plan::{DetectOutput, Executor};
use bigdansing_repair::{repair_round, FreezeCounter};
use bigdansing_rules::Rule;
use std::sync::Arc;

// The options and strategy selection live in the crates below this one
// so the incremental session (which cannot depend on this crate) shares
// them exactly; re-exported here for source compatibility.
pub use bigdansing_incremental::{validate_lsh_override, CleanseOptions};
pub use bigdansing_repair::RepairStrategy;

/// One rule's health at the end of a cleansing run.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleHealth {
    /// Every pass completed, nothing skipped.
    Completed,
    /// The rule ran but some passes failed (below the breaker
    /// threshold) or the straggler guard skipped candidate units.
    Degraded {
        /// Candidate units skipped by the outlier-block guard.
        units_skipped: u64,
    },
    /// The rule's circuit breaker opened; its detection was abandoned
    /// for the rest of the job and it contributed no violations after
    /// the trip.
    Quarantined {
        /// The failure that opened the breaker.
        cause: String,
    },
}

/// Per-rule health and the job-level completeness fraction a
/// best-effort cleanse delivers alongside the repaired table.
#[derive(Debug, Clone, Default)]
pub struct CleanseOutcome {
    /// `(rule name, health)` in registration order.
    pub rules: Vec<(String, RuleHealth)>,
    /// Fraction in `[0, 1]` of the job's detection work that actually
    /// ran: each rule scores `(successful rounds / attempted rounds) ×
    /// (units processed / units enumerated)`, quarantined rules score
    /// 0, and the job's fraction is the mean over rules. `1.0` means a
    /// complete, undegraded cleanse.
    pub completeness: f64,
}

impl CleanseOutcome {
    /// True when any rule ended degraded or quarantined.
    pub fn is_degraded(&self) -> bool {
        self.rules
            .iter()
            .any(|(_, h)| !matches!(h, RuleHealth::Completed))
    }

    /// The quarantined rules, with the failure that tripped each one.
    pub fn quarantined(&self) -> impl Iterator<Item = (&str, &str)> {
        self.rules.iter().filter_map(|(name, h)| match h {
            RuleHealth::Quarantined { cause } => Some((name.as_str(), cause.as_str())),
            _ => None,
        })
    }
}

/// The outcome of a cleansing run.
#[derive(Debug, Clone)]
pub struct CleanseResult {
    /// The repaired table.
    pub table: Table,
    /// Detect ⇄ repair iterations executed.
    pub iterations: usize,
    /// Violations seen across all iterations.
    pub total_violations: usize,
    /// Distinct cell updates applied.
    pub cells_changed: usize,
    /// Cells frozen by the termination rule.
    pub frozen_cells: usize,
    /// Σ distance(old, new) over all applied updates (§2.1 cost).
    pub repair_cost: f64,
    /// True when the final table has no violations (false when the loop
    /// stopped on unfixable violations or the iteration cap).
    pub converged: bool,
    /// Per-rule health and completeness. A strict-mode success is
    /// always fully complete; a partial-mode run reports which rules
    /// degraded or were quarantined.
    pub outcome: CleanseOutcome,
}

/// Book-keeping for one rule across a job's detect rounds.
struct RuleTracker {
    name: String,
    units_processed: u64,
    units_skipped: u64,
    rounds_ok: u32,
    rounds_failed: u32,
}

/// One isolation-aware detect round: a shared scan, then every
/// non-quarantined rule's pipeline under its own [`RuleGuard`]. In
/// partial mode a failing rule is counted against its breaker and
/// contributes nothing this round; strict mode propagates the first
/// failure. Cancellation and admission errors always propagate — they
/// are about the job, not a rule.
fn detect_round(
    executor: &Executor,
    table: &Table,
    rules: &[Arc<dyn Rule>],
    options: &CleanseOptions,
    bulkhead: &Bulkhead,
    trackers: &mut [RuleTracker],
) -> Result<DetectOutput> {
    let iso = &options.isolation;
    let metrics = executor.engine().metrics().clone();
    let data = executor.load(table);
    let mut out = DetectOutput::default();
    for (i, rule) in rules.iter().enumerate() {
        executor.engine().check_cancelled()?;
        let name = rule.name().to_string();
        if !bulkhead.admit(&name) {
            continue;
        }
        let pipeline = pipeline_for_rule(Arc::clone(rule), table.name(), options.lsh);
        let guard = RuleGuard::arm(&name, iso);
        let run = executor.run_pipeline_guarded(data.try_duplicate()?, &pipeline, Some(&guard));
        trackers[i].units_processed += guard.units_processed();
        trackers[i].units_skipped += guard.units_skipped();
        Metrics::add(&metrics.units_skipped, guard.units_skipped());
        match run {
            Ok(o) => {
                trackers[i].rounds_ok += 1;
                bulkhead.record_success(&name);
                out.extend(o);
            }
            Err(e @ Error::Cancelled { .. }) | Err(e @ Error::Rejected { .. }) => return Err(e),
            Err(e) => {
                if !iso.is_partial() {
                    return Err(e);
                }
                trackers[i].rounds_failed += 1;
                bulkhead.record_failure(&name, e.class(), &e.to_string());
            }
        }
    }
    Ok(out)
}

/// Summarize tracker + breaker state into the per-rule health report
/// and the job completeness fraction.
fn health_report(bulkhead: &Bulkhead, trackers: &[RuleTracker]) -> CleanseOutcome {
    let mut rules = Vec::with_capacity(trackers.len());
    let mut score_sum = 0.0f64;
    for t in trackers {
        let (health, score) = if let Some(cause) = bulkhead.quarantine_cause(&t.name) {
            (RuleHealth::Quarantined { cause }, 0.0)
        } else if t.units_skipped > 0 || t.rounds_failed > 0 {
            let attempted = (t.rounds_ok + t.rounds_failed).max(1) as f64;
            let enumerated = t.units_processed + t.units_skipped;
            let unit_fraction = if enumerated > 0 {
                t.units_processed as f64 / enumerated as f64
            } else {
                1.0
            };
            (
                RuleHealth::Degraded {
                    units_skipped: t.units_skipped,
                },
                (t.rounds_ok as f64 / attempted) * unit_fraction,
            )
        } else {
            (RuleHealth::Completed, 1.0)
        };
        score_sum += score;
        rules.push((t.name.clone(), health));
    }
    let completeness = if trackers.is_empty() {
        1.0
    } else {
        score_sum / trackers.len() as f64
    };
    CleanseOutcome {
        rules,
        completeness,
    }
}

/// Run the full cleansing process over `table`.
///
/// With [`IsolationOptions::partial`] in the options, rule faults
/// degrade the result instead of failing it: each rule's detection runs
/// under its own circuit breaker and guard, a quarantined rule's
/// violations are excluded from repair, and the returned
/// [`CleanseResult::outcome`] attributes what was lost to which rule.
///
/// [`IsolationOptions::partial`]: bigdansing_dataflow::IsolationOptions::partial
pub fn cleanse_loop(
    executor: &Executor,
    rules: &[Arc<dyn Rule>],
    table: &Table,
    options: CleanseOptions,
) -> Result<CleanseResult> {
    if rules.is_empty() {
        return Err(Error::Repair("no rules registered".into()));
    }
    validate_lsh_override(&options, rules)?;
    let bulkhead = Bulkhead::new(
        options.isolation.breaker,
        options.isolation.mode,
        executor.engine().metrics().clone(),
    );
    let mut trackers: Vec<RuleTracker> = rules
        .iter()
        .map(|r| RuleTracker {
            name: r.name().to_string(),
            units_processed: 0,
            units_skipped: 0,
            rounds_ok: 0,
            rounds_failed: 0,
        })
        .collect();
    let mut current = table.clone();
    let mut freeze = FreezeCounter::new(options.max_changes_per_cell);
    let mut result = CleanseResult {
        table: current.clone(),
        iterations: 0,
        total_violations: 0,
        cells_changed: 0,
        frozen_cells: 0,
        repair_cost: 0.0,
        converged: false,
        outcome: CleanseOutcome::default(),
    };
    for _ in 0..options.max_iterations.max(1) {
        // a deadline/cancellation that trips mid-repair is honoured at
        // the next iteration boundary
        executor.engine().check_cancelled()?;
        let detected = detect_round(
            executor,
            &current,
            rules,
            &options,
            &bulkhead,
            &mut trackers,
        )?;
        if detected.is_clean() {
            result.converged = true;
            break;
        }
        result.iterations += 1;
        result.total_violations += detected.violation_count();

        let round = repair_round(
            executor.engine(),
            &detected.detected,
            &options.strategy,
            options.repair_options,
            &mut freeze,
            |cell| current.cell_value(cell),
        )?;
        result.frozen_cells += round.frozen;
        if round.updates.is_empty() {
            // only violations with no (applicable) fixes remain: the
            // paper's second termination condition
            break;
        }
        result.repair_cost += round.cost;
        result.cells_changed += round.updates.len();
        current = current.apply(&round.updates)?;
    }
    if !result.converged {
        result.converged = detect_round(
            executor,
            &current,
            rules,
            &options,
            &bulkhead,
            &mut trackers,
        )?
        .is_clean();
    }
    result.table = current;
    result.outcome = health_report(&bulkhead, &trackers);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{LshParams, Schema, Value};
    use bigdansing_dataflow::bulkhead::IsolationOptions;
    use bigdansing_dataflow::Engine;
    use bigdansing_repair::{EquivalenceClassRepair, HypergraphRepair};
    use bigdansing_rules::{DcRule, DedupRule, FdRule, UdfRule, UnitKind};
    use std::collections::HashMap;

    fn fd_table() -> Table {
        let schema = Schema::parse("zipcode,city");
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(1), Value::str("SF")],
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        )
    }

    fn fd_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
        vec![Arc::new(FdRule::parse("zipcode -> city", schema).unwrap())]
    }

    #[test]
    fn fd_cleansing_converges_in_one_iteration() {
        let t = fd_table();
        let exec = Executor::new(Engine::parallel(2));
        let rules = fd_rules(t.schema());
        let res = cleanse_loop(&exec, &rules, &t, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 1);
        assert_eq!(res.cells_changed, 1);
        assert!(res.repair_cost > 0.0);
        assert!(exec.detect(&res.table, &rules).unwrap().is_clean());
    }

    #[test]
    fn all_strategies_clean_the_fd_table() {
        let t = fd_table();
        let exec = Executor::new(Engine::parallel(2));
        let rules = fd_rules(t.schema());
        for strategy in [
            RepairStrategy::ParallelBlackBox(Arc::new(EquivalenceClassRepair)),
            RepairStrategy::SerialBlackBox(Arc::new(EquivalenceClassRepair)),
            RepairStrategy::DistributedEquivalence,
        ] {
            let res = cleanse_loop(
                &exec,
                &rules,
                &t,
                CleanseOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(res.converged, "strategy failed");
            assert!(exec.detect(&res.table, &rules).unwrap().is_clean());
        }
    }

    #[test]
    fn dc_cleansing_with_hypergraph_repair() {
        let schema = Schema::parse("salary,rate");
        let t = Table::from_rows(
            "tax",
            schema.clone(),
            vec![
                vec![Value::Int(100), Value::Int(30)],
                vec![Value::Int(200), Value::Int(10)],
                vec![Value::Int(300), Value::Int(40)],
            ],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", &schema).unwrap(),
        )];
        let exec = Executor::new(Engine::parallel(2));
        let res = cleanse_loop(
            &exec,
            &rules,
            &t,
            CleanseOptions {
                strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.converged, "DC repair did not converge: {res:?}");
        assert!(exec.detect(&res.table, &rules).unwrap().is_clean());
    }

    #[test]
    fn no_rules_is_an_error() {
        let t = fd_table();
        let exec = Executor::new(Engine::sequential());
        assert!(cleanse_loop(&exec, &[], &t, CleanseOptions::default()).is_err());
    }

    /// The job-level LSH geometry override only makes sense for
    /// similarity rules: a rule set without one rejects it up front
    /// with an actionable error instead of silently ignoring it.
    #[test]
    fn lsh_override_requires_a_similarity_rule() {
        let t = fd_table();
        let exec = Executor::new(Engine::sequential());
        let opts = CleanseOptions {
            lsh: Some(LshParams::default()),
            ..Default::default()
        };
        let err = cleanse_loop(&exec, &fd_rules(t.schema()), &t, opts.clone()).unwrap_err();
        assert!(
            err.to_string().contains("similarity rule"),
            "unhelpful error: {err}"
        );
        // an LSH-blocked dedup rule satisfies the validation
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            DedupRule::new("udf:dedup", 1, 0.9).with_lsh(LshParams::default()),
        )];
        assert!(validate_lsh_override(&opts, &rules).is_ok());
    }

    #[test]
    fn clean_input_converges_with_zero_iterations() {
        let schema = Schema::parse("zipcode,city");
        let t = Table::from_rows(
            "t",
            schema.clone(),
            vec![vec![Value::Int(1), Value::str("LA")]],
        );
        let exec = Executor::new(Engine::sequential());
        let res = cleanse_loop(&exec, &fd_rules(&schema), &t, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.cells_changed, 0);
    }

    fn panicking_rule() -> Arc<dyn Rule> {
        Arc::new(
            UdfRule::builder("udf:faulty", |_| panic!("faulty udf rule"))
                .unit_kind(UnitKind::Single)
                .build(),
        )
    }

    #[test]
    fn partial_mode_quarantines_a_panicking_rule() {
        let t = fd_table();
        let mut rules = fd_rules(t.schema());
        rules.push(panicking_rule());
        let exec = Executor::new(Engine::sequential());
        let opts = CleanseOptions {
            isolation: IsolationOptions::partial(),
            ..Default::default()
        };
        let res = cleanse_loop(&exec, &rules, &t, opts).unwrap();
        assert!(res.converged, "healthy rules must still converge");
        assert!(res.outcome.is_degraded());
        assert!(res.outcome.completeness < 1.0);
        let health: HashMap<_, _> = res.outcome.rules.iter().cloned().collect();
        assert_eq!(health["fd:zipcode->city"], RuleHealth::Completed);
        assert!(
            matches!(health["udf:faulty"], RuleHealth::Quarantined { .. }),
            "faulty rule should be quarantined, got {:?}",
            health["udf:faulty"]
        );
        let m = exec.engine().metrics().snapshot();
        assert!(m.rules_quarantined >= 1);
        assert!(
            m.retries_short_circuited >= 1,
            "repeated panic payloads should fail fast"
        );

        // the healthy rule's repair is byte-identical to a run that
        // never registered the faulty rule
        let oracle_exec = Executor::new(Engine::sequential());
        let oracle = cleanse_loop(
            &oracle_exec,
            &fd_rules(t.schema()),
            &t,
            CleanseOptions::default(),
        )
        .unwrap();
        assert_eq!(res.table.diff_cells(&oracle.table), 0);
    }

    #[test]
    fn strict_mode_propagates_rule_faults() {
        let t = fd_table();
        let mut rules = fd_rules(t.schema());
        rules.push(panicking_rule());
        let exec = Executor::new(Engine::sequential());
        let err = cleanse_loop(&exec, &rules, &t, CleanseOptions::default()).unwrap_err();
        assert!(
            matches!(err, Error::Task { .. }),
            "strict mode should surface the task failure, got {err:?}"
        );
    }

    #[test]
    fn healthy_run_reports_full_completeness() {
        let t = fd_table();
        let exec = Executor::new(Engine::parallel(2));
        let res =
            cleanse_loop(&exec, &fd_rules(t.schema()), &t, CleanseOptions::default()).unwrap();
        assert!(!res.outcome.is_degraded());
        assert_eq!(res.outcome.completeness, 1.0);
        assert_eq!(res.outcome.rules.len(), 1);
        assert_eq!(res.outcome.rules[0].1, RuleHealth::Completed);
    }

    #[test]
    fn freeze_counter_guarantees_termination() {
        // a pathological pair of FDs that keep re-breaking each other:
        // a->b and b->a over inconsistent data
        let schema = Schema::parse("a,b");
        let t = Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![
            Arc::new(FdRule::parse("a -> b", &schema).unwrap()),
            Arc::new(FdRule::parse("b -> a", &schema).unwrap()),
        ];
        let exec = Executor::new(Engine::sequential());
        let res = cleanse_loop(
            &exec,
            &rules,
            &t,
            CleanseOptions {
                max_iterations: 20,
                max_changes_per_cell: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // must terminate (converged or not) within the iteration budget
        assert!(res.iterations <= 20);
    }
}
