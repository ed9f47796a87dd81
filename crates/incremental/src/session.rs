//! The incremental cleansing [`Session`]: delta-driven detection over
//! persistent per-rule indexes, violation retraction, and a repair loop
//! that mirrors the batch `cleanse_loop` exactly.
//!
//! # Oracle equivalence
//!
//! The session maintains one invariant: **after every index update, the
//! violation store equals a full `Executor::detect` over the current
//! table, as a multiset**. The argument, per iterate strategy:
//!
//! * block membership order equals global table order (the engine's
//!   `group_by_key` concatenates map-side buckets in partition order),
//!   and each rule's [`CandidateIndex`] orders its blocks by a
//!   persistent per-tuple sequence number; its probes run the batch
//!   reducers' own kernel, so candidate units and their orientation
//!   reproduce the batch enumeration byte for byte;
//! * when a tuple changes, every violation whose generating unit
//!   involved it is retracted and exactly the units that involve its
//!   new version (`delta×resident ∪ delta×delta`, within the dirtied
//!   blocks) are re-detected — units among untouched residents are
//!   unchanged by construction;
//! * inequality rules probe a persistent `OcIndex` from both sides,
//!   which yields precisely the delta-involving subset of the batch
//!   OCJoin's ordered pairs.
//!
//! The repair phase then replays the batch loop: full-store repair per
//! round through the shared [`repair_round`] helper with a fresh
//! per-cell change counter, and the changed cells of each round fed
//! back through the incremental detection path. The one *scoped* shortcut — skipping
//! repair entirely when a batch adds and retracts nothing and the
//! previous loop ended stably (every surviving fix filtered as a no-op)
//! — is sound because repair input depends only on the stored
//! violations, which are untouched, so the batch loop would break on an
//! empty applicable set in its first round too.

use crate::delta::{apply_batch_to_table, DeltaBatch, DeltaOp};
use crate::wal::{
    self, DurabilityOptions, ProvState, RecoverStats, SessionState, StoredState, Wal, WindowState,
};
use crate::window::WindowSpec;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Cell, Error, LshParams, Result, Table, Tuple, TupleId, Value};
use bigdansing_dataflow::bulkhead::IsolationOptions;
use bigdansing_dataflow::{Dio, Engine, PDataset};
use bigdansing_plan::candidates::{BlockId, CandidateIndex, Placed};
use bigdansing_plan::physical::choose_strategy;
use bigdansing_plan::Executor;
use bigdansing_repair::blackbox::RepairOptions;
use bigdansing_repair::cc::UnionFind;
use bigdansing_repair::{repair_round, Detected, FreezeCounter, RepairStrategy};
use bigdansing_rules::{BlockKey, DetectUnit, Fix, Rule, UnitKind, Violation};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Options of the detect ⇄ repair loop, shared by the batch cleanse
/// loop and incremental [`Session`]s, so a session and a from-scratch
/// run of the same job are comparable.
#[derive(Debug, Clone)]
pub struct CleanseOptions {
    /// Maximum detect ⇄ repair iterations (per applied batch, in a
    /// session).
    pub max_iterations: usize,
    /// Freeze threshold: after this many updates a cell stops changing
    /// (the paper's "special variable" guaranteeing termination). A
    /// session resets the counter for every batch, like a fresh batch
    /// run.
    pub max_changes_per_cell: usize,
    /// Repair strategy.
    pub strategy: RepairStrategy,
    /// Options forwarded to the parallel black-box driver.
    pub repair_options: RepairOptions,
    /// Rule-isolation knobs: strict-vs-partial fault mode, per-rule
    /// soft time budget, outlier-block threshold, breaker tuning. In
    /// partial mode a session quarantines a rule whose delta detection
    /// fails — its indexes are dropped, its stored violations
    /// retracted, and later applies skip it — instead of poisoning the
    /// whole session. Quarantine is in-memory only:
    /// [`Session::recover`] gives every rule a fresh trial.
    pub isolation: IsolationOptions,
    /// Violation window (Bleach-style) for sessions: every arriving
    /// record gets a logical event time, and tuples whose last
    /// containing window closes behind the watermark are retired
    /// through the delete path after each apply — their violations
    /// retracted via the provenance indexes. `None` keeps the unbounded
    /// behaviour. The batch loop ignores it: a one-shot table has no
    /// stream to window.
    pub window: Option<WindowSpec>,
    /// Job-level override of the MinHash/LSH banding geometry. Applies
    /// to every registered similarity rule (a rule whose [`Rule::lsh`]
    /// is `Some`); a job or session that sets it while no registered
    /// rule declares LSH blocking is rejected up front by
    /// [`validate_lsh_override`] — the override would silently do
    /// nothing.
    pub lsh: Option<LshParams>,
}

impl Default for CleanseOptions {
    fn default() -> Self {
        CleanseOptions {
            max_iterations: 10,
            max_changes_per_cell: 3,
            strategy: RepairStrategy::default(),
            repair_options: RepairOptions::default(),
            isolation: IsolationOptions::default(),
            window: None,
            lsh: None,
        }
    }
}

/// Reject a job-level LSH override that no rule can honour: the
/// banding geometry only applies to similarity rules, so if none of
/// the registered rules declares LSH blocking the override is a
/// configuration mistake, not a no-op.
pub fn validate_lsh_override(options: &CleanseOptions, rules: &[Arc<dyn Rule>]) -> Result<()> {
    if options.lsh.is_some() && !rules.iter().any(|r| r.lsh().is_some()) {
        return Err(Error::Repair(
            "LSH blocking options apply only to similarity rules, but no registered rule \
             declares LSH blocking — register a dedup/similarity rule or drop the LSH options"
                .into(),
        ));
    }
    Ok(())
}

/// What one [`Session::apply`] did.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Inserts in the batch.
    pub inserted: usize,
    /// Updates in the batch.
    pub updated: usize,
    /// Deletes in the batch.
    pub deleted: usize,
    /// Distinct tuples that participated in re-detected units (delta
    /// tuples, their block partners, and repair-touched tuples).
    pub tuples_reprocessed: u64,
    /// Distinct `(rule, block key)` pairs dirtied by the batch.
    pub blocks_dirty: u64,
    /// Violations newly added to the store.
    pub violations_added: u64,
    /// Violations retracted because a contributing row was deleted,
    /// updated, or re-blocked.
    pub violations_retracted: u64,
    /// Connected components of the violation graph touched by added or
    /// retracted violations (the scope of re-repair).
    pub components_rerepaired: u64,
    /// Repair iterations executed.
    pub iterations: usize,
    /// Violations seen across all repair iterations.
    pub total_violations: usize,
    /// Distinct cell updates applied by repair.
    pub cells_changed: usize,
    /// Cells frozen by the termination rule.
    pub frozen_cells: usize,
    /// Σ distance(old, new) over applied updates.
    pub repair_cost: f64,
    /// Violations still live after the apply.
    pub violations_remaining: usize,
    /// True when the table ended violation-free.
    pub converged: bool,
    /// True when the scoped-re-repair shortcut skipped the repair loop
    /// (no violations added or retracted, previous loop ended stably).
    pub repair_skipped: bool,
    /// Rules quarantined so far (this apply and earlier ones): in
    /// partial isolation mode, a rule whose detection faults is
    /// excluded for the rest of the session instead of poisoning it.
    pub rules_quarantined: u64,
    /// Tuples retired by the violation window because the watermark
    /// passed their last containing window (windowed sessions only).
    pub tuples_expired: usize,
}

/// Per-rule persistent state: the rule's candidate index and what each
/// source tuple put into it.
struct RuleState {
    rule: Arc<dyn Rule>,
    index: CandidateIndex,
    /// Scope outputs per source tuple (`rep` order), with the seq they
    /// were indexed under. Removal must use this recorded seq, not the
    /// live one: a delete-then-reinsert batch reassigns
    /// `Session::seqs[id]` before the indexes are cleaned up.
    scoped: HashMap<TupleId, (u64, Vec<Tuple>)>,
    /// The fault that quarantined this rule (partial isolation mode):
    /// its index is dropped and redetection skips it for the rest of
    /// the session. `None` while healthy.
    quarantined: Option<String>,
}

impl RuleState {
    fn new(rule: &Arc<dyn Rule>, options: &CleanseOptions) -> RuleState {
        let strategy = choose_strategy(rule.as_ref(), options.lsh);
        RuleState {
            rule: Arc::clone(rule),
            index: CandidateIndex::new(Arc::clone(rule), strategy),
            scoped: HashMap::new(),
            quarantined: None,
        }
    }

    /// Scope `t`, live at `seq`, record its outputs, and place them for
    /// the candidate index.
    fn scope_into(&mut self, seq: u64, t: &Tuple, placed: &mut Vec<Placed>) {
        let reps = self.rule.scope(t);
        for (rep, s) in reps.iter().enumerate() {
            placed.push(self.index.place((seq, rep as u32), s.clone()));
        }
        self.scoped.insert(t.id(), (seq, reps));
    }
}

/// Where a stored violation came from: the tuple ids of the unit that
/// produced it, or — for list rules — the whole block.
#[derive(Debug, Clone)]
enum Provenance {
    Tuples(Vec<TupleId>),
    Block(BlockKey),
}

struct Stored {
    rule: usize,
    violation: Violation,
    fixes: Vec<Fix>,
    prov: Provenance,
}

/// The violation store: live violations with provenance indexes for
/// retraction by tuple and by block.
#[derive(Default)]
struct Store {
    items: BTreeMap<u64, Stored>,
    next: u64,
    by_tuple: HashMap<TupleId, BTreeSet<u64>>,
    by_block: HashMap<(usize, BlockKey), BTreeSet<u64>>,
}

impl Store {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn add(&mut self, stored: Stored) {
        self.insert_raw(self.next, stored);
    }

    /// Insert a stored violation under a known id (snapshot recovery
    /// restores the ids it saved), maintaining the provenance indexes
    /// and keeping `next` ahead of every live id.
    fn insert_raw(&mut self, id: u64, stored: Stored) {
        match &stored.prov {
            Provenance::Tuples(ids) => {
                for t in ids {
                    self.by_tuple.entry(*t).or_default().insert(id);
                }
            }
            Provenance::Block(key) => {
                self.by_block
                    .entry((stored.rule, key.clone()))
                    .or_default()
                    .insert(id);
            }
        }
        self.items.insert(id, stored);
        self.next = self.next.max(id + 1);
    }

    fn remove(&mut self, id: u64) -> Option<Stored> {
        let stored = self.items.remove(&id)?;
        match &stored.prov {
            Provenance::Tuples(ids) => {
                for t in ids {
                    if let Some(set) = self.by_tuple.get_mut(t) {
                        set.remove(&id);
                        if set.is_empty() {
                            self.by_tuple.remove(t);
                        }
                    }
                }
            }
            Provenance::Block(key) => {
                let k = (stored.rule, key.clone());
                if let Some(set) = self.by_block.get_mut(&k) {
                    set.remove(&id);
                    if set.is_empty() {
                        self.by_block.remove(&k);
                    }
                }
            }
        }
        Some(stored)
    }

    /// Retract every violation whose generating unit involved a dirty
    /// tuple. Returns the removed items.
    fn retract_tuples(&mut self, dirty: &BTreeSet<TupleId>) -> Vec<Stored> {
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        for t in dirty {
            if let Some(set) = self.by_tuple.get(t) {
                ids.extend(set.iter().copied());
            }
        }
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }

    /// Retract every violation detected by rule `rule` (quarantine:
    /// a faulted rule's stored violations must not feed repair).
    fn retract_rule(&mut self, rule: usize) -> Vec<Stored> {
        let ids: Vec<u64> = self
            .items
            .iter()
            .filter(|(_, s)| s.rule == rule)
            .map(|(id, _)| *id)
            .collect();
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }

    /// Retract every violation attributed to `(rule, key)`.
    fn retract_block(&mut self, rule: usize, key: &BlockKey) -> Vec<Stored> {
        let ids: Vec<u64> = self
            .by_block
            .get(&(rule, key.clone()))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }

    /// The `(violation, fixes)` snapshot handed to repair, in insertion
    /// order (repair strategies used here are order-independent).
    fn detected(&self) -> Vec<Detected> {
        self.items
            .values()
            .map(|s| (s.violation.clone(), s.fixes.clone()))
            .collect()
    }
}

/// Per-apply bookkeeping feeding the new metrics.
#[derive(Default)]
struct ApplyStats {
    reprocessed: BTreeSet<TupleId>,
    blocks: BTreeSet<(usize, BlockId)>,
    added: u64,
    retracted: u64,
    /// Tuple ids of violations added or retracted (component markers).
    markers: BTreeSet<TupleId>,
}

impl ApplyStats {
    fn mark_stored(&mut self, s: &Stored) {
        self.markers.extend(s.violation.tuple_ids());
        if let Provenance::Tuples(ids) = &s.prov {
            self.markers.extend(ids.iter().copied());
        }
    }
}

/// The durability attachment of a session: the open WAL, the snapshot
/// cadence, and the watermarks tying both to the apply sequence.
struct Durable {
    dir: std::path::PathBuf,
    wal: Wal,
    snapshot_every: u64,
    /// Batch sequence covered by the latest on-disk snapshot.
    last_snapshot_seq: u64,
    /// Sequence of the last *successfully applied* batch. A batch that
    /// reached the WAL but failed mid-apply is excluded — recovery
    /// replays it.
    last_seq: u64,
    dio: Dio,
}

/// Violation-window state: the logical clock handing out event times
/// and the event time of every live tuple. Event times are arrival
/// ordinals — assigned in batch op order — so WAL replay reproduces
/// the exact same expirations a live run performed.
struct Win {
    spec: WindowSpec,
    /// Next event time to assign; the watermark is `clock - 1`.
    clock: u64,
    times: HashMap<TupleId, u64>,
}

/// A long-lived incremental cleansing session over one base table.
pub struct Session {
    executor: Executor,
    rules: Vec<Arc<dyn Rule>>,
    options: CleanseOptions,
    table: Table,
    /// Table-order sequence number per live tuple: base tuples keep
    /// their position, inserts get fresh increasing numbers (they append
    /// at the end), updates keep theirs, deletes drop theirs. Relative
    /// order always matches the materialized table.
    seqs: HashMap<TupleId, u64>,
    /// Current index of each live tuple in [`Session::table`] — lets
    /// delta-free-of-delete batches and repair rounds mutate the table
    /// in place instead of rebuilding its O(n) tuple vector. Rebuilt
    /// after deletes (positions shift).
    pos: HashMap<TupleId, usize>,
    next_seq: u64,
    states: Vec<RuleState>,
    store: Store,
    /// True when the last repair loop ended stably: violation-free, or
    /// with every surviving fix filtered as a no-op (never by the freeze
    /// counter or the iteration cap). Gates the skip-repair shortcut.
    stable: bool,
    /// True when an earlier [`Session::apply`] failed *after* the table
    /// was materialized (cancellation, deadline, memory ceiling, or a
    /// stage failure mid-redetect/repair): the indexes and violation
    /// store no longer match the table, so further applies are refused.
    poisoned: bool,
    applies: u64,
    /// Durability state when the session was opened with
    /// [`Session::open_durable`] or [`Session::recover`].
    durable: Option<Durable>,
    /// Window state when [`CleanseOptions::window`] was set.
    win: Option<Win>,
}

impl Session {
    /// Open a session over `table`: builds the per-rule indexes and the
    /// initial violation store (a full detect's worth of violations,
    /// with provenance). The base table is *not* repaired — the first
    /// [`Session::apply`] cleanses pre-existing violations together with
    /// the batch's.
    pub fn new(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        table: &Table,
        options: CleanseOptions,
    ) -> Result<Session> {
        if rules.is_empty() {
            return Err(Error::Repair("no rules registered".into()));
        }
        validate_lsh_override(&options, &rules)?;
        let mut seqs = HashMap::with_capacity(table.len());
        let mut pos = HashMap::with_capacity(table.len());
        for (i, t) in table.tuples().iter().enumerate() {
            if seqs.insert(t.id(), i as u64).is_some() {
                return Err(Error::Repair(format!(
                    "duplicate tuple id {} in base table",
                    t.id()
                )));
            }
            pos.insert(t.id(), i);
        }
        let states = rules.iter().map(|r| RuleState::new(r, &options)).collect();
        // Base rows get event times in table order, as if they streamed
        // in one at a time before the session opened.
        let win = options.window.map(|spec| Win {
            spec,
            clock: table.len() as u64,
            times: table
                .tuples()
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id(), i as u64))
                .collect(),
        });
        let mut session = Session {
            executor,
            rules,
            options,
            table: table.clone(),
            next_seq: table.len() as u64,
            seqs,
            pos,
            states,
            store: Store::default(),
            stable: false,
            poisoned: false,
            applies: 0,
            durable: None,
            win,
        };
        let dirty: BTreeSet<TupleId> = table.tuples().iter().map(Tuple::id).collect();
        let fresh: HashMap<TupleId, Tuple> =
            table.tuples().iter().map(|t| (t.id(), t.clone())).collect();
        let mut stats = ApplyStats::default();
        session.redetect(&dirty, &fresh, &mut stats)?;
        // A base table longer than the window already has closed
        // windows behind its watermark: retire them now so the session
        // starts with only live-window rows.
        let mut expired_dirty = BTreeSet::new();
        if session.expire_past_watermark(&mut expired_dirty)? > 0 {
            let fresh = session.snapshot_tuples(&expired_dirty);
            session.redetect(&expired_dirty, &fresh, &mut stats)?;
        }
        Ok(session)
    }

    /// Open a **durable** session: like [`Session::new`], but every
    /// applied batch is WAL-logged before mutation and the full state
    /// is snapshotted atomically every `durability.snapshot_every`
    /// batches (plus a baseline snapshot now, so the directory is
    /// recoverable from the start). Refuses a directory that already
    /// holds a snapshot — recover it with [`Session::recover`] or
    /// clear it explicitly.
    pub fn open_durable(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        table: &Table,
        options: CleanseOptions,
        durability: DurabilityOptions,
    ) -> Result<Session> {
        if wal::snapshot_path(&durability.dir).exists() {
            return Err(Error::Io(format!(
                "{}: already a durable session directory; use Session::recover \
                 (or remove it) instead of opening over it",
                durability.dir.display()
            )));
        }
        let mut session = Session::new(executor, rules, table, options)?;
        wal::sweep_dir(&durability.dir);
        let w = Wal::create(&durability.dir)?;
        let dio = Dio::from_engine(session.executor.engine());
        session.durable = Some(Durable {
            dir: durability.dir,
            wal: w,
            snapshot_every: durability.snapshot_every,
            last_snapshot_seq: 0,
            last_seq: 0,
            dio,
        });
        session.snapshot()?;
        Ok(session)
    }

    /// Rebuild a session from a durable directory: load the latest
    /// snapshot, verify it was produced by the same rule set, rebuild
    /// the per-rule indexes deterministically, then replay the WAL
    /// records past the snapshot watermark (truncating any torn tail
    /// left by a crash mid-append). A batch that was WAL-logged but
    /// whose apply never finished — including one that *poisoned* the
    /// previous session — is applied now. If anything was replayed, a
    /// fresh snapshot is written so the next recovery starts hot.
    pub fn recover(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: CleanseOptions,
        durability: DurabilityOptions,
    ) -> Result<(Session, RecoverStats)> {
        validate_lsh_override(&options, &rules)?;
        wal::sweep_dir(&durability.dir);
        let state = wal::read_snapshot(&durability.dir)?.ok_or_else(|| {
            Error::Io(format!(
                "{}: no snapshot to recover from",
                durability.dir.display()
            ))
        })?;
        let names: Vec<String> = rules.iter().map(|r| r.name().to_string()).collect();
        if names != state.rule_names {
            return Err(Error::Repair(format!(
                "recover: rule set mismatch — snapshot was written with [{}], \
                 session opened with [{}]",
                state.rule_names.join(", "),
                names.join(", ")
            )));
        }
        let mut session = Session::from_state(executor, rules, options, &state)?;
        let (w, records) = Wal::open(&durability.dir)?;
        let dio = Dio::from_engine(session.executor.engine());
        session.durable = Some(Durable {
            dir: durability.dir,
            wal: w,
            snapshot_every: durability.snapshot_every,
            last_snapshot_seq: state.last_seq,
            last_seq: state.last_seq,
            dio,
        });
        let mut stats = RecoverStats {
            snapshot_seq: state.last_seq,
            replayed: 0,
            last_seq: state.last_seq,
        };
        for (seq, batch) in records {
            if seq <= state.last_seq {
                continue;
            }
            session.apply_impl(batch, false)?;
            let d = session.durable.as_mut().expect("durable was just attached");
            d.last_seq = seq;
            stats.last_seq = seq;
            stats.replayed += 1;
        }
        if stats.replayed > 0 {
            session.snapshot()?;
        }
        Ok((session, stats))
    }

    /// Rebuild a session skeleton from snapshot state: table, sequence
    /// numbers, violation store (ids preserved), and freshly re-scoped
    /// per-rule indexes — no detection runs, the store is trusted.
    fn from_state(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: CleanseOptions,
        state: &SessionState,
    ) -> Result<Session> {
        if rules.is_empty() {
            return Err(Error::Repair("no rules registered".into()));
        }
        let table = state.table();
        let mut seqs = HashMap::with_capacity(table.len());
        let mut pos = HashMap::with_capacity(table.len());
        for (i, t) in table.tuples().iter().enumerate() {
            if seqs.insert(t.id(), state.seqs[i]).is_some() {
                return Err(Error::Corrupt(format!(
                    "snapshot: duplicate tuple id {}",
                    t.id()
                )));
            }
            pos.insert(t.id(), i);
        }
        let states = rules.iter().map(|r| RuleState::new(r, &options)).collect();
        let mut store = Store::default();
        for item in &state.items {
            let rule = item.rule as usize;
            if rule >= rules.len() {
                return Err(Error::Corrupt(format!(
                    "snapshot: violation references rule {rule} of {}",
                    rules.len()
                )));
            }
            let prov = match &item.prov {
                ProvState::Tuples(ids) => Provenance::Tuples(ids.clone()),
                ProvState::Block(vals) => {
                    let mut key = BlockKey::new();
                    for v in vals {
                        key.push(v.clone());
                    }
                    Provenance::Block(key)
                }
            };
            store.insert_raw(
                item.id,
                Stored {
                    rule,
                    violation: item.violation.clone(),
                    fixes: item.fixes.clone(),
                    prov,
                },
            );
        }
        store.next = store.next.max(state.store_next);
        let win = match (&options.window, &state.window) {
            (None, None) => None,
            (Some(spec), Some(ws)) if spec.size == ws.size && spec.slide == ws.slide => Some(Win {
                spec: *spec,
                clock: ws.clock,
                times: table
                    .tuples()
                    .iter()
                    .zip(&ws.times)
                    .map(|(t, ts)| (t.id(), *ts))
                    .collect(),
            }),
            (opt, snap) => {
                let show_opt = opt.map(|w| w.to_string()).unwrap_or_else(|| "none".into());
                let show_snap = snap
                    .as_ref()
                    .map(|w| format!("{}:{}", w.size, w.slide))
                    .unwrap_or_else(|| "none".into());
                return Err(Error::Repair(format!(
                    "recover: window mismatch — snapshot has {show_snap}, \
                     session opened with {show_opt}"
                )));
            }
        };
        let mut session = Session {
            executor,
            rules,
            options,
            table,
            seqs,
            pos,
            next_seq: state.next_seq,
            states,
            store,
            stable: state.stable,
            poisoned: false,
            applies: state.applies,
            durable: None,
            win,
        };
        session.rebuild_indexes();
        Ok(session)
    }

    /// Re-scope every live tuple into the per-rule candidate indexes —
    /// the same residents incremental maintenance would have
    /// accumulated, inserted in one pass.
    fn rebuild_indexes(&mut self) {
        let engine = self.executor.engine().clone();
        for state in &mut self.states {
            let mut placed = Vec::new();
            for t in self.table.tuples() {
                let seq = *self.seqs.get(&t.id()).expect("live tuple has a seq");
                state.scope_into(seq, t, &mut placed);
            }
            state.index.insert(&engine, &placed);
        }
    }

    /// The session's current (repaired-so-far) table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The registered rules.
    pub fn rules(&self) -> &[Arc<dyn Rule>] {
        &self.rules
    }

    /// The executor driving detection stages.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Live violations with their fixes — always equal to a full detect
    /// over [`Session::table`].
    pub fn detected(&self) -> Vec<Detected> {
        self.store.detected()
    }

    /// Number of live violations.
    pub fn violation_count(&self) -> usize {
        self.store.len()
    }

    /// True when the current table has no violations.
    pub fn is_clean(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of batches applied so far.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// True when an earlier apply failed after mutation began and the
    /// session refuses further batches (open a new session to recover).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The violation-window geometry, when this session is windowed.
    pub fn window(&self) -> Option<WindowSpec> {
        self.win.as_ref().map(|w| w.spec)
    }

    /// The watermark: the highest logical event time assigned so far.
    /// `None` for unwindowed sessions and for a windowed session that
    /// has seen no events yet.
    pub fn watermark(&self) -> Option<u64> {
        self.win
            .as_ref()
            .filter(|w| w.clock > 0)
            .map(|w| w.clock - 1)
    }

    /// The logical event time of a live tuple (windowed sessions only).
    pub fn event_time(&self, id: TupleId) -> Option<u64> {
        self.win.as_ref().and_then(|w| w.times.get(&id).copied())
    }

    /// Number of tuples inside the live window — equal to the table
    /// length, since expired tuples are retired eagerly. `None` for
    /// unwindowed sessions.
    pub fn window_live(&self) -> Option<usize> {
        self.win.as_ref().map(|w| w.times.len())
    }

    /// Rules quarantined by partial-mode fault isolation, as
    /// `(rule name, cause)` pairs in registration order. Empty in
    /// strict mode and for healthy sessions.
    pub fn quarantined_rules(&self) -> Vec<(String, String)> {
        self.states
            .iter()
            .filter_map(|s| {
                s.quarantined
                    .as_ref()
                    .map(|c| (s.rule.name().to_string(), c.clone()))
            })
            .collect()
    }

    /// Apply one delta batch: materialize it, re-detect only the dirty
    /// candidate units, retract violations whose contributing rows
    /// changed, and re-repair — mirroring a from-scratch cleanse over
    /// the materialized table.
    ///
    /// Durable sessions additionally append the batch to the WAL (and
    /// fsync) *after* validation but *before* any in-memory mutation:
    /// a crash at any later point replays the batch on
    /// [`Session::recover`], and a crash earlier loses nothing because
    /// nothing changed.
    pub fn apply(&mut self, batch: DeltaBatch) -> Result<DeltaReport> {
        self.apply_impl(batch, true)
    }

    fn apply_impl(&mut self, batch: DeltaBatch, log: bool) -> Result<DeltaReport> {
        if self.poisoned {
            return Err(Error::Repair(
                "session poisoned: an earlier apply failed after mutation began; \
                 open a new session over the desired table — durable sessions can \
                 instead be reopened with Session::recover"
                    .into(),
            ));
        }
        let engine = self.executor.engine().clone();
        engine.check_cancelled()?;

        // Validate the whole batch before mutating anything: a
        // malformed batch must corrupt neither the session nor the WAL.
        // Delete-free batches (the common trickle) are checked up front
        // and later edit the table in place through the position index;
        // batches with deletes stage the compacted table through the
        // from-scratch oracle (which validates as it goes).
        let staged = if batch.ops.iter().any(|op| matches!(op, DeltaOp::Delete(_))) {
            Some(apply_batch_to_table(&self.table, &batch)?)
        } else {
            self.validate_delete_free(&batch)?;
            None
        };

        // The batch is valid: make it durable before the mutation it
        // describes begins.
        let wal_seq = if log {
            match &mut self.durable {
                Some(d) => {
                    let seq = d.last_seq + 1;
                    d.wal.append(seq, &batch, &d.dio)?;
                    Metrics::add(&engine.metrics().wal_appends, 1);
                    Some(seq)
                }
                None => None,
            }
        } else {
            None
        };

        // Materialize.
        match staged {
            Some(table) => {
                self.table = table;
                self.pos = self
                    .table
                    .tuples()
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (t.id(), i))
                    .collect();
            }
            None => {
                for op in &batch.ops {
                    match op {
                        DeltaOp::Insert(t) => {
                            self.pos.insert(t.id(), self.table.len());
                            self.table.push(t.clone());
                        }
                        DeltaOp::Update(t) => self.table.set_at(self.pos[&t.id()], t.clone()),
                        DeltaOp::Delete(_) => unreachable!("delete-free path"),
                    }
                }
            }
        }

        // The table is mutated; everything below must finish for the
        // indexes and violation store to match it again. A governed
        // abort mid-way (cancellation, deadline, memory ceiling, stage
        // failure) leaves them out of sync, so poison the session and
        // let later applies fail loudly instead of computing on
        // corrupted state. For durable sessions the batch is already in
        // the WAL, so recovery replays it against consistent state.
        match self.detect_and_repair(&batch, &engine) {
            Ok(report) => {
                if let Some(seq) = wal_seq {
                    let d = self.durable.as_mut().expect("wal_seq implies durable");
                    d.last_seq = seq;
                    let due = d.snapshot_every > 0 && seq - d.last_snapshot_seq >= d.snapshot_every;
                    if due {
                        self.snapshot()?;
                    }
                }
                Ok(report)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Write an atomic snapshot of the full session state (table,
    /// sequence numbers, violation store) and truncate the WAL it
    /// supersedes. Returns the batch sequence the snapshot covers.
    /// Errors if the session is not durable; a failed write leaves the
    /// previous snapshot intact and the session usable.
    pub fn snapshot(&mut self) -> Result<u64> {
        if self.durable.is_none() {
            return Err(Error::Io(
                "session has no durable directory; open it with open_durable".into(),
            ));
        }
        let state = self.capture_state();
        let engine = self.executor.engine().clone();
        let d = self.durable.as_mut().expect("checked above");
        wal::write_snapshot(&d.dir, &state, &d.dio)?;
        Metrics::add(&engine.metrics().snapshots_written, 1);
        d.last_snapshot_seq = state.last_seq;
        d.wal.truncate_all()?;
        Ok(state.last_seq)
    }

    /// Serialize the session's logical state. Per-rule indexes are
    /// omitted — they are a deterministic function of the table and
    /// sequence numbers and are rebuilt on recovery.
    fn capture_state(&self) -> SessionState {
        let seqs = self
            .table
            .tuples()
            .iter()
            .map(|t| *self.seqs.get(&t.id()).expect("live tuple has a seq"))
            .collect();
        let items = self
            .store
            .items
            .iter()
            .map(|(id, s)| StoredState {
                id: *id,
                rule: s.rule as u64,
                violation: s.violation.clone(),
                fixes: s.fixes.clone(),
                prov: match &s.prov {
                    Provenance::Tuples(ids) => ProvState::Tuples(ids.clone()),
                    Provenance::Block(key) => ProvState::Block(key.values().to_vec()),
                },
            })
            .collect();
        SessionState {
            table_name: self.table.name().to_string(),
            attrs: self.table.schema().attrs().to_vec(),
            tuples: self.table.tuples().to_vec(),
            seqs,
            next_seq: self.next_seq,
            applies: self.applies,
            stable: self.stable,
            last_seq: self.durable.as_ref().map_or(0, |d| d.last_seq),
            rule_names: self.rules.iter().map(|r| r.name().to_string()).collect(),
            store_next: self.store.next,
            items,
            window: self.win.as_ref().map(|w| WindowState {
                size: w.spec.size,
                slide: w.spec.slide,
                clock: w.clock,
                times: self
                    .table
                    .tuples()
                    .iter()
                    .map(|t| *w.times.get(&t.id()).expect("live tuple has an event time"))
                    .collect(),
            }),
        }
    }

    /// The post-materialization half of [`Session::apply`]: index
    /// maintenance, delta-driven detection, retraction, and re-repair.
    fn detect_and_repair(&mut self, batch: &DeltaBatch, engine: &Engine) -> Result<DeltaReport> {
        let mut report = DeltaReport::default();
        let mut touched: BTreeSet<TupleId> = BTreeSet::new();
        for op in &batch.ops {
            touched.insert(op.id());
            match op {
                DeltaOp::Insert(t) => {
                    report.inserted += 1;
                    self.seqs.insert(t.id(), self.next_seq);
                    self.next_seq += 1;
                }
                DeltaOp::Update(_) => report.updated += 1,
                DeltaOp::Delete(id) => {
                    report.deleted += 1;
                    self.seqs.remove(id);
                }
            }
        }
        // Window bookkeeping: every insert/update is a fresh arrival
        // (it gets the next event time and advances the watermark);
        // explicit deletes leave the window. Then retire everything the
        // advanced watermark pushed out of its last containing window —
        // expired ids join `touched`, so the redetect below retracts
        // their violations exactly like an explicit delete's.
        if let Some(win) = &mut self.win {
            for op in &batch.ops {
                match op {
                    DeltaOp::Insert(t) | DeltaOp::Update(t) => {
                        win.times.insert(t.id(), win.clock);
                        win.clock += 1;
                    }
                    DeltaOp::Delete(id) => {
                        win.times.remove(id);
                    }
                }
            }
        }
        report.tuples_expired = self.expire_past_watermark(&mut touched)?;
        let fresh = self.snapshot_tuples(&touched);

        // Delta-driven detection + retraction.
        let mut stats = ApplyStats::default();
        self.redetect(&touched, &fresh, &mut stats)?;
        report.components_rerepaired = self.touched_components(&stats);

        // Scoped re-repair: when the batch left the store untouched and
        // the previous loop ended stably, a batch loop's first round
        // would filter every fix as a no-op and break — skip it.
        let skip = stats.added == 0 && stats.retracted == 0 && self.stable;
        report.repair_skipped = skip;
        if skip {
            report.converged = self.store.is_empty();
        } else {
            self.repair_loop(engine, &mut report, &mut stats)?;
        }

        report.tuples_reprocessed = stats.reprocessed.len() as u64;
        report.blocks_dirty = stats.blocks.len() as u64;
        report.violations_added = stats.added;
        report.violations_retracted = stats.retracted;
        report.violations_remaining = self.store.len();
        report.rules_quarantined = self
            .states
            .iter()
            .filter(|s| s.quarantined.is_some())
            .count() as u64;
        let m = engine.metrics();
        Metrics::add(&m.tuples_reprocessed, report.tuples_reprocessed);
        Metrics::add(&m.blocks_dirty, report.blocks_dirty);
        Metrics::add(&m.violations_retracted, report.violations_retracted);
        Metrics::add(&m.components_rerepaired, report.components_rerepaired);
        Metrics::add(&m.tuples_expired, report.tuples_expired as u64);
        self.applies += 1;
        Ok(report)
    }

    /// Check a delete-free batch against the live id set without
    /// mutating anything, replaying [`apply_batch_to_table`]'s op-order
    /// semantics (an update may target an id inserted earlier in the
    /// same batch, but not one inserted later).
    fn validate_delete_free(&self, batch: &DeltaBatch) -> Result<()> {
        let mut added: HashSet<TupleId> = HashSet::new();
        for op in &batch.ops {
            match op {
                DeltaOp::Insert(t) => {
                    if self.pos.contains_key(&t.id()) || !added.insert(t.id()) {
                        return Err(Error::Parse(format!(
                            "delta inserts tuple {} which already exists",
                            t.id()
                        )));
                    }
                    crate::delta::check_arity(&self.table, t)?;
                }
                DeltaOp::Update(t) => {
                    if !self.pos.contains_key(&t.id()) && !added.contains(&t.id()) {
                        return Err(Error::Parse(format!(
                            "delta updates missing tuple {}",
                            t.id()
                        )));
                    }
                    crate::delta::check_arity(&self.table, t)?;
                }
                DeltaOp::Delete(_) => unreachable!("delete-free path"),
            }
        }
        Ok(())
    }

    /// Clone the named tuples out of the current table through the
    /// position index (absent ids were deleted).
    fn snapshot_tuples(&self, ids: &BTreeSet<TupleId>) -> HashMap<TupleId, Tuple> {
        ids.iter()
            .filter_map(|id| {
                self.pos
                    .get(id)
                    .map(|&p| (*id, self.table.tuples()[p].clone()))
            })
            .collect()
    }

    /// Retire every tuple whose last containing window closed behind
    /// the watermark: remove it from the table (compacting positions,
    /// like an explicit delete), drop its sequence number and event
    /// time, and add its id to `touched` so the caller's redetect
    /// retracts its violations through the provenance indexes. Returns
    /// how many tuples were retired. No-op for unwindowed sessions.
    fn expire_past_watermark(&mut self, touched: &mut BTreeSet<TupleId>) -> Result<usize> {
        let expired: BTreeSet<TupleId> = match &self.win {
            Some(win) if win.clock > 0 => {
                let watermark = win.clock - 1;
                win.times
                    .iter()
                    .filter(|(_, &ts)| win.spec.expired(ts, watermark))
                    .map(|(&id, _)| id)
                    .collect()
            }
            _ => return Ok(0),
        };
        if expired.is_empty() {
            return Ok(0);
        }
        let mut deletes = DeltaBatch::new();
        for id in &expired {
            deletes = deletes.delete(*id);
        }
        self.table = apply_batch_to_table(&self.table, &deletes)?;
        self.pos = self
            .table
            .tuples()
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id(), i))
            .collect();
        let win = self.win.as_mut().expect("windowed: expired is non-empty");
        for id in &expired {
            self.seqs.remove(id);
            win.times.remove(id);
            touched.insert(*id);
        }
        Ok(expired.len())
    }

    /// The current value of `cell`, resolved through the position index
    /// (`Table::cell_value` falls back to an O(n) scan once ids and
    /// positions diverge).
    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.pos
            .get(&cell.tuple)
            .and_then(|&p| self.table.tuples().get(p))
            .and_then(|t| t.get(cell.attr as usize))
    }

    /// The batch cleanse loop, with per-round re-detection going through
    /// the incremental path (only repair-changed tuples are dirty).
    fn repair_loop(
        &mut self,
        engine: &Engine,
        report: &mut DeltaReport,
        stats: &mut ApplyStats,
    ) -> Result<()> {
        let mut freeze = FreezeCounter::new(self.options.max_changes_per_cell);
        let mut converged = false;
        let mut froze = false;
        let mut broke_stable = false;
        for _ in 0..self.options.max_iterations.max(1) {
            engine.check_cancelled()?;
            if self.store.is_empty() {
                converged = true;
                break;
            }
            report.iterations += 1;
            report.total_violations += self.store.len();
            let round = repair_round(
                engine,
                &self.store.detected(),
                &self.options.strategy,
                self.options.repair_options,
                &mut freeze,
                |cell| self.cell_value(cell),
            )?;
            report.frozen_cells += round.frozen;
            froze |= round.withheld;
            if round.updates.is_empty() {
                broke_stable = !froze;
                break;
            }
            report.repair_cost += round.cost;
            report.cells_changed += round.updates.len();
            self.table.apply_at(&round.updates, &self.pos)?;
            let dirty: BTreeSet<TupleId> = round.updates.keys().map(|c| c.tuple).collect();
            let fresh = self.snapshot_tuples(&dirty);
            self.redetect(&dirty, &fresh, stats)?;
        }
        if !converged {
            converged = self.store.is_empty();
        }
        report.converged = converged;
        self.stable = converged || broke_stable;
        Ok(())
    }

    /// Re-detect everything the dirty tuples can influence: remove their
    /// old scoped entries from the indexes, retract their violations,
    /// enumerate `delta×resident ∪ delta×delta` units, and run Detect +
    /// GenFix over those units through the lazy Stage API.
    fn redetect(
        &mut self,
        dirty: &BTreeSet<TupleId>,
        fresh: &HashMap<TupleId, Tuple>,
        stats: &mut ApplyStats,
    ) -> Result<()> {
        let engine = self.executor.engine().clone();
        // Rule-agnostic retraction by generating-unit tuple ids.
        for stored in self.store.retract_tuples(dirty) {
            stats.retracted += 1;
            stats.mark_stored(&stored);
        }
        let partial = self.options.isolation.is_partial();
        for ri in 0..self.states.len() {
            engine.check_cancelled()?;
            if self.states[ri].quarantined.is_some() {
                continue;
            }
            let run = self
                .enumerate_rule(ri, dirty, fresh, stats, &engine)
                .and_then(|units| {
                    if units.is_empty() {
                        Ok(())
                    } else {
                        self.detect_units(ri, units, stats, &engine)
                    }
                });
            match run {
                Ok(()) => {}
                // Cancellation and admission failures are about the
                // job, not the rule — never quarantine for them.
                Err(e @ Error::Cancelled { .. }) | Err(e @ Error::Rejected { .. }) => {
                    return Err(e)
                }
                // Partial mode: a mid-apply fault leaves this rule's
                // index integrity unknown, so one strike quarantines —
                // drop its state and carry on with the other rules.
                Err(e) if partial => self.quarantine_rule(ri, &e.to_string(), stats, &engine),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Quarantine rule `ri`: record the cause, drop its indexes, and
    /// retract its stored violations so repair never acts on a faulted
    /// rule's stale detections. The other rules' state is untouched.
    fn quarantine_rule(&mut self, ri: usize, cause: &str, stats: &mut ApplyStats, engine: &Engine) {
        let state = &mut self.states[ri];
        *state = RuleState {
            quarantined: Some(cause.to_string()),
            ..RuleState::new(&state.rule, &self.options)
        };
        for stored in self.store.retract_rule(ri) {
            stats.retracted += 1;
            stats.mark_stored(&stored);
        }
        let m = engine.metrics();
        Metrics::add(&m.breaker_trips, 1);
        Metrics::add(&m.rules_quarantined, 1);
    }

    /// Update rule `ri`'s candidate index for the dirty tuples and
    /// enumerate the units to re-detect: remove their old versions,
    /// probe with the new ones, insert those.
    fn enumerate_rule(
        &mut self,
        ri: usize,
        dirty: &BTreeSet<TupleId>,
        fresh: &HashMap<TupleId, Tuple>,
        stats: &mut ApplyStats,
        engine: &Engine,
    ) -> Result<Vec<(Provenance, DetectUnit)>> {
        let state = &mut self.states[ri];
        // Remove by the seq each tuple was indexed under (the live seq
        // may differ by now).
        let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
        for id in dirty {
            if let Some((seq, reps)) = state.scoped.remove(id) {
                for (rep, t) in reps.into_iter().enumerate() {
                    blocks.extend(state.index.remove((seq, rep as u32), t));
                }
            }
        }
        let mut news = Vec::new();
        for id in dirty {
            if let Some(t) = fresh.get(id) {
                let seq = *self.seqs.get(id).expect("live tuple has a seq");
                state.scope_into(seq, t, &mut news);
            }
        }
        news.sort_by_key(Placed::pos);
        let mut units = Vec::new();
        state
            .index
            .probe(engine, &news, &mut blocks, |unit, block| {
                let ids: Vec<TupleId> = match &unit {
                    DetectUnit::Single(t) => vec![t.id()],
                    DetectUnit::Pair(a, b) => vec![a.id(), b.id()],
                    DetectUnit::List(ts) => ts.iter().map(Tuple::id).collect(),
                };
                stats.reprocessed.extend(ids.iter().copied());
                let prov = match block {
                    Some(key) => Provenance::Block(key.clone()),
                    None => Provenance::Tuples(ids),
                };
                units.push((prov, unit));
            })?;
        state.index.insert(engine, &news);
        // only list rules store violations by block
        let list = state.rule.unit_kind() == UnitKind::List;
        for id in blocks {
            if let (true, BlockId::Key(key)) = (list, &id) {
                for stored in self.store.retract_block(ri, key) {
                    stats.retracted += 1;
                    stats.mark_stored(&stored);
                }
            }
            stats.blocks.insert((ri, id));
        }
        Ok(units)
    }

    /// Run Detect + GenFix over the enumerated units as one fused lazy
    /// stage (fault retries, memory budget, and cancellation apply), and
    /// fold the results into the store.
    fn detect_units(
        &mut self,
        ri: usize,
        units: Vec<(Provenance, DetectUnit)>,
        stats: &mut ApplyStats,
        engine: &Engine,
    ) -> Result<()> {
        let rule = Arc::clone(&self.states[ri].rule);
        let metrics = engine.metrics().clone();
        let op = format!("delta-detect+genfix({})", rule.name());
        let found: Vec<(Provenance, Violation, Vec<Fix>)> =
            PDataset::from_vec(engine.clone(), units)
                .stage()
                .map_parts(op, move |part: Vec<(Provenance, DetectUnit)>| {
                    Metrics::add(&metrics.detect_calls, part.len() as u64);
                    let mut out = Vec::new();
                    for (prov, unit) in part {
                        for v in rule.detect(&unit) {
                            let fixes = rule.gen_fix(&v);
                            out.push((prov.clone(), v, fixes));
                        }
                    }
                    Ok(out)
                })
                .run()?
                .try_collect()?;
        Metrics::add(&engine.metrics().violations, found.len() as u64);
        for (prov, violation, fixes) in found {
            stats.added += 1;
            let stored = Stored {
                rule: ri,
                violation,
                fixes,
                prov,
            };
            stats.mark_stored(&stored);
            self.store.add(stored);
        }
        Ok(())
    }

    /// Count connected components of the violation graph (tuples linked
    /// by sharing a violation) containing a tuple whose violations were
    /// added or retracted this apply.
    fn touched_components(&self, stats: &ApplyStats) -> u64 {
        if stats.markers.is_empty() {
            return 0;
        }
        let mut uf = UnionFind::new();
        for stored in self.store.items.values() {
            let mut ids: Vec<TupleId> = stored.violation.tuple_ids();
            if let Provenance::Tuples(unit) = &stored.prov {
                ids.extend(unit.iter().copied());
            }
            for w in ids.windows(2) {
                uf.union(w[0], w[1]);
            }
        }
        let roots: BTreeSet<u64> = stats.markers.iter().map(|&id| uf.find(id)).collect();
        roots.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Schema;
    use bigdansing_rules::FdRule;

    fn fd_session(rows: Vec<Vec<Value>>) -> Session {
        let schema = Schema::parse("zipcode,city");
        let table = Table::from_rows("t", schema.clone(), rows);
        let rules: Vec<Arc<dyn Rule>> =
            vec![Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap())];
        Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn open_session_detects_existing_violations() {
        let s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(1), Value::str("SF")],
        ]);
        assert_eq!(s.violation_count(), 1);
        assert!(!s.is_clean());
    }

    #[test]
    fn insert_creating_violation_is_detected_and_repaired() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        assert!(s.is_clean());
        let report = s
            .apply(DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert!(report.violations_added >= 1);
        assert!(report.converged, "repair should clean the FD violation");
        assert!(s.is_clean());
        // only the dirty block's tuples were reprocessed
        assert!(report.tuples_reprocessed < 4);
    }

    #[test]
    fn partial_isolation_quarantines_faulty_rule_and_continues() {
        let schema = Schema::parse("zipcode,city");
        let table = Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![
            Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap()),
            Arc::new(
                bigdansing_rules::UdfRule::builder("udf:faulty", |_| panic!("bad udf"))
                    .unit_kind(bigdansing_rules::UnitKind::Single)
                    .build(),
            ),
        ];
        let mut s = Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions {
                isolation: IsolationOptions::partial(),
                ..Default::default()
            },
        )
        .unwrap();
        // the faulty rule was quarantined during the opening detect;
        // only its state is poisoned, not the session
        assert_eq!(
            s.quarantined_rules()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["udf:faulty"]
        );
        assert!(!s.is_poisoned());
        // the healthy FD rule keeps detecting and repairing
        let report = s
            .apply(DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert!(report.violations_added >= 1);
        assert!(report.converged);
        assert_eq!(report.rules_quarantined, 1);
        assert!(s.is_clean());
    }

    #[test]
    fn quarantine_retracts_the_faulted_rules_stored_violations() {
        // the faulty rule produces violations for a while, then starts
        // panicking: quarantine must retract what it already stored
        let table = Table::from_rows(
            "t",
            Schema::parse("zipcode,city"),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        );
        let trip = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let trip_in_detect = Arc::clone(&trip);
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            bigdansing_rules::UdfRule::builder("udf:flaky", move |unit| {
                if trip_in_detect.load(std::sync::atomic::Ordering::SeqCst) {
                    panic!("flaky udf tripped");
                }
                let t = match unit {
                    DetectUnit::Single(t) => t,
                    other => panic!("unexpected unit {other:?}"),
                };
                // complain about every row, with no fixes: the store
                // keeps these violations live across applies
                vec![Violation::new("udf:flaky").with_cell(t.cell(1), t.value(1).clone())]
            })
            .unit_kind(bigdansing_rules::UnitKind::Single)
            .build(),
        )];
        let mut s = Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions {
                isolation: IsolationOptions::partial(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.violation_count(), 2);
        assert!(s.quarantined_rules().is_empty());
        trip.store(true, std::sync::atomic::Ordering::SeqCst);
        let report = s
            .apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("SEA")]))
            .unwrap();
        assert_eq!(report.rules_quarantined, 1);
        assert!(
            s.is_clean(),
            "quarantine must retract the rule's stored violations"
        );
        assert!(!s.is_poisoned());
    }

    #[test]
    fn strict_mode_poisons_the_session_on_rule_fault() {
        let table = Table::from_rows(
            "t",
            Schema::parse("zipcode,city"),
            vec![vec![Value::Int(1), Value::str("LA")]],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            bigdansing_rules::UdfRule::builder("udf:faulty", |_| panic!("bad udf"))
                .unit_kind(bigdansing_rules::UnitKind::Single)
                .build(),
        )];
        let err = Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions::default(),
        );
        assert!(err.is_err(), "strict isolation propagates the fault");
    }

    #[test]
    fn delete_retracts_violations() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(1), Value::str("SF")],
        ]);
        assert_eq!(s.violation_count(), 1);
        let report = s.apply(DeltaBatch::new().delete(1)).unwrap();
        assert_eq!(report.violations_retracted, 1);
        assert!(s.is_clean());
        assert!(report.converged);
    }

    #[test]
    fn malformed_batch_leaves_session_intact() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        // Valid insert followed by an invalid update: the in-place fast
        // path must reject the whole batch before mutating anything.
        let bad = DeltaBatch::new()
            .insert(7, vec![Value::Int(3), Value::str("CH")])
            .update(99, vec![Value::Int(3), Value::str("CH")]);
        assert!(s.apply(bad).is_err());
        assert_eq!(s.table().len(), 2);
        assert!(s.is_clean());
        // Arity mismatches are caught up front too.
        assert!(s
            .apply(DeltaBatch::new().insert(8, vec![Value::Int(3)]))
            .is_err());
        assert_eq!(s.table().len(), 2);
        // An update may target an id inserted later in the batch only
        // in op order — this one comes first, so it must fail.
        let out_of_order = DeltaBatch::new()
            .update(7, vec![Value::Int(3), Value::str("CH")])
            .insert(7, vec![Value::Int(3), Value::str("CH")]);
        assert!(s.apply(out_of_order).is_err());
        // The session still works after the rejections.
        let r = s
            .apply(DeltaBatch::new().insert(7, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert!(r.converged);
        assert_eq!(s.table().len(), 3);
    }

    #[test]
    fn delete_then_reinsert_same_id_purges_stale_block_entry() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        assert!(s.is_clean());
        // Tuple 0 dies and is reborn in the SAME block with a new city.
        // `apply` reassigns its seq before the indexes are cleaned up,
        // so removal must go by the seq the old entry was indexed under
        // — otherwise the dead version stays resident and pairs with
        // the reborn one as a phantom violation.
        let r = s
            .apply(
                DeltaBatch::new()
                    .delete(0)
                    .insert(0, vec![Value::Int(1), Value::str("SF")]),
            )
            .unwrap();
        assert_eq!(
            r.violations_added, 0,
            "reborn tuple is the only zip-1 row; any violation pairs it \
             with its dead version"
        );
        assert!(s.is_clean());
        // Future deltas into the block must pair with the live version only.
        let r2 = s
            .apply(DeltaBatch::new().insert(9, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert_eq!(r2.violations_added, 0);
        assert!(s.is_clean());
    }

    #[test]
    fn mid_apply_failure_poisons_the_session() {
        use bigdansing_dataflow::{ExecMode, FaultInjector, FaultPolicy};
        // An empty base runs no detect stage at open; the first batch
        // does, and every task attempt panics — a deterministic failure
        // after the table has been materialized.
        let schema = Schema::parse("zipcode,city");
        let table = Table::from_rows("t", schema.clone(), vec![]);
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_policy(FaultPolicy::fail_fast())
            .fault_injector(FaultInjector::seeded(1).with_task_panics(1.0))
            .build();
        let rules: Vec<Arc<dyn Rule>> =
            vec![Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap())];
        let mut s = Session::new(
            Executor::new(engine),
            rules,
            &table,
            CleanseOptions::default(),
        )
        .unwrap();
        assert!(!s.is_poisoned());
        // Two inserts into one block form a delta×delta pair, so the
        // batch runs a detect stage (a lone insert would not).
        let err = s
            .apply(
                DeltaBatch::new()
                    .insert(0, vec![Value::Int(1), Value::str("LA")])
                    .insert(1, vec![Value::Int(1), Value::str("SF")]),
            )
            .unwrap_err();
        assert!(
            !err.to_string().contains("poisoned"),
            "first failure surfaces the stage error: {err}"
        );
        assert!(s.is_poisoned());
        // Every later apply — even an empty batch — is refused.
        let err = s.apply(DeltaBatch::new()).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
    }

    #[test]
    fn clean_delta_skips_repair_after_stable_apply() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        // first apply establishes stability
        let r1 = s
            .apply(DeltaBatch::new().insert(5, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert!(r1.converged);
        let r2 = s
            .apply(DeltaBatch::new().insert(6, vec![Value::Int(4), Value::str("SD")]))
            .unwrap();
        assert!(r2.repair_skipped, "clean insert into stable session");
        assert!(r2.converged);
    }

    #[test]
    fn empty_rules_is_an_error() {
        let schema = Schema::parse("a");
        let table = Table::from_rows("t", schema, vec![vec![Value::Int(1)]]);
        assert!(Session::new(
            Executor::new(Engine::sequential()),
            Vec::new(),
            &table,
            CleanseOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn lsh_override_without_a_similarity_rule_is_rejected() {
        let schema = Schema::parse("zipcode,city");
        let options = CleanseOptions {
            lsh: Some(LshParams::default()),
            ..Default::default()
        };
        let err = err_of(Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            options.clone(),
        ));
        assert!(err.to_string().contains("similarity rules"), "{err}");
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            options,
            DurabilityOptions::new(durable_dir("lsh-override")),
        ));
        assert!(err.to_string().contains("similarity rules"), "{err}");
    }

    // --- durability ----------------------------------------------------

    fn err_of<T>(r: Result<T>) -> Error {
        match r {
            Ok(_) => panic!("expected an error"),
            Err(e) => e,
        }
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bd-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fd_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
        vec![Arc::new(FdRule::parse("zipcode -> city", schema).unwrap())]
    }

    fn base_table(schema: &Schema) -> Table {
        Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        )
    }

    fn batches() -> Vec<DeltaBatch> {
        vec![
            DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]),
            DeltaBatch::new()
                .insert(11, vec![Value::Int(3), Value::str("CH")])
                .update(10, vec![Value::Int(2), Value::str("NY")]),
            DeltaBatch::new().delete(1),
            DeltaBatch::new().insert(12, vec![Value::Int(3), Value::str("AU")]),
        ]
    }

    fn assert_same(a: &Session, b: &Session) {
        assert_eq!(a.table().tuples(), b.table().tuples());
        assert_eq!(a.table().schema().attrs(), b.table().schema().attrs());
        assert_eq!(a.detected(), b.detected());
        assert_eq!(a.violation_count(), b.violation_count());
    }

    #[test]
    fn durable_session_matches_plain_session() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("parity");
        let mut durable = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(2),
        )
        .unwrap();
        let mut plain = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
        )
        .unwrap();
        for b in batches() {
            durable.apply(b.clone()).unwrap();
            plain.apply(b).unwrap();
            assert_same(&durable, &plain);
        }
        let m = durable.executor().engine().metrics().snapshot();
        assert_eq!(m.wal_appends, 4);
        assert!(m.snapshots_written >= 2, "baseline + cadence snapshots");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_replays_wal_suffix_and_matches_uninterrupted() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("replay");
        // Cadence 100: nothing beyond the baseline snapshot, so every
        // batch must come back from the WAL.
        let mut durable = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        for b in batches() {
            durable.apply(b).unwrap();
        }
        drop(durable); // "crash" — recovery sees only the disk state

        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        assert_eq!(stats.snapshot_seq, 0);
        assert_eq!(stats.replayed, 4);
        assert_eq!(stats.last_seq, 4);

        let mut oracle = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
        )
        .unwrap();
        for b in batches() {
            oracle.apply(b).unwrap();
        }
        assert_same(&recovered, &oracle);

        // Recovery wrote a catch-up snapshot: a second recovery replays
        // nothing and still matches.
        let (again, stats2) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        assert_eq!(stats2.replayed, 0);
        assert_eq!(stats2.snapshot_seq, 4);
        assert_same(&again, &oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_session_keeps_cleansing_correctly() {
        // Indexes are rebuilt, not restored — later deltas must still
        // pair against pre-crash residents.
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("cont");
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(1),
        )
        .unwrap();
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        drop(s);
        let (mut recovered, _) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        // Conflicts with resident tuple 10 (zip 3 → CH): detection must
        // see the delta×base pair and repair it.
        let r = recovered
            .apply(DeltaBatch::new().insert(11, vec![Value::Int(3), Value::str("AU")]))
            .unwrap();
        assert!(r.violations_added >= 1, "delta×resident pair detected");
        assert!(r.converged);
        assert!(recovered.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_durable_session_is_recoverable() {
        use bigdansing_dataflow::{ExecMode, FaultInjector, FaultPolicy};
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("poison");
        let table = Table::from_rows("t", schema.clone(), vec![]);
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_policy(FaultPolicy::fail_fast())
            .fault_injector(FaultInjector::seeded(1).with_task_panics(1.0))
            .build();
        let mut s = Session::open_durable(
            Executor::new(engine),
            fd_rules(&schema),
            &table,
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        let batch = DeltaBatch::new()
            .insert(0, vec![Value::Int(1), Value::str("LA")])
            .insert(1, vec![Value::Int(1), Value::str("SF")]);
        assert!(s.apply(batch.clone()).is_err());
        assert!(s.is_poisoned());
        drop(s);

        // The batch reached the WAL before the failing detect stage;
        // recovery with a healthy engine replays it to completion.
        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(recovered.table().len(), 2);
        assert!(recovered.is_clean(), "replay repaired the FD violation");

        let mut oracle = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &table,
            CleanseOptions::default(),
        )
        .unwrap();
        oracle.apply(batch).unwrap();
        assert_same(&recovered, &oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_durable_refuses_existing_snapshot() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("refuse");
        let open = |dir: &std::path::Path| {
            Session::open_durable(
                Executor::new(Engine::sequential()),
                fd_rules(&schema),
                &base_table(&schema),
                CleanseOptions::default(),
                DurabilityOptions::new(dir),
            )
        };
        assert!(open(&dir).is_ok());
        let err = err_of(open(&dir));
        assert!(err.to_string().contains("recover"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_rule_mismatch_and_missing_dir() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("mismatch");
        Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        let other: Vec<Arc<dyn Rule>> =
            vec![Arc::new(FdRule::parse("city -> zipcode", &schema).unwrap())];
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            other,
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        ));
        assert!(err.to_string().contains("rule set mismatch"), "{err}");

        let empty = durable_dir("mismatch-empty");
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&empty),
        ));
        assert!(err.to_string().contains("no snapshot"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn malformed_batch_never_reaches_the_wal() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("badbatch");
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        assert!(s
            .apply(DeltaBatch::new().update(99, vec![Value::Int(1), Value::str("X")]))
            .is_err());
        assert!(s.apply(DeltaBatch::new().delete(42).delete(42)).is_err());
        s.apply(DeltaBatch::new().insert(5, vec![Value::Int(9), Value::str("TK")]))
            .unwrap();
        drop(s);
        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert_eq!(stats.replayed, 1, "only the valid batch was logged");
        assert_eq!(recovered.table().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn windowed_session(spec: WindowSpec) -> Session {
        let schema = Schema::parse("zipcode,city");
        Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions {
                window: Some(spec),
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Session-level oracle: after every apply, the windowed session's
    /// violation count must match a from-scratch detect over its table.
    fn assert_window_invariant(s: &Session) {
        let schema = Schema::parse("zipcode,city");
        let fresh = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            s.table(),
            CleanseOptions::default(),
        )
        .unwrap();
        assert_eq!(
            s.violation_count(),
            fresh.violation_count(),
            "windowed store must equal full detect over the live table"
        );
    }

    #[test]
    fn unwindowed_session_has_no_watermark() {
        let s = fd_session(vec![vec![Value::Int(1), Value::str("LA")]]);
        assert!(s.window().is_none());
        assert!(s.watermark().is_none());
        assert!(s.window_live().is_none());
    }

    #[test]
    fn tumbling_window_expires_closed_window_tuples() {
        let mut s = windowed_session(WindowSpec::tumbling(4).unwrap());
        // base rows carry event times 0 and 1 → watermark 1, window [0,4) open
        assert_eq!(s.watermark(), Some(1));
        assert_eq!(s.window_live(), Some(2));
        assert_eq!(s.event_time(0), Some(0));

        let insert = |s: &mut Session, id: u64, zip: i64, city: &str| {
            s.apply(DeltaBatch::new().insert(id, vec![Value::Int(zip), Value::str(city)]))
                .unwrap()
        };
        // ts 2 and 3 keep the watermark inside [0,4): nothing expires yet
        let r = insert(&mut s, 10, 3, "CH");
        assert_eq!((r.tuples_expired, s.watermark()), (0, Some(2)));
        let r = insert(&mut s, 11, 4, "SE");
        assert_eq!((r.tuples_expired, s.watermark()), (0, Some(3)));
        assert_eq!(s.window_live(), Some(4));

        // ts 4 closes the [0,4) window: all four earlier tuples retire
        let r = insert(&mut s, 12, 5, "DC");
        assert_eq!(r.tuples_expired, 4);
        assert_eq!(s.watermark(), Some(4));
        assert_eq!(s.window_live(), Some(1));
        assert_eq!(s.table().len(), 1);
        assert_window_invariant(&s);
    }

    #[test]
    fn sliding_window_keeps_trailing_span() {
        let mut s = windowed_session(WindowSpec::sliding(4, 2).unwrap());
        let insert = |s: &mut Session, id: u64, zip: i64| {
            s.apply(DeltaBatch::new().insert(id, vec![Value::Int(zip), Value::str("X")]))
                .unwrap()
        };
        // base ts {0,1}; ts 2,3,4 arrive → wm 4 expires ts 0,1 (their last
        // window [0,4) closed); live = {2,3,4}
        insert(&mut s, 10, 3);
        insert(&mut s, 11, 4);
        let r = insert(&mut s, 12, 5);
        assert_eq!(r.tuples_expired, 2);
        assert_eq!(s.window_live(), Some(3));
        // ts 5 → wm 5: no window boundary crossed
        let r = insert(&mut s, 13, 6);
        assert_eq!(r.tuples_expired, 0);
        assert_eq!(s.window_live(), Some(4));
        // ts 6 → wm 6 expires ts 2,3 ([2,6) closed); live = {4,5,6}
        let r = insert(&mut s, 14, 7);
        assert_eq!(r.tuples_expired, 2);
        assert_eq!(s.window_live(), Some(3));
        assert_window_invariant(&s);
    }

    #[test]
    fn expiry_retracts_violations_of_expired_tuples() {
        let mut s = windowed_session(WindowSpec::tumbling(4).unwrap());
        // conflicting duplicate zipcode: a violation among live tuples
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert!(s.is_clean(), "repair resolves the FD conflict");
        // push the watermark past the first window; expired tuples must
        // leave no dangling violations behind
        for (i, id) in [(6, 20u64), (7, 21), (8, 22)] {
            s.apply(DeltaBatch::new().insert(id, vec![Value::Int(i), Value::str("Y")]))
                .unwrap();
        }
        assert!(s.table().len() <= 4);
        assert_window_invariant(&s);
    }

    #[test]
    fn windowed_durable_session_recovers_watermark() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("window");
        let opts = || CleanseOptions {
            window: Some(WindowSpec::tumbling(3).unwrap()),
            ..Default::default()
        };
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            opts(),
            DurabilityOptions::new(&dir).snapshot_every(1),
        )
        .unwrap();
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert_eq!(s.watermark(), Some(2));
        drop(s);

        // window spec must match the snapshot
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        ));
        assert!(err.to_string().contains("window mismatch"), "{err}");

        let (mut s, _) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            opts(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert_eq!(s.watermark(), Some(2));
        assert_eq!(s.window_live(), Some(3));
        // the very next arrival closes [0,3): recovery resumed the clock
        let r = s
            .apply(DeltaBatch::new().insert(11, vec![Value::Int(4), Value::str("SE")]))
            .unwrap();
        assert_eq!(r.tuples_expired, 3);
        assert_eq!(s.window_live(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
