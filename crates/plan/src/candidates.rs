//! Candidate units: which scoped tuples reach Detect together (§3.1's
//! Block and Iterate, with the enhancers of §4.2), decided in one place
//! for batch jobs and incremental sessions.
//!
//! `block_units` is the kernel. It enumerates the Detect units of one
//! block, in table order, that involve at least one *fresh* member:
//!
//! * a batch reducer passes `Fresh::All`: batch detection is a probe
//!   against an empty resident set, and the kernel yields the reducer's
//!   order — `(i, j)` for `i < j` for unordered pairs, each `i` with
//!   every `j ≠ i` for ordered ones;
//! * a [`CandidateIndex`], one per rule of an incremental session, keeps
//!   the residents of every block in table order. A probe merges the new
//!   members in and passes their indices, so it yields exactly
//!   `delta×resident ∪ delta×delta`, oriented as a batch run over the
//!   same table orients them.
//!
//! Both paths therefore agree on which pairs a block yields, each pair's
//! orientation, the CrossProduct same-id filter, and the LSH rule that a
//! pair is compared only in the first band both signatures share.

use crate::physical::IterateStrategy;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Result, Tuple};
use bigdansing_dataflow::{Engine, PDataset};
use bigdansing_ocjoin::{try_ocjoin, OcIndex, OcJoinConfig};
use bigdansing_rules::{BlockKey, DetectUnit, Rule};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// How the members of one block form Detect units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockUnits {
    /// The whole block is one unit (BlockList).
    Whole,
    /// Each unordered pair once, oriented in table order (BlockPairs of
    /// a symmetric Detect, UCrossProduct).
    Unordered,
    /// Both orientations of every pair (BlockPairs of an
    /// order-sensitive Detect).
    Ordered,
    /// Both orientations of every pair of distinct tuple ids: the
    /// CrossProduct never pairs two Scope outputs of one tuple.
    OrderedDistinctIds,
    /// One bucket of LSH band `.0`: each unordered pair whose first
    /// shared band is this one, so a pair colliding in several bands is
    /// compared exactly once.
    FirstSharedBand(usize),
}

impl BlockUnits {
    /// How `strategy` forms units within a block of the rule's Block
    /// operator (or the one block of an unblocked rule). `None` for
    /// SingleUnits and OcJoin, which do not block, and for LshBlocks,
    /// whose units depend on the bucket's band.
    pub(crate) fn of(strategy: &IterateStrategy) -> Option<BlockUnits> {
        match strategy {
            IterateStrategy::BlockList => Some(BlockUnits::Whole),
            IterateStrategy::BlockPairs { ordered: false } | IterateStrategy::UCrossProduct => {
                Some(BlockUnits::Unordered)
            }
            IterateStrategy::BlockPairs { ordered: true } => Some(BlockUnits::Ordered),
            IterateStrategy::CrossProduct => Some(BlockUnits::OrderedDistinctIds),
            _ => None,
        }
    }

    fn ordered(self) -> bool {
        matches!(self, BlockUnits::Ordered | BlockUnits::OrderedDistinctIds)
    }
}

/// Which members of a block [`block_units`] treats as fresh.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fresh<'a> {
    /// Every member: the bulk enumeration of a batch reducer.
    All,
    /// The members at these ascending indices. The others are residents,
    /// whose units among themselves are already known.
    At(&'a [usize]),
}

/// A scoped tuple as a block member.
pub(crate) trait Member {
    /// The scoped tuple.
    fn tuple(&self) -> &Tuple;

    /// Its LSH band hashes; only [`BlockUnits::FirstSharedBand`] reads
    /// them.
    fn band_hashes(&self) -> &[u64] {
        &[]
    }
}

impl Member for Tuple {
    fn tuple(&self) -> &Tuple {
        self
    }
}

/// The batch LshBlocks shuffle record: `(band, the signature's band
/// hashes, scoped tuple)`.
pub(crate) type BandRecord = (u32, Arc<[u64]>, Tuple);

impl Member for BandRecord {
    fn tuple(&self) -> &Tuple {
        &self.2
    }

    fn band_hashes(&self) -> &[u64] {
        &self.1
    }
}

impl<M: Member> Member for &M {
    fn tuple(&self) -> &Tuple {
        (*self).tuple()
    }

    fn band_hashes(&self) -> &[u64] {
        (*self).band_hashes()
    }
}

/// The first band two LSH signatures share.
fn first_shared_band(a: &[u64], b: &[u64]) -> Option<usize> {
    a.iter().zip(b).position(|(x, y)| x == y)
}

/// The kernel: call `emit` on every Detect unit of `block` (in table
/// order) that involves a fresh member, pairs carrying their
/// orientation. A [`BlockUnits::Whole`] block is one unit whenever it
/// is enumerated. Returns how many pairs the first-shared-band rule
/// pruned.
pub(crate) fn block_units<M: Member>(
    units: BlockUnits,
    block: &[M],
    fresh: Fresh<'_>,
    mut emit: impl FnMut(DetectUnit) -> Result<()>,
) -> Result<u64> {
    if units == BlockUnits::Whole {
        emit(DetectUnit::List(
            block.iter().map(|m| m.tuple().clone()).collect(),
        ))?;
        return Ok(0);
    }
    let mut pruned = 0u64;
    let mut pair = |a: &M, b: &M| match units {
        BlockUnits::OrderedDistinctIds if a.tuple().id() == b.tuple().id() => Ok(()),
        BlockUnits::FirstSharedBand(band)
            if first_shared_band(a.band_hashes(), b.band_hashes()) != Some(band) =>
        {
            pruned += 1;
            Ok(())
        }
        _ => emit(DetectUnit::Pair(a.tuple().clone(), b.tuple().clone())),
    };
    let ordered = units.ordered();
    // Fresh::At: the position in the index list of the first fresh
    // member after `i`.
    let mut next = 0;
    for i in 0..block.len() {
        let is_fresh = match fresh {
            Fresh::All => true,
            Fresh::At(at) => {
                let hit = at.get(next) == Some(&i);
                next += usize::from(hit);
                hit
            }
        };
        if is_fresh {
            // a fresh member pairs with every other member (unordered:
            // with every later one)
            let from = if ordered { 0 } else { i + 1 };
            for j in (from..block.len()).filter(|&j| j != i) {
                pair(&block[i], &block[j])?;
            }
        } else if let Fresh::At(at) = fresh {
            // a resident pairs with the fresh members only (unordered:
            // with the later ones)
            for &j in if ordered { at } else { &at[next..] } {
                pair(&block[i], &block[j])?;
            }
        }
    }
    Ok(pruned)
}

/// A scoped tuple's place in table order: the owning tuple's sequence
/// number and its index among that tuple's Scope outputs.
pub type Pos = (u64, u32);

/// One block of a [`CandidateIndex`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockId {
    /// The rule's blocking key (`[]` for the one block of an unblocked
    /// rule, and for an OcJoin rule's whole input).
    Key(BlockKey),
    /// One LSH bucket: `(band, bucket hash)`.
    Band(usize, u64),
}

/// A block resident.
#[derive(Debug, Clone)]
struct Entry {
    pos: Pos,
    tuple: Tuple,
    hashes: Option<Arc<Vec<u64>>>,
}

impl Member for Entry {
    fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    fn band_hashes(&self) -> &[u64] {
        self.hashes.as_deref().map_or(&[], Vec::as_slice)
    }
}

/// A scoped tuple on its way into a [`CandidateIndex`], with its
/// blocking key or LSH signature worked out once for both probe and
/// insert.
#[derive(Debug, Clone)]
pub struct Placed {
    entry: Entry,
    /// The blocking key, for strategies that block by key.
    key: Option<BlockKey>,
}

impl Placed {
    /// Its place in table order.
    pub fn pos(&self) -> Pos {
        self.entry.pos
    }

    /// The blocks it belongs to: its key's, or one bucket per LSH band.
    fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        let key = self.key.iter().map(|k| BlockId::Key(k.clone()));
        let bands = self.entry.band_hashes().iter().enumerate();
        key.chain(bands.map(|(band, h)| BlockId::Band(band, *h)))
    }
}

/// A rule's persistent candidate index: every resident scoped tuple in
/// its blocks, in table order. A session keeps one per rule, and
/// re-detects a changed tuple by [`remove`](CandidateIndex::remove) of
/// its old version, [`probe`](CandidateIndex::probe) with the new one,
/// and [`insert`](CandidateIndex::insert). OcJoin rules keep the
/// persistent [`OcIndex`] behind the same operations.
pub struct CandidateIndex {
    rule: Arc<dyn Rule>,
    strategy: IterateStrategy,
    /// Residents per block, in table order.
    blocks: HashMap<BlockId, Vec<Entry>>,
    /// OcJoin rules: the inequality index, built by the first insert.
    oc: Option<OcIndex>,
}

impl CandidateIndex {
    /// An empty index of `rule`'s candidates under `strategy`.
    pub fn new(rule: Arc<dyn Rule>, strategy: IterateStrategy) -> CandidateIndex {
        CandidateIndex {
            rule,
            strategy,
            blocks: HashMap::new(),
            oc: None,
        }
    }

    /// Work out the blocks of the scoped tuple `tuple` at `pos`.
    pub fn place(&self, pos: Pos, tuple: Tuple) -> Placed {
        let (key, hashes) = match &self.strategy {
            IterateStrategy::SingleUnits | IterateStrategy::OcJoin(_) => (None, None),
            IterateStrategy::BlockPairs { .. } | IterateStrategy::BlockList => {
                (Some(self.rule.block(&tuple).unwrap_or_default()), None)
            }
            IterateStrategy::UCrossProduct | IterateStrategy::CrossProduct => {
                (Some(BlockKey::new()), None)
            }
            IterateStrategy::LshBlocks {
                bands,
                rows_per_band,
            } => {
                let hashes = self.rule.lsh_band_hashes(&tuple, *bands, *rows_per_band);
                (None, Some(Arc::new(hashes)))
            }
        };
        Placed {
            entry: Entry { pos, tuple, hashes },
            key,
        }
    }

    /// Remove the resident at `pos`, inserted as `tuple`. Returns the
    /// blocks it left, worked out again from `tuple`: the index keeps no
    /// per-resident copy of them.
    pub fn remove(&mut self, pos: Pos, tuple: Tuple) -> Vec<BlockId> {
        let placed = self.place(pos, tuple);
        if let Some(oc) = &mut self.oc {
            oc.remove(&placed.entry.tuple);
        }
        let blocks: Vec<BlockId> = placed.blocks().collect();
        for id in &blocks {
            if let Some(slot) = self.blocks.get_mut(id) {
                if let Ok(i) = slot.binary_search_by_key(&pos, |e| e.pos) {
                    slot.remove(i);
                }
                if slot.is_empty() {
                    self.blocks.remove(id);
                }
            }
        }
        blocks
    }

    /// Make `members` residents. An OcJoin rule's first insert builds
    /// its index over them, range-partitioned like a batch OCJoin.
    pub fn insert(&mut self, engine: &Engine, members: &[Placed]) {
        if let IterateStrategy::OcJoin(conds) = &self.strategy {
            let tuples = members.iter().map(|p| p.entry.tuple.clone());
            match &mut self.oc {
                Some(oc) => tuples.for_each(|t| oc.insert(t)),
                None => {
                    let tuples: Vec<Tuple> = tuples.collect();
                    let parts = engine.default_partitions();
                    self.oc = Some(OcIndex::build(conds.clone(), &tuples, parts));
                }
            }
        }
        for placed in members {
            for id in placed.blocks() {
                let slot = self.blocks.entry(id).or_default();
                let at = slot.partition_point(|e| e.pos < placed.pos());
                slot.insert(at, placed.entry.clone());
            }
        }
    }

    /// Call `emit` on every Detect unit that involves one of `news` (in
    /// table order): `news×residents ∪ news×news`, plus, for a list
    /// rule, the block the unit covers. `dirty` holds the blocks that
    /// removals have changed; the news' blocks join it, and a list rule
    /// re-detects every dirty block whole. Call it after removing the
    /// old versions of changed tuples and before inserting `news`.
    pub fn probe(
        &self,
        engine: &Engine,
        news: &[Placed],
        dirty: &mut BTreeSet<BlockId>,
        mut emit: impl FnMut(DetectUnit, Option<&BlockKey>),
    ) -> Result<()> {
        let metrics = engine.metrics();
        match &self.strategy {
            IterateStrategy::SingleUnits => {
                for p in news {
                    emit(DetectUnit::Single(p.entry.tuple.clone()), None);
                }
                return Ok(());
            }
            IterateStrategy::OcJoin(conds) => {
                let delta: Vec<Tuple> = news.iter().map(|p| p.entry.tuple.clone()).collect();
                let pairs = match &self.oc {
                    Some(oc) => oc.probe(engine, &delta),
                    // first ingest: the pairs of a batch OCJoin over the news
                    None => try_ocjoin(
                        PDataset::from_vec(engine.clone(), delta.clone()),
                        conds,
                        OcJoinConfig::default(),
                    )?
                    .try_collect()?,
                };
                if !delta.is_empty() {
                    dirty.insert(BlockId::Key(BlockKey::new()));
                }
                for (a, b) in pairs {
                    emit(DetectUnit::Pair(a, b), None);
                }
                return Ok(());
            }
            _ => {}
        }
        let mut fresh: BTreeMap<BlockId, Vec<&Entry>> = BTreeMap::new();
        for p in news {
            for id in p.blocks() {
                fresh.entry(id).or_default().push(&p.entry);
            }
        }
        dirty.extend(fresh.keys().cloned());
        let list = self.strategy == IterateStrategy::BlockList;
        let probed: Vec<&BlockId> = if list {
            dirty.iter().collect()
        } else {
            fresh.keys().collect()
        };
        let (mut pairs, mut pruned, mut buckets) = (0u64, 0u64, 0u64);
        let (mut merged, mut at) = (Vec::new(), Vec::new());
        for id in probed {
            let residents = self.blocks.get(id).map_or(&[][..], Vec::as_slice);
            let news = fresh.get(id).map_or(&[][..], Vec::as_slice);
            let (block, news_at) = if residents.is_empty() {
                (news, Fresh::All)
            } else {
                merge(residents, news, &mut merged, &mut at);
                (&merged[..], Fresh::At(&at))
            };
            if block.is_empty() {
                continue;
            }
            let (units, key) = match id {
                BlockId::Band(band, _) => {
                    buckets += u64::from(block.len() > 1);
                    (BlockUnits::FirstSharedBand(*band), None)
                }
                BlockId::Key(key) => {
                    let units = BlockUnits::of(&self.strategy).expect("a blocking strategy");
                    (units, Some(key).filter(|_| list))
                }
            };
            pruned += block_units(units, block, news_at, |unit| {
                if !list {
                    pairs += 1;
                }
                emit(unit, key);
                Ok(())
            })?;
        }
        Metrics::add(&metrics.pairs_generated, pairs);
        if let IterateStrategy::LshBlocks { .. } = self.strategy {
            Metrics::add(&metrics.lsh_candidate_pairs, pairs);
            Metrics::add(&metrics.lsh_pairs_pruned, pruned);
            Metrics::add(&metrics.lsh_bands_probed, buckets);
        }
        Ok(())
    }
}

/// Merge a block's residents and fresh members, each in table order,
/// into one table-ordered `block`, and the fresh members' indices in it
/// into `at` (both buffers are reused across blocks).
fn merge<'a>(
    residents: &'a [Entry],
    fresh: &[&'a Entry],
    block: &mut Vec<&'a Entry>,
    at: &mut Vec<usize>,
) {
    block.clear();
    at.clear();
    let mut residents = residents.iter().peekable();
    for f in fresh {
        while let Some(r) = residents.next_if(|r| r.pos < f.pos) {
            block.push(r);
        }
        at.push(block.len());
        block.push(*f);
    }
    block.extend(residents);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::rng::{check, vec_of, DEFAULT_CASES};
    use bigdansing_common::Value;
    use bigdansing_rules::{Fix, Violation};

    const BANDS: usize = 3;

    /// Reads its candidate keys off the tuple: `[rep, blocking key,
    /// band hash × BANDS]`.
    struct Columns;

    impl Rule for Columns {
        fn name(&self) -> &str {
            "columns"
        }

        fn block(&self, t: &Tuple) -> Option<BlockKey> {
            Some(BlockKey::single(t.value(1).clone()))
        }

        fn lsh_band_hashes(&self, t: &Tuple, bands: usize, _: usize) -> Vec<u64> {
            (0..bands).map(|k| int(t.value(2 + k)) as u64).collect()
        }

        fn detect(&self, _: &DetectUnit) -> Vec<Violation> {
            Vec::new()
        }

        fn gen_fix(&self, _: &Violation) -> Vec<Fix> {
            Vec::new()
        }
    }

    fn int(v: &Value) -> i64 {
        match v {
            Value::Int(i) => *i,
            other => panic!("not an int: {other:?}"),
        }
    }

    /// Scope output `rep` of tuple `seq`, at position `(seq, rep)`.
    fn member(seq: u64, rep: u32, key: i64, hashes: [i64; BANDS]) -> (Pos, Tuple) {
        let mut values = vec![Value::Int(rep.into()), Value::Int(key)];
        values.extend(hashes.map(Value::Int));
        ((seq, rep), Tuple::new(seq, values))
    }

    /// A pair unit as `((seq, rep), (seq, rep))`, in its orientation.
    type Oriented = ((u64, i64), (u64, i64));

    fn oriented(unit: &DetectUnit) -> Oriented {
        let (a, b) = unit.as_pair();
        ((a.id(), int(a.value(0))), (b.id(), int(b.value(0))))
    }

    /// Every strategy whose units are pairs drawn from blocks.
    fn pair_strategies() -> [IterateStrategy; 5] {
        [
            IterateStrategy::BlockPairs { ordered: false },
            IterateStrategy::BlockPairs { ordered: true },
            IterateStrategy::UCrossProduct,
            IterateStrategy::CrossProduct,
            IterateStrategy::LshBlocks {
                bands: BANDS,
                rows_per_band: 1,
            },
        ]
    }

    /// The batch reducers' enumeration: group the members into blocks in
    /// table order (one record per band for LSH, as the executor's
    /// shuffle does), then run the kernel with every member fresh.
    fn bulk(strategy: &IterateStrategy, members: &[(Pos, Tuple)]) -> Vec<Oriented> {
        let mut out = Vec::new();
        let mut collect = |unit: DetectUnit| {
            out.push(oriented(&unit));
            Ok(())
        };
        if let IterateStrategy::LshBlocks {
            bands,
            rows_per_band,
        } = strategy
        {
            let mut buckets: BTreeMap<(u32, u64), Vec<BandRecord>> = BTreeMap::new();
            for (_, t) in members {
                let hashes: Arc<[u64]> = Columns.lsh_band_hashes(t, *bands, *rows_per_band).into();
                for (band, h) in hashes.iter().enumerate() {
                    let record = (band as u32, Arc::clone(&hashes), t.clone());
                    buckets.entry((band as u32, *h)).or_default().push(record);
                }
            }
            for ((band, _), bucket) in &buckets {
                let units = BlockUnits::FirstSharedBand(*band as usize);
                block_units(units, bucket, Fresh::All, &mut collect).unwrap();
            }
        } else {
            let mut blocks: BTreeMap<BlockKey, Vec<Tuple>> = BTreeMap::new();
            for (_, t) in members {
                let key = match strategy {
                    IterateStrategy::BlockPairs { .. } => Columns.block(t).unwrap(),
                    _ => BlockKey::new(),
                };
                blocks.entry(key).or_default().push(t.clone());
            }
            let units = BlockUnits::of(strategy).unwrap();
            for block in blocks.values() {
                block_units(units, block, Fresh::All, &mut collect).unwrap();
            }
        }
        out.sort();
        out
    }

    fn placed(index: &CandidateIndex, members: &[(Pos, Tuple)]) -> Vec<Placed> {
        members
            .iter()
            .map(|(pos, t)| index.place(*pos, t.clone()))
            .collect()
    }

    #[test]
    fn fresh_all_enumerates_in_reducer_order() {
        let block: Vec<Tuple> = (0..3).map(|i| Tuple::new(i, Vec::new())).collect();
        let pairs = |units| {
            let mut out = Vec::new();
            block_units(units, &block, Fresh::All, |unit| {
                let (a, b) = unit.as_pair();
                out.push((a.id(), b.id()));
                Ok(())
            })
            .unwrap();
            out
        };
        assert_eq!(pairs(BlockUnits::Unordered), [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            pairs(BlockUnits::Ordered),
            [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        );
    }

    /// Splitting a block into residents ⊎ news, the bulk enumeration of
    /// the residents plus a probe with the news equals the bulk
    /// enumeration of the whole block, as a multiset of oriented pairs.
    /// The index first holds every member and has the news removed, the
    /// order a session applies a change in.
    #[test]
    fn bulk_of_residents_plus_probe_of_news_is_bulk_of_the_block() {
        check(
            "candidates_probe_completes_bulk",
            DEFAULT_CASES,
            |rng, size| {
                // up to 16 tuples of one or two Scope outputs each, over
                // three blocking keys, with band hashes from {0, 1, 2} so
                // pairs often share several bands
                let tuples = vec_of(rng, size, 0..17, |rng| {
                    let reps = 1 + rng.below(2) as usize;
                    let fresh = rng.chance(0.5);
                    let outputs = (0..reps)
                        .map(|_| {
                            let key = rng.below(3) as i64;
                            (key, [0; BANDS].map(|_| rng.below(3) as i64))
                        })
                        .collect::<Vec<_>>();
                    (fresh, outputs)
                });
                let mut members = Vec::new();
                for (seq, (fresh, outputs)) in tuples.into_iter().enumerate() {
                    for (rep, (key, hashes)) in outputs.into_iter().enumerate() {
                        members.push((fresh, member(seq as u64, rep as u32, key, hashes)));
                    }
                }
                members
            },
            |members| {
                let all: Vec<(Pos, Tuple)> = members.iter().map(|(_, m)| m.clone()).collect();
                let (news, residents): (Vec<_>, Vec<_>) = members.iter().partition(|(f, _)| *f);
                let news: Vec<(Pos, Tuple)> = news.into_iter().map(|(_, m)| m.clone()).collect();
                let residents: Vec<(Pos, Tuple)> =
                    residents.into_iter().map(|(_, m)| m.clone()).collect();
                let engine = Engine::sequential();
                for strategy in pair_strategies() {
                    let mut index = CandidateIndex::new(Arc::new(Columns), strategy.clone());
                    index.insert(&engine, &placed(&index, &all));
                    for (pos, t) in &news {
                        index.remove(*pos, t.clone());
                    }
                    let mut split = bulk(&strategy, &residents);
                    let mut dirty = BTreeSet::new();
                    let news = placed(&index, &news);
                    index
                        .probe(&engine, &news, &mut dirty, |unit, _| {
                            split.push(oriented(&unit))
                        })
                        .unwrap();
                    split.sort();
                    assert_eq!(split, bulk(&strategy, &all), "{strategy:?}");
                }
            },
        );
    }

    #[test]
    fn list_probe_redetects_every_dirty_block_whole() {
        let engine = Engine::sequential();
        let mut index = CandidateIndex::new(Arc::new(Columns), IterateStrategy::BlockList);
        let members = [
            member(0, 0, 7, [0; BANDS]),
            member(1, 0, 7, [0; BANDS]),
            member(2, 0, 8, [0; BANDS]),
            member(3, 0, 7, [0; BANDS]),
        ];
        index.insert(&engine, &placed(&index, &members));
        // block 7 loses a member, block 8 its only one
        let mut dirty: BTreeSet<BlockId> = members[1..3]
            .iter()
            .flat_map(|(pos, t)| index.remove(*pos, t.clone()))
            .collect();
        let news = placed(&index, &[member(4, 0, 9, [0; BANDS])]);
        let mut units = Vec::new();
        index
            .probe(&engine, &news, &mut dirty, |unit, key| {
                let ids: Vec<u64> = unit.tuples().into_iter().map(Tuple::id).collect();
                units.push((key.cloned(), ids));
            })
            .unwrap();
        let key = |k| BlockKey::single(Value::Int(k));
        assert_eq!(
            units,
            [(Some(key(7)), vec![0, 3]), (Some(key(9)), vec![4])],
            "the emptied block 8 has no unit left to detect"
        );
        let expected: BTreeSet<BlockId> = [7, 8, 9].map(|k| BlockId::Key(key(k))).into();
        assert_eq!(dirty, expected);
    }

    #[test]
    fn lsh_blocks_are_keyed_by_band_and_bucket() {
        let strategy = IterateStrategy::LshBlocks {
            bands: BANDS,
            rows_per_band: 1,
        };
        let index = CandidateIndex::new(Arc::new(Columns), strategy);
        let (pos, t) = member(0, 0, 0, [5, 6, 5]);
        let placed = index.place(pos, t);
        assert_eq!(
            placed.blocks().collect::<Vec<_>>(),
            [
                BlockId::Band(0, 5),
                BlockId::Band(1, 6),
                BlockId::Band(2, 5)
            ]
        );
    }
}
