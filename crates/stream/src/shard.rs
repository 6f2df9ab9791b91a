//! The distinct-completion counter: one single-walk, hash-range-sharded
//! counter with bounded resident memory, run on a caller's
//! [`SearchSession`].
//!
//! The engine's in-memory distinct counter
//! ([`CountingEngine::count_completions`](incdb_core::engine::CountingEngine::count_completions))
//! holds **every** canonical fingerprint at once, so its search speedups
//! hit a memory wall long before a CPU wall. This module trades passes for
//! memory: the fingerprint hash space is partitioned into [`HashRange`]
//! shards, and the backtracking search keeps only the fingerprints whose
//! hash falls in the ranges it is currently serving. Ranges tile the space,
//! so the per-range sets are disjoint and their counts simply add up
//! (merged through [`NatAccumulator`]); resident memory is bounded by the
//! walk's shared budget instead of the whole fingerprint set.
//!
//! Three mechanisms keep the memory bound from costing a full re-walk per
//! range:
//!
//! * **Single-walk multi-range counting** (`MultiRangeSink`): one search
//!   walk carries a whole sorted batch of ranges, bucketing every
//!   fingerprint into its range by binary search ([`HashRange::find`]) in
//!   `O(log ranges)`.
//! * **Eviction instead of restart**: when a budgeted walk's resident set
//!   would exceed the budget, the walk **evicts the fattest range's set**
//!   and defers that range to a follow-up walk — the walk itself continues
//!   and finishes every other range.
//! * **Closed-form class counting**: the sink counts at the session's
//!   [separation cut](SearchSession::separation_cut) instead of at leaves.
//!   Completions sharing a *dirty part* (the resolved facts that could
//!   collide) form a class whose members are pairwise distinct, so one
//!   memoised dirty-part fingerprint plus a closed-form subtree count
//!   replaces one resident fingerprint **per completion**. On instances
//!   with no separable nulls the cut sits at the leaves and the sink
//!   degrades to per-completion counting.
//!
//! [`count_session`] is the counter: it starts with the full range (one
//! pass, no overhead when the instance fits the budget) and refines by
//! evicting overweight ranges — deferred ranges are re-queued **as one
//! sorted batch**, so follow-up walks stay multi-range. With one thread it
//! walks the caller's session in place; with more, batches are scheduled on
//! the engine's work-stealing [`TaskQueue`] and each worker forks the
//! session once, rewinding — not rebuilding — it for every later batch.
//! [`count_completions_budgeted`] builds a session and runs it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use incdb_bignum::{BigNat, NatAccumulator};
use incdb_core::engine::{CompletionVisitor, TaskQueue};
use incdb_core::session::{ClassAction, ClassHasher, SearchSession};
use incdb_data::{CompletionKey, DataError, Grounding, HashRange, IncompleteDatabase};
use incdb_query::BooleanQuery;

/// The result of a sharded distinct-completion count, with the memory and
/// pass accounting that the memory-vs-passes trade-off is judged by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCount {
    /// The number of distinct completions satisfying the query — always
    /// equal to what the unsharded engine would return.
    pub count: BigNat,
    /// The high-water mark of resident fingerprints in any single walk —
    /// the sum over the walk's whole batch, since the budget is shared.
    /// Under a budget this never exceeds it (each worker runs one walk at
    /// a time, so with `threads` workers the process-wide bound is
    /// `budget × threads`), except in the astronomically unlikely
    /// unsplittable-hash-point case documented on [`count_session`].
    pub peak_resident_fingerprints: usize,
    /// Search-tree walks performed: `1 + follow-ups` — the pass count is
    /// the price paid for the memory bound.
    pub passes: usize,
    /// Hash ranges whose fingerprints were actually counted (evicted
    /// attempts excluded — a range deferred `n` times before completing
    /// still counts once): the size of the final refined partition; `1`
    /// means the instance fit in a single range.
    pub counted_shards: usize,
    /// Ranges carried by walks, summed over all walks and including
    /// evicted attempts: `ranges_walked / passes` is the mean batch width,
    /// the single-walk amortisation this module exists for.
    pub ranges_walked: usize,
    /// Range sets discarded mid-walk to respect the budget: whole-range
    /// evictions plus sole-range splits. Zero whenever the budget was
    /// never hit.
    pub evictions: usize,
    /// Walk contexts used: `1` when one worker walks the caller's session
    /// in place, otherwise one [`SearchSession::fork`] per worker that
    /// processed a batch (workers that never got a task fork nothing).
    pub sessions_built: usize,
    /// Walks served by rewinding an already-used context instead of
    /// building one: always `passes - sessions_built`.
    pub walks_reused: usize,
}

/// One hash range being served by the current walk.
struct ActiveRange {
    range: HashRange,
    /// Memoised class fingerprints (dirty-part keys; full completion keys
    /// when nothing is separable) whose hash falls in `range`, bucketed by
    /// that hash — the sink already computed it to find the range, so a
    /// lookup never hashes the key again. Keys in a bucket compare exactly.
    keys: HashMap<u64, Vec<CompletionKey>>,
    /// Keys held in `keys`.
    resident: usize,
    /// Distinct completions credited to this range so far.
    acc: NatAccumulator,
    /// Discarded mid-walk: the range was deferred to a follow-up walk and
    /// this walk must ignore it from now on.
    evicted: bool,
    /// A single hash point denser than the whole budget: counted in full
    /// rather than split forever.
    unbounded: bool,
}

/// Counts the distinct completions of one walk into a whole batch of hash
/// ranges at once, at the session's separation cut.
///
/// Every class node is bucketed into its range by binary search over the
/// sorted batch; unseen classes are memoised and counted in closed form
/// ([`ClassAction::Count`]), seen ones skipped. When a budgeted insert
/// finds the shared resident set full, the fattest range is evicted whole
/// (its keys dropped, its range deferred); a range that overflows the
/// budget all by itself is split and both halves deferred; an unsplittable
/// single hash point is counted unbounded. The walk only stops early when
/// every range of the batch has been evicted.
struct MultiRangeSink {
    /// The batch's spans, sorted and disjoint — the [`HashRange::find`]
    /// index, kept parallel to `ranges`.
    spans: Vec<HashRange>,
    ranges: Vec<ActiveRange>,
    /// Fingerprints class nodes through the session's cached class
    /// [`KeyPlan`](incdb_data::KeyPlan): the ground members pre-sorted
    /// once, so each class node pays a merge instead of a full sort.
    hasher: ClassHasher,
    /// Maximum resident keys across the whole batch; `None` is unbounded.
    budget: Option<usize>,
    /// Current resident keys summed over live (non-evicted) ranges.
    resident: usize,
    /// High-water mark of `resident`, sampled when a key is kept — classes
    /// that count zero completions are removed again and never peak.
    peak: usize,
    /// Live (non-evicted) ranges remaining.
    live: usize,
    evictions: usize,
    /// Ranges this walk gave up on, to be re-queued as one sorted batch.
    deferred: Vec<HashRange>,
    scratch: CompletionKey,
    /// Range index and hash of the key inserted by the last `class_node`,
    /// so `class_counted` can credit — or, for zero counts, remove — it.
    pending: Option<(usize, u64)>,
}

impl MultiRangeSink {
    fn new(batch: Vec<HashRange>, budget: Option<usize>, hasher: ClassHasher) -> Self {
        debug_assert!(batch.windows(2).all(|w| w[0].last < w[1].start));
        let ranges: Vec<ActiveRange> = batch
            .iter()
            .map(|&range| ActiveRange {
                range,
                keys: HashMap::new(),
                resident: 0,
                acc: NatAccumulator::new(),
                evicted: false,
                unbounded: false,
            })
            .collect();
        MultiRangeSink {
            spans: batch,
            live: ranges.len(),
            ranges,
            hasher,
            budget,
            resident: 0,
            peak: 0,
            evictions: 0,
            deferred: Vec::new(),
            scratch: CompletionKey::new(),
            pending: None,
        }
    }

    /// Frees one resident slot so range `current` can admit a key. Returns
    /// `false` when `current` itself was sacrificed (evicted whole, or
    /// split because it overflows the budget alone) — the caller must skip
    /// the class.
    fn make_room(&mut self, current: usize) -> bool {
        let victim = self
            .ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.evicted && !r.unbounded)
            .max_by_key(|(j, r)| (r.resident, usize::MAX - j))
            .map(|(j, _)| j)
            .expect("the bounded live range `current` is a candidate");
        if victim == current && self.live == 1 {
            // This range overflows the whole budget on its own: no
            // follow-up walk can serve it unsplit, so refine it now.
            let r = &mut self.ranges[current];
            match r.range.split() {
                Some((lo, hi)) => {
                    self.deferred.push(lo);
                    self.deferred.push(hi);
                    self.evict(current);
                    false
                }
                None => {
                    // A single hash point denser than the budget: count it
                    // in full rather than splitting forever (see the docs
                    // of `count_session`).
                    r.unbounded = true;
                    true
                }
            }
        } else {
            let deferred = self.ranges[victim].range;
            self.deferred.push(deferred);
            self.evict(victim);
            victim != current
        }
    }

    /// Drops a range's partial state and removes it from the walk.
    fn evict(&mut self, i: usize) {
        let r = &mut self.ranges[i];
        debug_assert!(!r.evicted);
        self.resident -= r.resident;
        r.keys = HashMap::new();
        r.resident = 0;
        r.acc = NatAccumulator::new();
        r.evicted = true;
        self.live -= 1;
        self.evictions += 1;
    }
}

impl CompletionVisitor for MultiRangeSink {
    fn leaf(&mut self, _g: &Grounding) -> bool {
        unreachable!("the class dispatch covers every satisfying leaf");
    }

    fn class_node(&mut self, g: &Grounding, _decided: bool) -> ClassAction {
        let hash = self
            .hasher
            .hash(g, &mut self.scratch)
            .expect("every non-separable null is bound at the cut");
        let Some(i) = HashRange::find(&self.spans, hash) else {
            return ClassAction::Skip;
        };
        let r = &self.ranges[i];
        if r.evicted || r.keys.get(&hash).is_some_and(|b| b.contains(&self.scratch)) {
            return ClassAction::Skip;
        }
        if !self.ranges[i].unbounded && self.budget.is_some_and(|b| self.resident >= b) {
            // Shared set full: evict before admitting. `make_room` may
            // sacrifice `i` itself, in which case this class is skipped —
            // and once nothing in the batch is live, the rest of the walk
            // has nothing left to observe.
            if !self.make_room(i) {
                return if self.live == 0 {
                    ClassAction::Stop
                } else {
                    ClassAction::Skip
                };
            }
        }
        let r = &mut self.ranges[i];
        r.keys.entry(hash).or_default().push(self.scratch.clone());
        r.resident += 1;
        self.resident += 1;
        self.pending = Some((i, hash));
        ClassAction::Count
    }

    fn class_counted(&mut self, distinct: &BigNat) -> bool {
        let (i, hash) = self.pending.take().expect("a count follows an insert");
        let r = &mut self.ranges[i];
        if distinct.is_zero() {
            // No satisfying completion in the class: un-memoise it (it is
            // the last key pushed to its bucket), so only satisfying
            // classes occupy the budget. Re-deriving a zero count on a
            // later encounter is sound.
            let bucket = r.keys.get_mut(&hash).expect("inserted by class_node");
            bucket.pop();
            if bucket.is_empty() {
                r.keys.remove(&hash);
            }
            r.resident -= 1;
            self.resident -= 1;
        } else {
            r.acc.add_big(distinct);
            self.peak = self.peak.max(self.resident);
        }
        true
    }
}

/// Counts the distinct completions of `db` satisfying `q` while keeping
/// each walk's resident fingerprint set within `budget` (at least 1): a
/// fresh [`SearchSession`] run through [`count_session`].
///
/// Returns an error if some null of the table has no domain.
pub fn count_completions_budgeted<Q: BooleanQuery + Sync + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
    budget: usize,
    threads: usize,
) -> Result<ShardedCount, DataError> {
    let mut session = SearchSession::new(db, q)?;
    Ok(count_session(&mut session, Some(budget), threads))
}

/// Counts the distinct completions of `session`'s instance satisfying its
/// query, keeping each walk's resident fingerprint set within `budget`
/// (at least 1; `None` is unbounded) by evicting overweight hash ranges to
/// follow-up walks.
///
/// The first walk covers the full range, so instances whose fingerprint
/// set fits the budget pay **no** sharding overhead (a single pass,
/// exactly like the unsharded engine). Dense instances shed their fattest
/// ranges mid-walk — the walk itself finishes every range that fits — and
/// the deferred ranges are re-queued as one sorted batch, repeating until
/// every range has been counted. In the astronomically unlikely event that
/// more than `budget` distinct class fingerprints share one 64-bit hash
/// point (an unsplittable range), that point is counted in full rather
/// than failing — the only case where `peak_resident_fingerprints` may
/// exceed the budget.
///
/// With `threads ≤ 1` every walk runs on `session` itself; otherwise each
/// worker forks it on its first batch. Either way the class
/// [`KeyPlan`](incdb_data::KeyPlan) built by the first class node stays
/// cached on `session` for the next call.
pub fn count_session<Q: BooleanQuery + Sync + ?Sized>(
    session: &mut SearchSession<'_, Q>,
    budget: Option<usize>,
    threads: usize,
) -> ShardedCount {
    let budget = budget.map(|b| b.max(1));
    let hasher = session.class_hasher();
    let queue = TaskQueue::new(vec![vec![HashRange::full()]]);
    let passes = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let counted = AtomicUsize::new(0);
    let ranges_walked = AtomicUsize::new(0);
    let evictions = AtomicUsize::new(0);

    // Walks one popped batch on `session`, returning its counted total.
    let walk = |session: &mut SearchSession<'_, Q>, batch: Vec<HashRange>| {
        passes.fetch_add(1, Ordering::Relaxed);
        ranges_walked.fetch_add(batch.len(), Ordering::Relaxed);
        let mut sink = MultiRangeSink::new(batch, budget, hasher.clone());
        let completed = session.visit_completions(&mut sink);
        // The walk only stops early once every range has been evicted,
        // so every live range's count is complete either way.
        debug_assert!(completed || sink.live == 0);
        peak.fetch_max(sink.peak, Ordering::Relaxed);
        evictions.fetch_add(sink.evictions, Ordering::Relaxed);
        let mut total = NatAccumulator::new();
        for r in sink.ranges {
            if !r.evicted {
                total.add_big(&r.acc.into_total());
                counted.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !sink.deferred.is_empty() {
            // One sorted batch, not one task per range: follow-up walks
            // stay multi-range, so a dense region is re-counted with
            // single-walk amortisation too.
            sink.deferred.sort_unstable_by_key(|r| r.start);
            queue.donate([sink.deferred]);
        }
        queue.finish_task();
        total.into_total()
    };

    let (count, sessions_built) = if threads <= 1 {
        let mut count = BigNat::zero();
        while let Some(batch) = queue.next_task() {
            count += walk(session, batch);
        }
        (count, 1)
    } else {
        let template = &*session;
        let totals: Vec<(BigNat, bool)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        // Forked on the worker's first batch, rewound for
                        // every batch after it.
                        let mut own: Option<SearchSession<'_, Q>> = None;
                        let mut count = BigNat::zero();
                        while let Some(batch) = queue.next_task() {
                            count += walk(own.get_or_insert_with(|| template.fork()), batch);
                        }
                        (count, own.is_some())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let forks = totals.iter().filter(|(_, forked)| *forked).count();
        (totals.into_iter().map(|(count, _)| count).sum(), forks)
    };

    let passes = passes.into_inner();
    ShardedCount {
        count,
        peak_resident_fingerprints: peak.into_inner(),
        passes,
        counted_shards: counted.into_inner(),
        ranges_walked: ranges_walked.into_inner(),
        evictions: evictions.into_inner(),
        sessions_built,
        walks_reused: passes - sessions_built,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_core::engine::{BacktrackingEngine, CountingEngine, Tautology};
    use incdb_data::{NullId, Value};
    use incdb_query::Bcq;

    /// The database of Example 2.2 / Figure 1 (3 distinct completions of
    /// `S(x,x)`, 5 in total).
    fn example_2_2() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![Value::constant(0), Value::constant(1)])
            .unwrap();
        db.add_fact("S", vec![Value::null(1), Value::constant(0)])
            .unwrap();
        db.add_fact("S", vec![Value::constant(0), Value::null(2)])
            .unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        db
    }

    /// Dirty pairs (the two `R` facts of each pair unify) plus separable
    /// `S` facts with distinct constant columns: exercises the class
    /// counting path with real closed-form credits.
    fn mixed_instance() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        db.add_fact("R", vec![Value::null(2), Value::null(3)])
            .unwrap();
        db.add_fact("S", vec![Value::null(4), Value::constant(100)])
            .unwrap();
        db.add_fact("S", vec![Value::null(5), Value::constant(200)])
            .unwrap();
        for n in 0..4u32 {
            db.set_domain(NullId(n), [0u64, 1]).unwrap();
        }
        db.set_domain(NullId(4), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(5), [0u64, 1, 2]).unwrap();
        db
    }

    #[test]
    fn session_counts_agree_with_the_engine() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let expected = BacktrackingEngine::sequential()
            .count_completions(&db, &q)
            .unwrap();
        let mut session = SearchSession::new(&db, &q).unwrap();
        for budget in [None, Some(1), Some(2), Some(64)] {
            for threads in [1usize, 3] {
                let result = count_session(&mut session, budget, threads);
                assert_eq!(
                    result.count, expected,
                    "{budget:?} budget, {threads} threads"
                );
                assert_eq!(result.walks_reused, result.passes - result.sessions_built);
                if threads == 1 {
                    // Walked in place: the caller's session is the one
                    // walk context.
                    assert_eq!(result.sessions_built, 1);
                } else {
                    assert!(result.sessions_built <= threads);
                }
                if budget.is_none() {
                    assert_eq!((result.passes, result.evictions), (1, 0));
                }
            }
        }
    }

    #[test]
    fn deferred_ranges_share_follow_up_walks() {
        // 5 completions against a budget of 1: evicted ranges are
        // re-queued as sorted batches, so walks carry several ranges.
        let db = example_2_2();
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        let result = count_completions_budgeted(&db, &Tautology, 1, 1).unwrap();
        assert_eq!(result.count, expected);
        assert!(
            result.counted_shards >= 5,
            "at most one completion per range"
        );
        assert!(
            result.ranges_walked > result.passes,
            "{} ranges over {} walks",
            result.ranges_walked,
            result.passes
        );
    }

    #[test]
    fn class_counting_agrees_on_separable_instances() {
        // 10 dirty R-parts × 9 separable S-completions = 90 distinct.
        let db = mixed_instance();
        let q = Tautology;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        for threads in [1usize, 2] {
            let unbounded = count_session(&mut SearchSession::new(&db, &q).unwrap(), None, threads);
            assert_eq!(unbounded.count, expected, "{threads} threads");
        }
        // With 10 dirty classes a budget of 4 must evict, yet the resident
        // set stays classes-not-completions small.
        let result = count_completions_budgeted(&db, &q, 4, 1).unwrap();
        assert_eq!(result.count, expected);
        assert!(result.peak_resident_fingerprints <= 4);
        assert!(result.evictions > 0, "10 classes cannot fit a budget of 4");
    }

    #[test]
    fn budget_bounds_the_resident_set() {
        // All 5 completions of Example 2.2 (Tautology query): a budget of
        // 2 must evict and defer until every range fits.
        let db = example_2_2();
        let q = Tautology;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        let result = count_completions_budgeted(&db, &q, 2, 1).unwrap();
        assert_eq!(result.count, expected);
        assert!(
            result.peak_resident_fingerprints <= 2,
            "peak {} exceeds budget 2",
            result.peak_resident_fingerprints
        );
        assert!(result.counted_shards > 1, "a 5-fingerprint set must shard");
        assert!(result.evictions > 0, "the bound is paid for by evictions");
        assert!(result.passes > 1, "deferred ranges cost follow-up walks");
        // One worker, one setup: every walk after the first reused the
        // session.
        assert_eq!(result.sessions_built, 1);
        assert_eq!(result.walks_reused, result.passes - 1);

        // A roomy budget counts in a single unsharded pass.
        let roomy = count_completions_budgeted(&db, &q, 64, 1).unwrap();
        assert_eq!(roomy.count, expected);
        assert_eq!((roomy.passes, roomy.counted_shards), (1, 1));
        assert_eq!(roomy.evictions, 0);
    }

    #[test]
    fn every_budget_and_thread_count_agrees() {
        let db = mixed_instance();
        let q = Tautology;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        for budget in [1usize, 2, 3, 7, 100] {
            for threads in [1usize, 3] {
                let result = count_completions_budgeted(&db, &q, budget, threads).unwrap();
                assert_eq!(result.count, expected, "budget {budget} threads {threads}");
                assert!(
                    result.peak_resident_fingerprints <= budget,
                    "budget {budget}: peak {}",
                    result.peak_resident_fingerprints
                );
            }
        }
    }

    #[test]
    fn missing_domain_is_an_error_not_a_hang() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert!(count_completions_budgeted(&db, &q, 8, 2).is_err());
    }

    #[test]
    fn empty_and_ground_instances() {
        // No nulls: one completion, whatever the budget.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::constant(5)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        let sharded = count_completions_budgeted(&db, &q, 1, 2).unwrap();
        assert_eq!(sharded.count, BigNat::one());
        // An empty domain admits no completion at all.
        let mut empty = IncompleteDatabase::new_uniform(Vec::<u64>::new());
        empty.add_fact("R", vec![Value::null(0)]).unwrap();
        let none = count_completions_budgeted(&empty, &q, 4, 2).unwrap();
        assert_eq!(none.count, BigNat::zero());
        assert_eq!(none.peak_resident_fingerprints, 0);
    }
}
