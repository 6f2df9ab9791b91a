//! Differential property suite for delta-propagated maintenance: a
//! session patched forward through the database's delta log must be
//! **byte-identical** to one built fresh against the current revision —
//! same counts, same page key sequences, same encoded resume cursors.
//!
//! A seeded random schedule interleaves writes (inserts, removals,
//! multi-revision gaps) with pooled reads under the default
//! [`MaintenancePolicy::PatchForward`]. Every pooled answer is compared
//! against a fresh session built from the current database; cursors are
//! round-tripped through the wire format and resumed across write
//! epochs. Distinct-completion counts run the budgeted counter (`count_session`) on
//! the patched lease against a fresh build, and one injected ground insert
//! unifies with a null-hosting fact, turning a clean fact dirty under
//! sessions whose class key plan is already cached. Two injected events
//! force the "gap too wide, rebuild"
//! fallback — a write burst that overflows the bounded delta log, and a
//! new-relation barrier — so the suite pins both maintenance paths, and
//! under `debug_assertions` every successful patch is additionally
//! checked against the from-scratch reclassification oracle inside
//! `BcqResidual::apply_delta` itself.

use incdb_core::engine::BacktrackingEngine;
use incdb_data::{CompletionKey, IncompleteDatabase, PageHeap, Value, DELTA_LOG_CAP};
use incdb_query::Bcq;
use incdb_serve::{MaintenancePolicy, SessionPool};
use incdb_stream::{count_completions_budgeted, count_session, page_from_session, Cursor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 120;

fn build_db() -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform([0u64, 1, 2]);
    db.add_fact("R", vec![Value::constant(0), Value::constant(1)])
        .unwrap();
    db.add_fact("R", vec![Value::null(0), Value::constant(2)])
        .unwrap();
    db.add_fact("S", vec![Value::constant(1)]).unwrap();
    db.add_fact("S", vec![Value::null(1)]).unwrap();
    db
}

/// One page from a session built fresh against `db` — the reference a
/// patched session must match byte-for-byte.
fn fresh_page(
    db: &IncompleteDatabase,
    q: &Bcq,
    cursor: &Cursor,
    page_size: usize,
) -> (Vec<CompletionKey>, String) {
    let engine = BacktrackingEngine::sequential();
    let mut session = engine.session(db, q).unwrap();
    let mut heap = PageHeap::new();
    let next = page_from_session(&mut session, cursor, page_size, &mut heap);
    (heap.iter().cloned().collect(), next.encode())
}

#[test]
fn patched_sessions_are_byte_identical_to_fresh_builds() {
    let mut rng = StdRng::seed_from_u64(0x0DE17A);
    let mut db = build_db();
    let queries: Vec<Bcq> = vec![
        "R(x,y)".parse().unwrap(),
        "S(x)".parse().unwrap(),
        "R(x,y), S(y)".parse().unwrap(),
    ];
    let engine = BacktrackingEngine::sequential();
    let pool: SessionPool<'_, Bcq> = SessionPool::new();
    assert_eq!(pool.policy(), MaintenancePolicy::PatchForward);

    // Facts this schedule inserted and may later remove, and a counter
    // minting fresh constants so inserts never collide with base facts.
    let mut removable: Vec<(&'static str, Vec<Value>)> = Vec::new();
    let mut next_constant = 100u64;
    // Per-query wire-format cursor from the last served page, resumed in
    // a later round — typically across one or more write epochs.
    let mut resume: Vec<Option<String>> = vec![None; queries.len()];

    for round in 0..ROUNDS {
        // Write phase: 0..=3 writes makes multi-revision gaps common and
        // no-op gaps (a shelf already current) possible.
        match round {
            // Injected event: overflow the bounded delta log so every
            // shelved session faces an uncoverable gap.
            40 => {
                for _ in 0..DELTA_LOG_CAP + 8 {
                    let c = next_constant;
                    next_constant += 1;
                    let fact = vec![Value::constant(c), Value::constant(c)];
                    db.add_fact("R", fact.clone()).unwrap();
                    removable.push(("R", fact));
                }
            }
            // Injected event: a new relation seals the log (a barrier),
            // forcing the rebuild fallback even for a one-write gap.
            80 => {
                db.add_fact("Z", vec![Value::constant(7)]).unwrap();
            }
            // Injected event: `R(1, 2)` unifies with the null-hosting
            // `R(⊥0, 2)`, so that fact stops being clean and the class
            // facts change. Every shelf first counts once, caching its
            // class key plan, so the patch must replace a cached plan.
            60 => {
                for q in &queries {
                    let mut lease = pool.check_out(&db, q).unwrap();
                    count_session(&mut lease.session, Some(2), 1);
                    pool.check_in(lease);
                }
                let fresh = engine.session(&db, &queries[0]).unwrap();
                assert_eq!(fresh.separation_cut(), 1, "⊥0 is separable before");
                let fact = vec![Value::constant(1), Value::constant(2)];
                db.add_fact("R", fact.clone()).unwrap();
                removable.push(("R", fact));
                let fresh = engine.session(&db, &queries[0]).unwrap();
                assert_eq!(fresh.separation_cut(), 2, "and no longer after");
            }
            _ => {
                for _ in 0..rng.random_range(0usize..=3) {
                    if !removable.is_empty() && rng.random_bool(0.4) {
                        let i = rng.random_range(0..removable.len());
                        let (rel, fact) = removable.swap_remove(i);
                        assert!(db.remove_fact(rel, &fact));
                    } else {
                        let rel = if rng.random_bool(0.7) { "R" } else { "S" };
                        let mut fact = vec![Value::constant(next_constant)];
                        if rel == "R" {
                            fact.push(Value::constant(next_constant + 1));
                        }
                        next_constant += 2;
                        db.add_fact(rel, fact.clone()).unwrap();
                        removable.push((rel, fact));
                    }
                }
            }
        }

        // Half the time sweep eagerly (the write path's maintenance);
        // otherwise leave the shelves stale so checkout patches lazily.
        if rng.random_bool(0.5) {
            pool.maintain(&db);
        }

        // Read phase: one pooled operation, checked against a fresh
        // session built from the current database.
        let qi = rng.random_range(0..queries.len());
        let q = &queries[qi];
        let mut lease = pool.check_out(&db, q).unwrap();
        match rng.random_range(0u32..4) {
            // Count: a patched session must count what a fresh one does.
            0 => {
                let fresh = engine.session(&db, q).unwrap().count();
                assert_eq!(lease.session.count(), fresh, "round {round} query {qi}");
            }
            // Distinct completions: `count_session` on the patched
            // lease must count what a fresh build does.
            1 => {
                let budget = 1 + rng.random_range(0usize..4);
                let fresh = count_completions_budgeted(&db, q, budget, 1).unwrap();
                let served = count_session(&mut lease.session, Some(budget), 1);
                assert_eq!(served.count, fresh.count, "round {round} query {qi}");
            }
            // First page: keys and the encoded resume cursor must match
            // a fresh session's byte-for-byte.
            2 => {
                let page_size = 1 + rng.random_range(0usize..4);
                let cursor = Cursor::start();
                let (want_keys, want_cursor) = fresh_page(&db, q, &cursor, page_size);
                let mut heap = PageHeap::new();
                let next = page_from_session(&mut lease.session, &cursor, page_size, &mut heap);
                let got: Vec<CompletionKey> = heap.iter().cloned().collect();
                assert_eq!(got, want_keys, "round {round} query {qi}");
                assert_eq!(next.encode(), want_cursor, "round {round} query {qi}");
                resume[qi] = Some(next.encode());
            }
            // Resume a cursor from an earlier round — usually minted
            // against an older revision — through the wire format.
            _ => {
                let cursor = match &resume[qi] {
                    Some(wire) => Cursor::decode(wire).unwrap(),
                    None => Cursor::start(),
                };
                let page_size = 1 + rng.random_range(0usize..4);
                let (want_keys, want_cursor) = fresh_page(&db, q, &cursor, page_size);
                let mut heap = PageHeap::new();
                let next = page_from_session(&mut lease.session, &cursor, page_size, &mut heap);
                let got: Vec<CompletionKey> = heap.iter().cloned().collect();
                assert_eq!(got, want_keys, "round {round} query {qi} (resume)");
                assert_eq!(
                    next.encode(),
                    want_cursor,
                    "round {round} query {qi} (resume)"
                );
                resume[qi] = Some(next.encode());
            }
        }
        pool.check_in(lease);
    }

    // The schedule really exercised both maintenance paths: plenty of
    // O(delta) patches, and the two injected events forced gap rebuilds.
    let stats = pool.stats();
    assert!(stats.patched > 0, "{stats:?}");
    assert!(stats.rebuilt_gap > 0, "{stats:?}");
    assert!(stats.built > 0 && stats.reused > 0, "{stats:?}");
    assert_eq!(stats.uncacheable, 0, "{stats:?}");
}
