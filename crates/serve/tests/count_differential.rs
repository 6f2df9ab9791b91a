//! Seeded differential for served counts: every [`Request::Count`] must
//! equal the naive engine's distinct-completion count — enumerate every
//! valuation, materialise every completion, deduplicate — whatever the
//! tenant's fingerprint budget.
//!
//! Instances are the random shapes of the stream property suite (binary
//! `R`, unary `S`, four nulls with random sub-domains of `{0, 1, 2}`),
//! plus two fixed shapes that pin the counting walk's special paths: a
//! separable instance, whose classes are credited in closed form, and an
//! instance whose count exceeds every budget, so budgeted tenants are
//! served through range eviction and follow-up walks.

use incdb_core::engine::{CountingEngine, NaiveEngine};
use incdb_core::session::SearchSession;
use incdb_data::{IncompleteDatabase, NullId, Value};
use incdb_query::Bcq;
use incdb_serve::{Outcome, Request, ServeNode, Tenant};
use incdb_stream::count_session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NULL_POOL: u32 = 4;
const INSTANCES: usize = 40;

/// One tenant per budget: none (the page ceiling alone), 1, 2 and 7.
fn tenants() -> Vec<Tenant> {
    vec![
        Tenant::new("unbudgeted", 64),
        Tenant::new("b1", 64).with_budget(1),
        Tenant::new("b2", 64).with_budget(2),
        Tenant::new("b7", 64).with_budget(7),
    ]
}

fn parse(queries: &[&str]) -> Vec<Bcq> {
    queries.iter().map(|s| s.parse().unwrap()).collect()
}

/// One table position: constants `0..3`, nulls `⊥0..⊥3`.
fn random_value(rng: &mut StdRng) -> Value {
    let code = rng.random_range(0u64..3 + NULL_POOL as u64);
    if code < 3 {
        Value::constant(code)
    } else {
        Value::null((code - 3) as u32)
    }
}

/// A random instance of the stream property suite's shape: 1..=5 facts
/// over binary `R` and unary `S`, every null of the pool with a non-empty
/// random subset of `{0, 1, 2}` as its domain.
fn random_db(rng: &mut StdRng) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    for n in 0..NULL_POOL {
        let mask = rng.random_range(1u64..8);
        let values: Vec<u64> = (0..3u64).filter(|b| mask & (1 << b) != 0).collect();
        db.set_domain(NullId(n), values).unwrap();
    }
    for _ in 0..rng.random_range(1usize..=5) {
        if rng.random_bool(0.5) {
            let fact = vec![random_value(rng), random_value(rng)];
            db.add_fact("R", fact).unwrap();
        } else {
            db.add_fact("S", vec![random_value(rng)]).unwrap();
        }
    }
    db
}

/// Serves a Count for every (tenant, query) pair in one batch and checks
/// each reply against the naive engine.
fn assert_counts_match(db: &IncompleteDatabase, queries: &[Bcq], label: &str) {
    let expected: Vec<_> = queries
        .iter()
        .map(|q| NaiveEngine.count_completions(db, q).unwrap())
        .collect();
    let tenants = tenants();
    let node = ServeNode::new(db.clone(), queries.iter().collect(), tenants.clone());
    let batch: Vec<Request> = (0..tenants.len())
        .flat_map(|tenant| (0..queries.len()).map(move |query| Request::Count { tenant, query }))
        .collect();
    // Twice: the second round is served from pooled sessions.
    for round in 0..2 {
        let replies = node.serve_with_workers(batch.clone(), 2);
        for (reply, request) in replies.iter().zip(&batch) {
            let Request::Count { tenant, query } = *request else {
                unreachable!()
            };
            assert_eq!(
                reply.outcome,
                Outcome::Count(expected[query].clone()),
                "{label} round {round}: tenant {} query {}",
                tenants[tenant].name,
                queries[query]
            );
        }
    }
}

#[test]
fn served_counts_match_the_naive_engine_on_random_instances() {
    let queries = parse(&["R(x,x)", "R(x,y), S(y)", "S(x)", "R(0,x)", "R(x,x), T(x)"]);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for i in 0..INSTANCES {
        let db = random_db(&mut rng);
        assert_counts_match(&db, &queries, &format!("instance {i}"));
    }
}

#[test]
fn served_counts_match_on_a_separable_instance() {
    // Dirty pairs (the two `R` facts unify) plus separable `S` facts with
    // distinct constant columns: 10 dirty classes, each credited its 9
    // separable completions in closed form.
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
    let queries = parse(&["R(x,y)", "R(x,x)", "S(x,100)", "R(x,y), S(y,z)"]);
    let session = SearchSession::new(&db, &queries[0]).unwrap();
    assert!(
        session.separation_cut() < session.order().len(),
        "instance sanity: some nulls are separable"
    );
    assert_counts_match(&db, &queries, "separable");
}

#[test]
fn served_counts_match_when_the_count_exceeds_the_budget() {
    // Three binary facts over six nulls, every null over {0, 1, 2}: no
    // null is separable, so each of the 129 distinct completions is its
    // own class key and every budget of 7 or less must evict.
    let mut db = IncompleteDatabase::new_uniform(0u64..3);
    for i in 0..3u32 {
        db.add_fact("R", vec![Value::null(2 * i), Value::null(2 * i + 1)])
            .unwrap();
    }
    let queries = parse(&["R(x,y)", "R(x,x)"]);
    let q = &queries[0];
    let mut session = SearchSession::new(&db, q).unwrap();
    let tight = count_session(&mut session, Some(7), 1);
    assert_eq!(tight.count.to_u64(), Some(129), "instance sanity");
    assert!(tight.evictions > 0, "instance sanity: a budget of 7 evicts");
    assert_counts_match(&db, &queries, "over budget");
}
