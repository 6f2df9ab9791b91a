//! One panicking request must not take down its batch: the node answers
//! it with an error, drops its lease unshelved, and serves every other
//! request of the batch — and the next batch — correctly.

use std::collections::BTreeSet;

use incdb_bignum::BigNat;
use incdb_core::engine::{CountingEngine, NaiveEngine};
use incdb_data::{Database, Grounding, IncompleteDatabase, Value};
use incdb_query::{Bcq, BooleanQuery, PartialOutcome, ResidualState};
use incdb_serve::{Outcome, Request, ServeNode, Tenant};

/// A query that either evaluates its conjunctive query normally or panics
/// as soon as a walk asks it about a partial grounding — the shape of a
/// buggy custom query type.
#[derive(Debug)]
enum Probe {
    Sound(Bcq),
    Faulty(Bcq),
}

impl Probe {
    fn bcq(&self) -> &Bcq {
        match self {
            Probe::Sound(q) | Probe::Faulty(q) => q,
        }
    }
}

impl BooleanQuery for Probe {
    fn holds(&self, db: &Database) -> bool {
        self.bcq().holds(db)
    }

    fn signature(&self) -> BTreeSet<String> {
        self.bcq().signature()
    }

    fn holds_partial(&self, grounding: &Grounding) -> PartialOutcome {
        match self {
            Probe::Sound(q) => q.holds_partial(grounding),
            Probe::Faulty(_) => panic!("faulty query evaluation"),
        }
    }

    fn residual_state(&self, grounding: &Grounding) -> Option<Box<dyn ResidualState>> {
        match self {
            Probe::Sound(q) => q.residual_state(grounding),
            // No incremental evaluator: every node falls back to the
            // panicking `holds_partial`.
            Probe::Faulty(_) => None,
        }
    }

    fn cache_key(&self) -> Option<String> {
        let tag = match self {
            Probe::Sound(_) => "sound",
            Probe::Faulty(_) => "faulty",
        };
        self.bcq().cache_key().map(|key| format!("{tag}:{key}"))
    }
}

fn build_db() -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform([0u64, 1, 2]);
    db.add_fact("R", vec![Value::null(0), Value::constant(1)])
        .unwrap();
    db.add_fact("R", vec![Value::null(1), Value::null(2)])
        .unwrap();
    db
}

#[test]
fn a_panicking_request_fails_alone() {
    let sound = Probe::Sound("R(x,x)".parse().unwrap());
    let faulty = Probe::Faulty("R(x,y)".parse().unwrap());
    let db = build_db();
    let expected = NaiveEngine.count_completions(&db, sound.bcq()).unwrap();
    assert!(expected > BigNat::zero(), "instance sanity");
    let node = ServeNode::new(db, vec![&sound, &faulty], vec![Tenant::new("t", 4)]);

    let count = |query| Request::Count { tenant: 0, query };
    let page = |query| Request::Page {
        tenant: 0,
        query,
        page_size: 2,
    };
    let batch = vec![count(0), count(1), page(0), page(1), count(0), count(1)];
    for workers in [1usize, 3] {
        let before = node.pool().stats();
        let replies = node.serve_with_workers(batch.clone(), workers);
        assert_eq!(replies.len(), batch.len(), "{workers} workers");
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.request, i);
            match (&batch[i], &reply.outcome) {
                (Request::Count { query: 0, .. }, Outcome::Count(n)) => assert_eq!(n, &expected),
                (Request::Page { query: 0, .. }, Outcome::Page { keys, .. }) => {
                    assert_eq!(keys.len(), 2)
                }
                (Request::Count { query: 1, .. } | Request::Page { query: 1, .. }, outcome) => {
                    assert_eq!(outcome, &Outcome::Error(format!("request {i}: panicked")))
                }
                (request, outcome) => panic!("unexpected reply {outcome:?} to {request:?}"),
            }
        }
        // The panicking leases were dropped, never shelved: each of the
        // three faulty requests had to build its own session.
        let stats = node.pool().stats();
        assert!(
            stats.built - before.built >= 3,
            "{workers} workers: {stats:?}"
        );
        if workers == 1 {
            assert_eq!(
                node.pool().shelved(),
                1,
                "only the sound session is shelved"
            );
        }
    }

    // The node keeps serving after the faults: a sound batch, and a write
    // followed by a read that sees it.
    let replies = node.serve_with_workers(
        vec![
            count(0),
            Request::Write {
                relation: "R".to_string(),
                fact: vec![Value::constant(2), Value::constant(2)],
            },
        ],
        1,
    );
    assert_eq!(replies[0].outcome, Outcome::Count(expected));
    assert!(matches!(replies[1].outcome, Outcome::Wrote { .. }));
    let after = NaiveEngine
        .count_completions(&node.snapshot(), sound.bcq())
        .unwrap();
    let replies = node.serve_with_workers(vec![count(0)], 1);
    assert_eq!(replies[0].outcome, Outcome::Count(after));
}
