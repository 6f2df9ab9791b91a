//! A paging-service scenario for the streaming completion subsystem: an
//! audit API serves "every possible repaired state" of an incomplete
//! shipment table, page by page — without ever holding the full (and
//! potentially astronomical) completion set in memory.
//!
//! Two pillars of `incdb-stream` appear:
//!
//! * **Budgeted counting** — the dashboard's `#Comp` tile is computed with
//!   a hard cap on resident fingerprints; the hash-range shards split
//!   adaptively until every walk fits the cap.
//! * **Cursor paging** — the API handler streams a page, serializes the
//!   cursor into the response, and a *later request* resumes the exact
//!   canonical sequence from that string alone.
//!
//! Run with `cargo run --example streaming_pages`.

use incdb::core::engine::Tautology;
use incdb::prelude::*;

fn main() {
    // Shipment(route, day): three routes with lost day fields; every lost
    // day could be any of 0..4.
    let mut db = IncompleteDatabase::new_uniform(0u64..4);
    db.add_fact("Shipment", vec![Value::constant(1), Value::constant(0)])
        .unwrap();
    for route in 0..3u32 {
        db.add_fact(
            "Shipment",
            vec![Value::constant(route as u64), Value::null(route)],
        )
        .unwrap();
    }

    // 1) The dashboard tile: count distinct repaired states under a memory
    //    budget of 8 resident fingerprints per walk.
    let outcome = count_completions_budgeted(&db, &Tautology, 8, 1).unwrap();
    println!(
        "distinct repaired states: {} ({} walks over {} hash shards, peak {} resident fingerprints)",
        outcome.count, outcome.passes, outcome.counted_shards, outcome.peak_resident_fingerprints
    );

    // The same count on two workers under a tighter budget: more walks,
    // never a different answer.
    let tight = count_completions_budgeted(&db, &Tautology, 2, 2).unwrap();
    assert_eq!(tight.count, outcome.count);
    assert!(tight.peak_resident_fingerprints <= 2);

    // The budget knob also sits behind the solver façade: closed forms
    // keep priority, and the reported method says whether sharding bound.
    let q: Bcq = "Shipment(x, x)".parse().unwrap();
    let routed =
        incdb::stream::solver::count_completions(&db, &q, &StreamOptions::with_budget(2)).unwrap();
    println!(
        "#Comp(Shipment(x,x)) = {} via {}",
        routed.value, routed.method
    );

    // 2) The audit API: serve repaired states three per page, in canonical
    //    order, with a resumable cursor between "requests".
    let mut first_request = all_completions_stream(&db, 3).unwrap();
    println!("page 1:");
    for state in first_request.by_ref().take(3) {
        println!("  {:?}", state);
    }
    let ticket = first_request.cursor().encode();
    println!("cursor handed to the client: {ticket}");

    // A brand-new stream — different request, no shared state — resumes
    // the exact sequence from the decoded cursor.
    let resumed = CompletionStream::resume(
        &db,
        &Tautology,
        3,
        ticket.parse().expect("the ticket round-trips"),
    )
    .unwrap();
    let remaining = resumed.count();
    println!("remaining states after the first page: {remaining}");
    assert_eq!(
        BigNat::from(remaining + 3),
        outcome.count,
        "pages tile the completion space"
    );
}
