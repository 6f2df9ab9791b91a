//! Self-tests of the benchmark harness: its statistics, its span
//! arithmetic, and the determinism of its workloads.

use std::collections::HashMap;

use perfbench::ops::{self, Answer, Catalog, Op, Rig};
use perfbench::stats::{percentile, samples_beyond};
use perfbench::trace::{self_time_table, self_times, Span, Tracer};
use perfbench::{measure, OpGen, Workload, PER_LAYER};

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert_eq!(samples_beyond(199, 95.0), 9);
    assert_eq!(samples_beyond(100, 90.0), 10);
    assert_eq!(samples_beyond(99, 90.0), 9);
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 90.0), 90.0);
    assert_eq!(percentile(&sorted, 99.0), 99.0);
    assert_eq!(percentile(&sorted, 100.0), 100.0);
    // A slow phase over two of ten chunks is dropped with the extremes; one
    // over four moves the chunk means by its share of the six chunks kept.
    // Isolated spikes inside a chunk move no chunk's median or p95.
    let slow = |chunks: usize| {
        let mut v = vec![1.0; 10_000];
        for x in &mut v[..chunks * 1_000] {
            *x = 2.0;
        }
        v
    };
    assert_eq!(perfbench::stats::tail(&slow(2), 99.0), 1.0);
    assert_eq!(perfbench::stats::p50(&slow(2)), 1.0);
    assert!((perfbench::stats::tail(&slow(4), 99.0) - 4.0 / 3.0).abs() < 1e-9);
    assert!((perfbench::stats::p50(&slow(4)) - 4.0 / 3.0).abs() < 1e-9);
    assert!((perfbench::stats::throughput(&slow(4)) - 5_000.0 / 6.0).abs() < 1e-9);
    let mut spiky = vec![1.0; 10_000];
    for x in spiky.iter_mut().step_by(200) {
        *x = 50.0;
    }
    assert_eq!(perfbench::stats::p50(&spiky), 1.0);
    assert_eq!(perfbench::stats::tail(&spiky, 95.0), 1.0);
    // Each workload's fixed percentile keeps ten samples beyond it in each
    // of at least three chunks at the smallest op count a 20-s run has
    // reached (see NOTES.md).
    for (w, ops) in [
        (Workload::ServeRead, 20_000 / 3),
        (Workload::ServeWrite, 23_000 / 3),
    ] {
        assert!(samples_beyond(ops, w.tail_percentile()) >= 10, "{w:?}");
    }
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        op: 0,
        kind: "k",
        calls: 1,
    }
}

#[test]
fn self_time_subtracts_nested_children_and_probes() {
    let spans = vec![
        span("root", 0, 100, None),      // 0
        span("a", 10, 40, Some(0)),      // 1
        span("b", 50, 90, Some(0)),      // 2
        span("b1", 60, 70, Some(2)),     // 3: nested in b
        span("probe", 95, 100, Some(2)), // 4: a probe of b, run after it
    ];
    assert_eq!(self_times(&spans), vec![30, 30, 25, 10, 5]);
    let table = self_time_table(&spans);
    let (ops, names) = &table["k"];
    assert_eq!(*ops, 1);
    assert_eq!(names["b"], 25);
    assert_eq!(names.values().sum::<i64>(), 100);
}

#[test]
fn tracer_parents_nested_spans_and_probes() {
    let mut tr = Tracer::new();
    tr.begin_op(7, "page");
    let root = tr.open("root");
    let bundle = tr.span("bundle", |tr| tr.span("inner", |_| 1));
    assert_eq!(bundle, 1);
    let b = tr.spans.iter().position(|s| s.name == "bundle").unwrap();
    tr.under(b, |tr| tr.span("probe", |_| ()));
    tr.close(root);
    let parent = |n: &str| tr.spans.iter().find(|s| s.name == n).unwrap().parent;
    assert_eq!(parent("root"), None);
    assert_eq!(parent("bundle"), Some(root));
    assert_eq!(parent("inner"), Some(b));
    assert_eq!(parent("probe"), Some(b));
    assert!(tr.spans.iter().all(|s| s.op == 7 && s.kind == "page"));
    assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
}

fn sequence(w: Workload, seed: u64, n: usize) -> Vec<Op> {
    let mut gen = if w == Workload::ServeWrite {
        OpGen::round(seed, 0)
    } else {
        OpGen::new(w, seed)
    };
    (0..n).map(|_| gen.next_op()).collect()
}

#[test]
fn same_seed_same_sequence_other_seed_other_sequence() {
    for w in Workload::ALL {
        assert_eq!(sequence(w, 3, 500), sequence(w, 3, 500), "{w:?}");
        assert_ne!(sequence(w, 3, 500), sequence(w, 4, 500), "{w:?}");
    }
    let ops = sequence(Workload::ServeWrite, 5, 400);
    let writes = ops.iter().filter(|o| o.kind() == "write").count();
    assert_eq!(writes, 80, "one op in five is a write");
}

/// The ops and answers of a short run; every answer must be correct.
fn answers(w: Workload, seed: u64, seconds: f64) -> Vec<(Op, Answer)> {
    let m = measure(w, seed, seconds).expect("the workload runs");
    m.records
        .into_iter()
        .map(|r| {
            let a = r
                .answer
                .unwrap_or_else(|e| panic!("{:?} failed: {e}", r.op));
            (r.op, a)
        })
        .collect()
}

#[test]
fn seeds_change_the_sequence_not_the_answers() {
    for w in [Workload::ServeRead, Workload::ServeWrite] {
        let a = answers(w, 11, 0.5);
        let b = answers(w, 11, 0.5);
        let n = a.len().min(b.len());
        assert!(n > 4, "{w:?} ran too few ops");
        assert_eq!(a[..n], b[..n], "{w:?}: same seed, same ops and answers");
        let c = answers(w, 12, 0.5);
        let n = n.min(c.len());
        assert_ne!(a[..n], c[..n], "{w:?}: another seed, another sequence");
        if w == Workload::ServeRead {
            // Without writes an op's answer does not depend on when it runs.
            let by_op: HashMap<String, &Answer> =
                a.iter().map(|(op, ans)| (format!("{op:?}"), ans)).collect();
            for (op, ans) in &c {
                if let Some(prev) = by_op.get(&format!("{op:?}")) {
                    assert_eq!(*prev, ans, "{op:?}");
                }
            }
        }
    }
}

#[test]
fn solver_probes_give_the_expected_counts() {
    let db = ops::serve_db();
    let cat = Catalog::serve();
    let q = &cat.queries[ops::HOT[0]];
    let (val, comp) = (ops::HOT_VALUATIONS, cat.expected[ops::HOT[0]]);
    assert_eq!(
        ops::solve_answer(&ops::solve(&db, q, true), val),
        Ok(Answer::Count(val))
    );
    assert_eq!(
        ops::solve_answer(&ops::solve(&db, q, false), comp),
        Ok(Answer::Count(comp))
    );
}

#[test]
fn serve_write_answers_stay_correct_across_writes() {
    let m = measure(Workload::ServeWrite, 5, 0.2).expect("the workload runs");
    assert!(m.records.iter().any(|r| r.op.kind() == "write"));
    for r in &m.records {
        assert!(r.answer.is_ok(), "{:?}: {:?}", r.op, r.answer);
    }
}

#[test]
fn serve_read_hits_the_pool_after_warm_up() {
    let cat = Catalog::serve();
    let db = ops::serve_db();
    let cursors = ops::mint_cursors(&db, &cat.queries[ops::SCAN[0]]).unwrap();
    let mut rig = Rig::new(&db, &cat, false).unwrap();
    rig.warm(&cat, &perfbench::warm_ops(Workload::ServeRead), &cursors)
        .unwrap();
    let before = rig.node.pool().stats();
    let ops = sequence(Workload::ServeRead, 9, 200);
    for op in &ops {
        let reply = rig.call(op, &cursors).unwrap();
        assert!(!reply.metrics.session_built, "{op:?} built a session");
    }
    let after = rig.node.pool().stats();
    assert_eq!(after.built, before.built);
    assert_eq!(after.reused - before.reused, ops.len() as u64);
}

#[test]
fn benchmark_json_lists_the_metrics_the_harness_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
        assert!(text.contains(&entry), "{name} missing from per_layer");
    }
    let mut report = String::new();
    let m = measure(Workload::ServeRead, 1, 0.2).unwrap();
    for metric in perfbench::end_to_end(&m, &mut report) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\"",
            metric.name, metric.unit
        );
        assert!(
            text.contains(&entry),
            "{} missing from end_to_end",
            metric.name
        );
        assert!(metric.value > 0.0, "{} is zero", metric.name);
    }
}
