//! The instances, the ops, and the two ways of running an op: untraced
//! (one timed call into the public API, as a client would make it) and
//! traced (the same call timed whole, then decomposed into its layers'
//! own public calls on the same input).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use incdb_bignum::BigNat;
use incdb_core::solver::{count_completions, count_valuations, CountOutcome};
use incdb_core::{CompletionVisitor, SearchSession};
use incdb_data::{CompletionKey, DataError, Grounding, IncompleteDatabase, PageHeap, Value};
use incdb_query::{Bcq, BooleanQuery, ResidualState};
use incdb_serve::{Outcome, Reply, Request, ServeNode, SessionPool, Tenant};
use incdb_stream::{count_completions_budgeted, page_from_session, Cursor};

use crate::stats::{fnv1a, FNV_OFFSET};
use crate::trace::Tracer;

/// Ground facts of the serving instance: keys of ~10³ tuples and cursors
/// of ~11 KB. At 3×10⁴ facts (409 KB cursors) resume latency swung by
/// half between identical runs.
pub const SERVE_GROUND_FACTS: u64 = 1_000;
/// Page size of `Page`/`CursorResume` requests: one 1,001-tuple key.
pub const PAGE_SIZE: usize = 1;
/// Fingerprint budget of the budgeted-count probe.
pub const COUNT_BUDGET: usize = 64;
/// First constant of the facts the benchmark writes: above every constant
/// of every instance, so a written fact never self-loops or joins.
pub const FRESH: u64 = 1 << 40;

/// The serving instance: the serve benchmark's shape, a two-null `R(x,x)`
/// cycle over `{0, 1}` in a table of ground chain facts, plus a declared,
/// empty `T`.
pub fn serve_db() -> IncompleteDatabase {
    let mut db = incdb_bench::wide_ground_cycle(2, 2, SERVE_GROUND_FACTS);
    db.declare_relation("T");
    db
}

/// `#Val` of the hot query `R(x,x)` over the serving instance, which the
/// solver probes check; its `#Comp` is the catalog's expected count.
pub const HOT_VALUATIONS: u64 = 2;

/// A prepared-query catalog with each query's expected distinct-completion
/// count on the serving instance; both counts are invariant under the
/// facts the benchmark writes.
pub struct Catalog {
    pub queries: Vec<Bcq>,
    pub expected: Vec<u64>,
}

/// The hot pair: two spellings of `R(x,x)`, one shelf.
pub const HOT: [usize; 2] = [0, 1];
/// The scan query `R(x,y)` in two spellings, one shelf.
pub const SCAN: [usize; 2] = [2, 3];
/// Cold spellings: four more shelves, two per answer.
pub const COLD: [usize; 4] = [4, 5, 6, 7];

impl Catalog {
    pub fn serve() -> Catalog {
        let spec: [(&str, u64); 8] = [
            ("R(x,x)", 2),
            ("R(y,y)", 2),
            ("R(x,y)", 3),
            ("R(u,v)", 3),
            ("R(x,x), R(y,y)", 2),
            ("R(x,x), R(x,y)", 2),
            ("R(x,y), R(u,v)", 3),
            ("R(2,x)", 3),
        ];
        Catalog {
            queries: spec
                .iter()
                .map(|(q, _)| q.parse().expect("catalog query parses"))
                .collect(),
            expected: spec.iter().map(|&(_, n)| n).collect(),
        }
    }
}

/// One client op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Serve `Page` from the start.
    Page { q: usize },
    /// Serve `CursorResume` with the `cursor`-th cursor minted at set-up.
    Resume { q: usize, cursor: usize },
    /// Serve `Count`.
    Count { q: usize },
    /// Serve `Write` of a ground fact.
    Write { relation: String, fact: Vec<u64> },
}

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Page { .. } => "page",
            Op::Resume { .. } => "resume",
            Op::Count { .. } => "count",
            Op::Write { .. } => "write",
        }
    }
}

/// What an op answered, reduced to what two runs can compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Count(u64),
    Page { keys: usize, digest: u64 },
    Wrote(u64),
}

pub fn page_digest(keys: &[CompletionKey], cursor: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for key in keys {
        for (rel, tuple) in key {
            h = fnv1a(h, &(*rel as u64).to_le_bytes());
            for c in tuple {
                h = fnv1a(h, &c.0.to_le_bytes());
            }
        }
        h = fnv1a(h, b";");
    }
    fnv1a(h, cursor.as_bytes())
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))))
}

/// One solver call: `#Val` or `#Comp` of `q` over `db`.
pub fn solve(db: &IncompleteDatabase, q: &Bcq, val: bool) -> Result<CountOutcome, String> {
    guarded(|| {
        if val {
            count_valuations(db, q)
        } else {
            count_completions(db, q)
        }
        .map_err(|e| e.to_string())
    })
}

/// Checks a solver answer against the expected count.
pub fn solve_answer(out: &Result<CountOutcome, String>, expected: u64) -> Result<Answer, String> {
    let out = out.as_ref().map_err(|e| e.clone())?;
    match out.value.to_u64() {
        Some(n) if n == expected => Ok(Answer::Count(n)),
        _ => Err(format!("count {} != expected {expected}", out.value)),
    }
}

/// A session build, decomposed: the grounding build and the residual
/// compile are re-run on the same input as its probes.
pub fn traced_session_build<'q>(
    tr: &mut Tracer,
    db: &IncompleteDatabase,
    q: &'q Bcq,
) -> Result<SearchSession<'q, Bcq>, DataError> {
    let id = tr.open("core.session_build");
    let session = SearchSession::new(db, q);
    tr.close(id);
    tr.under(id, |tr| {
        if let Ok(g) = tr.span("data.ground_build", |_| db.try_grounding()) {
            tr.span("query.residual_compile", |_| q.residual_state(&g));
        }
    });
    session
}

/// Distinct completions by fingerprint, with the fingerprinting timed.
struct Dedup {
    keys: HashSet<CompletionKey>,
    scratch: CompletionKey,
    fingerprint_ns: u64,
    fingerprints: u64,
    tuples: u64,
}

impl CompletionVisitor for Dedup {
    fn leaf(&mut self, g: &Grounding) -> bool {
        let t = Instant::now();
        g.completion_fingerprint_into(&mut self.scratch)
            .expect("a leaf is fully bound");
        self.fingerprint_ns += t.elapsed().as_nanos() as u64;
        self.fingerprints += 1;
        self.tuples += self.scratch.len() as u64;
        if !self.keys.contains(&self.scratch) {
            self.keys.insert(self.scratch.clone());
        }
        true
    }
}

/// A solver op, traced: the solver call timed whole, then probed with the
/// layer calls it is made of (validate, session build, walk). A `#Comp`
/// op also times the budgeted streaming count of the same input, beside
/// the solver call rather than under it, since the solver does not route
/// there.
pub fn traced_solve_op(
    tr: &mut Tracer,
    db: &IncompleteDatabase,
    q: &Bcq,
    val: bool,
    expected: u64,
) -> Result<(Answer, u64), String> {
    let id = tr.open(if val {
        "solver.count_valuations"
    } else {
        "solver.count_completions"
    });
    let out = solve(db, q, val);
    tr.close(id);
    let bundle_ns = tr.spans[id].dur_ns();
    if let Ok(o) = &out {
        tr.count(format!("core.route.{:?}", o.method), 1.0);
    }
    let answer = solve_answer(&out, expected)?;
    let probed = tr.under(id, |tr| -> Result<u64, String> {
        tr.span("data.validate", |_| db.validate())
            .map_err(|e| e.to_string())?;
        let mut session = traced_session_build(tr, db, q).map_err(|e| e.to_string())?;
        if val {
            let n = tr.span("core.walk_count", |_| session.count());
            return n.to_u64().ok_or_else(|| "huge count".to_string());
        }
        let mut visitor = Dedup {
            keys: HashSet::new(),
            scratch: CompletionKey::new(),
            fingerprint_ns: 0,
            fingerprints: 0,
            tuples: 0,
        };
        let wid = tr.open("core.walk_comp");
        session.visit_completions(&mut visitor);
        tr.close(wid);
        tr.under(wid, |tr| {
            tr.add_summed(
                "data.fingerprint",
                visitor.fingerprint_ns,
                visitor.fingerprints,
            )
        });
        if visitor.fingerprints > 0 {
            tr.count(
                "data.key_tuples",
                visitor.tuples as f64 / visitor.fingerprints as f64,
            );
        }
        Ok(visitor.keys.len() as u64)
    })?;
    if probed != expected {
        return Err(format!("probe walk counted {probed}, expected {expected}"));
    }
    if !val {
        budgeted_probe(tr, db, q, expected)?;
    }
    Ok((answer, bundle_ns))
}

/// The budgeted streaming count of `q` over `db`, with its pass and
/// residency counters.
fn budgeted_probe(
    tr: &mut Tracer,
    db: &IncompleteDatabase,
    q: &Bcq,
    expected: u64,
) -> Result<(), String> {
    let sc = tr
        .span("stream.budgeted_count", |_| {
            count_completions_budgeted(db, q, COUNT_BUDGET, 1)
        })
        .map_err(|e| e.to_string())?;
    tr.count("stream.passes", sc.passes as f64);
    tr.count("stream.peak_resident", sc.peak_resident_fingerprints as f64);
    match sc.count.to_u64() {
        Some(n) if n == expected => Ok(()),
        _ => Err(format!("budgeted count {} != {expected}", sc.count)),
    }
}

/// The one tenant: no fingerprint budget, pages of at most 8 keys (so a
/// `Count` of 2 or 3 completions is one page walk).
pub fn tenants() -> Vec<Tenant> {
    vec![Tenant::new("bulk", 8)]
}

pub fn request(op: &Op, cursors: &[String]) -> Request {
    match op {
        Op::Page { q } => Request::Page {
            tenant: 0,
            query: *q,
            page_size: PAGE_SIZE,
        },
        Op::Resume { q, cursor } => Request::CursorResume {
            tenant: 0,
            query: *q,
            page_size: PAGE_SIZE,
            cursor: cursors[*cursor].clone(),
        },
        Op::Count { q } => Request::Count {
            tenant: 0,
            query: *q,
        },
        Op::Write { relation, fact } => Request::Write {
            relation: relation.clone(),
            fact: fact.iter().map(|&c| Value::constant(c)).collect(),
        },
    }
}

/// The reference page: a fresh session and `page_from_session` over `db`.
pub fn reference_page(
    db: &IncompleteDatabase,
    q: &Bcq,
    cursor: &str,
    page_size: usize,
) -> Result<(Vec<CompletionKey>, String), String> {
    let mut session = SearchSession::new(db, q).map_err(|e| e.to_string())?;
    let cursor = Cursor::decode(cursor).map_err(|e| e.to_string())?;
    let mut heap = PageHeap::new();
    let next = page_from_session(&mut session, &cursor, page_size, &mut heap);
    Ok((heap.iter().cloned().collect(), next.encode()))
}

/// The cursors `Resume` ops use: after the first and after the second
/// completion of `q` over `db` (both resumes then serve a non-empty page).
pub fn mint_cursors(db: &IncompleteDatabase, q: &Bcq) -> Result<Vec<String>, String> {
    let (_, c1) = reference_page(db, q, &Cursor::start().encode(), PAGE_SIZE)?;
    let (_, c2) = reference_page(db, q, &c1, PAGE_SIZE)?;
    Ok(vec![c1, c2])
}

/// Checks a serve reply. `reference` is the expected page for a page op
/// (when this op is one that gets checked); `last_revision` tracks writes.
pub fn serve_answer(
    op: &Op,
    reply: &Reply,
    cat: &Catalog,
    reference: Option<&(Vec<CompletionKey>, String)>,
    last_revision: &mut u64,
) -> Result<Answer, String> {
    match (op, &reply.outcome) {
        (_, Outcome::Error(e)) => Err(e.clone()),
        (Op::Count { q }, Outcome::Count(n)) => match n.to_u64() {
            Some(n) if n == cat.expected[*q] => Ok(Answer::Count(n)),
            _ => Err(format!("count {n} != expected {}", cat.expected[*q])),
        },
        (Op::Page { .. } | Op::Resume { .. }, Outcome::Page { keys, cursor, .. }) => {
            if keys.is_empty() {
                return Err("empty page".to_string());
            }
            if let Some((ref_keys, ref_cursor)) = reference {
                if keys != ref_keys || cursor != ref_cursor {
                    return Err("page differs from the fresh-session reference".to_string());
                }
            }
            Ok(Answer::Page {
                keys: keys.len(),
                digest: page_digest(keys, cursor),
            })
        }
        (Op::Write { .. }, Outcome::Wrote { revision }) => {
            if *revision <= *last_revision {
                return Err(format!("revision {revision} did not advance"));
            }
            *last_revision = *revision;
            Ok(Answer::Wrote(*revision))
        }
        (op, outcome) => Err(format!("{op:?} answered {outcome:?}")),
    }
}

/// A replica of the node's request handling built from the public calls
/// `ServeNode` is made of, over its own copy of the database and its own
/// pool. Fed the same requests, it reaches the same pool states and
/// answers; its spans are the node's layer breakdown. It also keeps a
/// grounding, a residual state and a session of the hot query at the
/// current revision, to time the delta-patch path of each write.
pub struct Mirror<'q> {
    pub db: IncompleteDatabase,
    pool: SessionPool<'q, Bcq>,
    tenant: Tenant,
    heap: PageHeap,
    probe_heap: PageHeap,
    hot: &'q Bcq,
    wp_revision: u64,
    wp_grounding: Grounding,
    wp_state: Option<Box<dyn ResidualState>>,
    wp_session: SearchSession<'q, Bcq>,
    dirty: Vec<usize>,
}

impl<'q> Mirror<'q> {
    pub fn new(db: IncompleteDatabase, hot: &'q Bcq) -> Result<Mirror<'q>, String> {
        let mut wp_grounding = db.try_grounding().map_err(|e| e.to_string())?;
        let mut dirty = Vec::new();
        wp_grounding.drain_dirty_into(&mut dirty);
        let wp_state = hot.residual_state(&wp_grounding);
        let wp_session = SearchSession::new(&db, hot).map_err(|e| e.to_string())?;
        Ok(Mirror {
            wp_revision: db.revision(),
            db,
            pool: SessionPool::new(),
            tenant: tenants().remove(0),
            heap: PageHeap::new(),
            probe_heap: PageHeap::new(),
            hot,
            wp_grounding,
            wp_state,
            wp_session,
            dirty,
        })
    }

    /// One page walk, probed with the bare selection walk on the same
    /// session and cursor.
    fn fill(
        &mut self,
        tr: &mut Tracer,
        session: &mut SearchSession<'q, Bcq>,
        cursor: &Cursor,
        page: usize,
    ) -> Cursor {
        let id = tr.open("stream.page_fill");
        let next = page_from_session(session, cursor, page, &mut self.heap);
        tr.close(id);
        let probe_heap = &mut self.probe_heap;
        tr.under(id, |tr| {
            tr.span("core.select_page", |_| {
                probe_heap.clear();
                session.select_page(cursor.last_key(), page, probe_heap)
            })
        });
        next
    }

    /// Serves `op` the way `ServeNode` does, one span per layer call.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        cat: &'q Catalog,
        op: &Op,
        cursors: &[String],
    ) -> Result<Outcome, String> {
        if let Op::Write { relation, fact } = op {
            let before = self.db.revision();
            let fact: Vec<Value> = fact.iter().map(|&c| Value::constant(c)).collect();
            let db = &mut self.db;
            tr.span("data.add_fact", |_| db.add_fact(relation, fact))
                .map_err(|e| e.to_string())?;
            let id = tr.open("serve.maintain");
            self.pool.maintain(&self.db);
            tr.close(id);
            tr.under(id, |tr| self.probe_advance(tr, before));
            tr.count("serve.shelved", self.pool.shelved() as f64);
            return Ok(Outcome::Wrote {
                revision: self.db.revision(),
            });
        }
        let (q, start) = match op {
            Op::Page { q } | Op::Count { q } => (*q, Cursor::start()),
            Op::Resume { q, cursor } => {
                let text = &cursors[*cursor];
                let c = tr
                    .span("stream.cursor_decode", |_| Cursor::decode(text))
                    .map_err(|e| e.to_string())?;
                (*q, c)
            }
            Op::Write { .. } => unreachable!(),
        };
        // The node serves each one-request batch on a fresh worker with a
        // fresh page heap, so nothing is recycled across requests.
        self.heap = PageHeap::new();
        let query: &'q Bcq = &cat.queries[q];
        let id = tr.open("serve.checkout");
        let lease = self.pool.check_out(&self.db, query);
        tr.close(id);
        let mut lease = lease.map_err(|e| e.to_string())?;
        let built = !lease.was_reused();
        tr.rename(
            id,
            if built {
                "serve.checkout_build"
            } else if lease.was_patched() {
                "serve.checkout_patch"
            } else {
                "serve.checkout_hit"
            },
        );
        let db = &self.db;
        tr.under(id, |tr| -> Result<(), String> {
            tr.span("query.cache_key", |_| query.cache_key());
            if built {
                traced_session_build(tr, db, query).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let outcome = if let Op::Count { .. } = op {
            let page = self.tenant.clamp_page(self.tenant.max_page_size);
            let mut cursor = Cursor::start();
            let mut count = 0u64;
            loop {
                cursor = self.fill(tr, &mut lease.session, &cursor, page);
                count += self.heap.len() as u64;
                if self.heap.len() < page {
                    break;
                }
            }
            Outcome::Count(BigNat::from(count))
        } else {
            let page = self.tenant.clamp_page(PAGE_SIZE);
            let next = self.fill(tr, &mut lease.session, &start, page);
            let heap = &self.heap;
            let keys = tr.span("serve.reply_keys", |_| heap.iter().cloned().collect());
            let cursor = tr.span("stream.cursor_encode", |_| next.encode());
            tr.count("stream.cursor_bytes", cursor.len() as f64);
            Outcome::Page {
                keys,
                cursor,
                exhausted: self.heap.len() < page,
            }
        };
        let pool = &self.pool;
        tr.span("serve.checkin", |_| pool.check_in(lease));
        Ok(outcome)
    }

    /// Times the delta path of the write that moved the database from
    /// `before` to now: a session's `advance_to`, probed with the
    /// grounding patch and the residual patch it is made of. A delta no
    /// patch can cover (a new relation) rebuilds the probe objects
    /// untimed, as the pool drops its shelves untimed.
    fn probe_advance(&mut self, tr: &mut Tracer, before: u64) {
        debug_assert_eq!(self.wp_revision, before);
        let id = tr.open("core.advance");
        let advanced = self.wp_session.advance_to(&self.db, self.wp_revision);
        tr.close(id);
        let ops = self.db.delta_since(self.wp_revision);
        tr.count(
            "data.delta_ops",
            ops.as_ref().map_or(0, |ops| ops.len()) as f64,
        );
        let g = &mut self.wp_grounding;
        let state = &mut self.wp_state;
        let patched = tr.under(id, |tr| {
            let Some(ops) = ops else {
                return false;
            };
            let Some(splices) = tr.span("data.apply_delta", |_| g.apply_delta(&ops)) else {
                return false;
            };
            match state {
                Some(st) => tr.span("query.residual_patch", |_| st.apply_delta(g, &splices)),
                None => true,
            }
        });
        if !advanced || !patched {
            self.rebuild_write_probe();
        }
        self.wp_grounding.drain_dirty_into(&mut self.dirty);
        self.dirty.clear();
        self.wp_revision = self.db.revision();
    }

    fn rebuild_write_probe(&mut self) {
        self.wp_grounding = self.db.try_grounding().expect("the instance grounds");
        self.wp_grounding.drain_dirty_into(&mut self.dirty);
        self.wp_state = self.hot.residual_state(&self.wp_grounding);
        self.wp_session = SearchSession::new(&self.db, self.hot).expect("the instance grounds");
    }

    /// Times one completion fingerprint over the whole table, with every
    /// null bound to its first domain value.
    pub fn probe_fingerprint(&mut self, tr: &mut Tracer) {
        let g = &mut self.wp_grounding;
        for i in 0..g.null_count() {
            let v = g.domain_by_index(i)[0];
            g.bind_index(i, v);
        }
        let mut key = CompletionKey::new();
        tr.span("data.fingerprint", |_| {
            g.completion_fingerprint_into(&mut key)
        })
        .expect("every null is bound");
        tr.count("data.key_tuples", key.len() as f64);
        g.reset();
        g.drain_dirty_into(&mut self.dirty);
        self.dirty.clear();
    }

    /// The budgeted streaming count of `q` on the mirror's data.
    pub fn probe_budgeted(&self, tr: &mut Tracer, q: &Bcq, expected: u64) -> Result<(), String> {
        budgeted_probe(tr, &self.db, q, expected)
    }
}

/// Threads of this process, from `/proc/self/stat`.
fn thread_count() -> usize {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.rsplit(')')
        .next()
        .and_then(|rest| rest.split_whitespace().nth(17))
        .and_then(|n| n.parse().ok())
        .unwrap_or(1)
}

/// How long `settle` waits at most.
const SETTLE_LIMIT: Duration = Duration::from_millis(5);

/// Waits, untimed, until the worker thread of the previous request has
/// exited (or `SETTLE_LIMIT` has passed, when other threads run, as under
/// the test harness). `serve_with_workers` returns before its worker has
/// finished exiting; a request sent at once runs beside that exit, and its
/// worker may find the exiting one's malloc arena still held and open a
/// new one, so peak memory varied with the host's scheduling (7.2–9.8 MiB
/// for one seed of `serve_write`, 5.7–6.1 MiB with this wait).
pub fn settle() {
    let t = Instant::now();
    while thread_count() > 1 && t.elapsed() < SETTLE_LIMIT {
        std::thread::yield_now();
    }
}

/// A serving node, optionally with its mirror.
pub struct Rig<'q> {
    pub node: ServeNode<'q, Bcq>,
    pub mirror: Option<Mirror<'q>>,
}

impl<'q> Rig<'q> {
    pub fn new(
        db: &IncompleteDatabase,
        cat: &'q Catalog,
        mirrored: bool,
    ) -> Result<Rig<'q>, String> {
        let node = ServeNode::new(db.clone(), cat.queries.iter().collect(), tenants());
        let mirror = if mirrored {
            Some(Mirror::new(db.clone(), &cat.queries[0])?)
        } else {
            None
        };
        Ok(Rig { node, mirror })
    }

    /// One request on one worker, as a closed-loop client sends it; the
    /// caller `settle`s first.
    pub fn call(&self, op: &Op, cursors: &[String]) -> Result<Reply, String> {
        let req = request(op, cursors);
        guarded(|| {
            self.node
                .serve_with_workers(vec![req], 1)
                .pop()
                .ok_or_else(|| "no reply".to_string())
        })
    }

    /// Serves the warm-up ops on the node and, in step, on the mirror.
    pub fn warm(&mut self, cat: &'q Catalog, ops: &[Op], cursors: &[String]) -> Result<(), String> {
        let mut scratch = Tracer::new();
        for op in ops {
            settle();
            let reply = self.call(op, cursors)?;
            if let Outcome::Error(e) = &reply.outcome {
                return Err(format!("warm-up {op:?}: {e}"));
            }
            if let Some(m) = &mut self.mirror {
                m.replay(&mut scratch, cat, op, cursors)?;
            }
        }
        Ok(())
    }
}

/// A serve op, traced: the node call timed whole as `serve.node`, then
/// replayed on the mirror, whose spans become its children — so the
/// node span's self time is the dispatch the replay does not explain.
/// The replay must answer exactly as the node did. Per op kind, the
/// node's own `RequestMetrics` are summed into counters beside the
/// matching outside spans.
pub fn traced_serve_op<'q>(
    tr: &mut Tracer,
    rig: &mut Rig<'q>,
    cat: &'q Catalog,
    op: &Op,
    cursors: &[String],
) -> Result<(Reply, u64), String> {
    settle();
    let first = tr.spans.len();
    let id = tr.open("serve.node");
    let reply = rig.call(op, cursors);
    tr.close(id);
    let reply = reply?;
    let node_ns = tr.spans[id].dur_ns();
    let mirror = rig.mirror.as_mut().expect("a traced rig has a mirror");
    let replayed = tr.under(id, |tr| mirror.replay(tr, cat, op, cursors))?;
    if replayed != reply.outcome {
        return Err(format!(
            "mirror answered {replayed:?}, node {:?}",
            reply.outcome
        ));
    }
    let kind = op.kind();
    let (mut checkout, mut walk, mut flags_built, mut flags_patched) = (0u64, 0u64, false, false);
    for s in &tr.spans[first..] {
        if s.parent != Some(id) {
            continue;
        }
        match s.name {
            "serve.checkout_build" => {
                checkout += s.dur_ns();
                flags_built = true;
            }
            "serve.checkout_patch" => {
                checkout += s.dur_ns();
                flags_patched = true;
            }
            "serve.checkout_hit" => checkout += s.dur_ns(),
            "stream.page_fill" => walk += s.dur_ns(),
            _ => {}
        }
    }
    let m = reply.metrics;
    tr.count(
        format!("xcheck.{kind}.checkout_metric_ns"),
        m.checkout_ns as f64,
    );
    tr.count(format!("xcheck.{kind}.checkout_span_ns"), checkout as f64);
    tr.count(format!("xcheck.{kind}.walk_metric_ns"), m.walk_ns as f64);
    tr.count(format!("xcheck.{kind}.walk_span_ns"), walk as f64);
    tr.count(
        format!("xcheck.{kind}.service_metric_ns"),
        m.service_ns as f64,
    );
    tr.count(format!("xcheck.{kind}.node_span_ns"), node_ns as f64);
    if m.session_built != flags_built || m.session_patched != flags_patched {
        tr.count("xcheck.flag_mismatch", 1.0);
    }
    match op {
        Op::Page { .. } | Op::Resume { .. } => mirror.probe_fingerprint(tr),
        Op::Count { q } => mirror.probe_budgeted(tr, &cat.queries[*q], cat.expected[*q])?,
        _ => {}
    }
    Ok((reply, node_ns))
}
