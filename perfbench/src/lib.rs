//! The repository benchmark: two closed-loop workloads over the public
//! API of `incdb-data`, `incdb-query`, `incdb-core`, `incdb-stream` and
//! `incdb-serve`, one request in flight at a time. An untraced run
//! reports the end-to-end metrics; a traced run replays the same op
//! sequence with every layer call timed from outside and reports the
//! per-layer metrics. See `NOTES.md` for why each workload and size was
//! chosen and which layer metric should move which end-to-end metric.

pub mod ops;
pub mod stats;
pub mod trace;

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use incdb_data::{CompletionKey, IncompleteDatabase};
use incdb_serve::{PoolStats, Reply};
use incdb_stream::Cursor;

use ops::{Answer, Catalog, Mirror, Op, Rig};
use stats::Rng;
use trace::Tracer;

/// The workloads, each run in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    ServeWrite,
}

/// In `serve_write`, one op in this many is a write.
pub const WRITE_EVERY: u64 = 5;
/// In `serve_write`, one write in this many goes into a fresh relation: a
/// delta-log barrier every pooled session must be rebuilt across.
pub const BARRIER_EVERY: u64 = 8;
/// Ops per `serve_write` round. Writes grow the table, so each round
/// starts from a fresh node over the original instance and serves a
/// fixed op sequence.
pub const ROUND_OPS: usize = 400;
/// In `serve_write`, one page op in this many is checked against a fresh
/// session over a snapshot of the node.
pub const PAGE_CHECK_EVERY: u64 = 16;
/// Set-ups per run: at least this many; the median is reported.
pub const MIN_SETUPS: usize = 3;
/// In `serve_read`, one more set-up is timed (and dropped) after every
/// this many ops, so its set-ups span the run as `serve_write`'s rounds do.
pub const SETUP_EVERY: usize = ROUND_OPS;
/// `peak_rss_mb` is read once this many ops have been timed (a whole
/// number of `serve_write` rounds), so the op log it includes has the same
/// size whatever the run's speed.
pub const RSS_AT_OPS: usize = 10 * ROUND_OPS;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeRead, Workload::ServeWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed tail percentile: at least ten samples beyond it in each of
    /// several chunks at the op count a run reaches, and inside one op
    /// kind's mass. Not p99: it measured the host's scheduling of the
    /// per-request worker thread (see `NOTES.md`).
    pub fn tail_percentile(self) -> f64 {
        95.0
    }

    /// The op kinds behind `lead_p50_ms`: the workload's principal op
    /// besides `Count`.
    pub fn lead_kinds(self) -> &'static [&'static str] {
        match self {
            Workload::ServeRead => &["page", "resume"],
            Workload::ServeWrite => &["write"],
        }
    }
}

/// The seeded op sequence of a workload (of one round, for `serve_write`).
pub struct OpGen {
    w: Workload,
    rng: Rng,
    issued: u64,
    writes: u64,
    cold: usize,
}

impl OpGen {
    pub fn new(w: Workload, seed: u64) -> OpGen {
        OpGen {
            w,
            rng: Rng::new(seed),
            issued: 0,
            writes: 0,
            cold: 0,
        }
    }

    /// The generator of round `round` of `serve_write`.
    pub fn round(seed: u64, round: u64) -> OpGen {
        OpGen::new(
            Workload::ServeWrite,
            seed.wrapping_mul(0x1000_0000_01B3).wrapping_add(round),
        )
    }

    fn pick<const N: usize>(&mut self, from: [usize; N]) -> usize {
        from[self.rng.below(N as u64) as usize]
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.w == Workload::ServeWrite {
            if self.issued.is_multiple_of(WRITE_EVERY) {
                let w = self.writes;
                self.writes += 1;
                return if w % BARRIER_EVERY == BARRIER_EVERY - 1 {
                    Op::Write {
                        relation: format!("W{w}"),
                        fact: vec![ops::FRESH + w],
                    }
                } else {
                    Op::Write {
                        relation: "R".to_string(),
                        fact: vec![ops::FRESH + 2 * w, ops::FRESH + 2 * w + 1],
                    }
                };
            }
            if self.rng.below(5) == 0 {
                let q = ops::COLD[self.cold % ops::COLD.len()];
                self.cold += 1;
                return Op::Count { q };
            }
        }
        self.read_op()
    }

    /// 40% `Page`, 40% `CursorResume` on the scan query, 20% `Count` on
    /// the hot pair.
    fn read_op(&mut self) -> Op {
        match self.rng.below(10) {
            0..=3 => Op::Page {
                q: self.pick(ops::SCAN),
            },
            4..=7 => Op::Resume {
                q: self.pick(ops::SCAN),
                cursor: self.rng.below(2) as usize,
            },
            _ => Op::Count {
                q: self.pick(ops::HOT),
            },
        }
    }
}

/// One op as the untraced run saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub op: Op,
    pub latency_ns: u64,
    /// Whether the node built a session for it (`RequestMetrics`).
    pub built: bool,
    /// `Err` when the op failed: an error reply, a panic or a wrong answer.
    pub answer: Result<Answer, String>,
}

/// What an untraced run measured.
pub struct Measurement {
    pub workload: Workload,
    pub setups_s: Vec<f64>,
    pub records: Vec<OpRecord>,
    /// Index of the first op of each `serve_write` round.
    pub round_starts: Vec<usize>,
    /// The serving node's pool counters at the end.
    pub pool: PoolStats,
    /// Peak resident memory after `RSS_AT_OPS` ops (at the end of a run
    /// that timed fewer), in MiB.
    pub peak_rss_mb: f64,
}

/// The warm-up a serving node gets before the first timed op: one build
/// of every shelf the workload reads, and a page and a resume.
pub fn warm_ops(w: Workload) -> Vec<Op> {
    let mut v = vec![
        Op::Count { q: ops::HOT[0] },
        Op::Page { q: ops::SCAN[0] },
        Op::Resume {
            q: ops::SCAN[0],
            cursor: 0,
        },
    ];
    if w == Workload::ServeWrite {
        v.extend(ops::COLD.iter().map(|&q| Op::Count { q }));
    }
    v
}

/// Runs `setup`, timed; returns its result and its time in seconds.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let out = setup()?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// Serving-workload context shared by the untraced and traced runs.
pub struct ServeCtx {
    pub cat: Catalog,
    pub db0: IncompleteDatabase,
    pub cursors: Vec<String>,
}

/// Reference pages of the unchanged serving instance, by (query, cursor).
type Refs = HashMap<(usize, Option<usize>), (Vec<CompletionKey>, String)>;

impl ServeCtx {
    pub fn new() -> Result<ServeCtx, String> {
        let cat = Catalog::serve();
        let db0 = ops::serve_db();
        let cursors = ops::mint_cursors(&db0, &cat.queries[ops::SCAN[0]])?;
        Ok(ServeCtx { cat, db0, cursors })
    }

    /// The reference page of a page op over `db`: a fresh session's page
    /// after the op's cursor.
    fn reference_over(
        &self,
        db: &IncompleteDatabase,
        q: usize,
        cursor: Option<usize>,
    ) -> Result<(Vec<CompletionKey>, String), String> {
        let text = cursor.map_or_else(|| Cursor::start().encode(), |i| self.cursors[i].clone());
        ops::reference_page(db, &self.cat.queries[q], &text, ops::PAGE_SIZE)
    }

    /// The reference page of a page op over the unchanged instance,
    /// computed once per (query, cursor).
    fn reference<'r>(
        &self,
        refs: &'r mut Refs,
        op: &Op,
    ) -> Result<Option<&'r (Vec<CompletionKey>, String)>, String> {
        let Some(key) = page_key(op) else {
            return Ok(None);
        };
        let slot = match refs.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.reference_over(&self.db0, key.0, key.1)?),
        };
        Ok(Some(slot))
    }
}

/// The query and cursor of a page op.
fn page_key(op: &Op) -> Option<(usize, Option<usize>)> {
    match op {
        Op::Page { q } => Some((*q, None)),
        Op::Resume { q, cursor } => Some((*q, Some(*cursor))),
        _ => None,
    }
}

/// The untraced, measured run.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Result<Measurement, String> {
    match w {
        Workload::ServeRead => measure_serve_read(seed, seconds),
        Workload::ServeWrite => measure_serve_write(seed, seconds),
    }
}

/// The record of one timed node call, its answer checked.
fn record(
    op: Op,
    latency_ns: u64,
    reply: Result<Reply, String>,
    check: impl FnOnce(&Op, &Reply) -> Result<Answer, String>,
) -> OpRecord {
    let built = reply.as_ref().is_ok_and(|r| r.metrics.session_built);
    let answer = reply.and_then(|r| check(&op, &r));
    OpRecord {
        op,
        latency_ns,
        built,
        answer,
    }
}

fn measure_serve_read(seed: u64, seconds: f64) -> Result<Measurement, String> {
    let w = Workload::ServeRead;
    let ctx = ServeCtx::new()?;
    let cat = &ctx.cat;
    let mut refs = Refs::new();
    let warm = warm_ops(w);
    let setup = || {
        let db = ops::serve_db();
        let mut rig = Rig::new(&db, cat, false)?;
        rig.warm(cat, &warm, &ctx.cursors)?;
        Ok(rig)
    };
    let (rig, dt) = timed(setup)?;
    let mut setups_s = vec![dt];
    let mut gen = OpGen::new(w, seed);
    let mut records = Vec::with_capacity(RSS_AT_OPS);
    let mut rss = None;
    let mut revision = rig.node.revision();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        if !records.is_empty() && records.len() % SETUP_EVERY == 0 {
            setups_s.push(timed(setup)?.1);
        }
        let op = gen.next_op();
        ops::settle();
        let t = Instant::now();
        let reply = rig.call(&op, &ctx.cursors);
        let latency_ns = t.elapsed().as_nanos() as u64;
        let reference = ctx.reference(&mut refs, &op)?;
        records.push(record(op, latency_ns, reply, |op, r| {
            ops::serve_answer(op, r, cat, reference, &mut revision)
        }));
        if records.len() == RSS_AT_OPS {
            rss = Some(peak_rss_mb());
        }
    }
    while setups_s.len() < MIN_SETUPS {
        setups_s.push(timed(setup)?.1);
    }
    Ok(Measurement {
        workload: w,
        setups_s,
        records,
        round_starts: vec![0],
        pool: rig.node.pool().stats(),
        peak_rss_mb: rss.unwrap_or_else(peak_rss_mb),
    })
}

fn measure_serve_write(seed: u64, seconds: f64) -> Result<Measurement, String> {
    let w = Workload::ServeWrite;
    let ctx = ServeCtx::new()?;
    let cat = &ctx.cat;
    let warm = warm_ops(w);
    let mut check = Rng::new(seed ^ 0xC4EC);
    let mut setups_s = Vec::new();
    let mut records = Vec::with_capacity(RSS_AT_OPS);
    let mut rss = None;
    let mut round_starts = Vec::new();
    let mut pool = PoolStats::default();
    let start = Instant::now();
    let mut round = 0u64;
    // Whole rounds only; at least MIN_SETUPS of them, so the set-up median
    // has samples.
    while start.elapsed().as_secs_f64() < seconds || (round as usize) < MIN_SETUPS {
        let t = Instant::now();
        let db = ops::serve_db();
        let mut rig = Rig::new(&db, cat, false)?;
        rig.warm(cat, &warm, &ctx.cursors)?;
        setups_s.push(t.elapsed().as_secs_f64());
        round_starts.push(records.len());
        let mut gen = OpGen::round(seed, round);
        let mut revision = rig.node.revision();
        for _ in 0..ROUND_OPS {
            let op = gen.next_op();
            ops::settle();
            let t = Instant::now();
            let reply = rig.call(&op, &ctx.cursors);
            let latency_ns = t.elapsed().as_nanos() as u64;
            let reference = match page_key(&op) {
                Some((q, c)) if check.below(PAGE_CHECK_EVERY) == 0 => {
                    Some(ctx.reference_over(&rig.node.snapshot(), q, c)?)
                }
                _ => None,
            };
            records.push(record(op, latency_ns, reply, |op, r| {
                ops::serve_answer(op, r, cat, reference.as_ref(), &mut revision)
            }));
        }
        // A round's table is at its largest at its end.
        if records.len() == RSS_AT_OPS {
            rss = Some(peak_rss_mb());
        }
        pool = add_stats(pool, rig.node.pool().stats());
        round += 1;
    }
    Ok(Measurement {
        workload: w,
        setups_s,
        records,
        round_starts,
        pool,
        peak_rss_mb: rss.unwrap_or_else(peak_rss_mb),
    })
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn latencies_ms(m: &Measurement, kinds: &[&str]) -> Vec<f64> {
    m.records
        .iter()
        .filter(|r| kinds.contains(&r.op.kind()))
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect()
}

/// The end-to-end metrics of an untraced run, and a readable report of
/// every per-kind figure behind them.
pub fn end_to_end(m: &Measurement, report: &mut String) -> Vec<Metric> {
    let w = m.workload;
    let all = latencies_ms(m, &["page", "resume", "count", "write"]);
    let mut sorted = all.clone();
    sorted.sort_by(f64::total_cmp);
    let p = w.tail_percentile();
    let lead = latencies_ms(m, w.lead_kinds());
    let comp = latencies_ms(m, &["count"]);
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::p50(v) };
    let _ = writeln!(report, "workload {} ({} ops)", w.name(), all.len());
    let mut by_kind: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in &m.records {
        let e = by_kind.entry(r.op.kind()).or_default();
        e.0 += 1;
        if let Err(err) = &r.answer {
            e.1 += 1;
            if e.1 <= 3 {
                let _ = writeln!(report, "  FAILED {:?}: {err}", r.op);
            }
        }
    }
    for (kind, (n, failed)) in &by_kind {
        let v = latencies_ms(m, &[kind]);
        let mut v = v.clone();
        v.sort_by(f64::total_cmp);
        let _ = writeln!(
            report,
            "  {kind:<7} attempted {n:>6} failed {failed:>3}  p50 {:>8.4} p90 {:>8.4} p99 {:>8.4} max {:>9.4} ms",
            med(&v),
            stats::percentile(&v, 90.0),
            stats::percentile(&v, 99.0),
            v[v.len() - 1]
        );
    }
    let named = [
        ("comp_p50_ms", vec!["count"]),
        ("page_p50_ms", vec!["page", "resume"]),
        ("write_p50_ms", vec!["write"]),
    ];
    for (name, kinds) in &named {
        let v = latencies_ms(m, kinds);
        if !v.is_empty() {
            let _ = writeln!(report, "  {name} = {:.4} ms (n = {})", med(&v), v.len());
        }
    }
    let _ = writeln!(
        report,
        "  all ops: p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} ms",
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 90.0),
        stats::percentile(&sorted, 95.0),
        stats::percentile(&sorted, 99.0)
    );
    let beyond = stats::samples_beyond(sorted.len(), p);
    let _ = writeln!(
        report,
        "  tail_ms = p{p} = {:.4} ms, mean over chunks (n = {}, {beyond} beyond{})",
        stats::tail(&all, p),
        sorted.len(),
        if beyond < 10 { "; FEWER THAN 10" } else { "" }
    );
    let _ = writeln!(
        report,
        "  ops ranked within one point of p{p}, per chunk: {}",
        tail_mix(m, p)
    );
    let _ = writeln!(
        report,
        "  setup_s = {:.4} s (median of {})",
        stats::median(&m.setups_s),
        m.setups_s.len()
    );
    let pool = &m.pool;
    let _ = writeln!(
        report,
        "  pool: hit rate {:.4}, built {}, reused {}, patched {}, rebuilt_gap {}",
        pool.hit_rate(),
        pool.built,
        pool.reused,
        pool.patched,
        pool.rebuilt_gap
    );
    let _ = writeln!(
        report,
        "  peak_rss_mb = {:.3} MiB after {} ops",
        m.peak_rss_mb,
        m.records.len().min(RSS_AT_OPS)
    );
    vec![
        metric("setup_s", stats::median(&m.setups_s), "s"),
        metric("ops_per_s", stats::throughput(&all), "1/s"),
        metric("lead_p50_ms", med(&lead), "ms"),
        metric("comp_p50_ms", med(&comp), "ms"),
        metric("tail_ms", stats::tail(&all, p), "ms"),
        metric("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ]
}

/// The op kinds (`+build` when the node built a session for the op) of
/// the ops whose latency ranks within one percentage point of the `p`-th
/// percentile, in each of the chunks `tail_ms` is taken over: where the
/// tail percentile lands.
pub fn tail_mix(m: &Measurement, p: f64) -> String {
    let n = m.records.len();
    let k = stats::tail_chunks(n, p);
    let mut mix: BTreeMap<String, usize> = BTreeMap::new();
    let mut total = 0;
    for i in 0..k {
        let mut chunk: Vec<&OpRecord> = m.records[i * n / k..(i + 1) * n / k].iter().collect();
        chunk.sort_by_key(|r| r.latency_ns);
        let len = chunk.len();
        let rank = |q: f64| (((q / 100.0) * len as f64).ceil() as usize).min(len);
        for r in &chunk[rank(p - 1.0)..rank(p + 1.0)] {
            let build = if r.built { "+build" } else { "" };
            *mix.entry(format!("{}{build}", r.op.kind())).or_default() += 1;
            total += 1;
        }
    }
    let parts: Vec<String> = mix
        .iter()
        .map(|(kind, c)| format!("{kind} {:.3}", *c as f64 / total.max(1) as f64))
        .collect();
    parts.join(", ")
}

/// What the traced replay produced.
pub struct Traced {
    pub tracer: Tracer,
    pub replayed: usize,
    /// Summed latency of the replayed ops' bundle calls, traced and
    /// untraced.
    pub traced_ns: u64,
    pub untraced_ns: u64,
    /// One line per replayed op or probe that failed or answered unlike
    /// the untraced run.
    pub failures: Vec<String>,
    pub pool: PoolStats,
}

fn root_name(kind: &str) -> &'static str {
    match kind {
        "val" => "op.val",
        "comp" => "op.comp",
        "page" => "op.page",
        "resume" => "op.resume",
        "count" => "op.count",
        "write" => "op.write",
        _ => "op.probe",
    }
}

fn probe_kind(kind: &str) -> &'static str {
    match kind {
        "val" => "probe.val",
        "comp" => "probe.comp",
        "page" => "probe.page",
        "resume" => "probe.resume",
        "count" => "probe.count",
        "write" => "probe.write",
        _ => "probe.pool",
    }
}

/// Replays the untraced run's ops, traced, until `seconds` have passed,
/// then probes on a scratch copy of the instance the layer calls the
/// workload's own ops do not make.
pub fn replay(m: &Measurement, seconds: f64) -> Result<Traced, String> {
    let w = m.workload;
    let mut tr = Tracer::new();
    let mut out = Traced {
        tracer: Tracer::new(),
        replayed: 0,
        traced_ns: 0,
        untraced_ns: 0,
        failures: Vec::new(),
        pool: PoolStats::default(),
    };
    let start = Instant::now();
    let mut kinds_seen: Vec<&str> = Vec::new();
    let ctx = ServeCtx::new()?;
    let cat = &ctx.cat;
    let warm = warm_ops(w);
    let bounds: Vec<usize> = m
        .round_starts
        .iter()
        .copied()
        .chain([m.records.len()])
        .collect();
    'rounds: for pair in bounds.windows(2) {
        let mut rig = Rig::new(&ctx.db0, cat, true)?;
        rig.warm(cat, &warm, &ctx.cursors)?;
        for (i, rec) in m.records[pair[0]..pair[1]].iter().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                out.pool = add_stats(out.pool, rig.node.pool().stats());
                break 'rounds;
            }
            let kind = rec.op.kind();
            if !kinds_seen.contains(&kind) {
                kinds_seen.push(kind);
            }
            let op_id = pair[0] + i;
            tr.begin_op(op_id as u64, kind);
            let root = tr.open(root_name(kind));
            let res = ops::traced_serve_op(&mut tr, &mut rig, cat, &rec.op, &ctx.cursors);
            tr.close(root);
            match res {
                Ok((reply, node_ns)) => {
                    out.replayed += 1;
                    out.traced_ns += node_ns;
                    out.untraced_ns += rec.latency_ns;
                    let mut rev = 0;
                    let again = ops::serve_answer(&rec.op, &reply, cat, None, &mut rev);
                    if !same_answer(&again, &rec.answer) {
                        out.failures
                            .push(format!("op {op_id}: replay answered {again:?}"));
                    }
                }
                Err(e) => out.failures.push(format!("op {op_id}: {e}")),
            }
        }
        out.pool = add_stats(out.pool, rig.node.pool().stats());
    }
    probe_missing(
        &mut tr,
        &ctx,
        &kinds_seen,
        m.records.len() as u64,
        &mut out.failures,
    )?;
    out.tracer = tr;
    Ok(out)
}

fn same_answer(a: &Result<Answer, String>, b: &Result<Answer, String>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

fn add_stats(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        built: a.built + b.built,
        reused: a.reused + b.reused,
        invalidated: a.invalidated + b.invalidated,
        uncacheable: a.uncacheable + b.uncacheable,
        patched: a.patched + b.patched,
        rebuilt_gap: a.rebuilt_gap + b.rebuilt_gap,
    }
}

/// How many times each probe runs.
const PROBE_REPEATS: usize = 2;

/// Times, on a scratch copy of the serving instance, every layer call
/// the workload's own ops did not make: the solver path (`#Val` and
/// `#Comp` of the hot query), a write where the workload has none, and a
/// checkout that patches a stale shelf (which the node's eager maintenance
/// never leaves behind).
fn probe_missing(
    tr: &mut Tracer,
    ctx: &ServeCtx,
    seen: &[&str],
    first_op: u64,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let cat = &ctx.cat;
    let hot = &cat.queries[ops::HOT[0]];
    let mut op_id = first_op;
    let mut fresh = ops::FRESH * 4;
    let mut probe_rig: Option<Rig> = None;
    for _ in 0..PROBE_REPEATS {
        for (kind, expected) in [
            ("val", ops::HOT_VALUATIONS),
            ("comp", cat.expected[ops::HOT[0]]),
        ] {
            tr.begin_op(op_id, probe_kind(kind));
            op_id += 1;
            let root = tr.open(root_name(kind));
            let res = ops::traced_solve_op(tr, &ctx.db0, hot, kind == "val", expected);
            tr.close(root);
            if let Err(e) = res {
                failures.push(format!("probe {kind}: {e}"));
            }
        }
        if !seen.contains(&"write") {
            let rig = match &mut probe_rig {
                Some(r) => r,
                None => {
                    let mut r = Rig::new(&ctx.db0, cat, true)?;
                    r.warm(cat, &warm_ops(Workload::ServeRead), &ctx.cursors)?;
                    probe_rig.insert(r)
                }
            };
            fresh += 2;
            let op = Op::Write {
                relation: "R".to_string(),
                fact: vec![fresh, fresh + 1],
            };
            tr.begin_op(op_id, probe_kind("write"));
            op_id += 1;
            let root = tr.open(root_name("write"));
            let res = ops::traced_serve_op(tr, rig, cat, &op, &ctx.cursors);
            tr.close(root);
            let checked = res.and_then(|(reply, _)| {
                let mut rev = 0;
                ops::serve_answer(&op, &reply, cat, None, &mut rev)
            });
            if let Err(e) = checked {
                failures.push(format!("probe write: {e}"));
            }
        }
        // A checkout that patches: shelve a session, write without the
        // maintenance sweep, check out again.
        fresh += 2;
        tr.begin_op(op_id, probe_kind("pool"));
        op_id += 1;
        let root = tr.open(root_name("pool"));
        let res = probe_patch_checkout(tr, &ctx.db0, cat, &ctx.cursors, fresh);
        tr.close(root);
        if let Err(e) = res {
            failures.push(format!("probe pool: {e}"));
        }
    }
    Ok(())
}

fn probe_patch_checkout(
    tr: &mut Tracer,
    db: &IncompleteDatabase,
    cat: &Catalog,
    cursors: &[String],
    fresh: u64,
) -> Result<(), String> {
    let mut mirror = Mirror::new(db.clone(), &cat.queries[0])?;
    let count = Op::Count { q: 0 };
    mirror.replay(tr, cat, &count, cursors)?;
    mirror
        .db
        .add_fact(
            "R",
            vec![
                incdb_data::Value::constant(fresh),
                incdb_data::Value::constant(fresh + 1),
            ],
        )
        .map_err(|e| e.to_string())?;
    mirror.replay(tr, cat, &count, cursors)?;
    Ok(())
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("data.validate_ms", "ms"),
    ("data.ground_build_ms", "ms"),
    ("data.fingerprint_ms", "ms"),
    ("data.key_tuples", "count"),
    ("data.add_fact_ms", "ms"),
    ("data.delta_ops", "count"),
    ("data.apply_delta_ms", "ms"),
    ("query.residual_compile_ms", "ms"),
    ("query.residual_patch_ms", "ms"),
    ("query.cache_key_us", "us"),
    ("core.session_build_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.walk_count_ms", "ms"),
    ("core.walk_comp_ms", "ms"),
    ("core.select_page_ms", "ms"),
    ("core.advance_ms", "ms"),
    ("core.route.SingleOccurrenceProduct", "count"),
    ("core.route.CoddFactorisation", "count"),
    ("core.route.UniformInclusionExclusion", "count"),
    ("core.route.UniformUnaryCompletions", "count"),
    ("core.route.SeparableProduct", "count"),
    ("core.route.BacktrackingSearch", "count"),
    ("core.route.HashShardedSearch", "count"),
    ("stream.page_fill_ms", "ms"),
    ("stream.cursor_encode_ms", "ms"),
    ("stream.cursor_decode_ms", "ms"),
    ("stream.cursor_bytes", "bytes"),
    ("stream.budgeted_count_ms", "ms"),
    ("stream.passes", "count"),
    ("stream.peak_resident", "count"),
    ("serve.checkout_hit_ms", "ms"),
    ("serve.checkout_patch_ms", "ms"),
    ("serve.checkout_build_ms", "ms"),
    ("serve.checkin_ms", "ms"),
    ("serve.maintain_ms", "ms"),
    ("serve.shelved", "count"),
    ("serve.reply_keys_ms", "ms"),
    ("serve.hit_rate", "frac"),
    ("serve.patched", "count"),
    ("serve.rebuilt_gap", "count"),
    ("serve.dispatch_ms", "ms"),
    ("serve.explained_frac.page", "frac"),
    ("serve.explained_frac.resume", "frac"),
    ("serve.explained_frac.count", "frac"),
    ("serve.explained_frac.write", "frac"),
    ("serve.xcheck.checkout_ratio", "frac"),
    ("serve.xcheck.walk_ratio", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The per-layer metrics of a traced run, plus the readable self-time
/// table and layer-claim baselines in `report`.
pub fn per_layer(t: &Traced, report: &mut String) -> Vec<Metric> {
    let spans = &t.tracer.spans;
    let names = trace::per_name(spans);
    let mean_ms = |name: &str| -> f64 {
        names
            .get(name)
            .filter(|e| e.2 > 0)
            .map_or(0.0, |e| e.0 as f64 / e.2 as f64 / 1e6)
    };
    let self_ms = |name: &str| -> f64 {
        names
            .get(name)
            .filter(|e| e.2 > 0)
            .map_or(0.0, |e| e.1 as f64 / e.2 as f64 / 1e6)
    };
    let counters: BTreeMap<&str, (f64, u64)> =
        t.tracer.counters().map(|(k, s, n)| (k, (s, n))).collect();
    let mean_counter = |name: &str| counters.get(name).map_or(0.0, |&(s, n)| s / n as f64);
    let sum_counter = |name: &str| counters.get(name).map_or(0.0, |&(s, _)| s);
    // The share of each serve op kind's node time that the replay's layer
    // spans explain, probes of that kind included.
    let selfs = trace::self_times(spans);
    let mut explained: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        if s.name == "serve.node" {
            let kind = s.kind.trim_start_matches("probe.");
            let e = explained.entry(kind).or_default();
            e.0 += s.dur_ns() as f64 - st as f64;
            e.1 += s.dur_ns() as f64;
        }
    }
    let frac = |kind: &str| {
        explained
            .get(kind)
            .map_or(0.0, |&(a, b)| if b > 0.0 { a / b } else { 0.0 })
    };
    let ratio = |part: &str| -> f64 {
        let (mut metric, mut span) = (0.0, 0.0);
        for kind in ["page", "resume", "count"] {
            metric += sum_counter(&format!("xcheck.{kind}.{part}_metric_ns"));
            span += sum_counter(&format!("xcheck.{kind}.{part}_span_ns"));
        }
        if span > 0.0 {
            metric / span
        } else {
            0.0
        }
    };
    let pool = t.pool;
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "core.plan_ms" => self_ms("core.session_build"),
            "serve.dispatch_ms" => self_ms("serve.node"),
            "query.cache_key_us" => mean_ms("query.cache_key") * 1e3,
            "serve.hit_rate" => pool.hit_rate(),
            "serve.patched" => pool.patched as f64,
            "serve.rebuilt_gap" => pool.rebuilt_gap as f64,
            "serve.xcheck.checkout_ratio" => ratio("checkout"),
            "serve.xcheck.walk_ratio" => ratio("walk"),
            "trace.overhead_frac" => t.traced_ns as f64 / t.untraced_ns.max(1) as f64 - 1.0,
            n if n.starts_with("serve.explained_frac.") => {
                frac(&n["serve.explained_frac.".len()..])
            }
            n if n.starts_with("core.route.") => sum_counter(n),
            n if n.ends_with("_ms") => mean_ms(&n[..n.len() - 3]),
            n => mean_counter(n),
        };
        out.push(metric(name, value, unit));
    }
    write_table(t, report);
    write_claims(t, &out, &counters, report);
    out
}

/// The per-op-kind table of mean self time per op, by span.
fn write_table(t: &Traced, report: &mut String) {
    let table = trace::self_time_table(&t.tracer.spans);
    let _ = writeln!(
        report,
        "self time per op, ms (replayed {} ops; {} failed)",
        t.replayed,
        t.failures.len()
    );
    for (kind, (ops, names)) in &table {
        let _ = writeln!(report, "  [{kind}] {ops} ops");
        let mut rows: Vec<(&&str, &i64)> = names.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (name, ns) in rows {
            let _ = writeln!(
                report,
                "    {name:<28} {:>12.5}",
                *ns as f64 / (*ops).max(1) as f64 / 1e6
            );
        }
    }
}

/// The baselines of the four layer claims the roadmap makes.
fn write_claims(
    t: &Traced,
    metrics: &[Metric],
    counters: &BTreeMap<&str, (f64, u64)>,
    report: &mut String,
) {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    let sum = |n: &str| counters.get(n).map_or(0.0, |&(s, _)| s);
    // Grounding share of a session build: the ground-build probes under
    // the session builds, over the builds.
    let spans = &t.tracer.spans;
    let (mut ground, mut build) = (0.0, 0.0);
    for s in spans {
        if s.name == "core.session_build" {
            build += s.dur_ns() as f64;
        }
        if s.name == "data.ground_build"
            && s.parent
                .is_some_and(|p| spans[p].name == "core.session_build")
        {
            ground += s.dur_ns() as f64;
        }
    }
    let _ = writeln!(report, "layer-claim baselines:");
    let _ = writeln!(
        report,
        "  grounding share of SearchSession::new: {:.3} ({:.3} of {:.3} ms per build)",
        ground / build.max(1.0),
        get("data.ground_build_ms"),
        get("core.session_build_ms")
    );
    for kind in ["page", "resume", "count"] {
        let service = sum(&format!("xcheck.{kind}.service_metric_ns"));
        let walk = sum(&format!("xcheck.{kind}.walk_metric_ns"));
        let node = sum(&format!("xcheck.{kind}.node_span_ns"));
        if walk > 0.0 {
            let _ = writeln!(
                report,
                "  {kind}: service_ns / walk_ns = {:.2}; service_ns / outside node span = {:.3}",
                service / walk,
                service / node.max(1.0)
            );
        }
    }
    let _ = writeln!(
        report,
        "  cursor: {:.0} bytes, decode {:.4} ms, encode {:.4} ms",
        get("stream.cursor_bytes"),
        get("stream.cursor_decode_ms"),
        get("stream.cursor_encode_ms")
    );
    let _ = writeln!(
        report,
        "  checkout: patched {:.4} ms vs built {:.4} ms vs hit {:.4} ms; maintain {:.4} ms",
        get("serve.checkout_patch_ms"),
        get("serve.checkout_build_ms"),
        get("serve.checkout_hit_ms"),
        get("serve.maintain_ms")
    );
    let _ = writeln!(
        report,
        "  flag mismatches between RequestMetrics and the replay: {}",
        sum("xcheck.flag_mismatch")
    );
}

/// The final JSON line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
