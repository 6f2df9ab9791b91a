//! The thread-per-core front-end: a [`ServeNode`] owns one incomplete
//! database behind a read/write lock, a catalog of prepared queries, a
//! tenant table, and a [`SessionPool`] — and multiplexes batches of
//! [`Request`]s across worker threads.
//!
//! Read requests ([`Request::Count`], [`Request::Page`],
//! [`Request::CursorResume`]) check a session out of the pool under the
//! read lock, drop the lock (the session snapshots the data, so walks
//! never block writers), walk, and check the session back in. Writes take
//! the write lock, mutate (bumping
//! [`IncompleteDatabase::revision`]), and purge the pool's now-stale
//! shelves. Every reply carries [`RequestMetrics`]: queue wait, walk time,
//! and whether the pool had to build a session.
//!
//! A request that panics is answered with [`Outcome::Error`]; its lease
//! is dropped, never shelved, and the rest of the batch is served.
//!
//! Memory discipline is per tenant: a [`Tenant`]'s fingerprint budget and
//! page ceiling bound the resident keys of every walk serving it — the
//! keys of a page, and the class keys of a count's single walk
//! ([`count_session`]) — the serving-layer face of the streaming
//! subsystem's memory-vs-passes trade-off.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, RwLock};
use std::thread;
use std::time::Instant;

use incdb_bignum::BigNat;
use incdb_data::{CompletionKey, IncompleteDatabase, PageHeap, Value};
use incdb_query::BooleanQuery;
use incdb_stream::stream::page_from_session;
use incdb_stream::{count_session, Cursor};

use crate::pool::{MaintenancePolicy, SessionPool};

/// A client class with its own memory discipline.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name, echoed in errors.
    pub name: String,
    /// Maximum resident fingerprints of any walk run on this tenant's
    /// behalf: it clamps page sizes, and bounds the class keys a count's
    /// walk holds at once. `None` leaves only `max_page_size`.
    pub fingerprint_budget: Option<usize>,
    /// Hard page-size ceiling, applied after the budget clamp; also the
    /// resident-key bound of counts when there is no budget.
    pub max_page_size: usize,
}

impl Tenant {
    /// A tenant with no fingerprint budget and the given page ceiling.
    pub fn new(name: impl Into<String>, max_page_size: usize) -> Tenant {
        Tenant {
            name: name.into(),
            fingerprint_budget: None,
            max_page_size: max_page_size.max(1),
        }
    }

    /// Builder-style fingerprint budget.
    pub fn with_budget(mut self, budget: usize) -> Tenant {
        self.fingerprint_budget = Some(budget.max(1));
        self
    }

    /// The page size actually served for a request of `requested`: at
    /// least 1, at most the tenant ceiling, at most the fingerprint
    /// budget.
    pub fn clamp_page(&self, requested: usize) -> usize {
        let mut page = requested.clamp(1, self.max_page_size);
        if let Some(budget) = self.fingerprint_budget {
            page = page.min(budget.max(1));
        }
        page
    }
}

/// One client request. Queries and tenants are referenced by index into
/// the node's catalogs — the serving layer's "prepared statement"
/// discipline, which is also what lets pooled sessions borrow the query
/// for as long as the node lives.
#[derive(Debug, Clone)]
pub enum Request {
    /// How many distinct completions satisfy the query? Served by one
    /// budgeted counting walk ([`count_session`]) on a pooled session; the
    /// tenant's clamp ([`Tenant::clamp_page`] of its page ceiling) bounds
    /// the class keys resident at once, whatever the true count is.
    Count { tenant: usize, query: usize },
    /// The first `page_size` completions in canonical order.
    Page {
        tenant: usize,
        query: usize,
        page_size: usize,
    },
    /// The next `page_size` completions after a wire-format cursor
    /// previously returned in [`Outcome::Page`].
    CursorResume {
        tenant: usize,
        query: usize,
        page_size: usize,
        cursor: String,
    },
    /// Inserts a fact, bumping the database revision and running the
    /// pool's maintenance sweep — under the default
    /// [`MaintenancePolicy::PatchForward`] every shelved session is
    /// advanced through the delta log rather than rebuilt.
    Write { relation: String, fact: Vec<Value> },
}

/// What a request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The distinct-completion count of a [`Request::Count`].
    Count(BigNat),
    /// One served page: the completion keys in canonical order, the
    /// encoded cursor to resume after them, and whether the enumeration
    /// is exhausted (a short page).
    Page {
        keys: Vec<CompletionKey>,
        cursor: String,
        exhausted: bool,
    },
    /// A write landed; `revision` is the database epoch after it.
    Wrote { revision: u64 },
    /// The request was malformed (unknown tenant/query index, undecodable
    /// cursor, arity mismatch, …). The batch keeps going.
    Error(String),
}

/// Per-request accounting, returned with every reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMetrics {
    /// Nanoseconds between enqueue and a worker picking the request up.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent walking (page fills, counting walks); zero for
    /// writes and errors.
    pub walk_ns: u64,
    /// Nanoseconds from a worker picking the request up to its reply being
    /// ready — checkout (including any session build), walk, check-in, and
    /// for writes the locked mutation. `queue_wait_ns + service_ns` is the
    /// request's end-to-end latency from batch submission.
    pub service_ns: u64,
    /// Nanoseconds the pool checkout took — the session acquisition cost.
    /// For a shelf hit this is a pop; for a patched checkout it is the
    /// delta patch; for a miss it is the full build. Comparing this figure
    /// across `session_built` / `session_patched` is the per-request
    /// patch-vs-build ledger. Zero for writes and errors.
    pub checkout_ns: u64,
    /// Whether serving this request built a session from scratch (`false`
    /// when the pool had one shelved, and for writes/errors).
    pub session_built: bool,
    /// Whether serving this request advanced a stale shelved session
    /// through the delta log instead of rebuilding it.
    pub session_patched: bool,
}

/// The reply to one [`Request`], tagged with its index in the submitted
/// batch (replies are returned sorted by it).
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index of the request in the batch passed to [`ServeNode::serve`].
    pub request: usize,
    /// What happened.
    pub outcome: Outcome,
    /// Where the time went.
    pub metrics: RequestMetrics,
}

/// A serving node: one database, a prepared-query catalog, a tenant
/// table, and the session pool that makes repeat traffic cheap. See the
/// [module docs](self).
pub struct ServeNode<'q, Q: BooleanQuery + Sync + ?Sized> {
    db: RwLock<IncompleteDatabase>,
    queries: Vec<&'q Q>,
    tenants: Vec<Tenant>,
    pool: SessionPool<'q, Q>,
}

impl<'q, Q: BooleanQuery + Sync + ?Sized> ServeNode<'q, Q> {
    /// A node serving `db` for the given prepared queries and tenants,
    /// with the default patch-forward session maintenance.
    pub fn new(db: IncompleteDatabase, queries: Vec<&'q Q>, tenants: Vec<Tenant>) -> Self {
        Self::with_maintenance(db, queries, tenants, MaintenancePolicy::default())
    }

    /// A node whose session pool maintains stale shelves under the given
    /// [`MaintenancePolicy`] — [`MaintenancePolicy::DropAndRebuild`] is
    /// the measurable rebuild baseline.
    pub fn with_maintenance(
        db: IncompleteDatabase,
        queries: Vec<&'q Q>,
        tenants: Vec<Tenant>,
        policy: MaintenancePolicy,
    ) -> Self {
        ServeNode {
            db: RwLock::new(db),
            queries,
            tenants,
            pool: SessionPool::with_policy(
                incdb_core::engine::BacktrackingEngine::sequential(),
                policy,
            ),
        }
    }

    /// The session pool (for stats and tests).
    pub fn pool(&self) -> &SessionPool<'q, Q> {
        &self.pool
    }

    /// The database's current mutation epoch.
    pub fn revision(&self) -> u64 {
        self.db.read().expect("db lock poisoned").revision()
    }

    /// A clone of the current database state (differential tests compare
    /// served answers against fresh computations over this).
    pub fn snapshot(&self) -> IncompleteDatabase {
        self.db.read().expect("db lock poisoned").clone()
    }

    /// Serves a batch on one worker per available core.
    pub fn serve(&self, requests: Vec<Request>) -> Vec<Reply> {
        let workers = thread::available_parallelism().map_or(4, |n| n.get());
        self.serve_with_workers(requests, workers)
    }

    /// Serves a batch of requests on `workers` threads pulling from a
    /// shared queue, returning one reply per request (sorted by request
    /// index). Requests run concurrently; each individual reply is
    /// computed against the database revision current when its worker
    /// picked it up.
    pub fn serve_with_workers(&self, requests: Vec<Request>, workers: usize) -> Vec<Reply> {
        let total = requests.len();
        let enqueued = Instant::now();
        let queue: Mutex<VecDeque<(usize, Request)>> =
            Mutex::new(requests.into_iter().enumerate().collect());
        let replies: Mutex<Vec<Reply>> = Mutex::new(Vec::with_capacity(total));
        thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| {
                    // One page heap per worker, reused across every request
                    // it serves — the same allocation-recycling discipline
                    // the stream's fill scratch uses.
                    let mut heap = PageHeap::new();
                    loop {
                        let job = queue.lock().expect("queue lock poisoned").pop_front();
                        let Some((idx, request)) = job else {
                            break;
                        };
                        let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
                        // A panicking request unwinds out of `handle`,
                        // dropping its lease unshelved; the batch goes on.
                        let reply = catch_unwind(AssertUnwindSafe(|| {
                            self.handle(idx, request, queue_wait_ns, &mut heap)
                        }))
                        .unwrap_or_else(|_| Reply {
                            request: idx,
                            outcome: Outcome::Error(format!("request {idx}: panicked")),
                            metrics: RequestMetrics {
                                queue_wait_ns,
                                ..RequestMetrics::default()
                            },
                        });
                        replies.lock().expect("reply lock poisoned").push(reply);
                    }
                });
            }
        });
        let mut out = replies.into_inner().expect("reply lock poisoned");
        out.sort_by_key(|reply| reply.request);
        out
    }

    /// Serves one request (see [`serve`](ServeNode::serve) for the
    /// concurrency contract).
    fn handle(
        &self,
        idx: usize,
        request: Request,
        queue_wait_ns: u64,
        heap: &mut PageHeap,
    ) -> Reply {
        let mut metrics = RequestMetrics {
            queue_wait_ns,
            ..RequestMetrics::default()
        };
        let picked_up = Instant::now();
        let outcome = match request {
            Request::Count { tenant, query } => {
                self.read_request(tenant, query, |t, lease, checkout_ns| {
                    metrics.checkout_ns = checkout_ns;
                    metrics.session_built = !lease.was_reused();
                    metrics.session_patched = lease.was_patched();
                    let budget = t.clamp_page(t.max_page_size);
                    let started = Instant::now();
                    let counted = count_session(&mut lease.session, Some(budget), 1);
                    metrics.walk_ns = started.elapsed().as_nanos() as u64;
                    Outcome::Count(counted.count)
                })
            }
            Request::Page {
                tenant,
                query,
                page_size,
            } => self.page_request(
                tenant,
                query,
                page_size,
                Cursor::start(),
                &mut metrics,
                heap,
            ),
            Request::CursorResume {
                tenant,
                query,
                page_size,
                cursor,
            } => match Cursor::decode(&cursor) {
                Ok(cursor) => {
                    self.page_request(tenant, query, page_size, cursor, &mut metrics, heap)
                }
                Err(err) => Outcome::Error(format!("request {idx}: bad cursor: {err}")),
            },
            Request::Write { relation, fact } => {
                let revision = {
                    let mut db = self.db.write().expect("db lock poisoned");
                    if let Err(err) = db.add_fact(&relation, fact) {
                        drop(db);
                        metrics.service_ns = picked_up.elapsed().as_nanos() as u64;
                        return Reply {
                            request: idx,
                            outcome: Outcome::Error(format!("request {idx}: write failed: {err}")),
                            metrics,
                        };
                    }
                    db.revision()
                };
                // Eager maintenance, before the next read lands: under
                // patch-forward every shelved session is advanced through
                // the delta log; under drop-and-rebuild stale shelves free
                // their memory now, not at their next unlucky checkout.
                {
                    let db = self.db.read().expect("db lock poisoned");
                    self.pool.maintain(&db);
                }
                Outcome::Wrote { revision }
            }
        };
        metrics.service_ns = picked_up.elapsed().as_nanos() as u64;
        Reply {
            request: idx,
            outcome,
            metrics,
        }
    }

    /// One served page beyond `cursor`.
    fn page_request(
        &self,
        tenant: usize,
        query: usize,
        page_size: usize,
        cursor: Cursor,
        metrics: &mut RequestMetrics,
        heap: &mut PageHeap,
    ) -> Outcome {
        self.read_request(tenant, query, |t, lease, checkout_ns| {
            metrics.checkout_ns = checkout_ns;
            metrics.session_built = !lease.was_reused();
            metrics.session_patched = lease.was_patched();
            let page = t.clamp_page(page_size);
            let started = Instant::now();
            let next = page_from_session(&mut lease.session, &cursor, page, heap);
            metrics.walk_ns = started.elapsed().as_nanos() as u64;
            Outcome::Page {
                keys: heap.iter().cloned().collect(),
                cursor: next.encode(),
                exhausted: heap.len() < page,
            }
        })
    }

    /// The shared read-path skeleton: validate indices, check a session
    /// out under the read lock (timing the checkout — pop, patch, or full
    /// build), release the lock, run `body`, check the session back in.
    fn read_request(
        &self,
        tenant: usize,
        query: usize,
        body: impl FnOnce(&Tenant, &mut crate::pool::Lease<'q, Q>, u64) -> Outcome,
    ) -> Outcome {
        let Some(tenant) = self.tenants.get(tenant) else {
            return Outcome::Error(format!("unknown tenant index {tenant}"));
        };
        let Some(&query) = self.queries.get(query) else {
            return Outcome::Error(format!(
                "unknown query index {query} (tenant {})",
                tenant.name
            ));
        };
        let checkout = Instant::now();
        let lease = {
            let db = self.db.read().expect("db lock poisoned");
            self.pool.check_out(&db, query)
        };
        let checkout_ns = checkout.elapsed().as_nanos() as u64;
        let mut lease = match lease {
            Ok(lease) => lease,
            Err(err) => {
                return Outcome::Error(format!(
                    "session build failed for tenant {}: {err}",
                    tenant.name
                ))
            }
        };
        let outcome = body(tenant, &mut lease, checkout_ns);
        self.pool.check_in(lease);
        outcome
    }
}
