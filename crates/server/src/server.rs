//! The serving loop: readiness-driven sessions, bounded admission,
//! executors, shutdown.
//!
//! Thread anatomy (all `std::thread`, no async runtime):
//!
//! * one **listener** accepts connections, flips them nonblocking, and
//!   hands each to an I/O thread round-robin;
//! * a fixed pool of **I/O threads** (`cfg.io_threads`, independent of
//!   the connection count) each run a level-triggered readiness loop
//!   ([`crate::reactor`], `poll(2)` under the hood). Every session is a
//!   small state machine — reading the length prefix, reading the body,
//!   awaiting its executor result, or flushing a response — so one
//!   thread holds thousands of idle connections at the cost of one
//!   `pollfd` each. Cheap control ops (stats/ping/shutdown) are answered
//!   in place; real work — queries, batches, ingests — goes into the
//!   **bounded admission queue** (`mpsc::sync_channel(queue_depth)`). A
//!   full queue answers [`Response::Busy`] immediately: the server never
//!   buffers more than `queue_depth` requests, which is the whole
//!   backpressure story. Session buffers come from a shared size-classed
//!   [`BufferPool`], so steady-state serving allocates nothing per frame
//!   (and, warm, nothing per session);
//! * a fixed pool of **executors** drains the queue and runs jobs against
//!   the shared [`ShardedEngine`] — queries under one read lock (each
//!   expression is planned, then `ShardedEngine::execute` fans the plans
//!   out over `dds_pool` and reports exactly which shards this request
//!   scattered to), ingests under a write lock through the non-panicking
//!   `try_*` paths. Results travel back to the owning I/O thread through
//!   its completion queue plus a waker.
//!
//! Optionally each session carries a token-bucket **rate limit**
//! ([`ServerConfig::rate_limit`]): work ops beyond the budget are
//! answered with a typed `throttled` error without ever touching the
//! admission queue, so one hot client cannot starve the executor pool.
//!
//! Graceful shutdown (remote [`Request::Shutdown`] or local
//! [`DdsServer::shutdown`]) flips the admission gate — late requests get a
//! typed `Unavailable` error — then **drains**: executors exit only once
//! the gate is up *and* the queue reads empty, so everything admitted is
//! executed and answered first (a request racing the gate edge is
//! answered with a typed `Unavailable` when the queue drops — answered,
//! never hung). Only after the executors are gone do the I/O threads get
//! the reap signal: they flush every pending response, close every
//! session, and exit.

use crate::buffer::BufferPool;
use crate::client::EngineResult;
use crate::protocol::{
    MetricsReport, Request, Response, ServerError, ServerErrorKind, ServerStats, MAX_SLEEP_MS,
    PANIC_DRILL_MS,
};
use crate::reactor::{Interest, Reactor, Ready, Waker};
use crate::wire::{
    encode_frame_into, WireError, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use dds_core::framework::{LogicalExpr, Repository};
use dds_core::pool::BuildOptions;
use dds_core::shard::{QueryPlan, QueryReport, ShardedEngine};
use dds_core::telemetry::{QueryTrace, SlowQueryLog, StageTimings};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A per-session token-bucket rate limit (see
/// [`ServerConfig::rate_limit`]).
///
/// Each session starts with `burst` tokens; a work op costs one, and
/// tokens flow back at `per_sec` per second up to the `burst` cap. A
/// session out of tokens gets a typed
/// [`throttled`](ServerErrorKind::Throttled) error — transient by
/// contract, like `Busy`: back off and retry. Control ops (stats, ping,
/// shutdown) are never throttled. `per_sec: 0` means the burst is all a
/// session ever gets — useful for deterministic drills.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Bucket capacity: the largest back-to-back run of work ops.
    pub burst: u32,
    /// Sustained work ops per second flowing back into the bucket.
    pub per_sec: u32,
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Admission-queue depth: at most this many requests wait for an
    /// executor; the next one is answered [`Response::Busy`].
    pub queue_depth: usize,
    /// Executor threads draining the queue.
    pub executors: usize,
    /// Session I/O threads. Each runs a readiness loop over its share of
    /// the connections, so this bounds I/O parallelism, **not** the
    /// connection count — two threads serve thousands of idle sessions.
    pub io_threads: usize,
    /// Worker threads each executed query fans out over
    /// (`ShardedEngine::execute`) and each ingest or lifecycle build runs
    /// on. [`DdsServer::serve`] applies it once to the engine's worker
    /// pool (`ShardedEngine::with_build_options`); `None` keeps the
    /// engine's pool (by default `DDS_THREADS` / all cores).
    pub query_threads: Option<usize>,
    /// Upper bound on a frame body, both directions.
    pub max_frame_len: u32,
    /// Whether [`Request::Sleep`] is honoured. Off by default: it exists
    /// for backpressure drills in tests, and a production server must not
    /// hand unauthenticated clients a free executor-occupancy primitive.
    pub allow_sleep: bool,
    /// Per-session work-op budget; `None` (the default) serves
    /// unthrottled.
    pub rate_limit: Option<RateLimit>,
    /// How long a session may sit **mid-I/O** without moving a byte
    /// before it is reaped: stuck inside a frame (a partial prefix or
    /// body that never completes — a torn client write looks exactly
    /// like this from the server) or stuck flushing a response to a
    /// peer that stopped reading. Fully idle sessions (between frames)
    /// and sessions awaiting an executor are exempt — idle connections
    /// stay cheap and long-running jobs don't kill their session. Reaped
    /// sessions increment the `sessions_reaped` counter.
    pub stall_timeout: Duration,
    /// A request whose end-to-end time (decode + queue wait + execute +
    /// response write) meets this threshold leaves a structured
    /// [`QueryTrace`] in the slow-query log (served by
    /// [`Request::Metrics`]). `Duration::ZERO` traces every request —
    /// useful for tests and latency harnesses.
    pub slow_query_threshold: Duration,
    /// Most slow-query traces retained (a bounded ring; oldest fall out).
    /// `0` disables tracing entirely. The ring is preallocated, so
    /// tracing never allocates at steady state.
    pub slow_log_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            executors: 2,
            io_threads: 2,
            query_threads: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            allow_sleep: false,
            rate_limit: None,
            stall_timeout: Duration::from_secs(30),
            slow_query_threshold: Duration::from_millis(100),
            slow_log_capacity: 64,
        }
    }
}

/// Internal counter block (the mutable half of [`ServerStats`]).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    queries: AtomicU64,
    batch_queries: AtomicU64,
    batch_exprs: AtomicU64,
    admin_ops: AtomicU64,
    busy_rejections: AtomicU64,
    unavailable_rejections: AtomicU64,
    wire_errors: AtomicU64,
    jobs_admitted: AtomicU64,
    jobs_dequeued: AtomicU64,
    jobs_completed: AtomicU64,
    executor_panics: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_active: AtomicU64,
    sessions_throttled: AtomicU64,
    sessions_reaped: AtomicU64,
    retries_attempted: AtomicU64,
    requests_deduped: AtomicU64,
}

/// Most request ids the dedup window remembers; beyond this the oldest
/// entries age out (a retransmission older than a thousand ingests is a
/// bug in the client, not a duplicate the server still owes an answer).
const DEDUP_WINDOW_CAP: usize = 1024;

/// One remembered retry token.
enum DedupEntry {
    /// The original is still executing; a duplicate arriving now is
    /// answered with a transient `unavailable` ("still in flight") so
    /// the client backs off and re-asks — replaying would require
    /// blocking an executor on another executor's job.
    InFlight,
    /// The original finished; duplicates replay this recorded answer
    /// (boxed: answers dwarf the zero-sized `InFlight` marker).
    Done(Box<Response>),
}

/// The server-global ingest dedup window: `request_id` → fate.
///
/// Server-global, not per-session, on purpose: a retry that follows a
/// torn write arrives on a **fresh connection** (the old one is dead —
/// that is why the client is retrying), so a per-session window could
/// never catch the duplicate. Bounded FIFO: insertion order is tracked
/// and the oldest **finished** entries fall out past
/// [`DEDUP_WINDOW_CAP`]. `InFlight` entries are never evicted — aging
/// one out while its ingest still executes would let a duplicate
/// re-execute concurrently, the exact double-ingest the window exists to
/// prevent; their count is bounded by the executor pool, far below the
/// cap, so exempting them cannot grow the window unboundedly.
#[derive(Default)]
struct DedupWindow {
    map: std::collections::HashMap<u64, DedupEntry>,
    order: std::collections::VecDeque<u64>,
}

impl DedupWindow {
    fn insert(&mut self, id: u64, entry: DedupEntry) {
        if self.map.insert(id, entry).is_none() {
            self.order.push_back(id);
        }
        // Evict the oldest Done entries past the cap; InFlight entries
        // rotate to the back instead (re-examined once they finish). The
        // rotation budget bounds the scan so a window somehow full of
        // InFlight ids degrades to exceeding the cap, never to spinning.
        let mut rotations = self.order.len();
        while self.map.len() > DEDUP_WINDOW_CAP && rotations > 0 {
            rotations -= 1;
            match self.order.pop_front() {
                Some(old) => match self.map.get(&old) {
                    Some(DedupEntry::InFlight) => self.order.push_back(old),
                    _ => {
                        self.map.remove(&old);
                    }
                },
                None => break,
            }
        }
    }

    /// Drops an `InFlight` entry whose execution panicked: ingest is
    /// validate→build→commit, so a panicking ingest committed nothing
    /// and the retry must be allowed to execute for real.
    fn forget(&mut self, id: u64) {
        self.map.remove(&id);
    }
}

/// The executor side of one session's pending request: delivers the
/// response to the owning I/O thread's completion queue. Dropping an
/// unsent reply (executor pool died, job dropped with the queue at the
/// drain edge) delivers a typed `Unavailable` instead — a session that
/// got its job admitted is *answered*, never hung.
struct JobReply {
    io: Arc<IoShared>,
    session: u64,
    done: bool,
}

/// Executor-side timing of one job, delivered alongside its response so
/// the owning I/O thread can finish the request's [`QueryTrace`]. The
/// shard counts are this job's own [`QueryReport`] — exact however many
/// executors run concurrently (zero for jobs that scatter nothing).
#[derive(Clone, Copy, Debug, Default)]
struct JobTiming {
    queue_ns: u64,
    execute_ns: u64,
    shards: QueryReport,
}

impl JobReply {
    fn deliver(&self, resp: Response, timing: JobTiming) {
        self.io
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((self.session, resp, timing));
        self.io.waker.wake();
    }

    fn send(mut self, resp: Response, timing: JobTiming) {
        self.done = true;
        self.deliver(resp, timing);
    }

    /// Disarms the drop-side `Unavailable` for a job that was *not*
    /// admitted (the session answers Busy/Unavailable itself).
    fn defuse(mut self) {
        self.done = true;
    }
}

impl Drop for JobReply {
    fn drop(&mut self) {
        if !self.done {
            self.deliver(unavailable(), JobTiming::default());
        }
    }
}

/// One admitted unit of work: the decoded request plus the reply handle
/// of the session waiting on it.
struct Job {
    req: Request,
    reply: JobReply,
    /// When the job entered the admission queue; the executor's dequeue
    /// minus this is the queue-wait stage.
    admitted_at: Instant,
}

/// One I/O thread's mailboxes, shared with the listener (fresh
/// connections) and the executors (finished jobs). The waker interrupts
/// the thread's `poll` whenever either queue gains an entry.
struct IoShared {
    intake: Mutex<Vec<(u64, TcpStream)>>,
    completions: Mutex<Vec<(u64, Response, JobTiming)>>,
    waker: Waker,
}

/// State shared by every server thread.
struct Shared {
    engine: RwLock<ShardedEngine>,
    counters: Counters,
    cfg: ServerConfig,
    /// The bound listener address (signal_shutdown pokes it to unblock
    /// accept).
    local_addr: std::net::SocketAddr,
    /// Once set, sessions stop admitting work (typed `Unavailable`).
    shutting_down: AtomicBool,
    /// Set after the executors drained: I/O threads flush, close
    /// everything, and exit.
    reap: AtomicBool,
    /// Wakes [`DdsServer::wait_shutdown`] when a remote shutdown arrives.
    shutdown_cv: (Mutex<bool>, Condvar),
    /// Admission queue sender.
    queue: SyncSender<Job>,
    /// One mailbox per I/O thread; the listener deals connections across
    /// them round-robin.
    ios: Vec<Arc<IoShared>>,
    /// Session read/write buffers, recycled across sessions.
    buffer_pool: BufferPool,
    /// Ingest retry tokens → fate (see [`DedupWindow`]).
    dedup: Mutex<DedupWindow>,
    /// Request-lifecycle stage histograms (lock-free atomics; recording
    /// on the hot path is an `Instant::now` pair and one relaxed add).
    stages: StageTimings,
    /// Bounded ring of slow-request traces (see
    /// [`ServerConfig::slow_query_threshold`]). Only touched *after* a
    /// response has fully left the socket — never on the answer path.
    slow_log: SlowQueryLog,
}

impl Shared {
    /// Recover from a poisoned engine lock: ingest is validate→build→
    /// commit, so state is consistent even if a build panicked mid-way.
    fn engine_read(&self) -> std::sync::RwLockReadGuard<'_, ShardedEngine> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn engine_write(&self) -> std::sync::RwLockWriteGuard<'_, ShardedEngine> {
        self.engine.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn signal_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            // Unblock the listener's accept with a throwaway connection.
            // An unspecified bind address (0.0.0.0 / [::]) is not
            // self-connectable on every platform — poke via loopback.
            let mut poke = self.local_addr;
            if poke.ip().is_unspecified() {
                poke.set_ip(match poke.ip() {
                    std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(poke);
            let (lock, cv) = &self.shutdown_cv;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cv.notify_all();
        }
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        let engine = self.engine_read().stats_snapshot();
        ServerStats {
            requests: c.requests.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            batch_queries: c.batch_queries.load(Ordering::Relaxed),
            batch_exprs: c.batch_exprs.load(Ordering::Relaxed),
            admin_ops: c.admin_ops.load(Ordering::Relaxed),
            busy_rejections: c.busy_rejections.load(Ordering::Relaxed),
            unavailable_rejections: c.unavailable_rejections.load(Ordering::Relaxed),
            wire_errors: c.wire_errors.load(Ordering::Relaxed),
            jobs_admitted: c.jobs_admitted.load(Ordering::Relaxed),
            jobs_dequeued: c.jobs_dequeued.load(Ordering::Relaxed),
            jobs_completed: c.jobs_completed.load(Ordering::Relaxed),
            executor_panics: c.executor_panics.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_active: c.sessions_active.load(Ordering::Relaxed),
            sessions_throttled: c.sessions_throttled.load(Ordering::Relaxed),
            sessions_reaped: c.sessions_reaped.load(Ordering::Relaxed),
            retries_attempted: c.retries_attempted.load(Ordering::Relaxed),
            requests_deduped: c.requests_deduped.load(Ordering::Relaxed),
            buffers_reused: self.buffer_pool.reused(),
            cache_hits: engine.cache_hits,
            cache_misses: engine.cache_misses,
            index_queries: engine.index_queries,
            shards_routed_past: engine.shards_routed_past,
            shards_routed_by_synopsis: engine.shards_routed_by_synopsis,
            n_shards: engine.n_shards,
            n_datasets: engine.n_datasets,
            shard_splits: engine.splits,
            shard_merges: engine.merges,
        }
    }

    /// Assembles the [`Request::Metrics`] answer: snapshots of the
    /// server-side stage histograms, the engine's scatter-path
    /// histograms, and the retained slow-query traces.
    fn metrics_report(&self) -> MetricsReport {
        let engine = self.engine_read();
        let engine_t = engine.telemetry();
        MetricsReport {
            decode: self.stages.decode.snapshot(),
            queue: self.stages.queue.snapshot(),
            execute: self.stages.execute.snapshot(),
            write: self.stages.write.snapshot(),
            routing: engine_t.routing.snapshot(),
            scatter: engine_t.scatter.snapshot(),
            slow_queries: self.slow_log.recent(),
        }
    }
}

/// A running server: a [`ShardedEngine`] behind a TCP boundary.
///
/// Dropping the handle does **not** stop the server; call
/// [`shutdown`](Self::shutdown) (or send [`Request::Shutdown`] from a
/// client and then [`shutdown`](Self::shutdown) to reap the threads).
pub struct DdsServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    listener_thread: Option<JoinHandle<()>>,
    executor_threads: Vec<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
}

impl DdsServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// serving `engine`, on the worker pool
    /// [`ServerConfig::query_threads`] names.
    pub fn serve(
        mut engine: ShardedEngine,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<DdsServer> {
        assert!(cfg.queue_depth >= 1, "admission queue needs depth >= 1");
        assert!(cfg.executors >= 1, "need at least one executor");
        assert!(cfg.io_threads >= 1, "need at least one I/O thread");
        if let Some(t) = cfg.query_threads {
            engine = engine.with_build_options(BuildOptions::with_threads(t));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut reactors = Vec::with_capacity(cfg.io_threads);
        let mut ios = Vec::with_capacity(cfg.io_threads);
        for _ in 0..cfg.io_threads {
            let (reactor, waker) = Reactor::new()?;
            reactors.push(reactor);
            ios.push(Arc::new(IoShared {
                intake: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                waker,
            }));
        }
        let (queue_tx, queue_rx) = mpsc::sync_channel::<Job>(cfg.queue_depth);
        let slow_log = SlowQueryLog::new(
            u64::try_from(cfg.slow_query_threshold.as_nanos()).unwrap_or(u64::MAX),
            cfg.slow_log_capacity,
        );
        let shared = Arc::new(Shared {
            engine: RwLock::new(engine),
            counters: Counters::default(),
            cfg,
            local_addr,
            shutting_down: AtomicBool::new(false),
            reap: AtomicBool::new(false),
            shutdown_cv: (Mutex::new(false), Condvar::new()),
            queue: queue_tx,
            ios,
            buffer_pool: BufferPool::new(),
            dedup: Mutex::new(DedupWindow::default()),
            stages: StageTimings::new(),
            slow_log,
        });
        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let executor_threads = (0..shared.cfg.executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&queue_rx);
                std::thread::Builder::new()
                    .name(format!("dds-exec-{i}"))
                    .spawn(move || executor_loop(&shared, &rx))
                    .expect("spawn executor")
            })
            .collect();
        let io_threads = reactors
            .into_iter()
            .enumerate()
            .map(|(i, reactor)| {
                let shared = Arc::clone(&shared);
                let io = Arc::clone(&shared.ios[i]);
                std::thread::Builder::new()
                    .name(format!("dds-io-{i}"))
                    .spawn(move || io_loop(&shared, &io, reactor))
                    .expect("spawn io thread")
            })
            .collect();
        let listener_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dds-listener".into())
                .spawn(move || listener_loop(&shared, &listener))
                .expect("spawn listener")
        };
        Ok(DdsServer {
            shared,
            local_addr,
            listener_thread: Some(listener_thread),
            executor_threads,
            io_threads,
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// A stats snapshot, identical to what a client's stats call returns.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// A telemetry snapshot, identical to what a client's
    /// [`metrics`](crate::DdsClient::metrics) call returns.
    pub fn metrics(&self) -> MetricsReport {
        self.shared.metrics_report()
    }

    /// Blocks until a shutdown has been signalled (remotely via
    /// [`Request::Shutdown`] or locally via [`shutdown`](Self::shutdown)
    /// from another thread).
    pub fn wait_shutdown(&self) {
        let (lock, cv) = &self.shared.shutdown_cv;
        let mut flagged = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !*flagged {
            flagged = cv.wait(flagged).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Graceful shutdown: gate admissions, drain the queue (executors
    /// finish and answer everything still queued before exiting; a
    /// request racing the gate edge gets a typed `Unavailable`, never
    /// silence), flush and close every session, reap every thread, and
    /// return the final stats. Idempotent with a remote shutdown —
    /// calling this after a client-initiated shutdown just performs the
    /// reaping half.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.signal_shutdown();
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        // Drain: executors poll the gate between jobs and exit only once
        // it is up AND the queue reads empty, so everything admitted
        // before (or racing into) the drain window is executed first.
        for t in self.executor_threads.drain(..) {
            let _ = t.join();
        }
        // Every response is in some completion queue by now (the last
        // executor's exit dropped the channel, which answered any job
        // racing the drain edge via JobReply::drop). Tell the I/O threads
        // to deliver what is pending, flush, and close up shop.
        self.shared.reap.store(true, Ordering::Release);
        for io in &self.shared.ios {
            io.waker.wake();
        }
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

/// Whether an `accept` error signals exhausted process/system resources
/// (worth a backoff) rather than a single failed connection (not worth
/// one). `EMFILE` (24), `ENFILE` (23) and `ENOBUFS` have no stable
/// [`io::ErrorKind`] mapping, so they are matched by number — the first
/// two are identical across Linux and the BSDs, `ENOBUFS` is not.
fn accept_error_is_resource_exhaustion(e: &io::Error) -> bool {
    const ENOBUFS: i32 = if cfg!(target_os = "linux") {
        105
    } else {
        55 // the BSDs / macOS
    };
    e.kind() == io::ErrorKind::OutOfMemory
        || matches!(e.raw_os_error(), Some(n) if n == 23 || n == 24 || n == ENOBUFS)
}

fn listener_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut next_id = 0u64;
    for conn in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                // Resource exhaustion (EMFILE/ENFILE or out-of-memory) is
                // persistent: without a pause the listener would spin at
                // 100% CPU until an fd frees up. Per-connection failures
                // (e.g. ECONNABORTED, a peer resetting mid-handshake)
                // must NOT pay that pause, or cheap aborted connects
                // would throttle accepts for legitimate clients. The
                // shutdown gate is re-checked on the next iteration, so
                // the pause never delays shutdown by more than one tick.
                if accept_error_is_resource_exhaustion(&e) {
                    std::thread::sleep(Duration::from_millis(25));
                }
                continue;
            }
        };
        // The whole session layer is readiness-driven; a socket that
        // cannot go nonblocking cannot be served.
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = next_id;
        next_id += 1;
        shared
            .counters
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .sessions_active
            .fetch_add(1, Ordering::Relaxed);
        let io = &shared.ios[(id % shared.ios.len() as u64) as usize];
        io.intake
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((id, stream));
        io.waker.wake();
    }
}

/// A per-session token bucket ([`RateLimit`] instantiated). Refill
/// happens lazily on take, capped at the burst; fractional tokens
/// accumulate so low rates still make steady progress.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
    burst: f64,
    per_sec: f64,
}

impl TokenBucket {
    fn new(rl: &RateLimit) -> TokenBucket {
        TokenBucket {
            tokens: rl.burst as f64,
            last: Instant::now(),
            burst: rl.burst as f64,
            per_sec: rl.per_sec as f64,
        }
    }

    fn try_take(&mut self) -> bool {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Where a session currently is in its request/response cycle. `Copy` on
/// purpose: the fields are a couple of words, and the drive loop reads
/// the state by value before mutating the session.
#[derive(Clone, Copy, Debug)]
enum SessionState {
    /// Accumulating the 4-byte length prefix.
    ReadPrefix { filled: usize },
    /// Accumulating the frame body (`read_buf`, already sized).
    ReadBody { filled: usize },
    /// A job is with the executors; the session is not polled at all
    /// until its completion arrives (one request in flight per session).
    Awaiting,
    /// Flushing `write_buf`; back to `ReadPrefix` when done, unless the
    /// response closes the session (shutdown ack, header-level protocol
    /// violations).
    Write { written: usize, close_after: bool },
}

/// Stage timings of the request currently in flight on a session,
/// accumulated as the request moves through the state machine and
/// finished into a [`QueryTrace`] once its response fully leaves the
/// socket. All-scalar and `Copy`: carrying it costs nothing on the
/// zero-alloc hot path.
#[derive(Clone, Copy, Debug, Default)]
struct PendingTrace {
    opcode: u8,
    bytes_in: u64,
    decode_ns: u64,
    timing: JobTiming,
}

/// One client connection owned by an I/O thread.
struct Session {
    id: u64,
    stream: TcpStream,
    state: SessionState,
    prefix: [u8; 4],
    /// Frame body: version at `[0]`, opcode at `[1]`, payload after.
    read_buf: Vec<u8>,
    /// The encoded response frame being flushed.
    write_buf: Vec<u8>,
    bucket: Option<TokenBucket>,
    /// Last instant this session moved a byte (or changed state). The
    /// stall sweep reaps sessions stuck mid-frame or mid-flush past
    /// `ServerConfig::stall_timeout`; idle-between-frames and
    /// awaiting-an-executor don't count as stalled.
    last_progress: Instant,
    /// Telemetry of the request currently being served (one in flight
    /// per session, so one slot suffices).
    pending: PendingTrace,
    /// When the current response's encode+write stage began
    /// (`respond_enqueue` stamps it).
    write_started: Instant,
}

/// What [`drive_session`] decided about the session's future.
enum Drive {
    Keep,
    Close,
}

fn io_loop(shared: &Arc<Shared>, io: &Arc<IoShared>, mut reactor: Reactor) {
    let mut sessions: Vec<Session> = Vec::new();
    // Scratch, all reused across iterations (the steady-state loop
    // allocates nothing).
    let mut intake: Vec<(u64, TcpStream)> = Vec::new();
    let mut completions: Vec<(u64, Response, JobTiming)> = Vec::new();
    let mut sources: Vec<(RawFd, Interest)> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    let mut ready: Vec<Ready> = Vec::new();
    let mut closed: Vec<usize> = Vec::new();
    loop {
        // Adopt fresh connections from the listener.
        {
            let mut q = io.intake.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *q, &mut intake);
        }
        for (id, stream) in intake.drain(..) {
            sessions.push(Session {
                id,
                stream,
                state: SessionState::ReadPrefix { filled: 0 },
                prefix: [0; 4],
                read_buf: shared.buffer_pool.acquire(1),
                write_buf: shared.buffer_pool.acquire(1),
                bucket: shared.cfg.rate_limit.as_ref().map(TokenBucket::new),
                last_progress: Instant::now(),
                pending: PendingTrace::default(),
                write_started: Instant::now(),
            });
        }
        // Deliver executor completions: encode into the session's write
        // buffer; the flush happens when poll reports the socket
        // writable (usually the very next iteration, without waiting).
        {
            let mut q = io
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *q, &mut completions);
        }
        for (sid, resp, timing) in completions.drain(..) {
            // A session that died while awaiting is simply gone; its
            // response has nowhere to go, which is the correct outcome.
            if let Some(s) = sessions.iter_mut().find(|s| s.id == sid) {
                s.pending.timing = timing;
                respond_enqueue(shared, s, &resp, false);
            }
        }
        // Reap (set only after the executors drained and exited, so the
        // completion sweep above was the final one): flush what is
        // pending and close every session.
        if shared.reap.load(Ordering::Acquire) {
            for mut s in sessions.drain(..) {
                flush_blocking(shared, &mut s);
                release_session(shared, s);
            }
            return;
        }
        // Poll whoever has I/O to make progress on. Awaiting sessions
        // are not submitted: nothing they could do, and a client
        // pipelining its next request must not burn a wakeup per tick.
        sources.clear();
        owners.clear();
        for (i, s) in sessions.iter().enumerate() {
            let interest = match s.state {
                SessionState::ReadPrefix { .. } | SessionState::ReadBody { .. } => Interest::Read,
                SessionState::Write { .. } => Interest::Write,
                SessionState::Awaiting => continue,
            };
            sources.push((s.stream.as_raw_fd(), interest));
            owners.push(i);
        }
        if reactor.poll(&sources, 250, &mut ready).is_err() {
            // Transient poll failures (low memory) should not kill the
            // thread and its sessions; back off a beat and retry.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        closed.clear();
        for r in &ready {
            let i = owners[r.token];
            if let Drive::Close = drive_session(shared, io, &mut sessions[i]) {
                closed.push(i);
            }
        }
        // Stall sweep: a peer stuck **mid-I/O** — inside a frame it never
        // finishes sending (a torn client write looks exactly like this),
        // or refusing to drain its response — is reaped past the
        // deadline, so a half-dead connection can't pin a session slot
        // (or wedge a flush) forever. The poll timeout above bounds how
        // late the sweep can run. Sessions idle *between* frames or
        // awaiting an executor are never stall-reaped: idle connections
        // stay cheap, and a long job is the executor's business.
        let now = Instant::now();
        for (i, s) in sessions.iter().enumerate() {
            let mid_io = match s.state {
                SessionState::ReadPrefix { filled } => filled > 0,
                SessionState::ReadBody { .. } | SessionState::Write { .. } => true,
                SessionState::Awaiting => false,
            };
            if mid_io
                && now.duration_since(s.last_progress) >= shared.cfg.stall_timeout
                && !closed.contains(&i)
            {
                shared
                    .counters
                    .sessions_reaped
                    .fetch_add(1, Ordering::Relaxed);
                closed.push(i);
            }
        }
        // Largest index first: swap_remove must not disturb the smaller
        // indexes still queued for removal.
        closed.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &closed {
            release_session(shared, sessions.swap_remove(i));
        }
    }
}

/// Runs a ready session's state machine until it blocks, parks on the
/// executor pool, or ends. Level-triggered polling means a partial step
/// is always resumed on a later tick, but the loop still drains
/// greedily: a pipelined burst is served in one wakeup.
fn drive_session(shared: &Arc<Shared>, io: &Arc<IoShared>, s: &mut Session) -> Drive {
    loop {
        match s.state {
            SessionState::ReadPrefix { filled } => {
                match s.stream.read(&mut s.prefix[filled..]) {
                    // EOF here is a clean close between frames (or a
                    // disconnect inside the prefix — either way there is
                    // nothing to answer and nothing to count: only
                    // header- and payload-level violations are wire
                    // errors).
                    Ok(0) => return Drive::Close,
                    Ok(n) => {
                        s.last_progress = Instant::now();
                        let filled = filled + n;
                        if filled < s.prefix.len() {
                            s.state = SessionState::ReadPrefix { filled };
                            continue;
                        }
                        let len = u32::from_le_bytes(s.prefix);
                        if len < FRAME_HEADER_LEN {
                            // Header-level violation: the stream position
                            // cannot be trusted any more. Answer the
                            // typed error, then close.
                            shared.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
                            let e = WireError::FrameTooShort { len };
                            respond_enqueue(shared, s, &protocol_error(&e), true);
                        } else if len > shared.cfg.max_frame_len {
                            shared.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
                            let e = WireError::FrameTooLarge {
                                len,
                                max: shared.cfg.max_frame_len,
                            };
                            respond_enqueue(shared, s, &protocol_error(&e), true);
                        } else {
                            s.read_buf.clear();
                            s.read_buf.resize(len as usize, 0);
                            s.state = SessionState::ReadBody { filled: 0 };
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drive::Keep,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return Drive::Close,
                }
            }
            SessionState::ReadBody { filled } => {
                match s.stream.read(&mut s.read_buf[filled..]) {
                    // A disconnect inside a frame: the session just ends —
                    // nothing to answer, nothing leaks.
                    Ok(0) => return Drive::Close,
                    Ok(n) => {
                        s.last_progress = Instant::now();
                        let filled = filled + n;
                        if filled < s.read_buf.len() {
                            s.state = SessionState::ReadBody { filled };
                        } else {
                            process_frame(shared, io, s);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drive::Keep,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return Drive::Close,
                }
            }
            // Not submitted to poll while awaiting; nothing to drive.
            SessionState::Awaiting => return Drive::Keep,
            SessionState::Write {
                written,
                close_after,
            } => match s.stream.write(&s.write_buf[written..]) {
                Ok(0) => return Drive::Close,
                Ok(n) => {
                    s.last_progress = Instant::now();
                    let written = written + n;
                    if written < s.write_buf.len() {
                        s.state = SessionState::Write {
                            written,
                            close_after,
                        };
                    } else {
                        shared
                            .counters
                            .bytes_out
                            .fetch_add(s.write_buf.len() as u64, Ordering::Relaxed);
                        finish_response(shared, s);
                        if close_after {
                            return Drive::Close;
                        }
                        s.state = SessionState::ReadPrefix { filled: 0 };
                    }
                }
                // Would-block is the only "try again later" signal: the
                // flush resumes on the next writable tick.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drive::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A dead reader (reset, broken pipe) cannot wedge a
                // flush: the session is dropped the moment the fault
                // surfaces rather than spinning on a doomed socket.
                Err(e) if crate::wire::is_disconnect_kind(e.kind()) => return Drive::Close,
                Err(_) => return Drive::Close,
            },
        }
    }
}

/// Handles one complete frame sitting in `s.read_buf` (version at `[0]`,
/// opcode at `[1]`): answers control ops in place, admits work, and sets
/// the session's next state.
fn process_frame(shared: &Arc<Shared>, io: &Arc<IoShared>, s: &mut Session) {
    shared
        .counters
        .bytes_in
        .fetch_add(4 + s.read_buf.len() as u64, Ordering::Relaxed);
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    // Telemetry slot for this request (one in flight per session): the
    // stage nanos accumulate here until the response fully leaves the
    // socket, where `finish_response` turns them into a trace.
    s.pending = PendingTrace {
        opcode: s.read_buf[1],
        bytes_in: 4 + s.read_buf.len() as u64,
        ..PendingTrace::default()
    };
    let version = s.read_buf[0];
    if version != PROTOCOL_VERSION {
        shared.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
        let e = WireError::UnsupportedVersion { got: version };
        respond_enqueue(shared, s, &protocol_error(&e), true);
        return;
    }
    let decode_started = Instant::now();
    let decoded = Request::decode(s.read_buf[1], &s.read_buf[2..]);
    s.pending.decode_ns = elapsed_ns(decode_started);
    shared.stages.decode.record(s.pending.decode_ns);
    let req = match decoded {
        Ok(r) => r,
        // Payload-level violation: the frame boundary was intact, so the
        // session can keep serving after the typed error.
        Err(e) => {
            shared.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
            respond_enqueue(shared, s, &protocol_error(&e), false);
            return;
        }
    };
    match req {
        // Control ops are answered in place: they are cheap reads and
        // must work even while the queue is saturated or the session is
        // throttled.
        Request::Stats => respond_enqueue(shared, s, &Response::Stats(shared.stats()), false),
        Request::Metrics => respond_enqueue(
            shared,
            s,
            &Response::Metrics(shared.metrics_report()),
            false,
        ),
        Request::Ping { token } => respond_enqueue(shared, s, &Response::Pong { token }, false),
        Request::Shutdown => {
            respond_enqueue(shared, s, &Response::Done, true);
            shared.signal_shutdown();
        }
        work => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                shared
                    .counters
                    .unavailable_rejections
                    .fetch_add(1, Ordering::Relaxed);
                respond_enqueue(shared, s, &unavailable(), false);
                return;
            }
            if let Some(bucket) = &mut s.bucket {
                if !bucket.try_take() {
                    shared
                        .counters
                        .sessions_throttled
                        .fetch_add(1, Ordering::Relaxed);
                    respond_enqueue(shared, s, &throttled(), false);
                    return;
                }
            }
            let reply = JobReply {
                io: Arc::clone(io),
                session: s.id,
                done: false,
            };
            match shared.queue.try_send(Job {
                req: work,
                reply,
                admitted_at: Instant::now(),
            }) {
                Ok(()) => {
                    shared
                        .counters
                        .jobs_admitted
                        .fetch_add(1, Ordering::Relaxed);
                    s.state = SessionState::Awaiting;
                }
                Err(TrySendError::Full(job)) => {
                    job.reply.defuse();
                    shared
                        .counters
                        .busy_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    respond_enqueue(shared, s, &Response::Busy, false);
                }
                Err(TrySendError::Disconnected(job)) => {
                    job.reply.defuse();
                    respond_enqueue(shared, s, &unavailable(), false);
                }
            }
        }
    }
}

/// Encodes `resp` into the session's write buffer and parks the session
/// in `Write` state; the drive loop flushes it as the socket allows.
///
/// A response that exceeds `cfg.max_frame_len` (e.g. Hits over a catalog
/// with millions of matching ids) fails the *local* encode bound before
/// anything touches the wire, so the stream is still in sync — the
/// session answers with a small typed `internal` error instead of
/// silently closing (which the client would see as a bare
/// `UnexpectedEof`, indistinguishable from a crashed server).
fn respond_enqueue(shared: &Shared, s: &mut Session, resp: &Response, close_after: bool) {
    // The write stage covers encode + flush: it starts here, before the
    // response is serialized, and ends when the last byte leaves.
    s.write_started = Instant::now();
    let bound = shared.cfg.max_frame_len;
    if encode_frame_into(&mut s.write_buf, PROTOCOL_VERSION, bound, |w| {
        resp.encode_to(w)
    })
    .is_err()
    {
        let fallback = Response::Error(ServerError::new(
            ServerErrorKind::Internal,
            "response exceeds the frame bound",
        ));
        encode_frame_into(&mut s.write_buf, PROTOCOL_VERSION, bound, |w| {
            fallback.encode_to(w)
        })
        .expect("the fallback error frame fits any sane bound");
    }
    s.state = SessionState::Write {
        written: 0,
        close_after,
    };
    // A fresh response restarts the stall clock — the peer gets the full
    // deadline to start draining it.
    s.last_progress = Instant::now();
}

/// Best-effort synchronous flush at reap time: the socket goes back to
/// blocking with a short write timeout, so a graceful shutdown delivers
/// every pending response without letting one dead peer stall teardown.
fn flush_blocking(shared: &Shared, s: &mut Session) {
    if let SessionState::Write { written, .. } = s.state {
        let _ = s.stream.set_nonblocking(false);
        let _ = s.stream.set_write_timeout(Some(Duration::from_secs(2)));
        if s.stream.write_all(&s.write_buf[written..]).is_ok() {
            shared
                .counters
                .bytes_out
                .fetch_add(s.write_buf.len() as u64, Ordering::Relaxed);
            finish_response(shared, s);
        }
    }
}

/// Nanoseconds elapsed since `from`, saturating at `u64::MAX`.
fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Closes out one request's telemetry after its response completely left
/// the socket: records the write stage and offers the assembled
/// [`QueryTrace`] to the slow-query log. Pure atomics (and, past the
/// threshold, one short mutex on the trace ring) strictly after the
/// answer bytes are gone — this can never affect an answer.
fn finish_response(shared: &Shared, s: &mut Session) {
    let write_ns = elapsed_ns(s.write_started);
    shared.stages.write.record(write_ns);
    let p = s.pending;
    let total_ns = p
        .decode_ns
        .saturating_add(p.timing.queue_ns)
        .saturating_add(p.timing.execute_ns)
        .saturating_add(write_ns);
    let units = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
    shared.slow_log.offer(QueryTrace {
        seq: 0, // assigned by the log
        opcode: p.opcode,
        decode_ns: p.decode_ns,
        queue_ns: p.timing.queue_ns,
        execute_ns: p.timing.execute_ns,
        write_ns,
        total_ns,
        shards_scattered: units(p.timing.shards.evaluated),
        shards_skipped_box: units(p.timing.shards.skipped_box),
        shards_skipped_synopsis: units(p.timing.shards.skipped_synopsis),
        bytes_in: p.bytes_in,
        bytes_out: s.write_buf.len() as u64,
    });
}

/// Closes a session: its buffers go home to the pool (capacity and all —
/// this is what makes a reconnect storm allocation-free once warm), the
/// socket drops, the active gauge falls.
fn release_session(shared: &Shared, s: Session) {
    let Session {
        read_buf,
        write_buf,
        ..
    } = s;
    shared.buffer_pool.release(read_buf);
    shared.buffer_pool.release(write_buf);
    shared
        .counters
        .sessions_active
        .fetch_sub(1, Ordering::Relaxed);
}

fn protocol_error(e: &WireError) -> Response {
    Response::Error(ServerError::new(ServerErrorKind::Protocol, e.to_string()))
}

fn unavailable() -> Response {
    Response::Error(ServerError::new(
        ServerErrorKind::Unavailable,
        "server is shutting down",
    ))
}

fn throttled() -> Response {
    Response::Error(ServerError::new(
        ServerErrorKind::Throttled,
        "session rate limit exceeded; retry later",
    ))
}

fn executor_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    use std::sync::mpsc::RecvTimeoutError;
    loop {
        // Hold the receiver lock only while waiting; executors take turns
        // pulling jobs (an arriving job wakes the lock holder at once —
        // the timeout only bounds how stale the shutdown-gate check can
        // get, it adds no delivery latency).
        let job = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv_timeout(Duration::from_millis(25))
        };
        match job {
            Ok(job) => run_job(shared, job),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    // Drain-then-exit: the gate is up, so no session will
                    // admit more work after what is already queued; run
                    // the leftovers so their sessions get real answers.
                    // (A try_send racing past the drained-empty read gets
                    // its job dropped with the channel, which JobReply
                    // turns into a typed Unavailable — answered, never
                    // hung.)
                    loop {
                        let job = {
                            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
                            rx.try_recv()
                        };
                        match job {
                            Ok(job) => run_job(shared, job),
                            Err(_) => break,
                        }
                    }
                    break;
                }
            }
        }
    }
}

/// Executes one admitted job and answers its session.
///
/// Execution is panic-isolated: the decoder rejects everything *known* to
/// panic the engine, but a build can still panic on pathological
/// parameters, and an unwinding executor thread must not die (after
/// `cfg.executors` such deaths the queue receiver would drop and every
/// later request would be answered `unavailable` by a silently-degraded
/// server). A panic is caught here, answered as a typed `internal` error,
/// and the executor keeps draining. The engine locks recover from the
/// resulting poison (see [`Shared::engine_read`]): ingest is
/// validate→build→commit, so engine state stays consistent.
fn run_job(
    shared: &Arc<Shared>,
    Job {
        req,
        reply,
        admitted_at,
    }: Job,
) {
    let queue_ns = elapsed_ns(admitted_at);
    shared.stages.queue.record(queue_ns);
    shared
        .counters
        .jobs_dequeued
        .fetch_add(1, Ordering::Relaxed);
    // Dedup-capable ingests check the retry window first: a token the
    // server has already answered replays the recorded response without
    // touching the engine — the retried AddShard that must not
    // double-ingest. A token still in flight gets a transient
    // `unavailable` (back off and re-ask) rather than a second
    // execution or an executor blocked on another executor's job.
    let dedup_id = req.dedup_id();
    if let Some(id) = dedup_id {
        let mut window = shared.dedup.lock().unwrap_or_else(PoisonError::into_inner);
        match window.map.get(&id) {
            Some(DedupEntry::Done(resp)) => {
                let resp = (**resp).clone();
                drop(window);
                shared
                    .counters
                    .retries_attempted
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .requests_deduped
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .jobs_completed
                    .fetch_add(1, Ordering::Relaxed);
                reply.send(
                    resp,
                    JobTiming {
                        queue_ns,
                        ..JobTiming::default()
                    },
                );
                return;
            }
            Some(DedupEntry::InFlight) => {
                drop(window);
                shared
                    .counters
                    .retries_attempted
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .jobs_completed
                    .fetch_add(1, Ordering::Relaxed);
                reply.send(
                    Response::Error(ServerError::new(
                        ServerErrorKind::Unavailable,
                        "request id is still in flight; retry",
                    )),
                    JobTiming {
                        queue_ns,
                        ..JobTiming::default()
                    },
                );
                return;
            }
            None => window.insert(id, DedupEntry::InFlight),
        }
    }
    let mut shards = QueryReport::default();
    let execute_started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(shared, req, &mut shards)
    }));
    let execute_ns = elapsed_ns(execute_started);
    shared.stages.execute.record(execute_ns);
    let timing = JobTiming {
        queue_ns,
        execute_ns,
        shards,
    };
    let resp = match outcome {
        Ok(resp) => {
            if let Some(id) = dedup_id {
                // Any produced answer — success or typed rejection — is
                // recorded: both are deterministic fates a duplicate
                // must observe consistently.
                shared
                    .dedup
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, DedupEntry::Done(Box::new(resp.clone())));
            }
            resp
        }
        Err(_) => {
            shared
                .counters
                .executor_panics
                .fetch_add(1, Ordering::Relaxed);
            if let Some(id) = dedup_id {
                // Ingest is validate→build→commit: a panicking ingest
                // committed nothing, so the retry must execute for real.
                shared
                    .dedup
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .forget(id);
            }
            // The panic text is NOT echoed to the (untrusted) client:
            // engine assertion messages can embed internal state, and a
            // client probing for panics must not get free introspection.
            // The default panic hook has already written the message and
            // backtrace to the server's stderr.
            Response::Error(ServerError::new(
                ServerErrorKind::Internal,
                "request execution panicked (details in the server log)",
            ))
        }
    };
    shared
        .counters
        .jobs_completed
        .fetch_add(1, Ordering::Relaxed);
    reply.send(resp, timing);
}

/// Plans every expression under one read lock — the request is rejected
/// all-or-nothing on the first plan error, before any shard is touched —
/// then executes the plans, recording this request's exact shard counts
/// in `report`.
fn run_queries(
    shared: &Shared,
    exprs: &[LogicalExpr],
    report: &mut QueryReport,
) -> Result<Vec<EngineResult>, ServerError> {
    let engine = shared.engine_read();
    // A dimension mismatch can never succeed against the served schema,
    // so clients must not treat it as a retry-later signal: it maps to
    // the permanent `invalid-query` kind.
    let plans = exprs
        .iter()
        .map(|e| engine.plan(e))
        .collect::<Result<Vec<QueryPlan>, _>>()
        .map_err(|e| ServerError::new(ServerErrorKind::InvalidQuery, e.to_string()))?;
    let (answers, r) = engine.execute(&plans, engine.build_options());
    *report = r;
    Ok(answers)
}

/// Runs one admitted job against the engine, recording the shard counts
/// of the queries it ran in `report`.
fn execute(shared: &Shared, req: Request, report: &mut QueryReport) -> Response {
    match req {
        Request::Query(expr) => {
            shared.counters.queries.fetch_add(1, Ordering::Relaxed);
            match run_queries(shared, std::slice::from_ref(&expr), report) {
                Ok(mut answers) => {
                    Response::Hits(answers.pop().expect("one answer per expression"))
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::QueryBatch(exprs) => {
            shared
                .counters
                .batch_queries
                .fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .batch_exprs
                .fetch_add(exprs.len() as u64, Ordering::Relaxed);
            run_queries(shared, &exprs, report).map_or_else(Response::Error, Response::BatchHits)
        }
        Request::AddShard {
            request_id: _,
            datasets,
            global_ids,
        } => {
            shared.counters.admin_ops.fetch_add(1, Ordering::Relaxed);
            let repo = Repository::new(datasets);
            let mut engine = shared.engine_write();
            match engine.try_add_shard(&repo, &global_ids) {
                Ok(shard) => Response::ShardAdded {
                    shard: shard as u32,
                },
                Err(e) => Response::Error(ServerError::new(ServerErrorKind::Ingest, e.to_string())),
            }
        }
        Request::RebuildShard {
            shard,
            request_id: _,
            datasets,
            global_ids,
        } => {
            shared.counters.admin_ops.fetch_add(1, Ordering::Relaxed);
            let repo = Repository::new(datasets);
            let mut engine = shared.engine_write();
            match engine.try_rebuild_shard(shard as usize, &repo, &global_ids) {
                Ok(()) => Response::Done,
                Err(e) => Response::Error(ServerError::new(ServerErrorKind::Ingest, e.to_string())),
            }
        }
        // Lifecycle admin ops carry no data — they reference shards and
        // ids the server already holds, so a rejection means the request
        // named state that doesn't match the served catalog: permanent,
        // like a schema mismatch, hence the `invalid-query` kind (not
        // `ingest`, which is for ops shipping data).
        Request::SplitShard { shard, move_ids } => {
            shared.counters.admin_ops.fetch_add(1, Ordering::Relaxed);
            let mut engine = shared.engine_write();
            match engine.try_split_shard(shard as usize, &move_ids) {
                Ok(new_shard) => Response::ShardAdded {
                    shard: new_shard as u32,
                },
                Err(e) => Response::Error(ServerError::new(
                    ServerErrorKind::InvalidQuery,
                    e.to_string(),
                )),
            }
        }
        Request::MergeShards { a, b } => {
            shared.counters.admin_ops.fetch_add(1, Ordering::Relaxed);
            let mut engine = shared.engine_write();
            match engine.try_merge_shards(a as usize, b as usize) {
                Ok(survivor) => Response::ShardAdded {
                    shard: survivor as u32,
                },
                Err(e) => Response::Error(ServerError::new(
                    ServerErrorKind::InvalidQuery,
                    e.to_string(),
                )),
            }
        }
        Request::Sleep { ms } => {
            if !shared.cfg.allow_sleep {
                return Response::Error(ServerError::new(
                    ServerErrorKind::Protocol,
                    "sleep is disabled on this server (ServerConfig::allow_sleep)",
                ));
            }
            if ms == PANIC_DRILL_MS {
                // The documented panic drill: proves end to end that a
                // panicking job is answered typed and the executor
                // survives. Gated behind the same opt-in as Sleep itself.
                panic!("panic drill (Sleep with ms = u32::MAX)");
            }
            std::thread::sleep(Duration::from_millis(ms.min(MAX_SLEEP_MS) as u64));
            Response::Done
        }
        // Control ops never reach the queue.
        Request::Stats | Request::Metrics | Request::Ping { .. } | Request::Shutdown => {
            Response::Error(ServerError::new(
                ServerErrorKind::Protocol,
                "control op on the work queue",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done() -> DedupEntry {
        DedupEntry::Done(Box::new(Response::Done))
    }

    /// FIFO eviction must never age out an `InFlight` entry: a slow
    /// ingest overtaken by > CAP fresh ids would otherwise lose its
    /// marker, and a duplicate arriving afterwards would re-execute
    /// concurrently with the original — the double-ingest the window
    /// exists to prevent.
    #[test]
    fn eviction_skips_in_flight_entries() {
        let mut w = DedupWindow::default();
        w.insert(1, DedupEntry::InFlight);
        for id in 2..(2 + 2 * DEDUP_WINDOW_CAP as u64) {
            w.insert(id, done());
        }
        assert!(
            matches!(w.map.get(&1), Some(DedupEntry::InFlight)),
            "the in-flight marker survived {} insertions",
            2 * DEDUP_WINDOW_CAP
        );
        assert!(w.map.len() <= DEDUP_WINDOW_CAP);
        assert_eq!(w.order.len(), w.map.len());
        // Once finished it becomes ordinary and ages out like any other.
        w.insert(1, done());
        for id in 100_000..(100_000 + DEDUP_WINDOW_CAP as u64) {
            w.insert(id, done());
        }
        assert!(!w.map.contains_key(&1), "a Done entry ages out normally");
        assert!(w.map.len() <= DEDUP_WINDOW_CAP);
    }

    /// The rotation budget keeps a (theoretical) window full of
    /// `InFlight` ids from spinning the eviction scan forever — it
    /// degrades to exceeding the cap instead.
    #[test]
    fn all_in_flight_window_exceeds_cap_without_spinning() {
        let mut w = DedupWindow::default();
        for id in 1..(2 + DEDUP_WINDOW_CAP as u64) {
            w.insert(id, DedupEntry::InFlight);
        }
        assert_eq!(w.map.len(), DEDUP_WINDOW_CAP + 1);
        assert!(w.map.values().all(|e| matches!(e, DedupEntry::InFlight)));
    }
}
