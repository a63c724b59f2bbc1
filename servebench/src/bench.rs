//! The three workloads. Each run generates its inputs from the seed,
//! builds the served shards and starts a loopback `DdsServer` at
//! `ServerConfig::default()`, drives it with `DdsClient`, and checks
//! every answer against an in-process reference `ShardedEngine` built
//! over the same shards.
//!
//! Every workload runs the same phases, weighted differently:
//!
//! * **base** — an open loop of single `Query` requests at a fixed rate,
//!   every 4th request a `Ping` or `Stats`; latency is timed from each
//!   request's due time;
//! * **ladder** — the same mix at rising fixed rates, up to the highest
//!   rate whose query tail stays under the workload's limit without a
//!   growing backlog;
//! * **batch** — back-to-back `QueryBatch` requests of 16 expressions on
//!   one connection;
//! * **ingest** — `RebuildShard` requests: on an open-loop schedule beside
//!   the reads in `ingest-churn`, a few back to back after the reads
//!   elsewhere.

use crate::load::{self, LoopSamples, Rung};
use crate::report::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::ALLOCATIONS;
use dds_core::framework::{ground_truth, LogicalExpr, MeasureFunction, Predicate, Repository};
use dds_core::pool::{par_map_with, BuildOptions};
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::{GlobalId, ShardedEngine};
use dds_core::telemetry::{bucket_bounds, HistogramSnapshot};
use dds_server::{
    ClientConfig, DdsClient, DdsServer, EngineResult, MetricsReport, Request, Response,
    ServerConfig, ServerStats,
};
use dds_workload::{RepoSpec, RequestStreamSpec};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Cold batches sent before timing: 1024 expressions, enough to fill
/// every shard's 1024-entry mask cache with the predicates they carry.
const FILL_BATCHES: usize = 64;
/// Popular shapes the hot read mix cycles through: far below the
/// 1024-entry per-shard mask cache, so after warm-up every read hits.
const HOT_SHAPES: usize = 16;
/// Expressions per `QueryBatch`.
const BATCH: usize = 16;
/// Every this-many-th open-loop request is a `Ping` or `Stats`.
const CONTROL_EVERY: usize = 4;
/// Served engines built per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Expressions of the read stream whose answers are scored against
/// `ground_truth`.
const PRECISION_SAMPLE: usize = 512;
/// Schema dimension of every catalog.
const DIM: usize = 2;
/// Largest dataset; datasets hold between half of this and this many
/// points.
const MAX_POINTS: usize = 200;

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Popular shapes from a cache-resident working set.
    HotSingle,
    /// Never-repeated expressions, mostly as batches.
    ColdBatch,
    /// Hot reads beside open-loop shard rebuilds.
    IngestChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HotSingle,
        Workload::ColdBatch,
        Workload::IngestChurn,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSingle => "hot-single",
            Workload::ColdBatch => "cold-batch",
            Workload::IngestChurn => "ingest-churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes, rates and window lengths for a run of `secs` seconds on a
    /// host with `nproc` cores.
    pub(crate) fn plan(self, secs: f64, nproc: usize) -> Plan {
        match self {
            Workload::HotSingle => {
                let round = secs / 10.0;
                Plan {
                    rounds: 10,
                    shards: 4,
                    per_shard: 60,
                    cold: false,
                    read_conns: nproc,
                    base_rate: 400.0,
                    base_secs: 0.5 * round,
                    ladder_rates: &[1200.0, 2400.0, 4800.0, 9600.0],
                    rung_secs: 0.08 * round,
                    limit_ms: 50.0,
                    batch_secs: 0.12 * round,
                    write_period: None,
                    tail_rebuilds: 5,
                }
            }
            Workload::ColdBatch => {
                let round = secs / 10.0;
                Plan {
                    rounds: 10,
                    shards: 8,
                    per_shard: 30,
                    cold: true,
                    read_conns: nproc,
                    base_rate: 250.0,
                    base_secs: 0.3 * round,
                    ladder_rates: &[400.0, 800.0, 1600.0, 3200.0],
                    rung_secs: 0.05 * round,
                    limit_ms: 100.0,
                    batch_secs: 0.45 * round,
                    write_period: None,
                    tail_rebuilds: 5,
                }
            }
            Workload::IngestChurn => {
                let round = secs / 5.0;
                Plan {
                    rounds: 5,
                    shards: 4,
                    per_shard: 30,
                    cold: false,
                    // Two connections in all: one writer, the rest read.
                    read_conns: nproc.saturating_sub(1).max(1),
                    base_rate: 300.0,
                    base_secs: 0.42 * round,
                    ladder_rates: &[1600.0, 6400.0],
                    rung_secs: 0.25 * round,
                    limit_ms: 1000.0,
                    batch_secs: 0.08 * round,
                    write_period: Some(0.42 * round),
                    tail_rebuilds: 0,
                }
            }
        }
    }
}

/// How one workload is run: `rounds` rounds, each a base window, the
/// ladder windows and a batch window. Each latency is the least of the
/// rounds' medians and each rate the greatest, and each ladder rate
/// counts its best round: noise on a shared host only ever slows a round
/// down, so the least-disturbed round is the steadiest reading of what
/// the code does. Lengths are per round.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    /// Rounds per run.
    rounds: usize,
    /// Served shards.
    shards: usize,
    /// Datasets per shard.
    per_shard: usize,
    /// Reads and batches draw never-repeated expressions (else the hot
    /// shapes).
    cold: bool,
    /// Open-loop read connections, one generator thread each.
    read_conns: usize,
    /// Fixed arrival rate of the base window (requests/s).
    base_rate: f64,
    /// Length of the base window.
    base_secs: f64,
    /// Fixed rates of the ladder windows (requests/s).
    ladder_rates: &'static [f64],
    /// Length of one ladder window.
    rung_secs: f64,
    /// Query tail latency limit of the ladder (ms).
    limit_ms: f64,
    /// Length of the batch window.
    batch_secs: f64,
    /// Rebuild period beside the reads, if the workload writes: every
    /// base and ladder window starts with a rebuild, and the base window
    /// has one more every period.
    write_period: Option<f64>,
    /// Back-to-back rebuilds after the rounds, for workloads that do not
    /// write beside the reads.
    tail_rebuilds: usize,
}

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// Outcome of one run: the result line plus the stamp describing how it
/// was measured.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, timed out or answered wrongly.
    pub failed: u64,
    /// Measurement context, one JSON object.
    pub stamp: String,
}

impl Outcome {
    /// The final result line.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        report::result_line(catalogue, &self.metrics, self.attempted, self.failed)
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    dds_core::pool::mix_seed(seed, salt)
}

/// One served shard: its datasets and their global ids.
type ShardData = (Repository, Vec<GlobalId>);

/// Everything generated from the seed before anything is timed.
struct Inputs {
    /// The whole catalog per content version; a dataset's index is its
    /// global id.
    catalogs: [Repository; 2],
    /// Shard contents per version: version 0 is served at start, version
    /// 1 is the alternative content rebuilds install.
    shards: [Vec<ShardData>; 2],
    hot: Vec<LogicalExpr>,
    /// Never-repeated expressions: three broad, then one selective.
    cold: Vec<LogicalExpr>,
    /// Expressions whose reference answers are scored against ground
    /// truth: the first [`PRECISION_SAMPLE`] of the workload's read
    /// stream (the hot shapes lead the hot stream).
    scored: Vec<LogicalExpr>,
}

fn make_inputs(plan: &Plan, seed: u64, cold_len: usize) -> Inputs {
    let n = plan.shards * plan.per_shard;
    let specs = [
        RepoSpec::mixed(n, MAX_POINTS, DIM, mix(seed, 1)),
        RepoSpec::mixed(n, MAX_POINTS, DIM, mix(seed, 2)),
    ];
    let shards = specs.clone().map(|spec| {
        spec.shards(plan.shards)
            .into_iter()
            .map(|s| (Repository::from_point_sets(s.sets), s.global_ids))
            .collect()
    });
    let catalogs = specs
        .clone()
        .map(|spec| Repository::from_point_sets(spec.build()));
    let hot_stream = RequestStreamSpec::new(PRECISION_SAMPLE, mix(seed, 3))
        .with_shapes(PRECISION_SAMPLE)
        .exprs(&specs[0]);
    let hot = hot_stream[..HOT_SHAPES].to_vec();
    // Three broad expressions to one selective: the two kinds differ in
    // cost several-fold, and an even mix would put the median read in the
    // gap between them.
    let quarter = cold_len.div_ceil(4).max(1);
    let broad = RequestStreamSpec::new(3 * quarter, mix(seed, 4))
        .with_shapes(3 * quarter)
        .exprs(&specs[0]);
    let selective = RequestStreamSpec::selective(quarter, mix(seed, 5))
        .with_shapes(quarter)
        .exprs(&specs[0]);
    let cold: Vec<LogicalExpr> = broad
        .chunks(3)
        .zip(selective)
        .flat_map(|(b, s)| b.iter().cloned().chain([s]))
        .take(cold_len)
        .collect();
    let scored = if plan.cold {
        cold[..PRECISION_SAMPLE.min(cold.len())].to_vec()
    } else {
        hot_stream
    };
    Inputs {
        catalogs,
        shards,
        hot,
        cold,
        scored,
    }
}

/// The served configuration: ε = 0.05 centralized builds, rank 1.
fn build_engine(shards: &[ShardData]) -> ShardedEngine {
    let mut engine = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    for (repo, ids) in shards {
        engine.add_shard(repo, ids);
    }
    engine
}

/// The shard rebuilt by the `k`-th rebuild (0-based) and the content
/// version it installs: rebuilds rotate over the shards and each flips
/// its shard to the other version.
fn rebuild_target(k: u64, shards: usize) -> (usize, usize) {
    let n = shards as u64;
    ((k % n) as usize, ((k / n + 1) % 2) as usize)
}

/// Content version of shard `s` after `k` rebuilds.
fn version_after(k: u64, s: usize, shards: usize) -> usize {
    let (s, n) = (s as u64, shards as u64);
    let flips = if k > s { (k - 1 - s) / n + 1 } else { 0 };
    (flips % 2) as usize
}

/// Reference answers of the hot shapes for every catalog state a read
/// can observe. State `k` is the catalog after `k` rebuilds; states
/// repeat with period `2 × shards`.
struct Expect {
    states: Vec<Vec<EngineResult>>,
}

impl Expect {
    /// Answers for the unchanging catalog.
    fn fixed(reference: &ShardedEngine, hot: &[LogicalExpr]) -> Expect {
        Expect {
            states: vec![hot.iter().map(|e| reference.query(e)).collect()],
        }
    }

    /// Answers for every state of the rebuild rotation, merged from
    /// per-shard answers of the two version engines. Checked against the
    /// engines' own answers for the all-version-0 and all-version-1
    /// states.
    fn churn(refs: [&ShardedEngine; 2], hot: &[LogicalExpr]) -> Result<Expect, String> {
        let n = refs[0].n_shards();
        // per_shard[v][s][shape]
        let per_shard: Vec<Vec<Vec<EngineResult>>> = refs
            .iter()
            .map(|engine| {
                (0..n)
                    .map(|s| {
                        let ids = engine.global_ids(s);
                        hot.iter()
                            .map(|e| {
                                engine
                                    .shard_engine(s)
                                    .query(e)
                                    .map(|hits| hits.into_iter().map(|j| ids[j]).collect())
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let states: Vec<Vec<EngineResult>> = (0..2 * n as u64)
            .map(|k| {
                (0..hot.len())
                    .map(|shape| {
                        let mut ids = Vec::new();
                        for s in 0..n {
                            ids.extend(per_shard[version_after(k, s, n)][s][shape].clone()?);
                        }
                        ids.sort_unstable();
                        Ok(ids)
                    })
                    .collect()
            })
            .collect();
        for (v, engine) in refs.iter().enumerate() {
            let k = v * n;
            for (shape, e) in hot.iter().enumerate() {
                if states[k][shape] != engine.query(e) {
                    return Err(format!(
                        "per-shard reference of state {k} disagrees with the version-{v} engine on shape {shape}"
                    ));
                }
            }
        }
        Ok(Expect { states })
    }

    /// Whether `ans` is the answer of some state in `lo..=hi`.
    fn matches(&self, shape: usize, lo: u64, hi: u64, ans: &EngineResult) -> bool {
        let period = self.states.len() as u64;
        let hi = hi.min(lo + period - 1);
        (lo..=hi).any(|k| self.states[(k % period) as usize][shape] == *ans)
    }
}

/// Rebuild progress shared between the writer and the readers.
#[derive(Default)]
struct Writes {
    /// Rebuilds sent (counted just before sending).
    started: AtomicU64,
    /// Rebuilds answered (counted just after the reply).
    done: AtomicU64,
    /// Reads that had a rebuild in flight between their send and reply.
    overlapped: AtomicU64,
}

/// A stable 64-bit digest of an answer (FNV-1a over its encoding), so
/// cold answers can be compared with the reference after the run
/// without keeping them.
fn digest(ans: &EngineResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    match ans {
        Ok(ids) => {
            eat(0);
            eat(ids.len() as u64);
            ids.iter().for_each(|&id| eat(id));
        }
        Err(e) => {
            eat(1);
            format!("{e:?}").bytes().for_each(|b| eat(u64::from(b)));
        }
    }
    h
}

/// One open-loop request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Ping,
    Stats,
    /// The `q`-th query of the phase.
    Query(usize),
}

fn op(i: usize) -> Op {
    if i % CONTROL_EVERY == CONTROL_EVERY - 1 {
        if (i / CONTROL_EVERY).is_multiple_of(2) {
            Op::Ping
        } else {
            Op::Stats
        }
    } else {
        Op::Query(i - i / CONTROL_EVERY)
    }
}

/// Queries among requests `0..n`.
fn queries_in(n: usize) -> usize {
    n - n / CONTROL_EVERY
}

/// Latencies (µs) of a phase's queries and of its control requests.
fn split_us(samples: &LoopSamples) -> (Vec<f64>, Vec<f64>) {
    let mut queries = Vec::new();
    let mut control = Vec::new();
    for (i, &ns) in samples.latency_ns.iter().enumerate() {
        let us = ns as f64 / 1e3;
        if matches!(op(i), Op::Query(_)) {
            queries.push(us);
        } else {
            control.push(us);
        }
    }
    (queries, control)
}

/// A reader connection and the digests of the cold answers it received.
struct Reader {
    client: DdsClient,
    cold: Vec<(usize, u64)>,
    tracer: Option<Tracer>,
}

fn connect(addr: SocketAddr) -> Result<DdsClient, String> {
    DdsClient::connect_with(
        addr,
        ClientConfig {
            timeout: Some(Duration::from_secs(20)),
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect to {addr}: {e}"))
}

/// The state of one run after set-up.
struct Run<'a> {
    name: &'static str,
    plan: Plan,
    inputs: &'a Inputs,
    expect: Option<Expect>,
    writes: &'a Writes,
    /// Next unused cold expression.
    cursor: usize,
    /// Digests of batch answers: `(first expression, digests)`.
    batch_digests: Vec<(usize, Vec<u64>)>,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    /// `k` expressions for in-process calls: the hot shapes, or on cold
    /// workloads expressions no engine has seen yet.
    fn fresh(&mut self, k: usize) -> Vec<LogicalExpr> {
        if !self.plan.cold {
            return self.inputs.hot.clone();
        }
        let lo = self.cursor;
        self.cursor = (lo + k).min(self.inputs.cold.len());
        self.inputs.cold[lo..self.cursor].to_vec()
    }

    fn read(&self, r: &mut Reader, idx: usize) -> bool {
        if self.plan.cold {
            let expr = &self.inputs.cold[idx];
            return match r.client.query(expr) {
                Ok(ans) => {
                    r.cold.push((idx, digest(&ans)));
                    true
                }
                Err(_) => false,
            };
        }
        let shape = idx % HOT_SHAPES;
        let lo = self.writes.done.load(Ordering::SeqCst);
        let ans = r.client.query(&self.inputs.hot[shape]);
        let hi = self.writes.started.load(Ordering::SeqCst);
        if hi > lo {
            self.writes.overlapped.fetch_add(1, Ordering::Relaxed);
        }
        let expect = self.expect.as_ref().expect("hot reads have references");
        matches!(ans, Ok(ans) if expect.matches(shape, lo, hi, &ans))
    }

    /// The traced twin of [`read`](Self::read): the same request, with a
    /// span around each layer call the benchmark makes for it.
    fn read_traced(&self, r: &mut Reader, idx: usize, req: u64) -> bool {
        let expr = if self.plan.cold {
            &self.inputs.cold[idx]
        } else {
            &self.inputs.hot[idx % HOT_SHAPES]
        };
        let mut tracer = r.tracer.take().expect("traced reader");
        let root = tracer.begin("request", None, req);
        tracer.span("wire.encode", Some(root), req, || {
            std::hint::black_box(Request::Query(expr.clone()).encode())
        });
        let rtt = tracer.begin("client.rtt", Some(root), req);
        let ok = self.read(r, idx);
        tracer.end(rtt);
        tracer.end(root);
        r.tracer = Some(tracer);
        ok
    }

    /// Runs `n` open-loop requests at `rate` on `readers`, starting with
    /// query number `q0` of the read stream.
    fn open_phase(
        &mut self,
        readers: &mut [Reader],
        rate: f64,
        n: usize,
        traced: bool,
    ) -> LoopSamples {
        let q0 = self.cursor;
        let first_req = self.attempted;
        let start = Instant::now() + Duration::from_millis(2);
        let this = &*self;
        let samples = load::open_loop(start, rate, n, readers, |r, i| match op(i) {
            Op::Ping => r.client.ping().is_ok(),
            Op::Stats => r.client.stats().is_ok(),
            Op::Query(q) if traced => this.read_traced(r, q0 + q, first_req + i as u64),
            Op::Query(q) => this.read(r, q0 + q),
        });
        self.cursor += queries_in(n);
        self.attempted += n as u64;
        self.failed += samples.failures() as u64;
        samples
    }

    /// Back-to-back batches on one connection for `budget`, at most
    /// `limit` of them.
    fn batch_phase(
        &mut self,
        client: &mut DdsClient,
        budget: Duration,
        limit: usize,
    ) -> LoopSamples {
        let max = if self.plan.cold {
            ((self.inputs.cold.len() - self.cursor) / BATCH).min(limit)
        } else {
            limit
        };
        let hot = &self.inputs.hot;
        let cold = &self.inputs.cold;
        let (expect, writes, plan_cold) = (&self.expect, &self.writes, self.plan.cold);
        let mut digests = Vec::with_capacity(max.min(1 << 16));
        let cursor = self.cursor;
        let samples = load::closed_loop(budget, max, |b| {
            if plan_cold {
                let first = cursor + b * BATCH;
                match client.query_batch(&cold[first..first + BATCH]) {
                    Ok(answers) if answers.len() == BATCH => {
                        digests.push((first, answers.iter().map(digest).collect()));
                        true
                    }
                    _ => false,
                }
            } else {
                let lo = writes.done.load(Ordering::SeqCst);
                let answers = client.query_batch(hot);
                let hi = writes.started.load(Ordering::SeqCst);
                let expect = expect.as_ref().expect("hot reads have references");
                matches!(answers, Ok(a) if a.len() == hot.len()
                    && a.iter().enumerate().all(|(s, ans)| expect.matches(s, lo, hi, ans)))
            }
        });
        if plan_cold {
            self.cursor += samples.ok.len() * BATCH;
        }
        self.batch_digests.extend(digests);
        self.attempted += samples.ok.len() as u64;
        self.failed += samples.failures() as u64;
        samples
    }

    /// Compares every cold answer received with the reference engine;
    /// returns the number that differ.
    fn check_cold(&self, reference: &ShardedEngine, readers: &[Reader]) -> u64 {
        let mut got: Vec<(usize, u64)> = readers
            .iter()
            .flat_map(|r| r.cold.iter().copied())
            .collect();
        for (first, ds) in &self.batch_digests {
            got.extend(ds.iter().enumerate().map(|(j, &d)| (first + j, d)));
        }
        got.sort_unstable();
        let mut wrong = 0;
        for chunk in got.chunk_by(|a, b| a.0 / 256 == b.0 / 256) {
            let lo = chunk[0].0 / 256 * 256;
            let hi = (lo + 256).min(self.inputs.cold.len());
            let expected = reference.query_batch(&self.inputs.cold[lo..hi]);
            wrong += chunk
                .iter()
                .filter(|(i, d)| digest(&expected[i - lo]) != *d)
                .count() as u64;
        }
        wrong
    }
}

/// Open-loop rebuilds: the writer waits for each due time it receives,
/// sends the next rebuild of the rotation and records the latency from
/// the due time.
fn writer_loop(
    addr: SocketAddr,
    shards: &[Vec<ShardData>; 2],
    writes: &Writes,
    due_times: mpsc::Receiver<Instant>,
) -> Result<Vec<(bool, f64)>, String> {
    let mut client = connect(addr)?;
    let mut out = Vec::new();
    for (k, due) in due_times.iter().enumerate() {
        load::wait_until(due);
        let (s, v) = rebuild_target(k as u64, shards[0].len());
        writes.started.fetch_add(1, Ordering::SeqCst);
        let ok = client
            .rebuild_shard(s, &shards[v][s].0, &shards[v][s].1)
            .is_ok();
        writes.done.fetch_add(1, Ordering::SeqCst);
        out.push((ok, due.elapsed().as_secs_f64() * 1e3));
    }
    Ok(out)
}

/// How reference answers compare with `ground_truth` on the raw catalog.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Score {
    /// Σ |exact| / Σ |reported| over the expressions (1 when nothing
    /// was reported).
    precision: f64,
    /// Answers missing a dataset that satisfies a clause made only of
    /// percentile literals. With exact-support Ptile builds the guarantee
    /// covers these, so each one is a wrong answer.
    misses: u64,
    /// Answers missing a true dataset only a clause with a top-k literal
    /// makes true. The Pref guarantee assumes points in the unit ball and
    /// the mixed catalog spans [0, 100]^d, so these are reported, not
    /// failed.
    pref_misses: u64,
}

fn score(catalog: &Repository, exprs: &[LogicalExpr], answers: &[EngineResult]) -> Score {
    let mut out = Score::default();
    let (mut exact_total, mut reported_total) = (0usize, 0usize);
    for (e, ans) in exprs.iter().zip(answers) {
        let truth = ground_truth(catalog, e);
        let exact = truth.len();
        let Ok(reported) = ans else {
            out.misses += 1;
            continue;
        };
        let missed: Vec<usize> = truth
            .into_iter()
            .filter(|&t| reported.binary_search(&(t as u64)).is_err())
            .collect();
        let covered = |t: usize| {
            let pts = catalog.get(t).points();
            e.to_dnf().iter().any(|clause| {
                clause
                    .iter()
                    .all(|p| matches!(p.measure, MeasureFunction::Percentile(_)) && p.eval(pts))
            })
        };
        if missed.iter().any(|&t| covered(t)) {
            out.misses += 1;
        } else if !missed.is_empty() {
            out.pref_misses += 1;
        }
        exact_total += exact;
        reported_total += reported.len();
    }
    out.precision = if reported_total == 0 {
        1.0
    } else {
        exact_total as f64 / reported_total as f64
    };
    out
}

/// Scores the reference against ground truth on the workload's scored
/// stream (and, with a writer, the hot shapes on the all-rebuilt catalog):
/// (precision, misses, pref misses); see [`Score`].
fn check_truth(run: &Run, reference: &ShardedEngine) -> (f64, u64, u64) {
    let sample = &run.inputs.scored;
    let scored = score(
        &run.inputs.catalogs[0],
        sample,
        &reference.query_batch(sample),
    );
    let (mut misses, mut pref_misses) = (scored.misses, scored.pref_misses);
    if let Some(expect) = run.expect.as_ref().filter(|e| e.states.len() > 1) {
        let rebuilt = score(
            &run.inputs.catalogs[1],
            &run.inputs.hot,
            &expect.states[run.plan.shards],
        );
        misses += rebuilt.misses;
        pref_misses += rebuilt.pref_misses;
    }
    (scored.precision, misses, pref_misses)
}

/// Allocations so far and the process's CPU seconds (user + system, all
/// threads; stolen time is not charged, so this is steal-proof).
fn cost_now() -> Result<(u64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3; utime
    // and stime are fields 14 and 15, in USER_HZ (100 per second) ticks.
    let ticks: Option<u64> = stat.rsplit_once(')').map(|(_, rest)| {
        rest.split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<u64>().ok())
            .sum()
    });
    let ticks = ticks.ok_or("unparsable /proc/self/stat")?;
    Ok((ALLOCATIONS.load(Ordering::Relaxed), ticks as f64 / 100.0))
}

/// Adds the cost since `since` to `total`.
fn add_cost(total: &mut (u64, f64), since: (u64, f64)) -> Result<(), String> {
    let now = cost_now()?;
    total.0 += now.0 - since.0;
    total.1 += now.1 - since.1;
    Ok(())
}

/// Host CPU counters from `/proc/stat`: (steal, total) jiffies.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` `reps` times and returns the median wall time in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

fn tail_value(samples: &[f64]) -> f64 {
    stats::tail(samples).map_or(0.0, |t| t.value)
}

/// A reported tail as a stamp entry: value, quantile and sample count.
fn tail_json(name: &str, samples: &[f64]) -> String {
    match stats::tail(samples) {
        Some(t) => format!(
            "\"{name}\": {{\"value\": {}, \"q\": {}, \"count\": {}}}",
            crate::json::num(t.value),
            crate::json::num(t.q),
            t.count
        ),
        None => format!("\"{name}\": null"),
    }
}

/// Executes one run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let plan = args.workload.plan(args.seconds, nproc);
    let steal0 = cpu_steal();
    let cold_len = if plan.cold {
        (4000.0 * args.seconds) as usize + 1024
    } else {
        0
    };
    let inputs = make_inputs(&plan, args.seed, cold_len);
    let reference = build_engine(&inputs.shards[0]);
    let expect = match (plan.cold, plan.write_period) {
        (true, _) => None,
        (false, None) => Some(Expect::fixed(&reference, &inputs.hot)),
        (false, Some(_)) => {
            let alt = build_engine(&inputs.shards[1]);
            Some(Expect::churn([&reference, &alt], &inputs.hot)?)
        }
    };
    serve(args, plan, &inputs, reference, expect, (nproc, steal0))
}

fn serve(
    args: &Args,
    plan: Plan,
    inputs: &Inputs,
    mut reference: ShardedEngine,
    expect: Option<Expect>,
    (nproc, steal0): (usize, Option<(u64, u64)>),
) -> Result<Outcome, String> {
    // Set-up: build every served shard and start the server, several
    // times; the last server stays up.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut server = None;
    for _ in 0..reps {
        if let Some(old) = server.take() {
            DdsServer::shutdown(old);
        }
        let t = Instant::now();
        let engine = build_engine(&inputs.shards[0]);
        let s = DdsServer::serve(engine, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.local_addr();
    let writes = Writes::default();
    let mut run = Run {
        name: args.workload.name(),
        plan,
        inputs,
        expect,
        writes: &writes,
        cursor: 0,
        batch_digests: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let result = std::thread::scope(|scope| {
        let (due_tx, due_rx) = mpsc::channel::<Instant>();
        let writer = run
            .plan
            .write_period
            .map(|_| scope.spawn(|| writer_loop(addr, &inputs.shards, &writes, due_rx)));
        let measured = if args.trace {
            traced(&mut run, &mut reference, addr, &due_tx, args.seconds / 6.0)
        } else {
            untraced(&mut run, &reference, addr, &due_tx)
        };
        drop(due_tx);
        let rebuilds = match writer {
            Some(h) => h
                .join()
                .map_err(|_| "writer thread panicked".to_string())??,
            None => Vec::new(),
        };
        measured.map(|m| (m, rebuilds))
    });
    let stats = server.shutdown();
    let (mut measured, rebuilds) = result?;
    run.attempted += rebuilds.len() as u64;
    run.failed += rebuilds.iter().filter(|r| !r.0).count() as u64;
    let mut rebuild_ms: Vec<f64> = rebuilds.iter().map(|r| r.1).collect();
    rebuild_ms.extend(&measured.tail_rebuild_ms);
    if stats.executor_panics > 0 {
        return Err(format!("{} executor panics", stats.executor_panics));
    }

    let m = &mut measured.metrics;
    if !args.trace {
        m.insert("setup_s", stats::median(&setup_s).unwrap_or(0.0));
        m.insert("ingest_p50_ms", stats::median(&rebuild_ms).unwrap_or(0.0));
        m.insert("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    }
    // Share of host CPU time the hypervisor gave to others during the run:
    // latency on a shared host moves with it.
    let steal = match (steal0, cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => f64::NAN,
    };
    let stamp = format!(
        "{{\"stamp\": {{\"host_steal_share\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"dds_threads\": {}, \"commit\": \"{}\", \"profile\": \"release\", \"base_rate\": {}, \"read_conns\": {}, \"limit_ms\": {}, \"write_period_s\": {}, \"setup_s\": [{}], \"rebuilds\": {}, {}}}}}",
        crate::json::num(steal),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::env::var("DDS_THREADS").map_or("null".into(), |v| crate::json::quote(&v)),
        commit(),
        run.plan.base_rate,
        run.plan.read_conns,
        run.plan.limit_ms,
        run.plan.write_period.map_or("null".into(), crate::json::num),
        setup_s.iter().map(|&s| crate::json::num(s)).collect::<Vec<_>>().join(", "),
        rebuild_ms.len(),
        measured.stamp,
    );
    Ok(Outcome {
        metrics: measured.metrics,
        attempted: run.attempted,
        failed: run.failed,
        stamp,
    })
}

/// What a measurement pass hands back.
struct Measured {
    metrics: BTreeMap<&'static str, f64>,
    /// Back-to-back rebuild latencies (ms), for workloads without a writer.
    tail_rebuild_ms: Vec<f64>,
    /// Extra stamp fields (`"key": value, …`).
    stamp: String,
}

fn readers(
    addr: SocketAddr,
    n: usize,
    traced: bool,
    epoch: Instant,
) -> Result<Vec<Reader>, String> {
    (0..n)
        .map(|_| {
            Ok(Reader {
                client: connect(addr)?,
                cold: Vec::new(),
                tracer: traced.then(|| Tracer::new(epoch)),
            })
        })
        .collect()
}

/// Warms every reader's session and, on hot workloads, the server's
/// caches with one pass over the hot shapes.
fn warm(run: &mut Run, readers: &mut [Reader]) -> Result<(), String> {
    for r in readers.iter_mut() {
        for _ in 0..8 {
            r.client.ping().map_err(|e| format!("warm-up ping: {e}"))?;
        }
        if !run.plan.cold {
            for shape in 0..HOT_SHAPES {
                run.attempted += 1;
                if !run.read(r, shape) {
                    run.failed += 1;
                }
            }
        }
    }
    Ok(())
}

/// Schedules writer rebuilds every `period` from `start` over `secs`.
fn schedule_writes(tx: &mpsc::Sender<Instant>, period: Option<f64>, start: Instant, secs: f64) {
    if let Some(p) = period {
        let n = (secs / p).round().max(1.0) as u32;
        for k in 0..n {
            let _ = tx.send(start + Duration::from_secs_f64(p * f64::from(k)));
        }
    }
}

fn untraced(
    run: &mut Run,
    reference: &ShardedEngine,
    addr: SocketAddr,
    due_tx: &mpsc::Sender<Instant>,
) -> Result<Measured, String> {
    let plan = run.plan.clone();
    let mut readers = readers(addr, plan.read_conns, false, Instant::now())?;
    warm(run, &mut readers)?;
    let n_base = (plan.base_rate * plan.base_secs).ceil() as usize;

    // Per-round samples.
    let mut query_rounds: Vec<Vec<f64>> = Vec::new();
    let mut control_rounds: Vec<Vec<f64>> = Vec::new();
    let mut lag_us = Vec::new();
    let mut backlog_max = 0;
    // Allocations and CPU seconds spent in the base and batch windows.
    let (mut base_cost, mut batch_cost) = ((0, 0.0), (0, 0.0));
    // Rung 0 is the base window; the ladder windows follow.
    let mut rung_rounds: Vec<Vec<Rung>> = vec![Vec::new(); plan.ladder_rates.len() + 1];
    let mut batch_rounds: Vec<(Vec<f64>, f64, f64)> = Vec::new();
    let mut batch_exprs = 0.0;
    if plan.cold {
        // Fill the mask caches before timing: cold reads evict from full
        // caches, and an empty cache would make the first round cheaper.
        let fill = run.batch_phase(
            &mut readers[0].client,
            Duration::from_secs(60),
            FILL_BATCHES,
        );
        if fill.failures() > 0 {
            return Err("cache fill failed".into());
        }
    }
    for _ in 0..plan.rounds {
        // Base window.
        schedule_writes(due_tx, plan.write_period, Instant::now(), plan.base_secs);
        let cost0 = cost_now()?;
        let base = run.open_phase(&mut readers, plan.base_rate, n_base, false);
        add_cost(&mut base_cost, cost0)?;
        let (q_us, c_us) = split_us(&base);
        query_rounds.push(q_us);
        control_rounds.push(c_us);
        lag_us.extend(base.lag_ns.iter().map(|&ns| ns as f64 / 1e3));
        backlog_max = backlog_max.max(base.backlog_max());
        rung_rounds[0].push(rung_of(&base, plan.base_rate, &plan));

        // Ladder windows at fixed rates.
        for (k, &rate) in plan.ladder_rates.iter().enumerate() {
            let n = (rate * plan.rung_secs).ceil() as usize;
            if plan.cold && run.cursor + n > run.inputs.cold.len() {
                return Err("ran out of never-repeated expressions".into());
            }
            schedule_writes(due_tx, plan.write_period, Instant::now(), plan.rung_secs);
            let s = run.open_phase(&mut readers, rate, n, false);
            rung_rounds[k + 1].push(rung_of(&s, rate, &plan));
        }

        // Batch window.
        let cost0 = cost_now()?;
        let batches = run.batch_phase(
            &mut readers[0].client,
            Duration::from_secs_f64(plan.batch_secs),
            usize::MAX,
        );
        add_cost(&mut batch_cost, cost0)?;
        let answered = (batches.ok.iter().filter(|&&ok| ok).count() * BATCH) as f64;
        batch_exprs += answered;
        let batch_ms = batches
            .latency_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        batch_rounds.push((batch_ms, answered, batches.wall.as_secs_f64()));
    }
    // One rung per rate: its best round, a passing one if any passed.
    let rungs: Vec<Rung> = rung_rounds
        .iter()
        .map(|rs| {
            *rs.iter()
                .min_by(|a, b| {
                    (!a.pass, a.tail_ms)
                        .partial_cmp(&(!b.pass, b.tail_ms))
                        .expect("finite tails")
                })
                .expect("one rung per round")
        })
        .collect();
    let round_p50 = |rounds: &[Vec<f64>]| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| stats::median(r).unwrap_or(f64::INFINITY))
            .collect()
    };
    let least = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let query_p50s = round_p50(&query_rounds);
    let batch_lat: Vec<Vec<f64>> = batch_rounds.iter().map(|b| b.0.clone()).collect();
    let batch_p50s = round_p50(&batch_lat);
    let throughputs: Vec<f64> = batch_rounds.iter().map(|b| b.1 / b.2).collect();
    let mut metrics = BTreeMap::new();
    metrics.insert("sustained_qps", load::sustained(&rungs, plan.limit_ms));
    // Per answered expression: of the base windows' single queries on hot
    // workloads, of the batch windows' expressions on cold-batch.
    let ((allocs, cpu_s), answered) = if plan.cold {
        (batch_cost, batch_exprs)
    } else {
        (base_cost, (plan.rounds * queries_in(n_base)) as f64)
    };
    metrics.insert("allocs_per_query", allocs as f64 / answered.max(1.0));
    metrics.insert("cpu_us_per_query", cpu_s * 1e6 / answered.max(1.0));

    // Back-to-back rebuilds where nothing writes beside the reads.
    let mut tail_rebuild_ms = Vec::new();
    for k in 0..plan.tail_rebuilds as u64 {
        let (s, v) = rebuild_target(k, plan.shards);
        let (repo, ids) = &run.inputs.shards[v][s];
        let t = Instant::now();
        let ok = readers[0].client.rebuild_shard(s, repo, ids).is_ok();
        tail_rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.attempted += 1;
        run.failed += u64::from(!ok);
    }

    // Answers: cold ones against the reference, and the reference
    // against ground truth.
    if plan.cold {
        run.failed += run.check_cold(reference, &readers);
    }
    let (precision, misses, pref_misses) = check_truth(run, reference);
    run.failed += misses;
    metrics.insert("precision", precision);

    let all = |rounds: &[Vec<f64>]| -> Vec<f64> { rounds.concat() };
    let json_list = |xs: &[f64]| {
        xs.iter()
            .map(|&x| crate::json::num(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rung_json: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\": {}, \"achieved\": {}, \"tail_ms\": {}, \"pass\": {}}}",
                crate::json::num(r.rate),
                crate::json::num(r.achieved),
                crate::json::num(r.tail_ms),
                r.pass
            )
        })
        .collect();
    let stamp = format!(
        "\"rounds\": {}, \"ladder\": [{}], \"query_p50_us\": {}, \"batch_p50_ms\": {}, \"exprs_per_s\": {}, \"query_p50_rounds\": [{}], \"batch_p50_rounds\": [{}], \"gen_lag_p99_us\": {}, \"gen_backlog_max\": {backlog_max}, \"tails\": {{{}, {}, {}}}, \"truth_misses\": {misses}, \"pref_misses\": {pref_misses}",
        plan.rounds,
        rung_json.join(", "),
        crate::json::num(least(&query_p50s)),
        crate::json::num(least(&batch_p50s)),
        crate::json::num(throughputs.iter().copied().fold(0.0, f64::max)),
        json_list(&query_p50s),
        json_list(&batch_p50s),
        crate::json::num(tail_value(&lag_us)),
        tail_json("query_p99_us", &all(&query_rounds)),
        tail_json("control_p99_us", &all(&control_rounds)),
        tail_json("batch_p99_ms", &all(&batch_lat)),
    );
    Ok(Measured {
        metrics,
        tail_rebuild_ms,
        stamp,
    })
}

/// A window at a fixed rate as a ladder rung.
fn rung_of(s: &LoopSamples, rate: f64, plan: &Plan) -> Rung {
    let (q, _) = split_us(s);
    let tail_ms = tail_value(&q) / 1e3;
    Rung {
        rate,
        achieved: s.ok.len() as f64 / s.wall.as_secs_f64(),
        tail_ms,
        pass: s.failures() == 0
            && tail_ms <= plan.limit_ms
            && !load::backlog_growing(&s.backlog, plan.read_conns),
    }
}

/// Percentile-range literals and preference literals of `exprs`.
fn literals(exprs: &[LogicalExpr]) -> (Vec<Predicate>, Vec<Predicate>) {
    let mut ptile = Vec::new();
    let mut pref = Vec::new();
    for e in exprs {
        for clause in e.to_dnf() {
            for p in clause {
                match p.measure {
                    MeasureFunction::Percentile(_) => ptile.push(p),
                    MeasureFunction::TopK { .. } => pref.push(p),
                }
            }
        }
    }
    (ptile, pref)
}

fn stats_delta(a: &ServerStats, b: &ServerStats) -> ServerStats {
    ServerStats {
        jobs_completed: b.jobs_completed - a.jobs_completed,
        busy_rejections: b.busy_rejections - a.busy_rejections,
        buffers_reused: b.buffers_reused - a.buffers_reused,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        shards_routed_past: b.shards_routed_past - a.shards_routed_past,
        shards_routed_by_synopsis: b.shards_routed_by_synopsis - a.shards_routed_by_synopsis,
        queries: b.queries - a.queries,
        batch_exprs: b.batch_exprs - a.batch_exprs,
        ..ServerStats::default()
    }
}

/// Median (µs) of the samples histogram `b` holds beyond `a`, placed
/// linearly inside its log₂ bucket (the bucket's own bounds are the
/// resolution the `Metrics` op offers).
fn hist_delta_p50_us(a: &HistogramSnapshot, b: &HistogramSnapshot) -> f64 {
    let counts: Vec<u64> = b.counts.iter().zip(&a.counts).map(|(n, o)| n - o).collect();
    let total: u64 = counts.iter().sum();
    let rank = total.div_ceil(2).max(1) as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && seen + c as f64 >= rank {
            let (lo, hi) = bucket_bounds(i);
            return (lo as f64 + (hi - lo) as f64 * (rank - seen) / c as f64) / 1e3;
        }
        seen += c as f64;
    }
    0.0
}

/// The traced pass: four base-rate windows of `window_secs`, alternately
/// untraced and traced, then timed calls into each layer in-process.
fn traced(
    run: &mut Run,
    reference: &mut ShardedEngine,
    addr: SocketAddr,
    due_tx: &mpsc::Sender<Instant>,
    window_secs: f64,
) -> Result<Measured, String> {
    let plan = run.plan.clone();
    let epoch = Instant::now();
    let mut readers = readers(addr, plan.read_conns, true, epoch)?;
    warm(run, &mut readers)?;
    let mut metrics = BTreeMap::new();
    let n = (plan.base_rate * window_secs).ceil() as usize;

    // Base windows, alternately untraced and traced: the difference of
    // their medians is the tracing overhead. Server counters are taken
    // over all four (tracing is client-side and leaves them alone).
    let admin = |r: &mut Reader| -> Result<(ServerStats, MetricsReport), String> {
        Ok((
            r.client.stats().map_err(|e| format!("stats: {e}"))?,
            r.client.metrics().map_err(|e| format!("metrics: {e}"))?,
        ))
    };
    let (s0, m0) = admin(&mut readers[0])?;
    let overlapped0 = run.writes.overlapped.load(Ordering::Relaxed);
    let (mut plain_q, mut traced_q, mut lag_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut backlog_max = 0;
    for traced_window in [false, true, false, true] {
        schedule_writes(due_tx, plan.write_period, Instant::now(), window_secs);
        let w = run.open_phase(&mut readers, plan.base_rate, n, traced_window);
        let (q, _) = split_us(&w);
        if traced_window {
            traced_q.extend(q);
        } else {
            plain_q.extend(q);
            lag_us.extend(w.lag_ns.iter().map(|&ns| ns as f64 / 1e3));
            backlog_max = backlog_max.max(w.backlog_max());
        }
    }
    let (s1, m1) = admin(&mut readers[0])?;
    let d = stats_delta(&s0, &s1);
    metrics.insert(
        "ingest.read_overlap_ratio",
        (run.writes.overlapped.load(Ordering::Relaxed) - overlapped0) as f64
            / (4 * queries_in(n)) as f64,
    );
    metrics.insert("gen.lag_p99_us", tail_value(&lag_us));
    metrics.insert("gen.backlog_max", backlog_max as f64);
    metrics.insert(
        "trace.overhead_us",
        stats::median(&traced_q).unwrap_or(0.0) - stats::median(&plain_q).unwrap_or(0.0),
    );
    metrics.insert("server.jobs", d.jobs_completed as f64);
    metrics.insert("server.busy_rejects", d.busy_rejections as f64);
    metrics.insert("server.buffers_reused", d.buffers_reused as f64);
    metrics.insert(
        "server.queue_p50_us",
        hist_delta_p50_us(&m0.queue, &m1.queue),
    );
    metrics.insert(
        "server.execute_p50_us",
        hist_delta_p50_us(&m0.execute, &m1.execute),
    );
    let lookups = (d.cache_hits + d.cache_misses).max(1) as f64;
    metrics.insert("cache.hit_ratio", d.cache_hits as f64 / lookups);
    let units = ((d.queries + d.batch_exprs) * plan.shards as u64).max(1) as f64;
    metrics.insert(
        "routing.skip_ratio",
        (d.shards_routed_past + d.shards_routed_by_synopsis) as f64 / units,
    );
    let mut tracer = Tracer::new(epoch);
    for r in readers.iter_mut() {
        tracer.absorb(r.tracer.take().expect("traced reader"));
    }
    metrics.insert(
        "client.rtt_p50_us",
        stats::median(&tracer.durations_ns("client.rtt")).unwrap_or(0.0) / 1e3,
    );
    metrics.insert(
        "wire.encode_ns",
        stats::median(&tracer.durations_ns("wire.encode")).unwrap_or(0.0),
    );

    // Expressions for the in-process calls (see `Run::fresh`).
    let sample = run.fresh(128);
    let req = u64::MAX / 2;

    // Wire: request and response frames of the sample.
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    for (i, e) in sample.iter().enumerate() {
        let r = req + i as u64;
        let (_, payload) = Request::Query(e.clone()).encode();
        req_bytes.push(payload.len() as f64);
        let (op, payload) = Response::Hits(reference.query(e)).encode();
        resp_bytes.push(payload.len() as f64);
        tracer.span("wire.decode", None, r, || {
            std::hint::black_box(Response::decode(op, &payload)).is_ok()
        });
    }
    metrics.insert("wire.req_bytes", stats::mean(&req_bytes).unwrap_or(0.0));
    metrics.insert("wire.resp_bytes", stats::mean(&resp_bytes).unwrap_or(0.0));
    metrics.insert(
        "wire.decode_ns",
        stats::median(&tracer.durations_ns("wire.decode")).unwrap_or(0.0),
    );

    // Shard layer: plan, warm single query, batch; allocations per query.
    let fresh = run.fresh(128);
    for (i, e) in fresh.iter().enumerate() {
        let r = req + i as u64;
        tracer.span("shard.plan", None, r, || {
            std::hint::black_box((
                reference.schema_check(std::slice::from_ref(e)).is_ok(),
                e.to_dnf(),
            ))
        });
    }
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    for (i, e) in fresh.iter().enumerate() {
        tracer.span("shard.query", None, req + i as u64, || {
            std::hint::black_box(reference.query(e)).is_ok()
        });
    }
    let shard_allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    metrics.insert(
        "shard.allocs_per_query",
        shard_allocs as f64 / fresh.len().max(1) as f64,
    );
    metrics.insert(
        "shard.plan_ns",
        stats::median(&tracer.durations_ns("shard.plan")).unwrap_or(0.0),
    );
    let inproc_us = stats::median(&tracer.durations_ns("shard.query")).unwrap_or(0.0) / 1e3;
    metrics.insert("shard.query_p50_us", inproc_us);
    metrics.insert(
        "server.overhead_ratio",
        stats::median(&plain_q).unwrap_or(0.0) / inproc_us.max(1e-3),
    );
    let batches = run.fresh(128);
    for (i, chunk) in batches.chunks(BATCH).enumerate() {
        tracer.span("shard.batch", None, req + i as u64, || {
            std::hint::black_box(reference.query_batch(chunk)).len()
        });
    }
    metrics.insert(
        "shard.batch_p50_us",
        stats::median(&tracer.durations_ns("shard.batch")).unwrap_or(0.0) / 1e3,
    );

    // Pool: the cost of one fan-out over the shards with no work, and the
    // batch speed-up the default pool gives over a serial scatter (cold
    // caches before every timing on cold workloads).
    let units: Vec<usize> = (0..plan.shards).collect();
    let default_pool = BuildOptions::default();
    metrics.insert(
        "pool.spawn_us",
        median_us(201, || {
            std::hint::black_box(par_map_with(&default_pool, &units, || (), |_, _, &u| u));
        }),
    );
    let invalidate = || {
        if run.plan.cold {
            (0..plan.shards).for_each(|s| reference.shard_engine(s).mask_cache().invalidate());
        }
    };
    let batch = &batches[..BATCH.min(batches.len())];
    let mut serial_us = Vec::new();
    let mut pooled_us = Vec::new();
    for _ in 0..5 {
        invalidate();
        let t = Instant::now();
        std::hint::black_box(reference.query_batch_opts(batch, &BuildOptions::serial()));
        serial_us.push(us(t.elapsed()));
        invalidate();
        let t = Instant::now();
        std::hint::black_box(reference.query_batch_opts(batch, &default_pool));
        pooled_us.push(us(t.elapsed()));
    }
    metrics.insert(
        "pool.fanout_speedup",
        stats::median(&serial_us).unwrap_or(0.0)
            / stats::median(&pooled_us).unwrap_or(1.0).max(1e-3),
    );

    // Routing: the synopsis mass bound per (percentile literal, shard).
    let (ptile, pref) = literals(&sample);
    let mut bound_ns = Vec::new();
    for p in ptile.iter().take(64) {
        let MeasureFunction::Percentile(rect) = &p.measure else {
            continue;
        };
        let rect: Vec<(f64, f64)> = (0..rect.dim())
            .map(|h| (rect.lo_at(h), rect.hi_at(h)))
            .collect();
        for s in 0..plan.shards {
            if let Some(syn) = reference.shard_engine(s).routing_synopsis() {
                let t = Instant::now();
                for _ in 0..64 {
                    std::hint::black_box(syn.mass_bound(std::hint::black_box(&rect)));
                }
                bound_ns.push(t.elapsed().as_nanos() as f64 / 64.0);
            }
        }
    }
    metrics.insert(
        "routing.mass_bound_ns",
        stats::median(&bound_ns).unwrap_or(0.0),
    );

    // Kernels and cache: one shard unit with its mask cache invalidated,
    // then the same unit again from the cache; single literals through
    // the uncached index path.
    let serial = BuildOptions::serial();
    let mut unit_us = Vec::new();
    let mut hit_us = Vec::new();
    for (i, e) in fresh.iter().take(64).enumerate() {
        let s = i % plan.shards;
        let engine = reference.shard_engine(s);
        engine.mask_cache().invalidate();
        let one = std::slice::from_ref(e);
        let t = Instant::now();
        std::hint::black_box(engine.query_batch_opts(one, &serial));
        unit_us.push(us(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(engine.query_batch_opts(one, &serial));
        hit_us.push(us(t.elapsed()));
    }
    metrics.insert("kernel.unit_us", stats::median(&unit_us).unwrap_or(0.0));
    metrics.insert("cache.hit_unit_us", stats::median(&hit_us).unwrap_or(0.0));
    let kernel = |preds: &[Predicate]| {
        let times: Vec<f64> = preds
            .iter()
            .take(64)
            .enumerate()
            .map(|(i, p)| {
                let engine = reference.shard_engine(i % plan.shards);
                let expr = LogicalExpr::Pred(p.clone());
                let t = Instant::now();
                let _ = std::hint::black_box(engine.query(&expr));
                us(t.elapsed())
            })
            .collect();
        stats::median(&times).unwrap_or(0.0)
    };
    metrics.insert("kernel.ptile_us", kernel(&ptile));
    metrics.insert("kernel.pref_us", kernel(&pref));

    // Answers of the traced run: cold ones against the reference, and the
    // reference against ground truth (before the rebuilds below change it).
    if run.plan.cold {
        run.failed += run.check_cold(reference, &readers);
    }
    let (_, misses, pref_misses) = check_truth(run, reference);
    run.failed += misses;

    // Ingest: the frame a rebuild sends and the in-process build time of
    // the same content (rebuilt to the alternative and back).
    let (repo1, ids1) = &run.inputs.shards[1][0];
    let (_, frame) = Request::RebuildShard {
        shard: 0,
        request_id: 0,
        datasets: repo1.datasets().to_vec(),
        global_ids: ids1.clone(),
    }
    .encode();
    metrics.insert("ingest.frame_mb", frame.len() as f64 / 1e6);
    let mut build_ms = Vec::new();
    for v in [1, 0] {
        let (repo, ids) = &run.inputs.shards[v][0];
        let t = Instant::now();
        reference
            .try_rebuild_shard(0, repo, ids)
            .map_err(|e| format!("in-process rebuild: {e}"))?;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    metrics.insert("ingest.build_ms", stats::median(&build_ms).unwrap_or(0.0));

    let _ = std::fs::create_dir_all(SPAN_DIR);
    let path = format!("{SPAN_DIR}/spans-{}.jsonl", run.name);
    std::fs::File::create(&path)
        .and_then(|mut f| tracer.write_jsonl(&mut f))
        .map_err(|e| format!("write {path}: {e}"))?;
    Ok(Measured {
        metrics,
        tail_rebuild_ms: Vec::new(),
        stamp: format!(
            "\"spans\": {}, \"span_file\": {}, \"truth_misses\": {misses}, \"pref_misses\": {pref_misses}",
            tracer.spans().len(),
            crate::json::quote(&path)
        ),
    })
}

/// Where traced runs write their spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".servebench";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_ops_alternate_ping_and_stats() {
        let c = CONTROL_EVERY;
        let ops: Vec<Op> = (0..12 * c).map(op).collect();
        assert_eq!(ops[c - 1], Op::Ping);
        assert_eq!(ops[2 * c - 1], Op::Stats);
        assert_eq!(ops[3 * c - 1], Op::Ping);
        assert_eq!(ops[c], Op::Query(c - 1));
        assert_eq!(queries_in(12 * c), 12 * (c - 1));
        let queries: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Query(q) => Some(*q),
                _ => None,
            })
            .collect();
        // Queries are numbered consecutively across the control slots.
        assert_eq!(queries, (0..12 * (c - 1)).collect::<Vec<_>>());
    }

    #[test]
    fn rebuild_rotation_flips_each_shard_in_turn() {
        // Four shards: rebuilds 0..4 install version 1, 4..8 version 0.
        let targets: Vec<(usize, usize)> = (0..9).map(|k| rebuild_target(k, 4)).collect();
        assert_eq!(targets[0], (0, 1));
        assert_eq!(targets[3], (3, 1));
        assert_eq!(targets[4], (0, 0));
        assert_eq!(targets[8], (0, 1));
        for k in 0..20u64 {
            for s in 0..4 {
                // Replaying the rotation agrees with the closed form.
                let v = (0..k)
                    .rfind(|&j| rebuild_target(j, 4).0 == s)
                    .map_or(0, |j| rebuild_target(j, 4).1);
                assert_eq!(version_after(k, s, 4), v, "k {k} shard {s}");
            }
        }
    }

    #[test]
    fn expect_accepts_any_state_in_the_window() {
        let expect = Expect {
            states: (0..4).map(|k| vec![Ok(vec![k as u64])]).collect(),
        };
        assert!(expect.matches(0, 2, 2, &Ok(vec![2])));
        assert!(!expect.matches(0, 2, 2, &Ok(vec![3])));
        assert!(expect.matches(0, 1, 3, &Ok(vec![3])));
        // States repeat with the rotation's period.
        assert!(expect.matches(0, 5, 5, &Ok(vec![1])));
        assert!(expect.matches(0, 0, 100, &Ok(vec![0])));
    }

    #[test]
    fn digests_tell_answers_apart() {
        assert_eq!(digest(&Ok(vec![1, 2])), digest(&Ok(vec![1, 2])));
        assert_ne!(digest(&Ok(vec![1, 2])), digest(&Ok(vec![2, 1])));
        assert_ne!(digest(&Ok(vec![])), digest(&Ok(vec![0])));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("warm"), None);
    }
}
