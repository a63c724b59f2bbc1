//! Criterion micro-benchmarks for the substrates: orthogonal search
//! backends (A2 companion), dynamic updates (E9), the exact 1-d
//! structure (E4), the worker pool behind the parallel builds, the
//! batch query API (E12 companion), and the sharded scatter/gather
//! path (E14 companion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_bench::experiments::setup::{clustered_workload, mixed_workload, ptile_queries};
use dds_core::engine::MixedQueryEngine;
use dds_core::framework::{Interval, LogicalExpr, Predicate, Repository};
use dds_core::pool::{mix_seed, par_map, BuildOptions};
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::{DynamicPtileIndex, ExactCPtile1D, PtileBuildParams};
use dds_core::scratch::QueryScratch;
use dds_core::shard::ShardedEngine;
use dds_rangetree::{BruteForce, BuildableIndex, KdTree, OrthoIndex, RangeTree, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_lifted(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lo = rng.gen_range(0.0..100.0);
            let hi = lo + rng.gen_range(0.0..20.0);
            vec![lo, hi, rng.gen_range(0.0..1.0)]
        })
        .collect()
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ortho_backend_report");
    group.sample_size(30);
    let n = 100_000;
    let pts = random_lifted(n, 0xA2);
    let kd = KdTree::build(3, pts.clone());
    let rt = RangeTree::build(3, pts.clone());
    let brute = BruteForce::build(3, pts);
    let region = Region::all(3)
        .with_lo(0, 30.0, false)
        .with_hi(1, 45.0, false)
        .with_lo(2, 0.8, false);
    group.bench_function(BenchmarkId::new("kdtree", n), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            kd.report(&region, &mut out);
            out
        })
    });
    group.bench_function(BenchmarkId::new("rangetree", n), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            rt.report(&region, &mut out);
            out
        })
    });
    group.bench_function(BenchmarkId::new("bruteforce", n), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            brute.report(&region, &mut out);
            out
        })
    });
    group.finish();
}

fn bench_dynamic_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_ptile");
    group.sample_size(10);
    let wl = clustered_workload(1000, 300, 1, 0xE9);
    let extra = clustered_workload(64, 300, 1, 0xE9 + 1);
    group.bench_function("insert_synopsis", |b| {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::default().with_rect_budget(496));
        for s in &wl.synopses {
            idx.insert_synopsis(s);
        }
        let mut i = 0;
        b.iter(|| {
            let h = idx.insert_synopsis(&extra.synopses[i % extra.synopses.len()]);
            i += 1;
            idx.remove_synopsis(h)
        })
    });
    group.finish();
}

fn bench_exact1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_cptile_1d");
    group.sample_size(20);
    let wl = mixed_workload(4000, 200, 1, 0xE4);
    let repo = Repository::from_point_sets(wl.sets.clone());
    let idx = ExactCPtile1D::build(&repo, Interval::new(0.3, 0.7));
    group.bench_function("query_n4000", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let lo = (i % 80) as f64;
            i += 1;
            idx.query(lo, lo + 10.0)
        })
    });
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("worker_pool_par_map");
    group.sample_size(20);
    // A build-shaped work unit: seed an RNG per item, draw a few hundred
    // values, sort — roughly one dataset coreset's worth of CPU.
    let items: Vec<u64> = (0..256).collect();
    let unit = |i: usize, &seed: &u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
        let mut xs: Vec<f64> = (0..512).map(|_| rng.gen_range(0.0..1.0)).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    for threads in [1usize, 2, 4, 8] {
        let opts = BuildOptions::with_threads(threads);
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| par_map(&opts, &items, unit))
        });
    }
    // Spawn/merge overhead floor: trivial units, many threads.
    group.bench_function("overhead_trivial_units", |b| {
        let opts = BuildOptions::with_threads(8);
        b.iter(|| par_map(&opts, &items, |i, x| x + i as u64))
    });
    group.finish();
}

fn bench_batch_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_query");
    group.sample_size(10);
    let wl = mixed_workload(1000, 300, 1, 0xB12);
    let repo = Repository::from_point_sets(wl.sets.clone());
    let engine = MixedQueryEngine::build(
        &repo,
        &[1],
        PtileBuildParams::default().with_rect_budget(496),
        PrefBuildParams::exact_centralized().with_eps(0.05),
    );
    let qs = ptile_queries(&wl, 16, 10, engine.ptile_slack() / 2.0, 0xB12 + 1);
    let exprs: Vec<LogicalExpr> = (0..128)
        .map(|i| {
            let q = &qs[i % qs.len()];
            LogicalExpr::Or(vec![
                LogicalExpr::And(vec![
                    LogicalExpr::Pred(Predicate::percentile(q.rect.clone(), q.theta)),
                    LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, 40.0)),
                ]),
                LogicalExpr::Pred(Predicate::percentile_at_least(q.rect.clone(), q.a)),
            ])
        })
        .collect();
    // Baseline: the naive sequential loop (fresh scratch per query).
    group.bench_function("sequential_fresh_scratch", |b| {
        b.iter(|| exprs.iter().map(|e| engine.query(e)).collect::<Vec<_>>())
    });
    // Sequential loop with one reused scratch (allocation-free inner state).
    group.bench_function("sequential_reused_scratch", |b| {
        b.iter(|| {
            let mut scratch = QueryScratch::new();
            exprs
                .iter()
                .map(|e| engine.query_with(e, &mut scratch))
                .collect::<Vec<_>>()
        })
    });
    // The batch API: shared mask cache + per-worker scratch over the pool.
    // The cache is cross-call since PR 4, so each iteration invalidates it
    // first: these rows measure cold batch execution (comparable to the
    // sequential baselines, which bypass the cache); warm-cache behaviour
    // is the sharded_query group's `_warm` rows.
    for threads in [1usize, 2, 4, 8] {
        let opts = BuildOptions::with_threads(threads);
        group.bench_function(BenchmarkId::new("query_batch_threads", threads), |b| {
            b.iter(|| {
                engine.mask_cache().invalidate();
                engine.query_batch_opts(&exprs, &opts)
            })
        });
    }
    group.finish();
}

fn bench_sharded_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_query");
    group.sample_size(10);
    let n = 1000;
    let spec = dds_workload::RepoSpec::mixed(n, 300, 1, 0xB12);
    let wl = mixed_workload(n, 300, 1, 0xB12);
    let params = || PtileBuildParams::default().with_rect_budget(496);
    let pref = || PrefBuildParams::exact_centralized().with_eps(0.05);
    let unsharded = MixedQueryEngine::build(
        &Repository::from_point_sets(wl.sets.clone()),
        &[1],
        params(),
        pref(),
    );
    let qs = ptile_queries(&wl, 16, 10, unsharded.ptile_slack() / 2.0, 0xB12 + 1);
    let exprs: Vec<LogicalExpr> = (0..128)
        .map(|i| {
            let q = &qs[i % qs.len()];
            LogicalExpr::Or(vec![
                LogicalExpr::And(vec![
                    LogicalExpr::Pred(Predicate::percentile(q.rect.clone(), q.theta)),
                    LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, 40.0)),
                ]),
                LogicalExpr::Pred(Predicate::percentile_at_least(q.rect.clone(), q.a)),
            ])
        })
        .collect();
    // Unsharded reference: the same batch through one engine.
    group.bench_function("unsharded_batch", |b| {
        b.iter(|| unsharded.query_batch_opts(&exprs, &BuildOptions::with_threads(4)))
    });
    // The scatter/gather path at a few shard counts; steady-state (warm
    // cross-call caches) is the read-mostly service regime.
    for shards in [2usize, 4, 8] {
        let mut svc = ShardedEngine::new(&[1], params(), pref());
        for shard in spec.shards(shards) {
            svc.add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids);
        }
        let _ = svc.query_batch_opts(&exprs, &BuildOptions::with_threads(4));
        group.bench_function(BenchmarkId::new("sharded_batch_warm", shards), |b| {
            b.iter(|| svc.query_batch_opts(&exprs, &BuildOptions::with_threads(4)))
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    let n = 1000;
    let spec = dds_workload::RepoSpec::mixed(n, 300, 1, 0xE18);
    let params = || {
        PtileBuildParams::default()
            .with_rect_budget(496)
            .with_phi_datasets(n)
    };
    let pref = || PrefBuildParams::exact_centralized().with_eps(0.05);
    // Selective traffic (narrow interior rectangles, θ lower bound far
    // above the sampling margin): the regime the mass bound prunes.
    let exprs: Vec<LogicalExpr> =
        dds_workload::RequestStreamSpec::selective(128, 0xE18).exprs(&spec);
    for shards in [2usize, 8] {
        let build = |route: bool| {
            let mut svc = ShardedEngine::new(&[1], params(), pref()).with_routing(route);
            for shard in spec.shards(shards) {
                svc.add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids);
            }
            // Warm the caches: these rows compare steady-state routing,
            // not first-touch mask computation.
            let _ = svc.query_batch_opts(&exprs, &BuildOptions::with_threads(4));
            svc
        };
        let unrouted = build(false);
        group.bench_function(BenchmarkId::new("unrouted_warm", shards), |b| {
            b.iter(|| unrouted.query_batch_opts(&exprs, &BuildOptions::with_threads(4)))
        });
        let routed = build(true);
        group.bench_function(BenchmarkId::new("routed_warm", shards), |b| {
            b.iter(|| routed.query_batch_opts(&exprs, &BuildOptions::with_threads(4)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_backends,
    bench_dynamic_insert,
    bench_exact1d,
    bench_pool,
    bench_batch_query,
    bench_sharded_query,
    bench_routing
);
criterion_main!(benches);
