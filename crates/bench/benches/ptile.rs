//! Criterion micro-benchmarks for the Ptile structures (E1/E3/E5/A3
//! companions; the `experiments` binary prints the paper-style tables).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_bench::experiments::setup::{clustered_workload, ptile_queries};
use dds_core::baseline::LinearScanPtile;
use dds_core::framework::{Interval, Repository};
use dds_core::ptile::{PtileBuildParams, PtileMultiIndex, PtileRangeIndex, PtileThresholdIndex};

fn params() -> PtileBuildParams {
    PtileBuildParams::default().with_rect_budget(496)
}

fn bench_threshold_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("ptile_threshold_query");
    group.sample_size(20);
    for n in [1000usize, 4000] {
        let wl = clustered_workload(n, 300, 1, 0xBE);
        let idx = PtileThresholdIndex::build(&wl.synopses, params());
        let queries = ptile_queries(&wl, 8, 10, idx.margin(), 0xBE + 1);
        group.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                idx.query(&q.rect, q.a)
            })
        });
        let repo = Repository::from_point_sets(wl.sets.clone());
        let scan = LinearScanPtile::build(&repo);
        group.bench_with_input(BenchmarkId::new("linear_scan", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                scan.query(&q.rect, Interval::new(q.a, 1.0))
            })
        });
    }
    group.finish();
}

fn bench_range_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("ptile_range_query");
    group.sample_size(20);
    for n in [1000usize, 4000] {
        let wl = clustered_workload(n, 300, 1, 0xBF);
        let idx = PtileRangeIndex::build(&wl.synopses, params());
        let queries = ptile_queries(&wl, 8, 10, idx.margin(), 0xBF + 1);
        group.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                idx.query(&q.rect, q.theta)
            })
        });
    }
    group.finish();
}

fn bench_multi_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("ptile_multi_query_m2");
    group.sample_size(10);
    let n = 500;
    let wl = clustered_workload(n, 200, 1, 0xC0);
    let p = PtileBuildParams::default()
        .with_rect_budget(4096)
        .with_empirical_eps(0.2);
    let idx = PtileMultiIndex::build(&wl.synopses, 2, p);
    let queries = ptile_queries(&wl, 8, 15, idx.margin(), 0xC0 + 1);
    group.bench_function("conjunction", |b| {
        let mut i = 0;
        b.iter(|| {
            let q1 = &queries[i % queries.len()];
            let q2 = &queries[(i + 1) % queries.len()];
            i += 1;
            idx.query(&[(q1.rect.clone(), q1.theta), (q2.rect.clone(), q2.theta)])
        })
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ptile_build");
    group.sample_size(10);
    let wl = clustered_workload(500, 300, 1, 0xC1);
    group.bench_function("threshold_n500", |b| {
        b.iter(|| PtileThresholdIndex::build(&wl.synopses, params()))
    });
    group.bench_function("range_n500", |b| {
        b.iter(|| PtileRangeIndex::build(&wl.synopses, params()))
    });
    // The served shard shape: 30 datasets of 100–200 points in d = 2 at
    // the default budget (10 grid coordinates per axis, 3,025 canonical
    // rectangles per dataset). `range_n500` is 1-D.
    let shard = clustered_workload(30, 200, 2, 0xC2);
    group.bench_function("range_d2_shard", |b| {
        b.iter(|| PtileRangeIndex::build(&shard.synopses, PtileBuildParams::exact_centralized()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_threshold_query,
    bench_range_query,
    bench_multi_query,
    bench_construction
);
criterion_main!(benches);
