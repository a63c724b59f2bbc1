//! E8 / E9 / E10 — space & preprocessing scaling, dynamic updates, and
//! enumeration delay.

use super::setup::{ball_workload, clustered_workload, mixed_workload, ptile_queries};
use super::Scale;
use crate::alloc::count_allocations;
use crate::table::{fmt_bytes, fmt_duration, Table};
use crate::timing::{median_duration, time};
use dds_core::delay::DelayRecorder;
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{
    DynamicPtileIndex, PtileBuildParams, PtileMultiIndex, PtileRangeIndex, PtileThresholdIndex,
};
use std::time::Duration;

/// Ceiling on heap allocations per dataset of a serial range-index build
/// (E8's `rng allocs/ds` column). The build allocates per dataset — the
/// weight sample (one `Point` each), its sorted axes, the grid, one
/// prefix-count table and the lifted rows — and per kd-tree, never per
/// canonical rectangle: on E8's 1-D repositories (up to 300 points and 496
/// rectangles per dataset) it measures ≈240, where a path that allocates a
/// `Rect`, a one-step expansion and a lifted `Vec` per rectangle measured
/// ≈4,400.
const RANGE_BUILD_ALLOCS_PER_DATASET_CEILING: u64 = 500;

fn bench_params() -> PtileBuildParams {
    // Budget 496 ⇒ 31 grid coordinates per dimension; with the decoupled
    // 512-point weight sample the measured per-dataset budgets land around
    // ε_i ≈ 0.18 (sampling ≈ 0.11 + grid gaps ≈ 0.07) — provable margins,
    // no empirical override needed.
    PtileBuildParams::default().with_rect_budget(496)
}

/// E8 — Õ(N) space and preprocessing (Lemmas 4.3, 4.10, 5.3) plus
/// worker-pool build scaling: per repository size N the four build paths are
/// timed serially (`threads = 1`), then the largest N is rebuilt with
/// threads ∈ {2, 4, 8}. Parallel builds are bit-identical to serial ones,
/// so the bytes columns double as a determinism check (they must not move
/// across the thread sweep) and "speedup" is the serial total build time
/// over this row's total. "rng allocs/ds" is the range build's measured
/// heap allocations per dataset (counting allocator); serial rows ASSERT
/// it stays under `RANGE_BUILD_ALLOCS_PER_DATASET_CEILING`, a
/// host-independent gate against per-rectangle allocation.
pub fn e8_construction_scaling(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8 — space & preprocessing vs N and threads (Lemmas 4.3 / 4.10 / 5.3; worker-pool build)",
        &[
            "N",
            "threads",
            "thr build",
            "rng build",
            "pref build",
            "multi build",
            "total",
            "speedup",
            "rng allocs/ds",
            "thr lifted",
            "thr bytes",
            "rng bytes",
            "pref bytes",
        ],
    );
    let sweep = scale.n_sweep();
    let n_max = *sweep.iter().max().expect("non-empty N sweep");
    let mut serial_total_at_max = Duration::ZERO;
    for n in sweep {
        let row = e8_build_row(n, &BuildOptions::serial());
        if n == n_max {
            serial_total_at_max = row.total;
        }
        table.row(row.cells(1.0));
    }
    for threads in [2usize, 4, 8] {
        let row = e8_build_row(n_max, &BuildOptions::with_threads(threads));
        let speedup = serial_total_at_max.as_secs_f64() / row.total.as_secs_f64().max(1e-12);
        table.row(row.cells(speedup));
    }
    table
}

/// One E8 configuration: all four build paths under one pool configuration.
struct E8Row {
    n: usize,
    threads: usize,
    t_thr: Duration,
    t_rng: Duration,
    t_pref: Duration,
    t_multi: Duration,
    total: Duration,
    /// Heap allocations of the range build per dataset, when counted.
    rng_allocs_per_dataset: Option<u64>,
    thr_lifted: usize,
    thr_bytes: usize,
    rng_bytes: usize,
    pref_bytes: usize,
}

impl E8Row {
    fn cells(&self, speedup: f64) -> Vec<String> {
        vec![
            self.n.to_string(),
            self.threads.to_string(),
            fmt_duration(self.t_thr),
            fmt_duration(self.t_rng),
            fmt_duration(self.t_pref),
            fmt_duration(self.t_multi),
            fmt_duration(self.total),
            format!("{speedup:.2}x"),
            self.rng_allocs_per_dataset
                .map_or_else(|| "n/a".to_string(), |a| a.to_string()),
            self.thr_lifted.to_string(),
            fmt_bytes(self.thr_bytes),
            fmt_bytes(self.rng_bytes),
            fmt_bytes(self.pref_bytes),
        ]
    }
}

fn e8_build_row(n: usize, opts: &BuildOptions) -> E8Row {
    let wl = mixed_workload(n, 300, 1, 0xE8);
    let (thr, t_thr) = time(|| PtileThresholdIndex::build_opts(&wl.synopses, bench_params(), opts));
    let ((rng_idx, t_rng), rng_allocs) = count_allocations(|| {
        time(|| PtileRangeIndex::build_opts(&wl.synopses, bench_params(), opts))
    });
    let rng_allocs_per_dataset = rng_allocs.map(|a| a / n as u64);
    if let (1, Some(per_dataset)) = (opts.threads, rng_allocs_per_dataset) {
        assert!(
            per_dataset <= RANGE_BUILD_ALLOCS_PER_DATASET_CEILING,
            "E8: serial range build allocates {per_dataset} times per dataset at N = {n} \
             (ceiling {RANGE_BUILD_ALLOCS_PER_DATASET_CEILING})"
        );
    }
    let (_multi, t_multi) =
        time(|| PtileMultiIndex::build_opts(&wl.synopses, 2, bench_params(), opts));
    let ball = ball_workload(n, 200, 2, 0xE8 + 1);
    let (pref, t_pref) = time(|| {
        PrefIndex::build_opts(
            &ball.synopses,
            5,
            PrefBuildParams::exact_centralized().with_eps(0.05),
            opts,
        )
    });
    E8Row {
        n,
        threads: opts.threads,
        t_thr,
        t_rng,
        t_pref,
        t_multi,
        total: t_thr + t_rng + t_pref + t_multi,
        rng_allocs_per_dataset,
        thr_lifted: thr.lifted_points(),
        thr_bytes: thr.memory_bytes(),
        rng_bytes: rng_idx.memory_bytes(),
        pref_bytes: pref.memory_bytes(),
    }
}

/// E9 — Remark 1: dynamic synopsis insertion/deletion cost vs full rebuild.
pub fn e9_dynamic_updates(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9 — dynamic updates (Remark 1): per-op cost vs full rebuild",
        &[
            "N base",
            "insert avg",
            "remove avg",
            "query/q",
            "rebuild (static)",
        ],
    );
    let sweep = if scale.quick {
        vec![500]
    } else {
        vec![2000, 8000]
    };
    for n in sweep {
        let wl = clustered_workload(n, 300, 1, 0xE9);
        let mut dynamic = DynamicPtileIndex::new(1, bench_params());
        for s in &wl.synopses {
            dynamic.insert_synopsis(s);
        }
        // Measured churn: 200 inserts + 200 removals.
        let extra = clustered_workload(200, 300, 1, 0xE9 + 1);
        let mut handles = Vec::new();
        let (_, t_ins) = time(|| {
            for s in &extra.synopses {
                handles.push(dynamic.insert_synopsis(s));
            }
        });
        let (_, t_rem) = time(|| {
            for h in &handles {
                dynamic.remove_synopsis(*h);
            }
        });
        let queries = ptile_queries(&wl, scale.queries(), 10, dynamic.margin(), 0xE9 + 2);
        let mut t_q = Vec::new();
        for q in &queries {
            let (_, d) = time(|| dynamic.query(&q.rect, q.theta));
            t_q.push(d);
        }
        let (_, t_rebuild) = time(|| PtileRangeIndex::build(&wl.synopses, bench_params()));
        table.row(vec![
            n.to_string(),
            fmt_duration(t_ins / 200),
            fmt_duration(t_rem / 200),
            fmt_duration(median_duration(t_q)),
            fmt_duration(t_rebuild),
        ]);
    }
    table
}

/// E10 — Remark 3: enumeration delay. Max gap between consecutive reports
/// must stay flat as N grows (per-result polylog, not linear).
pub fn e10_delay(scale: Scale) -> Table {
    let mut table = Table::new(
        "E10 — enumeration delay (Remark 3): inter-report gaps on large outputs",
        &["N", "results", "mean gap", "max gap", "total"],
    );
    for n in scale.n_sweep() {
        let wl = mixed_workload(n, 200, 1, 0xE10);
        let idx = PtileThresholdIndex::build(&wl.synopses, bench_params());
        // A broad query with a large output: every gap is one "delay".
        let rect = dds_geom::Rect::interval(10.0, 90.0);
        let mut rec = DelayRecorder::new();
        idx.query_cb(&rect, 0.3, &mut |_| rec.tick());
        rec.finish();
        let results = rec.results();
        table.row(vec![
            n.to_string(),
            results.to_string(),
            fmt_duration(rec.mean_gap()),
            fmt_duration(rec.max_gap()),
            fmt_duration(rec.total()),
        ]);
        let _: Duration = rec.max_gap();
    }
    table
}
