//! E14 — sharded scatter/gather throughput and cache effectiveness.
//!
//! The service story: a catalog too large for one index is split into
//! repository shards, one [`MixedQueryEngine`] each, and a
//! [`ShardedEngine`] scatters every query over all of them
//! (`dds_pool::par_map_with` on (expression, shard) units) and gathers
//! stable global ids. This experiment sweeps shard count × thread count
//! against a single unsharded engine on the same datasets and batch:
//!
//! * **speedup** — unsharded sequential one-at-a-time time over this
//!   row's sharded batch time;
//! * **`=unsharded`** — asserts the sharded answers are bit-identical to
//!   the unsharded engine's (as sorted global ids) — the
//!   `tests/shard_equivalence.rs` contract at experiment scale. Both
//!   sides anchor the φ-split to the catalog size
//!   (`with_phi_datasets(n)`), and shard engines seed per-dataset
//!   sampling by global id, so the assertion is sound even when the
//!   rectangle budget forces real sampling;
//! * **cache hit-rate columns** — each shard's cross-call
//!   [`MaskCache`](dds_core::cache::MaskCache)
//!   survives between batches: the *cold* column is the hit rate of the
//!   first (timed) batch, the *warm* column the rate of an identical
//!   follow-up batch, which a read-mostly catalog serves almost entirely
//!   from cache.

use super::setup::{mixed_workload, ptile_queries};
use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::engine::MixedQueryEngine;
use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::{GlobalId, ShardedEngine};
use dds_workload::RepoSpec;

/// Distinct query shapes; batches cycle through them so the cross-call
/// caches have realistic repetition to exploit.
const DISTINCT_SHAPES: usize = 24;

fn bench_params() -> PtileBuildParams {
    PtileBuildParams::default().with_rect_budget(496)
}

fn pref_params() -> PrefBuildParams {
    PrefBuildParams::exact_centralized().with_eps(0.05)
}

/// The same mixed DNF shapes E12 uses, anchored on the workload data.
fn expression_pool(wl: &super::setup::Workload, margin: f64) -> Vec<LogicalExpr> {
    let qs = ptile_queries(wl, DISTINCT_SHAPES, 10, margin, 0xE14 + 1);
    qs.iter()
        .enumerate()
        .map(|(i, q)| {
            let score_bar = 20.0 + 60.0 * (i as f64 / DISTINCT_SHAPES as f64);
            LogicalExpr::Or(vec![
                LogicalExpr::And(vec![
                    LogicalExpr::Pred(Predicate::percentile(q.rect.clone(), q.theta)),
                    LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, score_bar)),
                ]),
                LogicalExpr::Pred(Predicate::percentile_at_least(q.rect.clone(), q.a)),
            ])
        })
        .collect()
}

/// E14 — sharded scatter/gather throughput: shards × threads sweep with a
/// speedup column against the sequential unsharded baseline, an
/// `=unsharded` determinism assertion and cold/warm cache hit rates.
pub fn e14_sharded_throughput(scale: Scale) -> Table {
    let mut table = Table::new(
        "E14 — sharded scatter/gather throughput (ShardedEngine over dds-pool; cross-call mask caches)",
        &[
            "N",
            "shards",
            "threads",
            "batch",
            "total",
            "/query",
            "speedup",
            "=unsharded",
            "hit% cold",
            "hit% warm",
        ],
    );
    let n = if scale.smoke {
        300
    } else if scale.quick {
        1000
    } else {
        4000
    };
    let batch = if scale.smoke {
        32
    } else if scale.quick {
        128
    } else {
        512
    };
    let spec = RepoSpec::mixed(n, 300, 1, 0xE14);
    let wl = mixed_workload(n, 300, 1, 0xE14);
    let unsharded_engine = MixedQueryEngine::build(
        &Repository::from_point_sets(wl.sets.clone()),
        &[1],
        bench_params().with_phi_datasets(n),
        pref_params(),
    );
    let pool = expression_pool(&wl, unsharded_engine.ptile_slack() / 2.0);
    let exprs: Vec<LogicalExpr> = (0..batch).map(|i| pool[i % pool.len()].clone()).collect();
    // Baseline: the unsharded engine, queried one-at-a-time (what a
    // single-index service does), canonicalized to sorted global ids.
    let (baseline, t_seq) = time(|| {
        exprs
            .iter()
            .map(|e| {
                e_to_ids(
                    unsharded_engine
                        .query(e)
                        .expect("rank 1 is indexed in this workload"),
                )
            })
            .collect::<Vec<_>>()
    });
    let shard_counts: &[usize] = if scale.smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let thread_counts: &[usize] = if scale.smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    for &k in shard_counts {
        // One partition + one service build per shard count; each thread
        // row restores cold-cache conditions by invalidating every
        // shard's (generation-tagged) cache instead of rebuilding.
        let mut svc = ShardedEngine::new(&[1], bench_params().with_phi_datasets(n), pref_params());
        for shard in spec.shards(k) {
            svc.add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids);
        }
        for &threads in thread_counts {
            for s in 0..svc.n_shards() {
                svc.shard_engine(s).mask_cache().invalidate();
            }
            let (h0, m0) = svc.cache_stats();
            let opts = BuildOptions::with_threads(threads);
            let (answers, t_cold) = time(|| svc.query_batch_opts(&exprs, &opts));
            let (h1, m1) = svc.cache_stats();
            let (warm_answers, _) = time(|| svc.query_batch_opts(&exprs, &opts));
            let (h2, m2) = svc.cache_stats();
            let (h_cold, m_cold) = (h1 - h0, m1 - m0);
            let (h_warm, m_warm) = (h2 - h1, m2 - m1);
            for (i, answer) in answers.iter().enumerate() {
                assert_eq!(
                    answer.as_ref().expect("no missing ranks in this workload"),
                    &baseline[i],
                    "sharded answers must match unsharded (shards {k}, threads {threads}, expr {i})"
                );
            }
            assert_eq!(warm_answers, answers, "warm repeat must be identical");
            let speedup = t_seq.as_secs_f64() / t_cold.as_secs_f64().max(1e-12);
            table.row(vec![
                n.to_string(),
                k.to_string(),
                threads.to_string(),
                batch.to_string(),
                fmt_duration(t_cold),
                fmt_duration(t_cold / batch as u32),
                format!("{speedup:.2}x"),
                "✓".to_string(),
                fmt_hit_rate(h_cold, m_cold),
                fmt_hit_rate(h_warm, m_warm),
            ]);
        }
    }
    table
}

/// Canonical answer form: ascending global ids.
fn e_to_ids(hits: Vec<usize>) -> Vec<GlobalId> {
    let mut ids: Vec<GlobalId> = hits.into_iter().map(|j| j as GlobalId).collect();
    ids.sort_unstable();
    ids
}

fn fmt_hit_rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "n/a".to_string()
    } else {
        format!("{:.0}%", 100.0 * hits as f64 / total as f64)
    }
}
