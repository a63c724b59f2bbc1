//! A sharded catalog service: the repository is split across shards (one
//! `MixedQueryEngine` each), queries scatter over every shard and gather
//! **stable global dataset ids**, and each shard's cross-call mask cache
//! keeps the read-mostly steady state cheap. A nightly data refresh
//! rebuilds one shard in place — ids survive, and only that shard's cache
//! is invalidated.
//!
//! ```sh
//! cargo run --release --example sharded_service
//! ```

use distribution_aware_search::prelude::*;
use std::time::Instant;

fn main() {
    // The catalog: 240 mixed-flavour datasets, partitioned round-robin
    // into 4 shards. Global id i names the i-th dataset of the unsharded
    // build order, forever.
    let spec = RepoSpec::mixed(240, 250, 1, 0x5EA);
    let mut svc = ShardedEngine::new(
        &[1],
        PtileBuildParams::default().with_rect_budget(400),
        PrefBuildParams::exact_centralized().with_eps(0.05),
    )
    .with_cache_capacity(256);
    let t0 = Instant::now();
    for shard in spec.shards(4) {
        svc.add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids);
    }
    println!(
        "ingested {} datasets into {} shards in {:.1?}",
        svc.n_datasets(),
        svc.n_shards(),
        t0.elapsed()
    );

    // Morning traffic: a batch of popular filters (every query repeats a
    // handful of predicate shapes, as catalog traffic does).
    let shapes: Vec<LogicalExpr> = (0..6)
        .map(|i| {
            let lo = 12.0 * i as f64;
            LogicalExpr::Or(vec![
                LogicalExpr::And(vec![
                    LogicalExpr::Pred(Predicate::percentile_at_least(
                        Rect::interval(lo, lo + 20.0),
                        0.35,
                    )),
                    LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, 60.0)),
                ]),
                LogicalExpr::Pred(Predicate::percentile_at_least(
                    Rect::interval(lo, lo + 8.0),
                    0.8,
                )),
            ])
        })
        .collect();
    let batch: Vec<LogicalExpr> = (0..96).map(|i| shapes[i % shapes.len()].clone()).collect();

    let t1 = Instant::now();
    let answers = svc.query_batch(&batch);
    let (hits, misses) = svc.cache_stats();
    println!(
        "cold batch: {} queries in {:.1?}, cache {}h/{}m",
        batch.len(),
        t1.elapsed(),
        hits,
        misses
    );
    let first = answers[0].as_ref().expect("rank 1 is indexed");
    println!(
        "  query 0 → {} datasets, e.g. global ids {:?}",
        first.len(),
        &first[..first.len().min(5)]
    );

    // Steady state: the same filters again — served from the cross-call
    // caches (and still bit-identical).
    let t2 = Instant::now();
    let warm = svc.query_batch(&batch);
    let (h2, m2) = svc.cache_stats();
    assert_eq!(warm, answers, "cache warmth never changes answers");
    println!(
        "warm batch: {:.1?}, cache now {}h/{}m (hit rate {:.0}%)",
        t2.elapsed(),
        h2,
        m2,
        100.0 * (h2 - hits) as f64 / ((h2 - hits) + (m2 - misses)).max(1) as f64
    );

    // Nightly refresh: shard 2's datasets re-land (same global ids, new
    // data). Only shard 2's cache generation is bumped.
    let refreshed = RepoSpec::mixed(240, 250, 1, 0x5EB).shards(4).swap_remove(2);
    let ids = refreshed.global_ids.clone();
    let t3 = Instant::now();
    svc.try_rebuild_shard(2, &Repository::from_point_sets(refreshed.sets), &ids)
        .expect("rebuild");
    println!(
        "rebuilt shard 2 ({} datasets) in {:.1?}; ids {}..{} unchanged",
        ids.len(),
        t3.elapsed(),
        ids.first().unwrap(),
        ids.last().unwrap()
    );

    let t4 = Instant::now();
    let after = svc.query_batch(&batch);
    let (h4, m4) = svc.cache_stats();
    println!(
        "post-rebuild batch: {:.1?}, cache {}h/{}m (shard 2 recomputed, shards 0/1/3 stayed warm)",
        t4.elapsed(),
        h4,
        m4
    );
    // Answers may legitimately change (the data did) — but ids keep
    // meaning the same slots: any id outside shard 2 answers exactly as
    // before.
    let shard2: std::collections::HashSet<GlobalId> = ids.into_iter().collect();
    for (expr_i, (before_r, after_r)) in answers.iter().zip(&after).enumerate() {
        let stable_before: Vec<&GlobalId> = before_r
            .as_ref()
            .unwrap()
            .iter()
            .filter(|id| !shard2.contains(id))
            .collect();
        let stable_after: Vec<&GlobalId> = after_r
            .as_ref()
            .unwrap()
            .iter()
            .filter(|id| !shard2.contains(id))
            .collect();
        assert_eq!(
            stable_before, stable_after,
            "query {expr_i}: non-rebuilt shards answer identically"
        );
    }
    println!("stable-id check passed: non-rebuilt shards' answers are unchanged");
}
