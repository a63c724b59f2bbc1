//! One metrics source, seen over the wire: the `Stats` frame's lifetime
//! counters never go backwards when shard lifecycle ops replace shard
//! engines and their caches, they equal an in-process mirror engine's,
//! and `Stats`, `Metrics` and `Ping` are answered while an ingest holds
//! the engine's write lock.

use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_geom::Rect;
use dds_server::{DdsClient, DdsServer, Response, ServerConfig, ServerStats};
use dds_workload::{RepoSpec, RequestStreamSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn engine() -> ShardedEngine {
    ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
    .with_build_options(BuildOptions::serial())
}

/// The frame's fields in wire order, read back from its encoding.
fn wire_fields(stats: &ServerStats) -> Vec<u64> {
    let (_, payload) = Response::Stats(*stats).encode();
    payload[4..]
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Takes a stats snapshot after `step`: its engine fields must equal the
/// mirror's, and no field but a gauge may fall below the previous
/// snapshot's.
fn checkpoint(
    client: &mut DdsClient,
    mirror: &ShardedEngine,
    history: &mut Vec<ServerStats>,
    step: &str,
) {
    let stats = client.stats().expect("stats");
    let local = mirror.stats_snapshot();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        mirror.cache_stats(),
        "{step}: served cache counters mirror the local engine's"
    );
    assert_eq!(
        [
            stats.index_queries,
            stats.shards_routed_past,
            stats.shards_routed_by_synopsis,
            stats.n_shards,
            stats.n_datasets,
            stats.shard_splits,
            stats.shard_merges,
        ],
        [
            local.index_queries,
            local.shards_routed_past,
            local.shards_routed_by_synopsis,
            local.n_shards,
            local.n_datasets,
            local.splits,
            local.merges,
        ],
        "{step}: served engine fields mirror the local engine's"
    );
    if let Some(prev) = history.last() {
        let gauges = wire_fields(&ServerStats {
            sessions_active: 1,
            n_shards: 1,
            n_datasets: 1,
            ..ServerStats::default()
        });
        let (prev, now) = (wire_fields(prev), wire_fields(&stats));
        for (i, gauge) in gauges.iter().enumerate() {
            assert!(
                *gauge == 1 || now[i] >= prev[i],
                "{step}: stats field {i} went backwards ({} -> {})",
                prev[i],
                now[i]
            );
        }
    }
    history.push(stats);
}

/// Runs every expression singly and as one batch on both sides; the
/// answers must agree.
fn queries(client: &mut DdsClient, mirror: &ShardedEngine, exprs: &[LogicalExpr]) {
    for e in exprs {
        assert_eq!(client.query(e).expect("transport"), mirror.query(e));
    }
    assert_eq!(
        client.query_batch(exprs).expect("transport"),
        mirror.query_batch_opts(exprs, &BuildOptions::serial())
    );
}

#[test]
fn served_counters_never_decrease_across_lifecycle_ops() {
    let mut mirror = engine();
    let server =
        DdsServer::serve(engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let spec = RepoSpec::mixed(12, 40, 1, 0x5EED);
    let mut exprs = RequestStreamSpec::new(8, 3).with_shapes(3).exprs(&spec);
    // A rectangle beyond the data: routing skips every shard.
    exprs.push(LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(200.0, 300.0),
        0.5,
    )));
    let mut history = Vec::new();
    checkpoint(&mut client, &mirror, &mut history, "start");

    let shards = spec.shards(2);
    for shard in &shards {
        let repo = Repository::from_point_sets(shard.sets.clone());
        let served = client.add_shard(&repo, &shard.global_ids).expect("add");
        assert_eq!(served, mirror.add_shard(&repo, &shard.global_ids));
        checkpoint(&mut client, &mirror, &mut history, "add");
    }
    queries(&mut client, &mirror, &exprs);
    checkpoint(&mut client, &mirror, &mut history, "cold queries");
    queries(&mut client, &mirror, &exprs);
    checkpoint(&mut client, &mirror, &mut history, "warm queries");

    let refreshed = RepoSpec::mixed(12, 40, 1, 0x5EFF).shards(2).swap_remove(1);
    let repo = Repository::from_point_sets(refreshed.sets);
    client
        .rebuild_shard(1, &repo, &refreshed.global_ids)
        .expect("rebuild");
    mirror
        .try_rebuild_shard(1, &repo, &refreshed.global_ids)
        .expect("local rebuild");
    checkpoint(&mut client, &mirror, &mut history, "rebuild");
    queries(&mut client, &mirror, &exprs);
    checkpoint(&mut client, &mirror, &mut history, "queries after rebuild");

    let held = &shards[0].global_ids;
    let moving = &held[held.len() / 2..];
    let new_shard = client.split_shard(0, moving).expect("split");
    assert_eq!(new_shard, mirror.try_split_shard(0, moving).expect("split"));
    checkpoint(&mut client, &mirror, &mut history, "split");
    queries(&mut client, &mirror, &exprs);
    checkpoint(&mut client, &mirror, &mut history, "queries after split");

    let survivor = client.merge_shards(0, 1).expect("merge");
    assert_eq!(survivor, mirror.try_merge_shards(0, 1).expect("merge"));
    checkpoint(&mut client, &mirror, &mut history, "merge");
    queries(&mut client, &mirror, &exprs);
    checkpoint(&mut client, &mirror, &mut history, "queries after merge");

    let last = history.last().unwrap();
    assert_eq!((last.shard_splits, last.shard_merges), (1, 1));
    assert_eq!(last.admin_ops, 5, "2 adds + rebuild + split + merge");
    assert!(last.cache_hits > 0 && last.index_queries > 0 && last.shards_routed_past > 0);
    server.shutdown();
}

#[test]
fn stats_metrics_and_ping_do_not_wait_for_an_ingest() {
    let small = RepoSpec::mixed(4, 40, 2, 1).shards(1).swap_remove(0);
    let mut served = engine();
    served.add_shard(&Repository::from_point_sets(small.sets), &small.global_ids);
    let cfg = ServerConfig {
        io_threads: 1,
        query_threads: Some(1),
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    // An ingest whose build runs for hundreds of milliseconds (more in
    // unoptimized builds) under the engine's write lock.
    let heavy = RepoSpec::mixed(100, 120, 2, 7).shards(1).swap_remove(0);
    let heavy_ids: Vec<u64> = heavy.global_ids.iter().map(|id| id + 1000).collect();
    let heavy = Repository::from_point_sets(heavy.sets);

    let mut observer = DdsClient::connect(addr).expect("connect");
    let before = observer.stats().expect("stats");
    assert_eq!((before.n_shards, before.n_datasets), (1, 4));
    let replies = AtomicUsize::new(0);
    let (ingest_reply, stats, observer_replies) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut client = DdsClient::connect(addr).expect("connect");
            client.add_shard(&heavy, &heavy_ids).expect("add");
            replies.fetch_add(1, Ordering::SeqCst)
        });
        // The first stats frame counting the ingest's dequeue is asked
        // while its build holds the write lock.
        let stats = loop {
            let stats = observer.stats().expect("stats");
            if stats.jobs_dequeued > before.jobs_dequeued {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut order = vec![replies.fetch_add(1, Ordering::SeqCst)];
        observer.metrics().expect("metrics");
        order.push(replies.fetch_add(1, Ordering::SeqCst));
        observer.ping().expect("ping");
        order.push(replies.fetch_add(1, Ordering::SeqCst));
        (ingest.join().expect("ingest thread"), stats, order)
    });
    assert!(
        observer_replies.iter().all(|&r| r < ingest_reply),
        "stats, metrics and ping replies ({observer_replies:?}) must precede \
         the ingest's ({ingest_reply})"
    );
    assert_eq!(
        (stats.n_shards, stats.n_datasets, stats.jobs_completed),
        (1, 4, before.jobs_completed),
        "stats answered mid-ingest shows the pre-ingest catalog"
    );
    let after = observer.stats().expect("stats");
    assert_eq!((after.n_shards, after.n_datasets), (2, 104));
    server.shutdown();
}
