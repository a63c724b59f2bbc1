//! A served catalog, end to end: a `DdsServer` starts empty on a loopback
//! port; the whole repository arrives through the wire (`add_shard`), a
//! request stream of popular filter shapes queries it (single and batch,
//! cold and warm caches), a nightly refresh rebuilds one shard in place,
//! and the server drains and shuts down gracefully — while a local mirror
//! engine pins every served answer **byte-identical** to in-process
//! execution, `MissingRank` errors included.
//!
//! ```sh
//! cargo run --release --example served_repository
//! ```

use distribution_aware_search::prelude::*;
use std::time::Instant;

fn engine_shell() -> ShardedEngine {
    ShardedEngine::new(
        &[1],
        PtileBuildParams::default().with_rect_budget(400),
        PrefBuildParams::exact_centralized().with_eps(0.05),
    )
    .with_cache_capacity(256)
}

fn main() {
    // Serve an EMPTY engine: the catalog is ingested over the wire.
    let server = DdsServer::serve(engine_shell(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    let addr = server.local_addr();
    println!("serving on {addr}");
    let mut client = DdsClient::connect(addr).expect("connect");
    client.ping().expect("liveness");

    // The same ingest applied to a local mirror pins served ≡ in-process.
    let mut mirror = engine_shell();

    // Ingest: 180 mixed-flavour datasets in 3 shard-sized batches.
    let spec = RepoSpec::mixed(180, 220, 1, 0x5E4);
    let t0 = Instant::now();
    for shard in spec.shards(3) {
        let repo = Repository::from_point_sets(shard.sets);
        let idx = client.add_shard(&repo, &shard.global_ids).expect("ingest");
        let local_idx = mirror.add_shard(&repo, &shard.global_ids);
        assert_eq!(idx, local_idx);
    }
    println!(
        "ingested {} datasets into {} shards over the wire in {:.1?}",
        mirror.n_datasets(),
        mirror.n_shards(),
        t0.elapsed()
    );

    // Traffic: 48 requests over 6 popular shapes; every 8th asks for an
    // unindexed preference rank, so the stream carries typed errors too.
    let exprs = RequestStreamSpec::new(48, 7)
        .with_missing_rank_every(8, 5)
        .exprs(&spec);

    let t1 = Instant::now();
    let mut errors = 0usize;
    for (i, e) in exprs.iter().enumerate() {
        let served = client.query(e).expect("transport");
        assert_eq!(served, mirror.query(e), "request {i} diverged");
        errors += usize::from(served.is_err());
    }
    println!(
        "cold singles: {} served queries in {:.1?}, {} typed MissingRank answers, all ≡ in-process",
        exprs.len(),
        t1.elapsed(),
        errors
    );

    // The same stream as one batch — input-ordered and warm-cache served.
    let t2 = Instant::now();
    let served_batch = client.query_batch(&exprs).expect("transport");
    assert_eq!(served_batch, mirror.query_batch(&exprs));
    let stats = client.stats().expect("stats");
    println!(
        "warm batch: {} exprs in {:.1?}; cache {}h/{}m, {} scatter units routed past shards",
        exprs.len(),
        t2.elapsed(),
        stats.cache_hits,
        stats.cache_misses,
        stats.shards_routed_past,
    );

    // Nightly refresh: shard 1 re-lands under the same global ids.
    let refreshed = RepoSpec::mixed(180, 220, 1, 0x5E5).shards(3).swap_remove(1);
    let repo = Repository::from_point_sets(refreshed.sets);
    let t3 = Instant::now();
    client
        .rebuild_shard(1, &repo, &refreshed.global_ids)
        .expect("rebuild");
    mirror
        .try_rebuild_shard(1, &repo, &refreshed.global_ids)
        .expect("mirror rebuild");
    let post = client.query_batch(&exprs).expect("transport");
    assert_eq!(post, mirror.query_batch(&exprs));
    println!(
        "rebuilt shard 1 over the wire in {:.1?}; post-rebuild answers still ≡ in-process",
        t3.elapsed()
    );

    // A rejected ingest is a typed error, not a dead server.
    match client.add_shard(&repo, &refreshed.global_ids) {
        Err(ClientError::Server(e)) => println!("rejected duplicate ingest, typed: {e}"),
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    // Stats, then graceful shutdown: admitted work drains, threads reap.
    let stats = client.stats().expect("stats");
    println!(
        "server stats: {} requests, {} queries (+{} batched exprs), {} admin ops, \
         {} busy rejections, {} bytes in / {} bytes out",
        stats.requests,
        stats.queries,
        stats.batch_exprs,
        stats.admin_ops,
        stats.busy_rejections,
        stats.bytes_in,
        stats.bytes_out,
    );
    client.shutdown_server().expect("shutdown ack");
    server.wait_shutdown();
    let final_stats = server.shutdown();
    println!(
        "server drained and stopped; lifetime sessions: {}, jobs completed: {}",
        final_stats.sessions_opened, final_stats.jobs_completed
    );
}
