//! E15 — zero-allocation serving steady state.
//!
//! The readiness-based server holds every session's request and response
//! buffers in a size-classed pool and the client reuses one scratch
//! buffer per direction, so once warm, a control-op round trip (ping)
//! touches the allocator **zero** times across *both* ends — client
//! encode, server read, server encode, client read all run inside
//! retained capacity. This experiment pins that with the counting
//! allocator (the same harness E12 uses for scratch reuse): the ping row
//! **asserts** zero allocations per round trip when the counter is
//! installed, so a regression fails the smoke run instead of quietly
//! costing two mallocs per frame at every deployment. Query round trips
//! are metered too. The engine's answer path legitimately allocates (the
//! query plan, per-shard hits, the gathered answer), so a query is gated
//! by a ceiling rather than zero — measured on a second server with
//! `query_threads: Some(1)`. The first server allows `query_threads:
//! Some(4)`, so neither count depends on the host's core count, and its
//! warm query is gated against the serial one: a request of mask-cache
//! hits finishes long before a thread spawn would pay off, so the pool
//! never fans it out and it allocates what the serial request does.

use super::Scale;
use crate::alloc::count_allocations;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_geom::Rect;
use dds_server::{DdsClient, DdsServer, ServerConfig};
use dds_workload::RepoSpec;
use std::time::Duration;

/// Ceiling on warm served-query allocations per round trip (client and
/// server together) at `query_threads: Some(1)`, over E15's two-shard
/// engine and single-predicate query.
pub const QUERY_ALLOCS_CEILING: f64 = 34.0;

/// E15 — served round trips over a warm session: ping is asserted
/// allocation-free end to end, a single-thread query under
/// [`QUERY_ALLOCS_CEILING`], and a four-worker query within one
/// allocation of the single-thread one (when the counting allocator is
/// installed).
pub fn e15_serving_allocations(scale: Scale) -> Table {
    let mut table = Table::new(
        "E15 — serving steady state (readiness loop + buffer pool + client scratch)",
        &["op", "round trips", "total", "per op", "allocs/op"],
    );
    let (warm, measured) = if scale.smoke {
        (64, 100)
    } else if scale.quick {
        (128, 500)
    } else {
        (512, 2000)
    };

    let spec = RepoSpec::mixed(12, 60, 1, 0xE15);
    let serve = |cfg: ServerConfig| {
        let mut engine = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        for shard in spec.shards(2) {
            engine.add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids);
        }
        let server = DdsServer::serve(engine, "127.0.0.1:0", cfg).expect("bind loopback");
        let client = DdsClient::connect(server.local_addr()).expect("connect");
        (server, client)
    };
    let (server, mut client) = serve(ServerConfig {
        query_threads: Some(4),
        ..ServerConfig::default()
    });
    let (serial_server, mut serial_client) = serve(ServerConfig {
        query_threads: Some(1),
        ..ServerConfig::default()
    });
    let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.5,
    ));

    // Warm both ends: session buffers reach their steady capacity, the
    // client scratch grows to fit, lazy thread-startup allocations
    // (parkers, channel nodes) happen now instead of inside the meter.
    for _ in 0..warm {
        client.ping().expect("warm ping");
        client.query(&expr).expect("warm query").expect("rank 1");
        serial_client
            .query(&expr)
            .expect("warm query")
            .expect("rank 1");
    }

    // Times `measured` round trips, then meters `measured` more; returns
    // the elapsed time and the metered allocation total.
    let meter = |client: &mut DdsClient, op: &dyn Fn(&mut DdsClient)| -> (Duration, Option<u64>) {
        let ((), elapsed) = time(|| (0..measured).for_each(|_| op(client)));
        let (_, allocs) = count_allocations(|| (0..measured).for_each(|_| op(client)));
        (elapsed, allocs)
    };
    let per_op = |total: u64| total as f64 / measured as f64;
    let mut row = |op: &str, (elapsed, allocs): (Duration, Option<u64>)| {
        table.row(vec![
            op.into(),
            measured.to_string(),
            fmt_duration(elapsed),
            fmt_duration(elapsed / measured as u32),
            allocs.map_or("n/a".to_string(), |total| format!("{:.2}", per_op(total))),
        ]);
        allocs
    };
    let query = |c: &mut DdsClient| {
        c.query(&expr).expect("metered query").expect("hits");
    };

    let ping_allocs = row(
        "ping",
        meter(&mut client, &|c| c.ping().expect("metered ping")),
    );
    // The regression gate: a warm control-op round trip is allocation-free
    // end to end. (Outside the experiments binary the counter is absent
    // and this stays un-asserted rather than vacuously green.)
    if let Some(total) = ping_allocs {
        assert_eq!(
            total, 0,
            "steady-state ping round trips must not allocate (got {total} over {measured})"
        );
    }
    let pooled_allocs = row("query (query_threads = 4)", meter(&mut client, &query));
    let serial_allocs = row(
        "query (query_threads = 1)",
        meter(&mut serial_client, &query),
    );
    if let Some(total) = serial_allocs {
        let per_op = per_op(total);
        assert!(
            per_op <= QUERY_ALLOCS_CEILING,
            "warm served query allocations regressed: {per_op:.2} per round trip \
             > ceiling {QUERY_ALLOCS_CEILING}"
        );
    }
    // A warm request's units are mask-cache hits, far cheaper than a
    // spawn: four allowed workers must not cost more than one. The one
    // allocation of slack covers a rare request that a preemption inside
    // the pool's inline budget makes fan out.
    if let (Some(pooled), Some(serial)) = (pooled_allocs, serial_allocs) {
        let (pooled, serial) = (per_op(pooled), per_op(serial));
        assert!(
            pooled <= serial + 1.0,
            "a warm served query fanned out: {pooled:.2} allocs per round trip at \
             query_threads = 4 > {serial:.2} at query_threads = 1 (+ 1.0 slack)"
        );
    }
    serial_server.shutdown();

    let stats = server.shutdown();
    assert!(
        stats.buffers_reused > 0 || stats.sessions_opened <= 1,
        "the pool should have served at least the stats/reconnect traffic"
    );
    table
}
