//! E17 — seeded fault soak: byte-identical answers through chaos.
//!
//! The self-healing contract at experiment scale: a served catalog is
//! driven **through a chaos proxy** ([`ChaosProxy`]) that tears writes at
//! exact byte offsets, resets connections mid-frame, stalls reads and
//! writes, trickles bytes, and delays connects — every fault derived
//! from a seed, so any red row reproduces exactly. A [`DdsClient`] with
//! a [`RetryPolicy`] ingests the catalog, answers a request stream, and
//! churns a split + merge through that chaos, while an in-process mirror
//! applies the same logical ops cleanly. Every row asserts **`=mirror`**:
//! the surviving answers are byte-identical to the mirror's, the catalog
//! shape matches (no duplicate ingest despite retried `AddShard`s — the
//! `request_id` dedup window at work), the server never reaped an
//! executor panic, and a post-soak `stats` round trip on a **fresh,
//! clean** connection succeeds — the server is still standing.
//!
//! Re-run a single seed locally by copying it from the table into
//! `FaultScheduleSpec::seeded(seed)`; the whole fault sequence replays.

use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::framework::Repository;
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::{GlobalId, ShardedEngine};
use dds_server::{
    ChaosProxy, ClientConfig, DdsClient, DdsServer, FaultPlan, RetryPolicy, ServerConfig,
};
use dds_workload::{FaultScheduleSpec, RepoSpec, RequestStreamSpec};
use std::time::Duration;

/// E17 — the fault soak: a seed sweep of chaos-proxied workloads, each
/// asserted byte-identical to its clean in-process mirror.
pub fn e17_fault_soak(scale: Scale) -> Table {
    let mut table = Table::new(
        "E17 — fault soak (chaos proxy + retrying client; answers pinned to a clean mirror)",
        &[
            "seed", "requests", "conns", "retries", "deduped", "reaped", "panics", "total",
            "=mirror",
        ],
    );
    let seeds: Vec<u64> = if scale.smoke {
        (0..3).collect()
    } else if scale.quick {
        (0..8).collect()
    } else {
        (0..16).collect()
    };
    let n_requests = if scale.smoke {
        8
    } else if scale.quick {
        12
    } else {
        24
    };
    for seed in seeds {
        let (outcome, t) = time(|| soak_one_seed(seed, n_requests));
        table.row(vec![
            format!("{seed:#x}"),
            n_requests.to_string(),
            outcome.connections.to_string(),
            outcome.retries.to_string(),
            outcome.deduped.to_string(),
            outcome.reaped.to_string(),
            outcome.panics.to_string(),
            fmt_duration(t),
            "✓".to_string(),
        ]);
    }
    table
}

/// What one seed's soak observed (already asserted healthy).
struct SoakOutcome {
    connections: u64,
    retries: u64,
    deduped: u64,
    reaped: u64,
    panics: u64,
}

fn params() -> (PtileBuildParams, PrefBuildParams) {
    (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
}

/// Runs the whole ingest → query → churn → verify cycle for one seed,
/// panicking (with the seed in the message) on any divergence.
fn soak_one_seed(seed: u64, n_requests: usize) -> SoakOutcome {
    // Heavier than the 400‰ default: a soak exists to see the retry
    // loop actually fire, so most dialed connections carry a fault.
    let schedule = FaultScheduleSpec {
        seed,
        fault_per_mille: 850,
    };
    let plan = FaultPlan::seeded(schedule.seed).with_fault_per_mille(schedule.fault_per_mille);

    let (ptile, pref) = params();
    let mut mirror =
        ShardedEngine::new(&[1], ptile, pref).with_build_options(BuildOptions::serial());
    let served = {
        let (ptile, pref) = params();
        ShardedEngine::new(&[1], ptile, pref)
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: bind: {e}"));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: proxy: {e}"));

    let retry = RetryPolicy {
        deadline: Duration::from_secs(20),
        max_attempts: 16,
        base_backoff: Duration::from_millis(5),
        jitter_seed: seed,
    };
    let mut client = DdsClient::connect_with(proxy.local_addr(), ClientConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: connect: {e}"))
        .with_retry(retry);

    // Ingest through the chaos, mirroring each *logical* ingest exactly
    // once. Retries across calls reuse the same request_id, so however
    // many times the bytes hit the server, the shard lands once.
    let spec = RepoSpec::mixed(12, 40, 1, seed.wrapping_add(0xE17));
    for (i, shard) in spec.shards(3).into_iter().enumerate() {
        let repo = Repository::from_point_sets(shard.sets);
        let request_id = 0xE17_0000 + i as u64 + (seed << 32);
        let served_idx = loop {
            match client.add_shard_with_id(request_id, &repo, &shard.global_ids) {
                Ok(idx) => break idx,
                // Budget exhausted under heavy chaos: the id makes the
                // whole call safe to re-issue.
                Err(e) => assert!(e.is_transient() || is_deadline(&e), "seed {seed:#x}: {e}"),
            }
        };
        let mirror_idx = mirror.add_shard(&repo, &shard.global_ids);
        assert_eq!(served_idx, mirror_idx, "seed {seed:#x}: shard index");
    }

    // The request stream: every surviving answer byte-identical to the
    // mirror, MissingRank errors included.
    let exprs = RequestStreamSpec::new(n_requests, seed)
        .with_missing_rank_every(5, 9)
        .with_faults(schedule)
        .exprs(&spec);
    for (j, e) in exprs.iter().enumerate() {
        let got = query_until_answered(&mut client, e, seed);
        assert_eq!(got, mirror.query(e), "seed {seed:#x}: expr {j}");
    }

    // Live churn through the chaos: split shard 0, then merge the new
    // shard back. Lifecycle ops carry no payload, so a duplicate from a
    // lost answer gets a typed rejection — the catalog shape tells
    // whether the op landed.
    let mut ids = mirror.global_ids(0).to_vec();
    ids.sort_unstable();
    let move_ids = ids.split_off(ids.len() / 2);
    ensure_split(&mut client, 0, &move_ids, 4, seed);
    mirror
        .try_split_shard(0, &move_ids)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: mirror split: {e}"));
    ensure_merge(&mut client, 3, 0, 3, seed);
    mirror
        .try_merge_shards(3, 0)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: mirror merge: {e}"));
    for (j, e) in exprs.iter().enumerate() {
        let got = query_until_answered(&mut client, e, seed);
        assert_eq!(got, mirror.query(e), "seed {seed:#x}: post-churn expr {j}");
    }
    let retries = client.retries();
    drop(client);
    proxy.shutdown();

    // The server must still be standing: a fresh, clean connection
    // answers stats, and the counters prove what the soak survived.
    let mut fresh = DdsClient::connect(server.local_addr())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: post-soak connect: {e}"));
    let stats = fresh
        .stats()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: post-soak stats: {e}"));
    assert_eq!(stats.executor_panics, 0, "seed {seed:#x}: panics");
    assert_eq!(
        stats.n_shards,
        mirror.n_shards() as u64,
        "seed {seed:#x}: shard count (duplicate ingest?)"
    );
    assert_eq!(
        stats.n_datasets,
        mirror.n_datasets() as u64,
        "seed {seed:#x}: dataset count (duplicate ingest?)"
    );
    let outcome = SoakOutcome {
        connections: stats.sessions_opened,
        retries,
        deduped: stats.requests_deduped,
        reaped: stats.sessions_reaped,
        panics: stats.executor_panics,
    };
    server.shutdown();
    outcome
}

fn is_deadline(e: &dds_server::ClientError) -> bool {
    matches!(e, dds_server::ClientError::DeadlineExceeded { .. })
}

/// Queries until the *transport* yields an answer (hit list or engine
/// error — both compare against the mirror byte-for-byte).
fn query_until_answered(
    client: &mut DdsClient,
    e: &dds_core::framework::LogicalExpr,
    seed: u64,
) -> Result<Vec<GlobalId>, dds_core::engine::EngineError> {
    loop {
        match client.query(e) {
            Ok(answer) => return answer,
            Err(err) => assert!(
                err.is_transient() || is_deadline(&err),
                "seed {seed:#x}: non-retryable query failure: {err}"
            ),
        }
    }
}

/// Drives a split until the catalog holds `want_shards` shards: either
/// the call succeeds, or a duplicate of an already-applied split is
/// rejected — in which case the (retried, hence reliable) stats call
/// proves the shape.
fn ensure_split(
    client: &mut DdsClient,
    shard: usize,
    move_ids: &[GlobalId],
    want_shards: u64,
    seed: u64,
) {
    loop {
        match client.split_shard(shard, move_ids) {
            Ok(_) => return,
            Err(_) => {
                let stats = match client.stats() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                if stats.n_shards == want_shards {
                    return;
                }
                assert_eq!(
                    stats.n_shards,
                    want_shards - 1,
                    "seed {seed:#x}: split left an unexpected shard count"
                );
            }
        }
    }
}

/// The merge analogue of [`ensure_split`].
fn ensure_merge(client: &mut DdsClient, a: usize, b: usize, want_shards: u64, seed: u64) {
    loop {
        match client.merge_shards(a, b) {
            Ok(_) => return,
            Err(_) => {
                let stats = match client.stats() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                if stats.n_shards == want_shards {
                    return;
                }
                assert_eq!(
                    stats.n_shards,
                    want_shards + 1,
                    "seed {seed:#x}: merge left an unexpected shard count"
                );
            }
        }
    }
}
