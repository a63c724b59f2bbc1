//! The fault-tolerance proof layer: seeded chaos between a real client
//! and a real server, with every surviving answer pinned byte-identical
//! to a clean in-process mirror.
//!
//! Every fault here replays from a seed (printed by the soak as it
//! runs), so any red run reproduces exactly:
//!
//! ```sh
//! cargo test -p dds-server --test fault_soak -- --nocapture
//! ```

use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::{GlobalId, ShardedEngine};
use dds_geom::Rect;
use dds_server::wire::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};
use dds_server::{
    ChaosProxy, ClientConfig, ClientError, DdsClient, DdsServer, FaultPlan, Request, Response,
    RetryPolicy, ServerConfig,
};
use dds_workload::{FaultScheduleSpec, RepoSpec, RequestStreamSpec};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn params() -> (PtileBuildParams, PrefBuildParams) {
    (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
}

fn empty_engine() -> ShardedEngine {
    let (ptile, pref) = params();
    ShardedEngine::new(&[1], ptile, pref)
}

fn soak_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_secs(20),
        max_attempts: 16,
        base_backoff: Duration::from_millis(5),
        jitter_seed: seed,
    }
}

fn is_deadline(e: &ClientError) -> bool {
    matches!(e, ClientError::DeadlineExceeded { .. })
}

/// Queries until the transport yields an answer; panics (with the seed)
/// on any non-retryable failure.
fn query_until_answered(
    client: &mut DdsClient,
    e: &LogicalExpr,
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

/// Polls a fresh clean connection until `pred` holds on the stats.
fn await_stats(
    addr: std::net::SocketAddr,
    pred: impl Fn(&dds_server::ServerStats) -> bool,
    what: &str,
) -> dds_server::ServerStats {
    let mut client = DdsClient::connect(addr).expect("stats connection");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats call");
        if pred(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One full soak: ingest → query → split/merge → re-query through a
/// chaos proxy, mirrored cleanly in-process. Returns nothing — every
/// divergence panics with the seed embedded.
fn soak_one_seed(seed: u64) {
    println!("fault soak: seed {seed:#x}");
    // Heavier than the 400‰ default so most dialed connections carry a
    // fault — the soak exists to watch the retry loop actually fire.
    let schedule = FaultScheduleSpec {
        seed,
        fault_per_mille: 850,
    };
    let plan = FaultPlan::seeded(schedule.seed).with_fault_per_mille(schedule.fault_per_mille);

    let mut mirror = empty_engine().with_build_options(BuildOptions::serial());
    let server = DdsServer::serve(empty_engine(), "127.0.0.1:0", ServerConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: bind: {e}"));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: proxy: {e}"));
    let mut client = DdsClient::connect_with(proxy.local_addr(), ClientConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: connect: {e}"))
        .with_retry(soak_retry(seed));

    // Ingest through the chaos: a failed logical call is re-issued with
    // the SAME request_id, so the server lands each shard exactly once
    // no matter how many duplicates the retries produce.
    let spec = RepoSpec::mixed(12, 40, 1, seed.wrapping_add(0x50AC));
    for (i, shard) in spec.shards(3).into_iter().enumerate() {
        let repo = Repository::from_point_sets(shard.sets);
        let request_id = (seed << 8) | 0x1000 | i as u64;
        let served_idx = loop {
            match client.add_shard_with_id(request_id, &repo, &shard.global_ids) {
                Ok(idx) => break idx,
                Err(e) => assert!(
                    e.is_transient() || is_deadline(&e),
                    "seed {seed:#x}: ingest {i}: {e}"
                ),
            }
        };
        let mirror_idx = mirror.add_shard(&repo, &shard.global_ids);
        assert_eq!(served_idx, mirror_idx, "seed {seed:#x}: shard index {i}");
    }

    // A request stream with error salting: MissingRank answers must
    // survive the chaos byte-identically too.
    let exprs = RequestStreamSpec::new(10, seed)
        .with_missing_rank_every(5, 9)
        .with_faults(schedule)
        .exprs(&spec);
    for (j, e) in exprs.iter().enumerate() {
        let got = query_until_answered(&mut client, e, seed);
        assert_eq!(got, mirror.query(e), "seed {seed:#x}: expr {j}");
    }

    // Live churn through the chaos. Lifecycle ops carry no payload; a
    // duplicate of an already-applied transition answers a typed
    // rejection, and the (retried, hence reliable) stats call tells
    // which way the race went.
    let mut ids = mirror.global_ids(0).to_vec();
    ids.sort_unstable();
    let move_ids = ids.split_off(ids.len() / 2);
    loop {
        match client.split_shard(0, &move_ids) {
            Ok(_) => break,
            Err(_) => match client.stats() {
                Ok(s) if s.n_shards == 4 => break,
                Ok(s) => assert_eq!(s.n_shards, 3, "seed {seed:#x}: split shape"),
                Err(_) => continue,
            },
        }
    }
    mirror
        .try_split_shard(0, &move_ids)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: mirror split: {e}"));
    loop {
        match client.merge_shards(3, 0) {
            Ok(_) => break,
            Err(_) => match client.stats() {
                Ok(s) if s.n_shards == 3 => break,
                Ok(s) => assert_eq!(s.n_shards, 4, "seed {seed:#x}: merge shape"),
                Err(_) => continue,
            },
        }
    }
    mirror
        .try_merge_shards(3, 0)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: mirror merge: {e}"));
    for (j, e) in exprs.iter().enumerate() {
        let got = query_until_answered(&mut client, e, seed);
        assert_eq!(got, mirror.query(e), "seed {seed:#x}: post-churn expr {j}");
    }
    drop(client);
    proxy.shutdown();

    // The acceptance gates: a fresh CLEAN connection round-trips stats,
    // zero panics, and the catalog shape matches the mirror — retried
    // AddShards never double-ingested.
    let mut fresh = DdsClient::connect(server.local_addr())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: post-soak connect: {e}"));
    let stats = fresh
        .stats()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: post-soak stats: {e}"));
    assert_eq!(stats.executor_panics, 0, "seed {seed:#x}: panics");
    assert_eq!(
        stats.n_shards,
        mirror.n_shards() as u64,
        "seed {seed:#x}: shard count diverged (duplicate ingest?)"
    );
    assert_eq!(
        stats.n_datasets,
        mirror.n_datasets() as u64,
        "seed {seed:#x}: dataset count diverged (duplicate ingest?)"
    );
    server.shutdown();
}

#[test]
fn fault_soak_sixteen_seeds_byte_identical_answers() {
    for seed in 0..16 {
        soak_one_seed(seed);
    }
}

#[test]
fn retried_add_shard_with_same_request_id_cannot_double_ingest() {
    let server =
        DdsServer::serve(empty_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let shard = RepoSpec::mixed(4, 30, 1, 0xD0D0).shards(1).swap_remove(0);
    let repo = Repository::from_point_sets(shard.sets);

    // Two byte-identical AddShard frames with the same nonzero
    // request_id, exactly what a retry after a lost answer re-sends.
    let req = Request::AddShard {
        request_id: 0xFEED_F00D,
        datasets: repo.datasets().to_vec(),
        global_ids: shard.global_ids.clone(),
    };
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let send = |stream: &mut TcpStream, req: &Request| {
        let (op, payload) = req.encode();
        write_frame(
            stream,
            PROTOCOL_VERSION,
            op,
            &payload,
            DEFAULT_MAX_FRAME_LEN,
        )
        .expect("send");
        let frame = read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("read");
        Response::decode(frame.opcode, &frame.payload).expect("decode")
    };
    let first = send(&mut raw, &req);
    assert_eq!(first, Response::ShardAdded { shard: 0 });
    // The retry is REPLAYED, not re-executed: same answer, no new shard.
    let second = send(&mut raw, &req);
    assert_eq!(second, first, "the recorded response is replayed verbatim");
    let stats = await_stats(addr, |s| s.requests_deduped == 1, "the dedup counter");
    assert_eq!(stats.n_shards, 1, "the duplicate never ingested");
    assert_eq!(stats.n_datasets, 4);
    assert_eq!(stats.retries_attempted, 1);
    // A *different* id is a different request and executes normally —
    // rejected here because the ids are already served.
    let rejected = send(
        &mut raw,
        &Request::AddShard {
            request_id: 0xFEED_F00E,
            datasets: repo.datasets().to_vec(),
            global_ids: shard.global_ids.clone(),
        },
    );
    assert!(
        matches!(rejected, Response::Error(_)),
        "a fresh id executes (and is typed-rejected): {rejected:?}"
    );
    server.shutdown();
}

#[test]
fn clean_server_close_is_a_typed_connection_closed() {
    let server =
        DdsServer::serve(empty_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping while up");
    server.shutdown();
    // The peer is gone: whether the failure surfaces on the write or on
    // the read of the next call, it is the typed ConnectionClosed — the
    // reconnectable case — never a bare Io.
    match client.ping() {
        Err(e @ ClientError::ConnectionClosed) => assert!(e.is_transient()),
        other => panic!("expected ConnectionClosed, got {other:?}"),
    }
}

#[test]
fn client_side_faults_heal_transparently_with_retries_counted() {
    let spec = RepoSpec::mixed(6, 30, 1, 0xFA17);
    let mut mirror = empty_engine().with_build_options(BuildOptions::serial());
    let mut served = empty_engine().with_build_options(BuildOptions::serial());
    for shard in spec.shards(2) {
        let repo = Repository::from_point_sets(shard.sets);
        mirror.add_shard(&repo, &shard.global_ids);
        served.add_shard(&repo, &shard.global_ids);
    }
    let server = DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    // EVERY connection this client dials suffers a fault plan; the retry
    // loop must still deliver clean answers.
    let mut client = DdsClient::connect(server.local_addr())
        .expect("connect")
        .with_retry(RetryPolicy {
            deadline: Duration::from_secs(20),
            max_attempts: 16,
            base_backoff: Duration::from_millis(2),
            jitter_seed: 0xFA17,
        })
        .with_faults(FaultPlan::seeded(0xFA17).with_fault_per_mille(1000));
    let exprs = RequestStreamSpec::new(12, 0xFA17).exprs(&spec);
    for (j, e) in exprs.iter().enumerate() {
        let got = query_until_answered(&mut client, e, 0xFA17);
        assert_eq!(got, mirror.query(e), "expr {j}");
    }
    assert!(
        client.retries() >= 1,
        "an all-faulty dial sequence must have healed at least once (got {})",
        client.retries()
    );
    server.shutdown();
}

#[test]
fn sessions_stalled_mid_frame_are_reaped_but_idle_ones_are_not() {
    let cfg = ServerConfig {
        stall_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(empty_engine(), "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // An idle connection (no bytes at all) is exempt from the deadline…
    let mut idle = DdsClient::connect(addr).expect("idle connect");
    idle.ping().expect("idle ping");
    // …while a peer that sends half a length prefix and goes silent is
    // mid-frame: reaped once the deadline passes.
    use std::io::Write as _;
    let mut stuck = TcpStream::connect(addr).expect("stuck connect");
    stuck.write_all(&[0x10, 0x00]).expect("half a prefix");
    let stats = await_stats(addr, |s| s.sessions_reaped == 1, "the stall reap");
    assert_eq!(stats.sessions_reaped, 1);
    // The idle session survived the sweep and still works.
    std::thread::sleep(Duration::from_millis(300));
    idle.ping().expect("idle session survived the reaper");
    server.shutdown();
}

#[test]
fn exhausted_retry_budget_surfaces_deadline_exceeded_with_the_last_error() {
    let server =
        DdsServer::serve(empty_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = DdsClient::connect(addr)
        .expect("connect")
        .with_retry(RetryPolicy {
            deadline: Duration::from_secs(5),
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 7,
        });
    // Take the server away entirely: every attempt fails before a byte
    // is sent, which is always retryable — so the budget, not the
    // classification, ends the loop.
    server.shutdown();
    let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.5,
    ));
    match client.query(&expr) {
        Err(e @ ClientError::DeadlineExceeded { attempts, .. }) => {
            assert_eq!(attempts, 3, "every budgeted attempt was spent");
            // The wrapper is terminal even though the cause was transient.
            assert!(!e.is_transient());
            use std::error::Error as _;
            assert!(e.source().is_some(), "the last failure is chained");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}
