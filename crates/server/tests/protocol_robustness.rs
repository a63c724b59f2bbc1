//! Protocol robustness: malformed, truncated, oversized and hostile
//! frames must yield **typed errors** and never panic or kill the server;
//! well-formed values must round-trip the codec bit-exactly (proptest
//! over generated requests/responses — byte equality of re-encoding, the
//! codec being deterministic).

use dds_core::engine::EngineError;
use dds_core::framework::{Dataset, Interval, LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_core::telemetry::{bucket_bounds, bucket_index, HistogramSnapshot, QueryTrace, BUCKETS};
use dds_geom::Rect;
use dds_server::protocol::{
    opcode, MetricsReport, Request, Response, ServerErrorKind, ServerStats,
};
use dds_server::wire::{
    read_frame, write_frame, FrameReadError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use dds_server::{ClientConfig, ClientError, DdsClient, DdsServer, ServerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

/// A random finite-but-adversarial f64 (negative zeros, subnormals,
/// infinities for intervals where allowed).
fn rough_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u8..6) {
        0 => -0.0,
        1 => f64::MIN_POSITIVE / 2.0, // subnormal
        2 => -(rng.gen_range(0.0..1e12)),
        3 => rng.gen_range(-1.0..1.0),
        4 => rng.gen_range(0.0..1e-9),
        _ => rng.gen_range(-1e6..1e6),
    }
}

fn random_rect(rng: &mut StdRng, dim: usize) -> Rect {
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for _ in 0..dim {
        let a = rough_f64(rng);
        let b = rough_f64(rng);
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    Rect::from_bounds(&lo, &hi)
}

fn random_expr(rng: &mut StdRng, depth: usize) -> LogicalExpr {
    if depth == 0 || rng.gen_bool(0.5) {
        if rng.gen_bool(0.6) {
            let dim = rng.gen_range(1..4);
            let lo: f64 = rng.gen_range(-0.2..1.0);
            let hi = (lo + rng.gen_range(0.0..1.0)).min(1.5);
            LogicalExpr::Pred(Predicate::percentile(
                random_rect(rng, dim),
                Interval::new(lo, hi),
            ))
        } else {
            let dim = rng.gen_range(1..4);
            let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            LogicalExpr::Pred(Predicate::topk_at_least(
                v,
                rng.gen_range(1..5),
                rough_f64(rng),
            ))
        }
    } else {
        let n = rng.gen_range(1..3);
        let xs: Vec<LogicalExpr> = (0..n).map(|_| random_expr(rng, depth - 1)).collect();
        if rng.gen_bool(0.5) {
            LogicalExpr::And(xs)
        } else {
            LogicalExpr::Or(xs)
        }
    }
}

fn random_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u8..11) {
        0 => Request::Query(random_expr(rng, 3)),
        1 => {
            let n = rng.gen_range(0..4);
            Request::QueryBatch((0..n).map(|_| random_expr(rng, 2)).collect())
        }
        2 | 3 => {
            let n = rng.gen_range(1..4usize);
            let dim = rng.gen_range(1..3usize);
            let datasets: Vec<Dataset> = (0..n)
                .map(|i| {
                    let rows: Vec<Vec<f64>> = (0..rng.gen_range(1..5))
                        .map(|_| (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect())
                        .collect();
                    Dataset::from_rows(format!("d{i}-µ"), rows)
                })
                .collect();
            let global_ids: Vec<u64> = (0..rng.gen_range(0..5u64)).map(|i| i * 3).collect();
            if rng.gen_bool(0.5) {
                Request::AddShard {
                    request_id: rng.gen(),
                    datasets,
                    global_ids,
                }
            } else {
                Request::RebuildShard {
                    shard: rng.gen_range(0..9),
                    request_id: rng.gen(),
                    datasets,
                    global_ids,
                }
            }
        }
        4 => Request::Stats,
        5 => Request::Ping { token: rng.gen() },
        6 => Request::Shutdown,
        7 => Request::Sleep {
            ms: rng.gen_range(0..500),
        },
        8 => Request::SplitShard {
            // Hostile values round-trip like honest ones — validity
            // against the served catalog is the server's concern, not the
            // codec's (the decoder only rejects an *empty* assignment).
            shard: rng.gen_range(0..100),
            move_ids: (0..rng.gen_range(1..5usize)).map(|_| rng.gen()).collect(),
        },
        9 => Request::Metrics,
        _ => Request::MergeShards {
            a: rng.gen_range(0..100),
            b: rng.gen_range(0..100),
        },
    }
}

fn random_engine_result(rng: &mut StdRng) -> Result<Vec<u64>, EngineError> {
    if rng.gen_bool(0.7) {
        let n = rng.gen_range(0..6);
        Ok((0..n).map(|_| rng.gen()).collect())
    } else if rng.gen_bool(0.5) {
        Err(EngineError::MissingRank(rng.gen_range(0..100)))
    } else {
        Err(EngineError::DimensionMismatch {
            expected: rng.gen_range(1..10),
            got: rng.gen_range(1..10),
        })
    }
}

fn random_snapshot(rng: &mut StdRng) -> HistogramSnapshot {
    let mut counts = [0u64; BUCKETS];
    for c in counts.iter_mut() {
        if rng.gen_bool(0.25) {
            *c = if rng.gen_bool(0.1) {
                u64::MAX
            } else {
                rng.gen_range(0..1_000_000)
            };
        }
    }
    HistogramSnapshot::from_counts(counts)
}

fn random_trace(rng: &mut StdRng) -> QueryTrace {
    QueryTrace {
        seq: rng.gen(),
        opcode: rng.gen(),
        decode_ns: rng.gen(),
        queue_ns: rng.gen(),
        execute_ns: rng.gen(),
        write_ns: rng.gen(),
        total_ns: rng.gen(),
        shards_scattered: rng.gen(),
        shards_skipped_box: rng.gen(),
        shards_skipped_synopsis: rng.gen(),
        bytes_in: rng.gen(),
        bytes_out: rng.gen(),
    }
}

fn random_metrics(rng: &mut StdRng) -> MetricsReport {
    MetricsReport {
        decode: random_snapshot(rng),
        queue: random_snapshot(rng),
        execute: random_snapshot(rng),
        write: random_snapshot(rng),
        routing: random_snapshot(rng),
        scatter: random_snapshot(rng),
        slow_queries: (0..rng.gen_range(0..4))
            .map(|_| random_trace(rng))
            .collect(),
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0u8..9) {
        0 => Response::Hits(random_engine_result(rng)),
        1 => {
            let n = rng.gen_range(0..4);
            Response::BatchHits((0..n).map(|_| random_engine_result(rng)).collect())
        }
        2 => Response::ShardAdded {
            shard: rng.gen_range(0..100),
        },
        3 => Response::Done,
        4 => Response::Stats(ServerStats {
            requests: rng.gen(),
            bytes_in: rng.gen(),
            cache_hits: rng.gen(),
            n_datasets: rng.gen(),
            ..Default::default()
        }),
        5 => Response::Pong { token: rng.gen() },
        6 => Response::Busy,
        7 => Response::Metrics(random_metrics(rng)),
        _ => Response::Error(dds_server::ServerError::new(
            match rng.gen_range(0u8..6) {
                0 => ServerErrorKind::Protocol,
                1 => ServerErrorKind::Ingest,
                2 => ServerErrorKind::Unavailable,
                3 => ServerErrorKind::InvalidQuery,
                4 => ServerErrorKind::Throttled,
                _ => ServerErrorKind::Internal,
            },
            "naïve message ☃",
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → encode is the identity on bytes for requests.
    #[test]
    fn requests_round_trip_bit_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_request(&mut rng);
        let (op, bytes) = req.encode();
        let decoded = Request::decode(op, &bytes).expect("generated request decodes");
        let (op2, bytes2) = decoded.encode();
        prop_assert_eq!((op, bytes), (op2, bytes2));
    }

    /// Same for responses (structural equality is also available here).
    #[test]
    fn responses_round_trip_bit_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = random_response(&mut rng);
        let (op, bytes) = resp.encode();
        let decoded = Response::decode(op, &bytes).expect("generated response decodes");
        prop_assert_eq!(&decoded, &resp);
        let (op2, bytes2) = decoded.encode();
        prop_assert_eq!((op, bytes), (op2, bytes2));
    }

    /// Decoding arbitrary bytes under every opcode NEVER panics — it
    /// returns Ok or a typed WireError. (The fuzz-shaped complement of
    /// the round-trip property.)
    #[test]
    fn decoding_garbage_never_panics(seed in 0u64..1_000_000, len in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDECAF);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let op = rng.gen::<u8>();
        let _ = Request::decode(op, &bytes);
        let _ = Response::decode(op, &bytes);
    }

    /// Truncating a valid payload at any point yields a typed error (or,
    /// rarely, decodes as a shorter valid value — never a panic).
    #[test]
    fn truncated_payloads_are_typed(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let (op, bytes) = random_request(&mut rng).encode();
        prop_assume!(!bytes.is_empty());
        let cut = rng.gen_range(0..bytes.len());
        let _ = Request::decode(op, &bytes[..cut]);
    }

    /// Histogram merge is associative and commutative, so snapshots from
    /// many histograms (or many servers) combine in any order.
    #[test]
    fn histogram_merge_is_associative_and_commutative(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4157);
        let (a, b, c) = (
            random_snapshot(&mut rng),
            random_snapshot(&mut rng),
            random_snapshot(&mut rng),
        );
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
        // a ⊕ b == b ⊕ a
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// `quantile(q)` brackets the true quantile of the recorded samples:
    /// the reported value is >= the true value and < 2x it (the bucket
    /// bound documented on `HistogramSnapshot::quantile`), checked
    /// against an exact sorted-sample computation.
    #[test]
    fn quantile_brackets_the_exact_sample_quantile(
        mut samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut counts = [0u64; BUCKETS];
        for &s in &samples {
            counts[bucket_index(s)] += 1;
        }
        let snap = HistogramSnapshot::from_counts(counts);
        let got = snap.quantile(q).expect("non-empty");
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let (lo, hi) = bucket_bounds(bucket_index(exact));
        prop_assert!(got >= exact, "quantile {got} under-reports exact {exact}");
        prop_assert_eq!(got, hi, "quantile must be the containing bucket's upper bound");
        prop_assert!(lo <= exact && exact <= hi);
    }
}

// ---------------------------------------------------------------------------
// Live-server corruption drills
// ---------------------------------------------------------------------------

fn tiny_server_with(cfg: ServerConfig) -> DdsServer {
    let (ptile, pref) = (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    let mut engine =
        ShardedEngine::new(&[1], ptile, pref).with_build_options(BuildOptions::serial());
    engine.add_shard(
        &Repository::new(vec![Dataset::from_rows(
            "d",
            vec![vec![1.0], vec![2.0], vec![3.0]],
        )]),
        &[0],
    );
    DdsServer::serve(engine, "127.0.0.1:0", cfg).expect("bind")
}

fn tiny_server() -> DdsServer {
    tiny_server_with(ServerConfig::default())
}

fn ok_query() -> LogicalExpr {
    LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 10.0),
        0.5,
    ))
}

/// Asserts the server still serves correct answers on a fresh connection.
fn assert_alive(addr: std::net::SocketAddr) {
    let mut client = DdsClient::connect(addr).expect("fresh connection");
    assert_eq!(client.query(&ok_query()).expect("query"), Ok(vec![0]));
}

#[test]
fn hostile_frames_get_typed_errors_and_never_kill_the_server() {
    let server = tiny_server();
    let addr = server.local_addr();

    // 1. Oversized declared length: typed error, connection closes, no
    //    allocation of the declared size.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match read_frame(&mut s, DEFAULT_MAX_FRAME_LEN) {
        Ok(frame) => {
            let resp = Response::decode(frame.opcode, &frame.payload).unwrap();
            match resp {
                Response::Error(e) => {
                    assert_eq!(e.kind, ServerErrorKind::Protocol);
                    assert!(e.message.contains("exceeds"), "{}", e.message);
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        Err(e) => panic!("expected an error frame, got {e:?}"),
    }
    assert_alive(addr);

    // 2. A frame too short to hold version + opcode.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&1u32.to_le_bytes()).unwrap();
    s.write_all(&[0]).unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));
    assert_alive(addr);

    // 3. Unknown protocol version: typed error, then close.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, 0x7F, opcode::PING, &[0u8; 8], DEFAULT_MAX_FRAME_LEN).unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    match Response::decode(frame.opcode, &frame.payload).unwrap() {
        Response::Error(e) => assert!(e.message.contains("version"), "{}", e.message),
        other => panic!("expected version error, got {other:?}"),
    }
    assert!(matches!(
        read_frame(&mut s, DEFAULT_MAX_FRAME_LEN),
        Err(FrameReadError::Eof)
    ));
    assert_alive(addr);

    // 4. Unknown opcode: typed error, session KEEPS SERVING (the frame
    //    boundary was intact).
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        0x5F,
        b"junk",
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));
    // Same connection, valid request: still answered.
    let (op, payload) = Request::Ping { token: 5 }.encode();
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        op,
        &payload,
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("pong");
    assert_eq!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Pong { token: 5 }
    );

    // 5. Semantic poison (NaN interval): typed error on the same session.
    let mut w = dds_server::wire::Writer::new();
    w.put_u8(0x00); // Pred
    w.put_u8(0x00); // Percentile
    w.put_u32(1);
    w.put_f64(0.0);
    w.put_f64(1.0);
    w.put_f64(f64::NAN);
    w.put_f64(1.0);
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        opcode::QUERY,
        &w.into_bytes(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));

    // 6. Trailing bytes after a valid payload.
    let (op, mut payload) = Request::Ping { token: 1 }.encode();
    payload.push(0xAB);
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        op,
        &payload,
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));
    assert_alive(addr);

    server.shutdown();
}

#[test]
fn sleep_is_rejected_unless_the_server_opts_in() {
    // The backpressure drills enable it explicitly; a default-config
    // server must refuse the executor-occupancy primitive, typed.
    let server = tiny_server();
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    match client.sleep(10) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Protocol);
            assert!(e.message.contains("disabled"), "{}", e.message);
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    assert_alive(server.local_addr());
    server.shutdown();
}

#[test]
fn executor_panics_are_isolated_and_answered_typed() {
    // A panicking job must NOT kill its executor: with 2 executors, two
    // unwinds would otherwise drop the queue receiver and leave a
    // still-listening server answering `unavailable` forever. Drive MORE
    // panics than executors through the drill hook and prove the pool
    // survives every one of them.
    let (ptile, pref) = (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    let mut engine =
        ShardedEngine::new(&[1], ptile, pref).with_build_options(BuildOptions::serial());
    engine.add_shard(
        &Repository::new(vec![Dataset::from_rows(
            "d",
            vec![vec![1.0], vec![2.0], vec![3.0]],
        )]),
        &[0],
    );
    let cfg = ServerConfig {
        executors: 2,
        allow_sleep: true, // the panic drill rides the Sleep opt-in
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(engine, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    let mut client = DdsClient::connect(addr).expect("connect");
    for _ in 0..4 {
        match client.sleep(u32::MAX) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.kind, ServerErrorKind::Internal);
                assert!(e.message.contains("panic"), "{}", e.message);
            }
            other => panic!("expected a typed internal error, got {other:?}"),
        }
        // The session survives its own panicking request...
        client.ping().expect("session alive after panic");
        // ...and real work is still executed (an executor answered, so
        // the pool is alive — 4 panics > 2 executors proves isolation).
        assert_eq!(client.query(&ok_query()).expect("query"), Ok(vec![0]));
    }
    assert_alive(addr);
    let stats = server.shutdown();
    assert_eq!(stats.executor_panics, 4);
    // Every dequeued job was answered, panicking ones included.
    assert_eq!(stats.jobs_dequeued, stats.jobs_completed);
}

#[test]
fn oversized_responses_get_a_typed_error_not_a_dead_connection() {
    // 40 one-point datasets all match the query, so the Hits payload
    // (6 + 40·8 bytes) cannot fit a 128-byte frame bound; small requests
    // and the fallback error frame can.
    let (ptile, pref) = (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    let mut engine =
        ShardedEngine::new(&[1], ptile, pref).with_build_options(BuildOptions::serial());
    let datasets: Vec<Dataset> = (0..40)
        .map(|i| Dataset::from_rows(format!("d{i}"), vec![vec![i as f64]]))
        .collect();
    let ids: Vec<u64> = (0..40).collect();
    engine.add_shard(&Repository::new(datasets), &ids);
    let cfg = ServerConfig {
        max_frame_len: 128,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(engine, "127.0.0.1:0", cfg).expect("bind");

    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let all = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(-100.0, 100.0),
        0.0,
    ));
    match client.query(&all) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Internal);
            assert!(e.message.contains("frame bound"), "{}", e.message);
        }
        other => panic!("expected a typed frame-bound error, got {other:?}"),
    }
    // The stream stayed in sync: the same session keeps serving, and a
    // response that fits the bound comes through untouched.
    client
        .ping()
        .expect("session alive after oversized response");
    let one = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(-0.5, 0.5),
        0.5,
    ));
    assert_eq!(client.query(&one).expect("small query"), Ok(vec![0]));
    server.shutdown();
}

#[test]
fn mid_request_disconnects_never_wedge_the_server() {
    let server = tiny_server();
    let addr = server.local_addr();

    // Disconnect inside the length prefix.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0x10]).unwrap();
    }
    // Disconnect inside a declared body.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[PROTOCOL_VERSION, opcode::QUERY, 1, 2, 3])
            .unwrap();
    }
    // Disconnect right after a full request, before reading the reply
    // (the executor's answer goes nowhere — correctly dropped).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let (op, payload) = Request::Query(ok_query()).encode();
        write_frame(
            &mut s,
            PROTOCOL_VERSION,
            op,
            &payload,
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
    }
    // An HTTP client knocking on the wrong port: its request line reads
    // as an absurd length prefix — typed error or close, never a panic.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let _ = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN);
    }
    assert_alive(addr);
    let stats = server.shutdown();
    assert!(stats.wire_errors >= 1);
}

#[test]
fn hostile_expressions_are_rejected_typed() {
    let server = tiny_server();
    let addr = server.local_addr();
    let mut client = DdsClient::connect(addr).expect("connect");

    // DNF bomb: 2^7 clauses exceeds the engine bound — rejected at
    // decode, never reaching `to_dnf`'s panic.
    let or = LogicalExpr::Or(vec![ok_query(), ok_query()]);
    let bomb = LogicalExpr::And(vec![or; 7]);
    match client.query(&bomb) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Protocol);
            assert!(e.message.contains("DNF"), "{}", e.message);
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    // Deep nesting: a hand-rolled frame 80 levels deep.
    let mut w = dds_server::wire::Writer::new();
    for _ in 0..80 {
        w.put_u8(0x01);
        w.put_u32(1);
    }
    w.put_u8(0x00);
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        opcode::QUERY,
        &w.into_bytes(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    match Response::decode(frame.opcode, &frame.payload).unwrap() {
        Response::Error(e) => assert!(e.message.contains("deep"), "{}", e.message),
        other => panic!("expected nesting rejection, got {other:?}"),
    }

    // A zero-child Or inside a wide And: the DNF clause *product* is
    // zero (slipping a naive bound check), but expansion would
    // materialize ~100^3 intermediate clauses first. Rejected at decode
    // before any expansion happens.
    let wide_or = LogicalExpr::Or(vec![ok_query(); 100]);
    let zero_bomb = LogicalExpr::And(vec![
        wide_or.clone(),
        wide_or.clone(),
        wide_or,
        LogicalExpr::Or(vec![]),
    ]);
    match client.query(&zero_bomb) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Protocol);
            assert!(e.message.contains("zero-child"), "{}", e.message);
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    // A hostile count (declares 2^30 datasets): typed, no allocation.
    let mut w = dds_server::wire::Writer::new();
    w.put_u32(1 << 30);
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        opcode::ADD_SHARD,
        &w.into_bytes(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));

    assert_alive(addr);
    server.shutdown();
}

#[test]
fn hostile_metrics_frames_are_typed_and_leave_the_server_standing() {
    let server = tiny_server();
    let addr = server.local_addr();

    // A Metrics request carries no payload; trailing bytes are a framing
    // violation and must be rejected typed on the live session.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        opcode::METRICS,
        b"junk",
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));
    // The same session keeps serving: a well-formed Metrics request is
    // answered with a decodable report.
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        opcode::METRICS,
        &[],
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("metrics frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Metrics(_)
    ));

    // The *reply* opcode arriving as a request is an unknown opcode:
    // typed error, session intact.
    write_frame(
        &mut s,
        PROTOCOL_VERSION,
        opcode::METRICS_REPLY,
        &[],
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).expect("error frame");
    assert!(matches!(
        Response::decode(frame.opcode, &frame.payload).unwrap(),
        Response::Error(e) if e.kind == ServerErrorKind::Protocol
    ));
    assert_alive(addr);
    server.shutdown();

    // Hostile METRICS_REPLY payloads on the client-side decoder: every
    // one is a typed error, never a panic, never an allocation sized by
    // the hostile count.
    //
    // Too few histograms.
    let mut w = dds_server::wire::Writer::new();
    w.put_u32(3);
    assert!(Response::decode(opcode::METRICS_REPLY, &w.into_bytes()).is_err());
    // A histogram whose bucket count disagrees with this build.
    let mut w = dds_server::wire::Writer::new();
    w.put_u32(6);
    w.put_u32(32);
    for _ in 0..32 {
        w.put_u64(0);
    }
    assert!(Response::decode(opcode::METRICS_REPLY, &w.into_bytes()).is_err());
    // A hostile trace count (declares 2^30 traces after valid histograms).
    let mut w = dds_server::wire::Writer::new();
    w.put_u32(6);
    for _ in 0..6 {
        w.put_u32(BUCKETS as u32);
        for _ in 0..BUCKETS {
            w.put_u64(0);
        }
    }
    w.put_u32(1 << 30);
    assert!(Response::decode(opcode::METRICS_REPLY, &w.into_bytes()).is_err());
    // Truncation mid-histogram.
    let (op, bytes) = Response::Metrics(MetricsReport::default()).encode();
    assert!(Response::decode(op, &bytes[..bytes.len() / 2]).is_err());
}

#[test]
fn hostile_lifecycle_indices_are_typed_invalid_query_never_a_panic() {
    // The tiny server holds ONE shard with ONE dataset (global id 0), so
    // every lifecycle request below names state that doesn't exist. Each
    // must come back as the permanent `invalid-query` kind — the ops
    // carry no data, so "ingest rejected" would be the wrong signal —
    // and the server must keep serving after every one.
    let server = tiny_server();
    let addr = server.local_addr();
    let mut client = DdsClient::connect(addr).expect("connect");

    let expect_invalid = |result: Result<usize, ClientError>, fragment: &str| match result {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::InvalidQuery, "{}", e.message);
            assert!(e.message.contains(fragment), "{}", e.message);
        }
        other => panic!("expected a typed invalid-query, got {other:?}"),
    };
    // Out-of-range shard index.
    expect_invalid(client.split_shard(5, &[0]), "no such shard");
    // An id the shard does not hold.
    expect_invalid(client.split_shard(0, &[7]), "not held by shard");
    // Moving everything leaves the staying side empty.
    expect_invalid(client.split_shard(0, &[0]), "leaves a side empty");
    // A duplicated id in the assignment.
    expect_invalid(client.split_shard(0, &[0, 0]), "repeats");
    // Merging a shard with itself, and with a shard that does not exist.
    expect_invalid(client.merge_shards(0, 0), "with itself");
    expect_invalid(client.merge_shards(0, 9), "no such shard");

    // Nothing transitioned, nothing panicked, answers unchanged.
    assert_alive(addr);
    let stats = server.shutdown();
    assert_eq!(stats.shard_splits, 0);
    assert_eq!(stats.shard_merges, 0);
    assert_eq!(stats.executor_panics, 0);
    assert_eq!(stats.n_shards, 1);
}

#[test]
fn a_slow_client_cannot_stall_other_sessions() {
    // ONE I/O thread, so the slow and the fast session share a single
    // readiness loop: if a byte-trickled frame held the loop hostage
    // (as a blocking `read_exact` would), every fast round trip below
    // would stall behind it. The readiness design makes each trickled
    // byte cost one nonblocking read, nothing more.
    let server = tiny_server_with(ServerConfig {
        io_threads: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut frame = Vec::new();
    let (op, payload) = Request::Ping { token: 9 }.encode();
    write_frame(
        &mut frame,
        PROTOCOL_VERSION,
        op,
        &payload,
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    let mut fast = DdsClient::connect(addr).expect("fast client");
    for byte in &frame {
        slow.write_all(std::slice::from_ref(byte)).unwrap();
        // A full round trip between every byte of the slow frame: the
        // loop is demonstrably not parked on the trickler.
        assert_eq!(fast.query(&ok_query()).expect("fast query"), Ok(vec![0]));
    }
    // The trickled frame completes and is answered normally.
    let resp = read_frame(&mut slow, DEFAULT_MAX_FRAME_LEN).expect("slow pong");
    assert_eq!(
        Response::decode(resp.opcode, &resp.payload).unwrap(),
        Response::Pong { token: 9 }
    );
    server.shutdown();
}

#[test]
fn client_timeouts_are_typed_and_leave_the_server_standing() {
    let server = tiny_server_with(ServerConfig {
        allow_sleep: true,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut client = DdsClient::connect_with(
        addr,
        ClientConfig {
            timeout: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .expect("connect with timeout");
    // The server answers after 1.5s; the client gives up at 100ms.
    match client.sleep(1500) {
        Err(ClientError::TimedOut) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    drop(client); // a timed-out connection is desynchronised — discard it
    assert_alive(addr);
    server.shutdown();
}
