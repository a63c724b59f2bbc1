//! Load generation: an open loop timed from each request's due time, a
//! closed loop, and the fixed-rate ladder that finds the highest rate
//! meeting a latency limit.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-request records of one open-loop phase, indexed by request number.
#[derive(Clone, Debug, Default)]
pub struct LoopSamples {
    /// Reply time minus due time: the wait behind a stall counts.
    pub latency_ns: Vec<u64>,
    /// Send time minus due time: how late the generator ran.
    pub lag_ns: Vec<u64>,
    /// Requests already due but not yet sent when this one was sent.
    pub backlog: Vec<u64>,
    /// Whether the request succeeded (a wrong answer is a failure).
    pub ok: Vec<bool>,
    /// Wall time from the first due time to the last reply.
    pub wall: Duration,
}

impl LoopSamples {
    /// Failed requests.
    pub fn failures(&self) -> usize {
        self.ok.iter().filter(|&&ok| !ok).count()
    }

    /// Largest backlog seen.
    pub fn backlog_max(&self) -> u64 {
        self.backlog.iter().copied().max().unwrap_or(0)
    }
}

/// Sleeps until `due`. A plain sleep, not a spin: the generator must not
/// burn the CPU the measured process's CPU time is charged with. Waking
/// late shows as generator lag, and in the latency, which counts from
/// the due time.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs `n` requests on an open-loop schedule of `rate` requests per
/// second starting at `start`: request `i` is due at `start + i / rate`.
/// Each connection state in `conns` gets its own thread; a free thread
/// claims the next request in order, waits for its due time and calls
/// `send(state, i)`, which returns whether the request succeeded.
/// Latency is taken from the due time, so a request that waited because
/// every connection was busy carries that wait.
pub fn open_loop<S, F>(start: Instant, rate: f64, n: usize, conns: &mut [S], send: F) -> LoopSamples
where
    S: Send,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    assert!(rate > 0.0 && !conns.is_empty());
    let latency: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let lag: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let backlog: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let ok: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let next = AtomicUsize::new(0);
    let due_of = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (latency, lag, backlog, ok, next, send) =
                (&latency, &lag, &backlog, &ok, &next, &send);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let due = due_of(i);
                wait_until(due);
                let sent = Instant::now();
                let due_by_now = ((sent - start).as_secs_f64() * rate).floor() as u64 + 1;
                backlog[i].store(
                    due_by_now.min(n as u64).saturating_sub(i as u64 + 1),
                    Ordering::Relaxed,
                );
                lag[i].store(nanos(sent - due), Ordering::Relaxed);
                let success = send(conn, i);
                latency[i].store(nanos(due.elapsed()), Ordering::Relaxed);
                ok[i].store(success, Ordering::Relaxed);
            });
        }
    });
    LoopSamples {
        latency_ns: latency.into_iter().map(AtomicU64::into_inner).collect(),
        lag_ns: lag.into_iter().map(AtomicU64::into_inner).collect(),
        backlog: backlog.into_iter().map(AtomicU64::into_inner).collect(),
        ok: ok.into_iter().map(AtomicBool::into_inner).collect(),
        wall: start.elapsed(),
    }
}

/// Runs `send(i)` back to back for `i = 0, 1, …` until `budget` has passed
/// or `max` requests were made; each latency is taken from its own send.
pub fn closed_loop(
    budget: Duration,
    max: usize,
    mut send: impl FnMut(usize) -> bool,
) -> LoopSamples {
    let start = Instant::now();
    let mut out = LoopSamples::default();
    for i in 0..max {
        if start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let success = send(i);
        out.latency_ns.push(nanos(t.elapsed()));
        out.lag_ns.push(0);
        out.backlog.push(0);
        out.ok.push(success);
    }
    out.wall = start.elapsed();
    out
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Whether a rung's generator fell behind for good: over the last tenth
/// of the rung the mean backlog stays above `max(4 × conns, n / 50)`. A
/// backlog that a stall builds and the server then drains does not count;
/// one that is still there when the rung ends does.
pub fn backlog_growing(backlog: &[u64], conns: usize) -> bool {
    let n = backlog.len();
    if n == 0 {
        return false;
    }
    let tail = &backlog[n - n.div_ceil(10)..];
    let mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
    mean > (4 * conns).max(n / 50) as f64
}

/// Latency at one fixed offered rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Completed rate: requests over the window's wall time.
    pub achieved: f64,
    /// Reported tail latency of the window's queries (ms).
    pub tail_ms: f64,
    /// Tail within the limit, no failures and no growing backlog.
    pub pass: bool,
}

/// The highest rate meeting the limit, from rungs measured at fixed
/// rates (any order): the completed rate of the highest rung below the
/// first failing one. When the lowest rung fails, its completed rate
/// scaled down by how far its tail overshot the limit.
pub fn sustained(rungs: &[Rung], limit_ms: f64) -> f64 {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    match sorted.iter().position(|r| !r.pass) {
        None => sorted.last().map_or(0.0, |r| r.achieved),
        Some(0) => sorted[0].achieved * (limit_ms / sorted[0].tail_ms.max(limit_ms)),
        Some(f) => sorted[f - 1].achieved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_a_stall_from_the_due_time() {
        // One connection at 1000 req/s; request 5 stalls for 100 ms. The
        // requests due during the stall were sent late, and their
        // latencies carry the wait.
        let mut conns = [()];
        let start = Instant::now() + Duration::from_millis(5);
        let samples = open_loop(start, 1000.0, 200, &mut conns, |_, i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(100));
            }
            true
        });
        let ms = |i: usize| samples.latency_ns[i] as f64 / 1e6;
        assert!(ms(5) >= 100.0);
        // Request 6 was due 1 ms after 5, so it waited ~99 ms.
        assert!(ms(6) >= 95.0, "request 6 latency {} ms", ms(6));
        assert!(ms(50) >= 50.0, "request 50 latency {} ms", ms(50));
        // Before the stall, latency is just the (instant) stub.
        assert!(ms(2) < 50.0);
        assert!(samples.lag_ns[6] >= 95_000_000);
        assert!(samples.backlog[6] >= 90, "backlog {}", samples.backlog[6]);
        assert_eq!(samples.failures(), 0);
        // The stub is instant, so the backlog drains before the end.
        assert!(!backlog_growing(&samples.backlog, 1));
    }

    #[test]
    fn open_loop_spreads_requests_over_connections() {
        let mut conns = vec![0usize; 2];
        let samples = open_loop(Instant::now(), 4000.0, 200, &mut conns, |c, i| {
            *c += 1;
            i % 50 != 7
        });
        assert_eq!(conns.iter().sum::<usize>(), 200);
        assert_eq!(samples.failures(), 4);
        assert_eq!(samples.latency_ns.len(), 200);
    }

    #[test]
    fn backlog_detection() {
        // Drained after a burst: not growing.
        let mut drained = vec![0u64; 1000];
        for (i, b) in drained.iter_mut().enumerate().take(300).skip(100) {
            *b = 200 - (i as u64 - 100);
        }
        assert!(!backlog_growing(&drained, 2));
        // Rising to the end: growing.
        let rising: Vec<u64> = (0..1000).map(|i| i / 10).collect();
        assert!(backlog_growing(&rising, 2));
        // A few requests in flight per connection is no backlog.
        assert!(!backlog_growing(&[3; 500], 2));
        assert!(!backlog_growing(&[], 2));
    }

    #[test]
    fn open_loop_backlog_grows_when_the_rate_outruns_the_server() {
        // 2 ms of service per request at 1000 req/s on one connection.
        let mut conns = [()];
        let samples = open_loop(Instant::now(), 1000.0, 150, &mut conns, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            true
        });
        assert!(backlog_growing(&samples.backlog, 1));
    }

    fn rung(rate: f64, tail_ms: f64, limit_ms: f64) -> Rung {
        Rung {
            rate,
            achieved: rate * 0.99,
            tail_ms,
            pass: tail_ms <= limit_ms,
        }
    }

    #[test]
    fn sustained_is_the_highest_rung_below_the_first_failure() {
        let rungs = [
            rung(2000.0, 20.0, 5.0),
            rung(500.0, 1.0, 5.0),
            rung(1000.0, 2.0, 5.0),
        ];
        assert_eq!(sustained(&rungs, 5.0), 1000.0 * 0.99);
        // Every rung passes: the top rung's completed rate.
        let all = [rung(100.0, 1.0, 5.0), rung(400.0, 2.0, 5.0)];
        assert_eq!(sustained(&all, 5.0), 400.0 * 0.99);
        // The lowest fails by 2x: half its completed rate.
        let none = [rung(100.0, 10.0, 5.0), rung(400.0, 50.0, 5.0)];
        assert_eq!(sustained(&none, 5.0), 100.0 * 0.99 * 0.5);
        // A failure on backlog alone fails the rung too.
        let backlog = [
            rung(100.0, 1.0, 5.0),
            Rung {
                pass: false,
                ..rung(400.0, 2.0, 5.0)
            },
        ];
        assert_eq!(sustained(&backlog, 5.0), 100.0 * 0.99);
        // Only the first failure counts, even if a higher rung passes.
        let noisy = [
            rung(100.0, 1.0, 5.0),
            rung(200.0, 10.0, 5.0),
            rung(400.0, 4.0, 5.0),
        ];
        assert_eq!(sustained(&noisy, 5.0), 100.0 * 0.99);
    }
}
