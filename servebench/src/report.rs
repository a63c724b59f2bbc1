//! The metric catalogue and the result line every run ends with.

use crate::json::{num, quote};
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// Answer failures are not a metric: they are the result line's
/// `failed` out of `attempted`. Request latencies and batch throughput
/// (`query_p50_us`, `query_p99_us`, `control_p99_us`, `batch_p50_ms`,
/// `batch_p99_ms`, `exprs_per_s`) go to the stamp instead: on a shared
/// two-core virtual host, episodes of hypervisor steal double them for
/// minutes at a time, far beyond any bound a regression gate could use.
/// CPU time per query is the steal-proof measure of the same per-request
/// work, since stolen time is not charged to the process.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_query", "us"),
    ("sustained_qps", "req/s"),
    ("ingest_p50_ms", "ms"),
    ("precision", "ratio"),
    ("allocs_per_query", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pool.spawn_us", "us"),
    ("pool.fanout_speedup", "ratio"),
    ("server.overhead_ratio", "ratio"),
    ("server.jobs", "count"),
    ("server.busy_rejects", "count"),
    ("server.buffers_reused", "count"),
    ("server.queue_p50_us", "us"),
    ("server.execute_p50_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.req_bytes", "bytes"),
    ("wire.resp_bytes", "bytes"),
    ("client.rtt_p50_us", "us"),
    ("shard.query_p50_us", "us"),
    ("shard.batch_p50_us", "us"),
    ("shard.plan_ns", "ns"),
    ("shard.allocs_per_query", "count"),
    ("routing.skip_ratio", "ratio"),
    ("routing.mass_bound_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_unit_us", "us"),
    ("kernel.ptile_us", "us"),
    ("kernel.pref_us", "us"),
    ("kernel.unit_us", "us"),
    ("ingest.build_ms", "ms"),
    ("ingest.frame_mb", "MB"),
    ("ingest.read_overlap_ratio", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("gen.backlog_max", "count"),
    ("trace.overhead_us", "us"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// exactly the metrics of `catalogue`, in its order. Errors name any
/// metric missing, unknown or not finite, so a run can never print a
/// partial result.
pub fn result_line(
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric `{extra}` is not in the catalogue"));
    }
    let mut parts = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            num(*v),
            quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn bench_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(section: &str) -> Vec<(String, String)> {
        bench_json()
            .get(section)
            .expect("section present")
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn benchmark_json_names_the_workloads_this_binary_runs() {
        let names: Vec<String> = bench_json()
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::bench::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_prints_exactly_the_catalogue() {
        for catalogue in [END_TO_END, PER_LAYER] {
            let values: BTreeMap<&'static str, f64> = catalogue
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, 0.5 + i as f64))
                .collect();
            let line = result_line(catalogue, &values, 10, 0).unwrap();
            let v = parse(&line).unwrap();
            let Json::Obj(top) = &v else { panic!() };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(m)) = v.get("metrics") else {
                panic!()
            };
            assert_eq!(m.len(), catalogue.len());
            for (name, unit) in catalogue {
                assert_eq!(m[*name].get("unit").and_then(Json::as_str), Some(*unit));
            }
        }
    }

    #[test]
    fn result_line_refuses_partial_or_unknown_metrics() {
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
        values.remove("setup_s");
        assert!(result_line(END_TO_END, &values, 1, 0).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(result_line(END_TO_END, &values, 1, 0).is_err());
        values.insert("setup_s", 1.0);
        values.insert("bogus", 1.0);
        assert!(result_line(END_TO_END, &values, 1, 0).is_err());
        values.remove("bogus");
        let line = result_line(END_TO_END, &values, 4, 1).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
    }
}
