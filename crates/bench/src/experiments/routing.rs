//! E18 — synopsis routing: how much more does the mass bound prune than
//! the bounding box, and at what (zero) cost to answers?
//!
//! The setup mirrors production traffic where routing matters: a catalog
//! partitioned **round-robin** over shards (each shard sees the full
//! flavour mix, so every shard's per-attribute bounding box spans
//! essentially the whole value range — a box test is blind), queried by
//! a *selective* stream ([`RequestStreamSpec::selective`]): narrow
//! interior rectangles asking `percentile_at_least` with a θ lower bound
//! far above the build's sampling margin. Sweeps rectangle width
//! (selectivity) × shard count, and for each row runs the same batch on
//! two engines over identical shard layouts:
//!
//! * **unrouted** — `with_routing(false)`, the correctness reference;
//! * **routed** — the mass-bound rule (the default).
//!
//! Columns report the per-row (expression, shard) skip counts and the
//! routed engine's batch time. "box skips" are the units the raw-point
//! bounding-box rule alone would skip, computed by `box_skips` from the
//! shards' raw points; "syn skips" are the routed engine's remaining
//! skips — the units only a positive mass bound proves silent.
//! `=unrouted` asserts both engines answered the entire batch
//! **byte-identically** — the zero-false-negative claim at experiment
//! scale. At the sharpest configuration (most shards, narrowest
//! rectangles) the run additionally asserts the synopsis skipped at least
//! 3× what the box could — the headline pruning win of the mass bound.

use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::framework::{LogicalExpr, MeasureFunction, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_workload::{RepoSpec, RequestStreamSpec, SelectiveShape};

fn bench_params(n: usize) -> PtileBuildParams {
    PtileBuildParams::default()
        .with_rect_budget(496)
        .with_phi_datasets(n)
}

/// Per-attribute `(min, max)` over one shard's raw points.
type RawBox = Vec<(f64, f64)>;

/// One engine over the round-robin layout, plus every shard's raw-point
/// bounding box for [`box_skips`].
fn build_engine(spec: &RepoSpec, k: usize, n: usize, route: bool) -> (ShardedEngine, Vec<RawBox>) {
    let mut svc = ShardedEngine::new(
        &[1],
        bench_params(n),
        PrefBuildParams::exact_centralized().with_eps(0.05),
    )
    .with_routing(route);
    let mut boxes = Vec::new();
    for shard in spec.shards(k) {
        let mut raw = vec![(f64::INFINITY, f64::NEG_INFINITY); spec.dim];
        for p in shard.sets.iter().flatten() {
            for (h, b) in raw.iter_mut().enumerate() {
                *b = (b.0.min(p[h]), b.1.max(p[h]));
            }
        }
        boxes.push(raw);
        svc.add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids);
    }
    (svc, boxes)
}

/// (expression, shard) units the raw-point bounding-box rule skips: every
/// DNF clause holds a percentile literal whose rectangle misses the
/// shard's box in some attribute and whose clamped θ lower bound exceeds
/// the shard's sampling margin. The selective stream carries no top-k
/// literal, so no expression here can error.
fn box_skips(svc: &ShardedEngine, boxes: &[RawBox], exprs: &[LogicalExpr]) -> u64 {
    let mut skips = 0;
    for expr in exprs {
        let dnf = expr.to_dnf();
        for (s, raw) in boxes.iter().enumerate() {
            let margin = svc.shard_engine(s).ptile_margin();
            let silent = dnf.iter().all(|clause| {
                clause.iter().any(|p| match &p.measure {
                    MeasureFunction::Percentile(r) => {
                        p.theta.lo.max(0.0) > margin
                            && raw
                                .iter()
                                .enumerate()
                                .any(|(h, b)| r.hi_at(h) < b.0 || r.lo_at(h) > b.1)
                    }
                    MeasureFunction::TopK { .. } => false,
                })
            });
            skips += u64::from(silent);
        }
    }
    skips
}

/// E18 — selectivity × shard-count sweep of box-rule vs mass-bound skips,
/// with a byte-identity assertion against the unrouted engine on every
/// row.
pub fn e18_selective_routing(scale: Scale) -> Table {
    let mut table = Table::new(
        "E18 — synopsis routing (selective streams; box-rule vs mass-bound skips; routed ≡ unrouted byte-identity)",
        &[
            "N",
            "shards",
            "width%",
            "batch",
            "total",
            "/query",
            "box skips",
            "syn skips",
            "=unrouted",
        ],
    );
    let n = if scale.smoke {
        120
    } else if scale.quick {
        400
    } else {
        2000
    };
    let batch = if scale.smoke {
        24
    } else if scale.quick {
        64
    } else {
        256
    };
    let spec = RepoSpec::mixed(n, 300, 1, 0xE18);
    // Widest → narrowest, so the asserted headline row runs last.
    let widths: &[f64] = if scale.smoke {
        &[0.30, 0.02]
    } else {
        &[0.30, 0.10, 0.02]
    };
    let shard_counts: &[usize] = &[2, 4, 8];
    for &k in shard_counts {
        let (unrouted, _) = build_engine(&spec, k, n, false);
        let (routed, boxes) = build_engine(&spec, k, n, true);
        for &width in widths {
            let exprs: Vec<LogicalExpr> = RequestStreamSpec::selective(batch, 0xE18)
                .with_selective_shape(SelectiveShape {
                    width_pct: width,
                    theta_lo: 0.6,
                })
                .exprs(&spec);
            let opts = BuildOptions::default();
            let expected = unrouted.query_batch_opts(&exprs, &opts);
            let skipped =
                |svc: &ShardedEngine| svc.shards_routed_past() + svc.shards_routed_by_synopsis();
            let before = skipped(&routed);
            let (answers, t) = time(|| routed.query_batch_opts(&exprs, &opts));
            let box_skips = box_skips(&routed, &boxes, &exprs);
            let syn_skips = skipped(&routed) - before - box_skips;
            // Zero false negatives, expression for expression: routing is
            // pure pruning.
            assert_eq!(
                answers, expected,
                "routing diverged from unrouted (shards {k}, width {width})"
            );
            if k == *shard_counts.last().unwrap() && width == *widths.last().unwrap() {
                assert!(
                    syn_skips > 0 && syn_skips >= 3 * box_skips,
                    "the mass bound must out-prune the box ≥3× on narrow interior \
                     traffic at {k} shards (box {box_skips}, synopsis {syn_skips})"
                );
            }
            table.row(vec![
                n.to_string(),
                k.to_string(),
                format!("{:.0}%", width * 100.0),
                batch.to_string(),
                fmt_duration(t),
                fmt_duration(t / batch as u32),
                box_skips.to_string(),
                syn_skips.to_string(),
                "✓".to_string(),
            ]);
        }
    }
    table
}
