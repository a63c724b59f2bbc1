//! Property-based tests (proptest) on the paper's core invariants, over
//! arbitrary small repositories and queries.

mod common;

use common::sorted;
use dds_core::framework::{Interval, Repository};
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{ExactCPtile1D, PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_geom::{CoordGrid, Point, Rect};
use dds_synopsis::ExactSynopsis;
use proptest::prelude::*;

/// Strategy: a repository of 1-d datasets with coordinates on a small
/// integer grid (maximizing ties and boundary cases).
fn repo_1d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..12),
        1..8,
    )
}

/// Strategy: a query interval with integer-ish bounds.
fn query_interval() -> impl Strategy<Value = (f64, f64)> {
    ((-25i32..25), (0i32..20)).prop_map(|(lo, w)| (lo as f64, (lo + w) as f64))
}

fn synopses_of(sets: &[Vec<f64>]) -> Vec<ExactSynopsis> {
    sets.iter()
        .map(|xs| ExactSynopsis::new(xs.iter().map(|&x| Point::one(x)).collect()))
        .collect()
}

fn brute_ptile(sets: &[Vec<f64>], lo: f64, hi: f64, theta: Interval) -> Vec<usize> {
    sets.iter()
        .enumerate()
        .filter(|(_, xs)| {
            let cnt = xs.iter().filter(|&&x| lo <= x && x <= hi).count();
            theta.contains(cnt as f64 / xs.len() as f64)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Strategy: one coordinate on a half-integer lattice in `[-1.5, 1.5]`,
/// with both signs of zero (maximizing ties, grid hits and `-0.0`).
fn lattice_coord() -> impl Strategy<Value = f64> {
    ((-3i32..4), (0u8..2)).prop_map(|(v, neg)| {
        if v == 0 && neg == 1 {
            -0.0
        } else {
            f64::from(v) * 0.5
        }
    })
}

/// Strategy: per-dimension grid coordinate lists of 1..4 lattice values
/// (single-coordinate axes included; duplicates are merged by the grid).
fn grid_coords() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(lattice_coord(), 1..4),
        prop::collection::vec(lattice_coord(), 1..4),
        prop::collection::vec(lattice_coord(), 1..4),
    )
        .prop_map(|(a, b, c)| vec![a, b, c])
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With tiny exact supports (ε = δ = 0) the threshold index IS exact.
    #[test]
    fn threshold_index_exact_on_small_supports(
        sets in repo_1d(),
        (lo, hi) in query_interval(),
        a_pct in 0u32..=100,
    ) {
        let a = a_pct as f64 / 100.0;
        let syns = synopses_of(&sets);
        let idx = PtileThresholdIndex::build(&syns, PtileBuildParams::exact_centralized());
        prop_assert_eq!(idx.eps(), 0.0);
        let got = sorted(idx.query(&Rect::interval(lo, hi), a));
        // a == 0 is the report-everything band; the guarantee allows it.
        if a == 0.0 {
            prop_assert_eq!(got.len(), sets.len());
        } else {
            let want = brute_ptile(&sets, lo, hi, Interval::new(a, 1.0));
            prop_assert_eq!(got, want);
        }
    }

    /// Range index with exact supports: exact answers for positive bands,
    /// superset-with-band semantics always.
    #[test]
    fn range_index_exact_on_small_supports(
        sets in repo_1d(),
        (lo, hi) in query_interval(),
        a_pct in 1u32..=90,
        w_pct in 0u32..=50,
    ) {
        let a = a_pct as f64 / 100.0;
        let b = (a + w_pct as f64 / 100.0).min(1.0);
        let syns = synopses_of(&sets);
        let idx = PtileRangeIndex::build(&syns, PtileBuildParams::exact_centralized());
        prop_assert_eq!(idx.eps(), 0.0);
        let theta = Interval::new(a, b);
        let got = sorted(idx.query(&Rect::interval(lo, hi), theta));
        let want = brute_ptile(&sets, lo, hi, theta);
        prop_assert_eq!(got, want);
    }

    /// The exact 1-d structure equals brute force for every θ and query.
    #[test]
    fn exact1d_always_exact(
        sets in repo_1d(),
        (lo, hi) in query_interval(),
        a_pct in 0u32..=100,
        w_pct in 0u32..=100,
    ) {
        let a = a_pct as f64 / 100.0;
        let b = (a + w_pct as f64 / 100.0).min(1.0);
        let repo = Repository::from_point_sets(
            sets.iter()
                .map(|xs| xs.iter().map(|&x| Point::one(x)).collect())
                .collect(),
        );
        let theta = Interval::new(a, b);
        let idx = ExactCPtile1D::build(&repo, theta);
        let got = sorted(idx.query(lo, hi));
        let want = brute_ptile(&sets, lo, hi, theta);
        prop_assert_eq!(got, want);
    }

    /// The counted canonical-rectangle pass against the paper-literal
    /// path: same rectangles in `enumerate_rects` order, expansions equal
    /// to `one_step_expansion`, counts equal to `Rect::count_inside` — on
    /// grids taken from the sample (every value on a coordinate) and on
    /// independent grids (values between, below and above coordinates).
    #[test]
    fn counted_grid_pass_matches_enumeration(
        d in 1usize..4,
        raw in prop::collection::vec((lattice_coord(), lattice_coord(), lattice_coord()), 1..12),
        coords in grid_coords(),
        from_sample in 0u8..2,
    ) {
        let pts: Vec<Point> = raw
            .iter()
            .map(|&(x, y, z)| Point::new([x, y, z][..d].to_vec()))
            .collect();
        let grid = if from_sample == 1 {
            CoordGrid::from_points(&pts)
        } else {
            CoordGrid::from_coords(coords[..d].to_vec())
        };
        let rects = grid.enumerate_rects();
        let mut seen = 0usize;
        let mut mismatch = None;
        grid.for_each_rect(&pts, |r| {
            let want = &rects[seen];
            let hat = grid.one_step_expansion(want);
            let ok = bits(r.lo) == bits(want.lo())
                && bits(r.hi) == bits(want.hi())
                && bits(r.hat_lo) == bits(hat.lo())
                && bits(r.hat_hi) == bits(hat.hi())
                && r.count as usize == want.count_inside(&pts);
            if !ok && mismatch.is_none() {
                mismatch = Some(format!("{want:?}: count {} vs {}", r.count, want.count_inside(&pts)));
            }
            seen += 1;
        });
        prop_assert_eq!(mismatch, None);
        prop_assert_eq!(seen, rects.len());
    }

    /// Canonical grid invariants: the maximal rectangle inside any query
    /// has the same sample intersection as the query, and its one-step
    /// expansion strictly contains the query's core.
    #[test]
    fn maximal_rect_invariants(
        xs in prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..15),
        (lo, hi) in query_interval(),
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::one(x)).collect();
        let grid = CoordGrid::from_points(&pts);
        let r = Rect::interval(lo, hi);
        match grid.maximal_rect_in(&r) {
            Some(max) => {
                prop_assert!(r.contains_rect(&max));
                prop_assert_eq!(max.count_inside(&pts), r.count_inside(&pts));
                let hat = grid.one_step_expansion(&max);
                prop_assert!(hat.strictly_contains(&r) || hat.contains_rect(&r));
                prop_assert!(grid.is_canonical_pair(&max, &hat));
            }
            None => {
                prop_assert_eq!(r.count_inside(&pts), 0);
                prop_assert!(grid.has_empty_dimension(&r));
            }
        }
    }

    /// Pref recall: every dataset whose true ω_k clears the threshold is
    /// reported; every report is within the 2ε band.
    #[test]
    fn pref_recall_and_band(
        sets in prop::collection::vec(
            prop::collection::vec((-100i32..100, -100i32..100), 1..10),
            1..8,
        ),
        vx in -100i32..100,
        vy in -100i32..100,
        k in 1usize..4,
        a_raw in -100i32..100,
    ) {
        prop_assume!(vx != 0 || vy != 0);
        let n = ((vx * vx + vy * vy) as f64).sqrt();
        let v = [vx as f64 / n, vy as f64 / n];
        let a = a_raw as f64 / 100.0;
        // Scale points into the unit ball.
        let datasets: Vec<Vec<Point>> = sets
            .iter()
            .map(|ps| {
                ps.iter()
                    .map(|&(x, y)| Point::two(x as f64 / 150.0, y as f64 / 150.0))
                    .collect()
            })
            .collect();
        let syns: Vec<ExactSynopsis> =
            datasets.iter().map(|d| ExactSynopsis::new(d.clone())).collect();
        let idx = PrefIndex::build(&syns, k, PrefBuildParams::exact_centralized());
        let hits = idx.query(&v, a);
        for (i, d) in datasets.iter().enumerate() {
            let score = dds_workload::queries::exact_kth_score(d, &v, k);
            if score >= a {
                prop_assert!(hits.contains(&i), "missed {} (score {})", i, score);
            }
        }
        for &j in &hits {
            let score = dds_workload::queries::exact_kth_score(&datasets[j], &v, k);
            prop_assert!(score >= a - idx.slack() - 1e-9, "band violated for {}", j);
        }
    }

    /// Interval algebra sanity.
    #[test]
    fn interval_widening_monotone(a in 0.0f64..0.9, w in 0.0f64..0.1, s in 0.0f64..0.5) {
        let t = Interval::new(a, a + w);
        let wde = t.widened(s);
        prop_assert!(wde.lo <= t.lo && wde.hi >= t.hi);
        prop_assert!(wde.contains(a) && wde.contains(a + w));
    }
}
