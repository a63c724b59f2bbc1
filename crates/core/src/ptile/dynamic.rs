//! Dynamic Ptile index: synopsis insertion and deletion — Remark 1 after
//! Theorem 4.11.
//!
//! The range structure of Algorithm 3 is decomposable, so the classic
//! logarithmic method applies: lifted points live in Bentley–Saxe buckets
//! (`dds_rangetree::LogStructured`), synopsis insertion adds one batch of
//! lifted points, deletion tombstones them (physically dropped at the next
//! merge). Queries are Algorithm 4 over the bucket set, including the
//! zero-mass auxiliary structures. Datasets are identified by stable
//! `u64` handles issued at insertion.

use super::coreset::build_coreset;
use super::PtileBuildParams;
use crate::framework::Interval;
use crate::pool::{mix_seed, par_map, BuildOptions};
use dds_geom::Rect;
use dds_rangetree::{GlobalId, KdTree, LogStructured, Region};
use dds_synopsis::PercentileSynopsis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Stable handle of an inserted synopsis.
pub type SynopsisHandle = u64;

/// Dynamic percentile-range index over an evolving set of synopses.
///
/// ```
/// use dds_core::framework::Interval;
/// use dds_core::ptile::{DynamicPtileIndex, PtileBuildParams};
/// use dds_geom::{Point, Rect};
/// use dds_synopsis::ExactSynopsis;
///
/// let mut index = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
/// let a = index.insert_synopsis(&ExactSynopsis::new(vec![
///     Point::one(1.0), Point::one(7.0), Point::one(9.0),
/// ]));
/// let _b = index.insert_synopsis(&ExactSynopsis::new(vec![
///     Point::one(2.0), Point::one(4.0), Point::one(6.0), Point::one(10.0),
/// ]));
/// let hits = index.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
/// assert_eq!(hits, vec![a]);
/// index.remove_synopsis(a);
/// assert!(index.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4)).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct DynamicPtileIndex {
    dim: usize,
    params: PtileBuildParams,
    /// Lifted pair points in `R^{4d+2}` (`w±` budgets pre-folded).
    main: LogStructured<KdTree>,
    /// Per dimension: empty-slab triples `(c_j, c_{j+1}, ε_i + δ_i)`.
    aux: Vec<LogStructured<KdTree>>,
    owner_main: HashMap<GlobalId, SynopsisHandle>,
    groups_main: HashMap<SynopsisHandle, Vec<GlobalId>>,
    owner_aux: Vec<HashMap<GlobalId, SynopsisHandle>>,
    groups_aux: Vec<HashMap<SynopsisHandle, Vec<GlobalId>>>,
    /// Worst sampling error among synopses ever inserted (monotone, so
    /// guarantees quoted to callers never weaken retroactively).
    eps_max: f64,
    next_handle: SynopsisHandle,
    n_alive: usize,
}

/// One synopsis' insertion payload: the lifted pair points and the
/// per-dimension empty-slab triples, each as row-major rows, and the
/// achieved sampling error. A pure function
/// of `(handle, budget_n, synopsis, params)` — per-handle RNG streams via
/// [`mix_seed`]`(seed, handle)` — so batches can be computed on worker
/// threads in any order and applied in handle order, bit-identical to
/// serial one-at-a-time insertion.
struct DynPart {
    batch: Vec<f64>,
    slabs: Vec<Vec<f64>>,
    eps_i: f64,
}

impl DynamicPtileIndex {
    /// Creates an empty dynamic index for `dim`-dimensional datasets.
    pub fn new(dim: usize, params: PtileBuildParams) -> Self {
        assert!(dim >= 1);
        DynamicPtileIndex {
            dim,
            main: LogStructured::new(4 * dim + 2),
            aux: (0..dim).map(|_| LogStructured::new(3)).collect(),
            owner_main: HashMap::new(),
            groups_main: HashMap::new(),
            owner_aux: vec![HashMap::new(); dim],
            groups_aux: vec![HashMap::new(); dim],
            eps_max: 0.0,
            next_handle: 0,
            n_alive: 0,
            params,
        }
    }

    /// Number of currently indexed synopses.
    pub fn len(&self) -> usize {
        self.n_alive
    }

    /// True if no synopsis is indexed.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    /// Achieved sampling error ε (monotone maximum over insertions).
    pub fn eps(&self) -> f64 {
        self.eps_max
    }

    /// Query margin `ε + δ`.
    pub fn margin(&self) -> f64 {
        self.eps_max + self.params.delta
    }

    /// Guarantee band `2(ε + δ)` (as in the static range index).
    pub fn slack(&self) -> f64 {
        2.0 * self.margin()
    }

    /// Inserts a synopsis; `Õ(1)` amortized per lifted point. The sampling
    /// budget is split as if the repository held `max(N, 16)` datasets.
    ///
    /// Sampling draws from a per-handle RNG stream
    /// ([`mix_seed`]`(params.seed, handle)`), not a shared sequential
    /// generator, so an insertion's content depends only on `(handle, N)` —
    /// the property that lets [`insert_batch`](Self::insert_batch) compute
    /// payloads on worker threads and stay bit-identical to serial inserts.
    pub fn insert_synopsis<S: PercentileSynopsis>(&mut self, synopsis: &S) -> SynopsisHandle {
        let handle = self.next_handle;
        let budget_n = (self.n_alive + 1).max(16);
        let part = Self::dataset_part(&self.params, self.dim, handle, budget_n, synopsis);
        self.apply_part(part)
    }

    /// Bulk insertion on the worker pool: the per-synopsis payloads
    /// (coreset sampling, canonical-rectangle pair enumeration, empty
    /// slabs) are computed on `opts.threads` scoped threads and applied in
    /// handle order. The resulting structure — handles, bucket contents,
    /// query answers, quoted `eps()` — is **bit-identical** to calling
    /// [`insert_synopsis`](Self::insert_synopsis) once per synopsis in
    /// order, for every thread count.
    pub fn insert_batch<S: PercentileSynopsis + Sync>(
        &mut self,
        synopses: &[S],
        opts: &BuildOptions,
    ) -> Vec<SynopsisHandle> {
        let base_handle = self.next_handle;
        let base_alive = self.n_alive;
        let params = &self.params;
        let dim = self.dim;
        let parts = par_map(opts, synopses, |j, syn| {
            // The j-th unit sees the budget the serial loop would have used
            // at its turn: N grows by one per preceding insertion.
            let budget_n = (base_alive + j + 1).max(16);
            Self::dataset_part(params, dim, base_handle + j as u64, budget_n, syn)
        });
        parts.into_iter().map(|p| self.apply_part(p)).collect()
    }

    /// One synopsis' insertion payload (pure; runs on any worker thread).
    fn dataset_part<S: PercentileSynopsis>(
        params: &PtileBuildParams,
        dim: usize,
        handle: SynopsisHandle,
        budget_n: usize,
        synopsis: &S,
    ) -> DynPart {
        assert_eq!(synopsis.dim(), dim, "synopsis dimension mismatch");
        let mut rng = StdRng::seed_from_u64(mix_seed(params.seed, handle));
        let cs = build_coreset(synopsis, params, budget_n, &mut rng);
        let eps_i = super::params::effective_eps(cs.eps_i, params.eps_override);
        let c_i = eps_i + params.delta;
        DynPart {
            batch: cs.pair_rows(c_i),
            slabs: (0..dim).map(|h| cs.slab_rows(h, c_i)).collect(),
            eps_i,
        }
    }

    /// Applies one payload to the log-structured buckets (serial, in handle
    /// order — this is where the structure actually mutates).
    fn apply_part(&mut self, part: DynPart) -> SynopsisHandle {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.eps_max = self.eps_max.max(part.eps_i);
        let gids = self.main.insert_rows(&part.batch);
        for &g in &gids {
            self.owner_main.insert(g, handle);
        }
        self.groups_main.insert(handle, gids);
        for (h, slabs) in part.slabs.iter().enumerate() {
            let gids = self.aux[h].insert_rows(slabs);
            for &g in &gids {
                self.owner_aux[h].insert(g, handle);
            }
            self.groups_aux[h].insert(handle, gids);
        }
        self.n_alive += 1;
        handle
    }

    /// Removes a synopsis. Returns `false` for unknown handles.
    pub fn remove_synopsis(&mut self, handle: SynopsisHandle) -> bool {
        let Some(gids) = self.groups_main.remove(&handle) else {
            return false;
        };
        for g in gids {
            self.main.delete(g);
            self.owner_main.remove(&g);
        }
        for h in 0..self.dim {
            if let Some(gids) = self.groups_aux[h].remove(&handle) {
                for g in gids {
                    self.aux[h].delete(g);
                    self.owner_aux[h].remove(&g);
                }
            }
        }
        self.n_alive -= 1;
        true
    }

    /// Answers `Π = Pred_{M_R, θ}` over the live synopses; same guarantees
    /// as the static range index. Read-only (`&self`): concurrent queries
    /// may run against one index between mutations.
    pub fn query(&self, r: &Rect, theta: Interval) -> Vec<SynopsisHandle> {
        assert_eq!(r.dim(), self.dim, "query rectangle dimension mismatch");
        let d = self.dim;
        let mut region = Region::all(4 * d + 2);
        for h in 0..d {
            region = region.with_lo(h, r.lo_at(h), false);
            region = region.with_hi(d + h, r.lo_at(h), true);
            region = region.with_hi(2 * d + h, r.hi_at(h), false);
            region = region.with_lo(3 * d + h, r.hi_at(h), true);
        }
        region = region
            .with_lo(4 * d, theta.lo, false)
            .with_hi(4 * d + 1, theta.hi, false);

        let mut out = Vec::new();
        let mut reported: std::collections::HashSet<SynopsisHandle> =
            std::collections::HashSet::new();
        let owner_main = &self.owner_main;
        self.main.report_while(&region, &mut |g| {
            let handle = owner_main[&g];
            if reported.insert(handle) {
                out.push(handle);
            }
            true
        });
        if theta.lo <= self.margin() {
            let mut seen = reported;
            for h in 0..d {
                let slab_region = Region::all(3)
                    .with_hi(0, r.lo_at(h), true)
                    .with_lo(1, r.hi_at(h), true)
                    .with_lo(2, theta.lo, false);
                let mut hits = Vec::new();
                self.aux[h].report(&slab_region, &mut hits);
                for g in hits {
                    let handle = self.owner_aux[h][&g];
                    if seen.insert(handle) {
                        out.push(handle);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_geom::Point;
    use dds_synopsis::ExactSynopsis;

    fn syn(xs: &[f64]) -> ExactSynopsis {
        ExactSynopsis::new(xs.iter().map(|&x| Point::one(x)).collect())
    }

    #[test]
    fn insert_query_remove_cycle() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let h1 = idx.insert_synopsis(&syn(&[1.0, 7.0, 9.0]));
        let h2 = idx.insert_synopsis(&syn(&[2.0, 4.0, 6.0, 10.0]));
        assert_eq!(idx.eps(), 0.0);
        // Running example: θ = [0.2, 0.4] over R = [3, 8] → only h1.
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
        assert_eq!(hits, vec![h1]);
        // Remove h1: nothing left in the band.
        assert!(idx.remove_synopsis(h1));
        assert!(!idx.remove_synopsis(h1));
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
        assert!(hits.is_empty());
        // h2 still answers a wider band.
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.4, 0.6));
        assert_eq!(hits, vec![h2]);
    }

    #[test]
    fn many_inserts_trigger_merges_and_stay_correct() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let mut handles = Vec::new();
        // Dataset i concentrates at [i, i+0.5] (mass 1 inside its slot).
        for i in 0..40 {
            let base = 10.0 * i as f64;
            handles.push(idx.insert_synopsis(&syn(&[base, base + 0.2, base + 0.4])));
        }
        for i in (0..40).step_by(7) {
            let base = 10.0 * i as f64;
            let hits = idx.query(
                &Rect::interval(base - 1.0, base + 1.0),
                Interval::new(0.9, 1.0),
            );
            assert_eq!(hits, vec![handles[i]], "query around dataset {i}");
        }
        // Remove half, re-check.
        for i in (0..40).step_by(2) {
            assert!(idx.remove_synopsis(handles[i]));
        }
        assert_eq!(idx.len(), 20);
        let hits = idx.query(&Rect::interval(-1.0, 1.0), Interval::new(0.9, 1.0));
        assert!(hits.is_empty(), "removed dataset must not report");
        let hits = idx.query(&Rect::interval(9.0, 11.0), Interval::new(0.9, 1.0));
        assert_eq!(hits, vec![handles[1]]);
    }

    #[test]
    fn zero_band_aux_path_is_dynamic_too() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let h1 = idx.insert_synopsis(&syn(&[1.0, 9.0]));
        let h2 = idx.insert_synopsis(&syn(&[4.0, 5.0]));
        // R = [3, 6] has no mass from h1, full mass from h2.
        let mut hits = idx.query(&Rect::interval(3.0, 6.0), Interval::new(0.0, 0.2));
        hits.sort_unstable();
        assert_eq!(hits, vec![h1]);
        assert!(idx.remove_synopsis(h1));
        assert!(idx
            .query(&Rect::interval(3.0, 6.0), Interval::new(0.0, 0.2))
            .is_empty());
        let _ = h2;
    }
}
