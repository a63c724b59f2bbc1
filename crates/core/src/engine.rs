//! Mixed-expression query engine.
//!
//! Appendix C.4 handles logical expressions of percentile predicates and
//! Appendix D.1 logical expressions of preference predicates. A practical
//! discovery system needs both in one expression — Example 1.1's economist
//! wants regional coverage (Ptile) *and* quality-of-life neighborhoods
//! (Pref) at once. [`MixedQueryEngine`] answers arbitrary
//! [`LogicalExpr`]s over both predicate kinds by DNF expansion: within a
//! conjunctive clause it intersects per-predicate index answers, across
//! clauses it unions (both operations preserve the superset-plus-band
//! guarantee shape, as the appendices note for the homogeneous cases).

use crate::bitset::BitSet;
use crate::cache::MaskCache;
use crate::framework::{Interval, LogicalExpr, MeasureFunction, Predicate, Repository};
use crate::pool::{par_map_with, BuildOptions};
use crate::pref::{PrefBuildParams, PrefIndex};
use crate::ptile::{PtileBuildParams, PtileRangeIndex};
use crate::scratch::QueryScratch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bit-exact hash key for a predicate, so identical predicates appearing in
/// several DNF clauses share one slot of a [`Dnf`] (one index query per
/// evaluation) and one [`MaskCache`] entry. Encodes the measure
/// discriminant, then every float as its IEEE-754 bit pattern
/// (`f64::to_bits`), so `-0.0 != 0.0` keys differ — a false negative only
/// costs a redundant query, never a wrong answer. Called only by
/// [`Dnf::compile`].
fn predicate_key(pred: &Predicate) -> Vec<u64> {
    let body = match &pred.measure {
        MeasureFunction::Percentile(r) => 2 * r.dim(),
        MeasureFunction::TopK { v, .. } => v.len(),
    };
    let mut key = Vec::with_capacity(body + 4);
    match &pred.measure {
        MeasureFunction::Percentile(r) => {
            key.push(0);
            key.push(r.dim() as u64);
            for h in 0..r.dim() {
                key.push(r.lo_at(h).to_bits());
                key.push(r.hi_at(h).to_bits());
            }
        }
        MeasureFunction::TopK { v, k } => {
            key.push(1);
            key.push(*k as u64);
            key.extend(v.iter().map(|x| x.to_bits()));
        }
    }
    key.push(pred.theta.lo.to_bits());
    key.push(pred.theta.hi.to_bits());
    key
}

/// An expression compiled for evaluation: its DNF as clauses of indexes
/// into a table of distinct predicates (deduplicated by bit-exact
/// [`predicate_key`], computed once per entry). DNF expansion repeats
/// predicates across clauses — distributing `p ∧ (q ∨ r)` puts `p` in both
/// clauses — and each table entry is evaluated at most once per engine
/// per query.
#[derive(Debug)]
pub(crate) struct Dnf {
    /// Distinct predicates, in first-occurrence order.
    pub(crate) preds: Vec<Predicate>,
    /// `keys[i]` is the cache key of `preds[i]`.
    pub(crate) keys: Vec<Vec<u64>>,
    /// Conjunctive clauses as indexes into `preds`.
    pub(crate) clauses: Vec<Vec<usize>>,
}

impl Dnf {
    /// Schema-checks `expr` against `dim` (skipped when `None`: a service
    /// with no shard has no schema to violate), then expands it and
    /// deduplicates its predicates. The check runs first, so a mismatched
    /// expression is never expanded.
    pub(crate) fn compile(expr: &LogicalExpr, dim: Option<usize>) -> Result<Self, EngineError> {
        if let Some(dim) = dim {
            check_schema(expr, dim)?;
        }
        let mut slots: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut preds = Vec::new();
        let clauses = expr
            .to_dnf()
            .into_iter()
            .map(|clause| {
                clause
                    .into_iter()
                    .map(|p| {
                        *slots.entry(predicate_key(&p)).or_insert_with(|| {
                            preds.push(p);
                            preds.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let mut keys = vec![Vec::new(); preds.len()];
        for (key, i) in slots {
            keys[i] = key;
        }
        Ok(Dnf {
            preds,
            keys,
            clauses,
        })
    }
}

/// Errors answering a mixed expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A preference predicate uses a rank `k` the engine has no index for.
    MissingRank(usize),
    /// A predicate's dimensionality (rectangle facets or preference-vector
    /// length) does not match the engine's schema dimension. Returned by
    /// every query path and by [`MixedQueryEngine::schema_check`] instead
    /// of panicking deep inside the underlying indexes.
    DimensionMismatch {
        /// The schema dimension the engine was built over.
        expected: usize,
        /// The dimensionality the offending predicate carries.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingRank(k) => {
                write!(
                    f,
                    "no Pref index built for k = {k}; add it to the engine params"
                )
            }
            EngineError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "query dimension {got} does not match the served schema (dim = {expected})"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Checks every predicate's dimensionality against the schema dimension
/// `dim`, reporting the first mismatch (in expression order) as a typed
/// [`EngineError::DimensionMismatch`]. Percentile predicates carry their
/// rectangle's facet count, preference predicates their direction-vector
/// length.
pub(crate) fn check_schema(expr: &LogicalExpr, dim: usize) -> Result<(), EngineError> {
    match expr {
        LogicalExpr::Pred(p) => {
            let got = match &p.measure {
                MeasureFunction::Percentile(r) => r.dim(),
                MeasureFunction::TopK { v, .. } => v.len(),
            };
            if got == dim {
                Ok(())
            } else {
                Err(EngineError::DimensionMismatch { expected: dim, got })
            }
        }
        LogicalExpr::And(xs) | LogicalExpr::Or(xs) => {
            xs.iter().try_for_each(|x| check_schema(x, dim))
        }
    }
}

/// A combined index answering logical expressions that mix percentile and
/// top-k preference predicates over one repository.
///
/// All query paths take `&self`: one engine can serve concurrent readers
/// (e.g. behind an `Arc`), and [`query_batch`](Self::query_batch) fans a
/// slice of expressions out over the worker pool. Batch calls share the
/// engine's **cross-call** [`MaskCache`]: a predicate repeated across
/// batches (the read-mostly catalog workload) queries its underlying index
/// only until cached, bounded by the cache capacity and invalidated via
/// the cache's generation tag.
#[derive(Debug)]
pub struct MixedQueryEngine {
    n_datasets: usize,
    ptile: PtileRangeIndex,
    /// One Pref index per supported rank `k`.
    pref: HashMap<usize, PrefIndex>,
    /// Underlying index queries issued over the engine's lifetime (after
    /// per-call memoization; distinct from the number of DNF literals seen).
    /// Atomic so the instrumentation survives concurrent `&self` queries.
    index_queries: AtomicU64,
    /// Cross-call predicate-mask cache used by the batch (and sharded)
    /// query paths. Behind an `Arc` so a shard rebuild can carry the cache
    /// (and its counters) over to the replacement engine.
    mask_cache: Arc<MaskCache>,
}

impl MixedQueryEngine {
    /// Builds the engine over a centralized repository, with Pref support
    /// for each rank in `ks`, using the default worker pool
    /// ([`BuildOptions::default`]: all available cores, `DDS_THREADS`
    /// override). The thread count never affects results.
    ///
    /// # Panics
    /// Panics if the repository is empty or `ks` is empty.
    pub fn build(
        repo: &Repository,
        ks: &[usize],
        ptile_params: PtileBuildParams,
        pref_params: PrefBuildParams,
    ) -> Self {
        Self::build_opts(
            repo,
            ks,
            ptile_params,
            pref_params,
            &BuildOptions::default(),
        )
    }

    /// [`build`](Self::build) with an explicit worker-pool configuration.
    ///
    /// # Panics
    /// Panics if the repository is empty or `ks` is empty.
    pub fn build_opts(
        repo: &Repository,
        ks: &[usize],
        ptile_params: PtileBuildParams,
        pref_params: PrefBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        assert!(!ks.is_empty(), "need at least one preference rank");
        let synopses = repo.exact_synopses();
        let ptile = PtileRangeIndex::build_opts(&synopses, ptile_params, opts);
        let pref = ks
            .iter()
            .map(|&k| {
                (
                    k,
                    PrefIndex::build_opts(&synopses, k, pref_params.clone(), opts),
                )
            })
            .collect();
        MixedQueryEngine {
            n_datasets: repo.len(),
            ptile,
            pref,
            index_queries: AtomicU64::new(0),
            mask_cache: Arc::new(MaskCache::with_default_capacity()),
        }
    }

    /// Bounds the engine's cross-call mask cache at `capacity` entries
    /// (builder-style) instead of
    /// [`DEFAULT_MASK_CACHE_CAPACITY`](crate::cache::DEFAULT_MASK_CACHE_CAPACITY).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_mask_cache_capacity(mut self, capacity: usize) -> Self {
        self.mask_cache = Arc::new(MaskCache::new(capacity));
        self
    }

    /// Replaces the engine's cross-call mask cache (builder-style).
    /// Crate-internal on purpose: cache keys encode only the predicate,
    /// not the repository, so attaching one cache to engines over
    /// different data would silently serve the wrong masks. The only
    /// legitimate use is the shard-rebuild carry-over
    /// (`ShardedEngine::try_rebuild_shard`), which invalidates the cache's
    /// generation as it hands it to the replacement engine.
    pub(crate) fn with_mask_cache(mut self, cache: Arc<MaskCache>) -> Self {
        self.mask_cache = cache;
        self
    }

    /// The engine's cross-call predicate-mask cache (hit/miss counters,
    /// capacity bound, generation tag). Shared by every
    /// [`query_batch`](Self::query_batch) call.
    pub fn mask_cache(&self) -> &Arc<MaskCache> {
        &self.mask_cache
    }

    /// Number of datasets the engine indexes.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// The schema dimension `d` the engine was built over. Every
    /// predicate in a query must carry this dimensionality; every query
    /// path rejects mismatches with a typed
    /// [`EngineError::DimensionMismatch`].
    pub fn dim(&self) -> usize {
        self.ptile.dim()
    }

    /// Checks every expression's predicate dimensionalities against the
    /// engine schema, reporting the first mismatch as a typed error —
    /// the check every query path runs before touching an index.
    pub fn schema_check(&self, exprs: &[LogicalExpr]) -> Result<(), EngineError> {
        exprs.iter().try_for_each(|e| check_schema(e, self.dim()))
    }

    /// Total underlying index queries issued so far. DNF expansion can
    /// repeat one predicate in many clauses; this counts post-memoization
    /// queries, so it measures real index work. Batch calls go through the
    /// **cross-call** [`MaskCache`], so a batch advances the counter by
    /// the number of distinct predicates *not already cached* — repeating
    /// an identical batch advances it by 0 while the masks stay resident
    /// (see [`mask_cache`](Self::mask_cache) for the hit/miss split).
    pub fn index_queries(&self) -> u64 {
        self.index_queries.load(Ordering::Relaxed)
    }

    /// The Ptile guarantee band.
    pub fn ptile_slack(&self) -> f64 {
        self.ptile.slack()
    }

    /// The worst per-dataset Ptile budget `max_i (ε_i + δ_i)` — the
    /// threshold below which the zero-mass corner case can report a
    /// dataset with no sample point inside the query rectangle. The shard
    /// routing fast path (`dds_core::shard`) may only skip an engine when
    /// a predicate's clamped lower bound strictly exceeds this.
    pub fn ptile_margin(&self) -> f64 {
        self.ptile.margin()
    }

    /// The Ptile build's routing synopsis (per-axis mass-bound envelope
    /// over the weight samples), if one could be built — `None` when a
    /// sample coordinate was `NaN`. The shard routing fast path
    /// (`dds_core::shard`) combines it with
    /// [`ptile_margin`](Self::ptile_margin) to prove shards silent for
    /// selective percentile predicates.
    pub fn routing_synopsis(&self) -> Option<&crate::ptile::RoutingSynopsis> {
        self.ptile.routing_synopsis()
    }

    /// The Pref guarantee band for rank `k` (if indexed).
    pub fn pref_slack(&self, k: usize) -> Option<f64> {
        self.pref.get(&k).map(PrefIndex::slack)
    }

    /// Answers a logical expression over percentile and preference
    /// predicates: a superset of `q_Π(P)`, every reported dataset within
    /// each touched predicate's band. A predicate of the wrong
    /// dimensionality yields [`EngineError::DimensionMismatch`] instead of
    /// a panic inside the underlying indexes.
    ///
    /// Read-only: the engine can be shared (`&self`, e.g. behind an `Arc`)
    /// across query threads. Allocates a fresh [`QueryScratch`] per call;
    /// query loops should prefer [`query_with`](Self::query_with). Never
    /// consults the cross-call [`MaskCache`]: every call queries the
    /// underlying indexes.
    pub fn query(&self, expr: &LogicalExpr) -> Result<Vec<usize>, EngineError> {
        self.query_with(expr, &mut QueryScratch::new())
    }

    /// [`query`](Self::query) with caller-provided scratch: identical
    /// answers; the reported flags, DNF accumulators, predicate-mask slots
    /// and the lifted orthant buffers are all reused across calls.
    pub fn query_with(
        &self,
        expr: &LogicalExpr,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<usize>, EngineError> {
        self.query_inner(&Dnf::compile(expr, Some(self.dim()))?, scratch, None)
    }

    /// Answers a slice of expressions with the default worker pool
    /// ([`BuildOptions::default`]: all available cores, `DDS_THREADS`
    /// override): per-worker reusable scratch, plus the engine's
    /// **cross-call** [`MaskCache`] so predicates repeated across the batch
    /// — or across *earlier batches* — query their underlying index once
    /// per cache residency. Each expression is schema-checked on its own:
    /// a wrong-dimension expression yields `Err(DimensionMismatch)` *in its
    /// slot* while the rest of the batch is still answered.
    ///
    /// Results come back in input order and are **bit-identical** to calling
    /// [`query`](Self::query) on each expression sequentially, for every
    /// thread count (pinned by `tests/batch_equivalence.rs`): cached masks
    /// are exactly the masks the indexes would recompute.
    pub fn query_batch(&self, exprs: &[LogicalExpr]) -> Vec<Result<Vec<usize>, EngineError>> {
        self.query_batch_opts(exprs, &BuildOptions::default())
    }

    /// [`query_batch`](Self::query_batch) with an explicit worker-pool
    /// configuration.
    pub fn query_batch_opts(
        &self,
        exprs: &[LogicalExpr],
        opts: &BuildOptions,
    ) -> Vec<Result<Vec<usize>, EngineError>> {
        par_map_with(opts, exprs, QueryScratch::new, |scratch, _, expr| {
            let dnf = Dnf::compile(expr, Some(self.dim()))?;
            self.query_inner(&dnf, scratch, Some(&self.mask_cache))
        })
    }

    /// The DNF evaluation loop behind every query path, the sharded
    /// engine's scatter units included. Each predicate slot of `dnf` is
    /// evaluated at most once (lazily, in clause order, so an error
    /// surfaces from the first failing literal), through `cache` when one
    /// is given. Masks are packed bitsets: clause intersection is a
    /// word-wise AND over 64 datasets at a time.
    pub(crate) fn query_inner(
        &self,
        dnf: &Dnf,
        scratch: &mut QueryScratch,
        cache: Option<&MaskCache>,
    ) -> Result<Vec<usize>, EngineError> {
        let n = self.n_datasets;
        let mut out = Vec::new();
        // The slots, dedup set and accumulator move out of the scratch
        // while the leaf queries (which borrow the scratch for their own
        // buffers) run, and move back afterwards so their capacity is kept.
        let mut memo = std::mem::take(&mut scratch.memo);
        memo.clear();
        memo.resize(dnf.preds.len(), None);
        let mut seen = std::mem::take(&mut scratch.seen);
        seen.reset(n);
        let mut acc = std::mem::take(&mut scratch.acc);
        let mut result = Ok(());
        'clauses: for clause in &dnf.clauses {
            if clause.is_empty() {
                continue;
            }
            acc.reset(n);
            acc.set_all();
            for &slot in clause {
                let mask = match &mut memo[slot] {
                    Some(m) => m,
                    empty => {
                        let pred = &dnf.preds[slot];
                        let computed = match cache {
                            None => self.compute_mask(pred, scratch),
                            Some(cache) => cache.get_or_compute(&dnf.keys[slot], || {
                                self.compute_mask(pred, scratch)
                            }),
                        };
                        match computed {
                            Ok(m) => empty.insert(m),
                            Err(e) => {
                                result = Err(e);
                                break 'clauses;
                            }
                        }
                    }
                };
                acc.and_assign(mask);
            }
            for j in acc.iter_ones() {
                if seen.insert(j) {
                    out.push(j);
                }
            }
        }
        scratch.memo = memo;
        scratch.seen = seen;
        scratch.acc = acc;
        result.map(|()| out)
    }

    /// Queries the underlying index for one predicate and packs the hits.
    fn compute_mask(
        &self,
        pred: &Predicate,
        scratch: &mut QueryScratch,
    ) -> Result<Arc<BitSet>, EngineError> {
        let mut mask = BitSet::new(self.n_datasets);
        match &pred.measure {
            MeasureFunction::Percentile(r) => {
                let theta = Interval::new(
                    pred.theta.lo.max(0.0),
                    pred.theta.hi.min(1.0).max(pred.theta.lo.max(0.0)),
                );
                self.ptile.query_cb_with(r, theta, scratch, &mut |j| {
                    mask.insert(j);
                });
            }
            MeasureFunction::TopK { v, k } => {
                let idx = self.pref.get(k).ok_or(EngineError::MissingRank(*k))?;
                idx.query_cb(v, pred.theta.lo, &mut |j| {
                    mask.insert(j);
                });
            }
        }
        self.index_queries.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{ground_truth, Dataset, Predicate};
    use dds_geom::Rect;

    /// 2-d repository: coordinate 0 is a quality score (unit range),
    /// coordinate 1 a position. Percentile predicates range over positions,
    /// preference predicates over the score axis `v = (1, 0)`:
    ///  ds0: all mass at positions A = [0, 10], top score 0.9
    ///  ds1: all mass in A, top score 0.2
    ///  ds2: all mass in B = [20, 30], top score 0.9
    fn repo() -> Repository {
        Repository::new(vec![
            Dataset::from_rows("d0", vec![vec![0.9, 5.0], vec![0.8, 6.0]]),
            Dataset::from_rows("d1", vec![vec![0.2, 5.0], vec![0.1, 6.0]]),
            Dataset::from_rows("d2", vec![vec![0.9, 25.0], vec![0.8, 26.0]]),
        ])
    }

    fn region_a() -> Rect {
        Rect::from_bounds(&[-1.0, 0.0], &[1.0, 10.0])
    }

    fn region_b() -> Rect {
        Rect::from_bounds(&[-1.0, 20.0], &[1.0, 30.0])
    }

    fn engine() -> MixedQueryEngine {
        MixedQueryEngine::build(
            &repo(),
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized().with_eps(0.02),
        )
    }

    #[test]
    fn mixed_conjunction() {
        // Mass ≥ 0.5 in A AND top-1 score ≥ 0.5 → only ds0 and ds1 have the
        // mass; only ds0 clears the score.
        let e = engine();
        let expr = LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5)),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5)),
        ]);
        let hits = e.query(&expr).unwrap();
        let truth = ground_truth(&repo(), &expr);
        assert_eq!(truth, vec![0]);
        // Superset of ground truth; the exact answer is contained.
        assert!(hits.contains(&0));
        // Every hit is within both bands.
        for &j in &hits {
            let mass = region_a().mass(repo().get(j).points());
            assert!(mass >= 0.5 - e.ptile_slack() - 1e-9);
        }
    }

    #[test]
    fn mixed_disjunction() {
        // Mass ≥ 0.9 in B OR top-1 score ≥ 0.8: ds2 (both), ds0 (score).
        let e = engine();
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_b(), 0.9)),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.8)),
        ]);
        let mut hits = e.query(&expr).unwrap();
        hits.sort_unstable();
        for i in ground_truth(&repo(), &expr) {
            assert!(hits.contains(&i));
        }
        assert!(!hits.contains(&1), "ds1 satisfies neither disjunct");
    }

    #[test]
    fn missing_rank_is_reported() {
        let e = engine();
        let expr = LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 7, 0.1));
        assert_eq!(e.query(&expr), Err(EngineError::MissingRank(7)));
    }

    #[test]
    fn repeated_predicates_query_indexes_once() {
        // `(a ∧ s) ∨ (b ∧ s)`: DNF expansion mentions the score predicate
        // in both clauses, but it must hit the Pref index only once.
        let e = engine();
        let score = Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5);
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5)),
                LogicalExpr::Pred(score.clone()),
            ]),
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(region_b(), 0.5)),
                LogicalExpr::Pred(score.clone()),
            ]),
        ]);
        let mut hits = e.query(&expr).unwrap();
        hits.sort_unstable();
        assert_eq!(
            e.index_queries(),
            3,
            "4 DNF literals, 3 distinct predicates → 3 index queries"
        );
        for i in ground_truth(&repo(), &expr) {
            assert!(hits.contains(&i));
        }
        // A second identical call re-queries (memo is per-call) and keeps
        // counting.
        let again = e.query(&expr).unwrap();
        assert_eq!(e.index_queries(), 6);
        let mut again = again;
        again.sort_unstable();
        assert_eq!(again, hits);
    }

    #[test]
    fn dimension_mismatch_is_typed_not_a_panic() {
        let e = engine();
        assert_eq!(e.dim(), 2);
        // A 1-d rectangle against the 2-d schema: typed error on every
        // query path, no panic.
        let bad = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0], &[1.0]),
            0.5,
        ));
        let want = EngineError::DimensionMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(e.query(&bad), Err(want.clone()));
        assert_eq!(
            e.schema_check(std::slice::from_ref(&bad)),
            Err(want.clone())
        );
        // Nested inside a conjunction, and via a preference vector too.
        let nested = LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5)),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0, 0.0], 1, 0.5)),
        ]);
        assert_eq!(
            e.query(&nested),
            Err(EngineError::DimensionMismatch {
                expected: 2,
                got: 3,
            })
        );
    }

    #[test]
    fn batch_dimension_mismatch_errs_per_slot() {
        let e = engine();
        let good = LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5));
        let bad = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0], &[1.0]),
            0.5,
        ));
        let res = e.query_batch(&[good.clone(), bad, good]);
        assert_eq!(res.len(), 3);
        assert!(res[0].is_ok());
        assert_eq!(
            res[1],
            Err(EngineError::DimensionMismatch {
                expected: 2,
                got: 1,
            })
        );
        assert_eq!(res[2], res[0]);
    }

    #[test]
    fn no_duplicates_across_clauses() {
        let e = engine();
        let p = Predicate::percentile_at_least(region_a(), 0.5);
        let expr = LogicalExpr::Or(vec![LogicalExpr::Pred(p.clone()), LogicalExpr::Pred(p)]);
        let hits = e.query(&expr).unwrap();
        let mut dedup = hits.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(hits.len(), dedup.len());
    }
}
