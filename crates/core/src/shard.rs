//! Sharded repository service: scatter/gather over per-shard engines.
//!
//! The ROADMAP north-star is a catalog holding millions of datasets; one
//! [`MixedQueryEngine`] per repository *shard* keeps build times and index
//! memory per-shard-sized while queries fan out over all of them. The
//! `&self` query paths make the fan-out trivial: every shard engine is
//! read-shared across the worker pool with no locks.
//!
//! # Query path
//!
//! Every query — single, batch or served — takes one path.
//! [`plan`](ShardedEngine::plan) compiles an expression once into a
//! [`QueryPlan`]: the schema verdict, the DNF as clauses over a table of
//! distinct predicates (deduplicated by bit-exact key, so a predicate
//! repeated across clauses is queried once per shard), and the routing
//! literals. One function evaluates an (expression, shard) *scatter unit*
//! — routing verdict, counters, telemetry, shard-local → global id
//! translation — and one function gathers the units into answers.
//! [`query`](ShardedEngine::query) drives the units inline on the
//! caller's thread; [`execute`](ShardedEngine::execute) (and the
//! `query_batch*` paths built on it) drives them over the worker pool and
//! also returns a per-call [`QueryReport`] of what the units did, exact
//! however many calls run concurrently.
//!
//! [`ShardedEngine`] owns the shard engines plus a **shard map** — each
//! shard carries the **stable global dataset ids** of its members, so hits
//! translate from shard-local indexes to ids that survive adding and
//! rebuilding shards (a shard-local index is meaningless outside its
//! shard; a [`GlobalId`] names the same dataset forever).
//!
//! Gather is canonicalized: hits come back in **ascending global-id
//! order**, and per-dataset sampling RNGs are seeded by **global id**
//! (not shard-local position, via `PtileBuildParams::seed_ids`), so a
//! dataset draws the same sample wherever it lands. The answer is then
//! independent of the thread count unconditionally, and of the shard
//! count/assignment as well once the φ-split is anchored
//! (`PtileBuildParams::with_phi_datasets`, or any build where every
//! dataset's support is used exactly — ε_i = 0 — which needs no
//! anchoring). `tests/shard_equivalence.rs` pins both regimes against a
//! single unsharded engine; without φ anchoring, a sampled build's
//! per-dataset sample *size* depends on the local shard size, so answers
//! agree with the unsharded engine only up to each dataset's guarantee
//! band.
//!
//! Each shard keeps its own cross-call [`MaskCache`];
//! [`try_rebuild_shard`](ShardedEngine::try_rebuild_shard) carries the
//! cache over to the replacement engine and bumps its generation, so a
//! rebuild invalidates **only that shard's entries** while every other
//! shard keeps serving cached masks.
//!
//! # Metrics
//!
//! The engine's counters, gauges and scatter-path timers live in one
//! [`EngineTelemetry`] block behind an `Arc` that no lifecycle operation
//! replaces. Each query call tallies its units into a [`QueryReport`] and
//! adds it to the block once, so lifetime totals
//! ([`stats_snapshot`](ShardedEngine::stats_snapshot)) never go backwards
//! when a rebuild, split or merge drops a shard engine or its cache, and a
//! serving layer holding a clone of the block
//! ([`telemetry`](ShardedEngine::telemetry)) reads them without the engine
//! lock. Per-shard engines and caches keep their own per-object counters.
//!
//! # Shard lifecycle
//!
//! A production catalog lives under churn: hot shards divide, cold shards
//! coalesce. Each shard retains its ingested datasets, so the lifecycle
//! operations are self-contained —
//! [`try_split_shard`](ShardedEngine::try_split_shard) divides one shard
//! in two (the datasets whose ids are in the assignment move to a new
//! shard), [`try_merge_shards`](ShardedEngine::try_merge_shards)
//! coalesces two into one, and
//! [`rebalance_plan`](ShardedEngine::rebalance_plan) proposes a list of
//! such transitions from per-shard size and query-load counters, which
//! [`apply_rebalance`](ShardedEngine::apply_rebalance) applies.
//!
//! Every lifecycle operation is **one fallible call** returning a typed
//! [`IngestError`], and every build it triggers runs on the engine's one
//! worker pool, set once with
//! [`with_build_options`](ShardedEngine::with_build_options).
//! [`add_shard`](ShardedEngine::add_shard) is the single panicking
//! convenience wrapper. All operations follow the validate→build→commit
//! discipline: a failing operation leaves the service untouched, and
//! because global ids are stable and sampling is seeded by global id,
//! **no transition can change any answer** — pinned by the split ≡
//! rebuilt / merge ≡ rebuilt proptests and the churn soak in
//! `tests/shard_equivalence.rs`. Cache generations travel with the
//! transitions the same way rebuilds carry them: the surviving side of a
//! split and the surviving slot of a merge inherit the old shard's
//! [`MaskCache`] with its generation bumped, so invalidation stays scoped
//! to the shards that changed.
//!
//! # Shard routing
//!
//! Every shard engine carries a **routing synopsis** built with its Ptile
//! index — per attribute, equi-depth histogram bins over the build's
//! per-dataset weight samples with a per-bin *max-mass envelope* (the
//! largest fraction of any one member dataset's sample inside the bin;
//! [`RoutingSynopsis`](crate::ptile::RoutingSynopsis)).
//!
//! **The mass-bound rule.** The range index reports dataset `j` for a
//! percentile predicate `(R, θ)` through its main structure only when
//! some canonical rectangle `ρ ⊆ R` has sample weight
//! `w(ρ) = |ρ ∩ S_j| / |S_j|` with `w(ρ) + (ε_j + δ_j) ≥ a_θ` (the
//! per-dataset budgets are pre-folded into the lifted weight
//! coordinates), and through the zero-mass empty-slab path only when
//! `a_θ ≤ ε_j + δ_j`. Both are impossible — for **every** member dataset
//! at once — whenever an upper bound `U ≥ max_j |R ∩ S_j| / |S_j|`
//! satisfies `U + margin < a_θ` (clamped to `a_θ ≥ 0`, with `margin =
//! max_j (ε_j + δ_j)`, [`MixedQueryEngine::ptile_margin`]): the main path
//! needs `w(ρ) ≥ a_θ − c_j > U ≥ w(ρ)`, a contradiction, and the aux
//! path needs `a_θ ≤ c_j ≤ margin < a_θ`, likewise. So the skip can
//! never route away a hit — soundness needs only that `U` really is an
//! upper bound, which the synopsis guarantees by construction: partial
//! bins are counted fully (an interval sums the envelope over every bin
//! it touches), axes combine by `min` (a rectangle is contained in each
//! of its axis slabs; a product would *under*-state correlated data),
//! and the envelope is computed over the same weight samples the lifted
//! weights are measured against.
//!
//! The raw-point bounding box is the rule's `U = 0` case: samples are raw
//! points and every dataset's smallest and largest sample sit on the
//! synopsis' edge list, so a rectangle missing the box in some attribute
//! gets a mass bound of exactly `0.0` (pinned by a proptest in
//! `tests/shard_equivalence.rs`). The counters keep that split:
//! [`shards_routed_past`](ShardedEngine::shards_routed_past) counts units
//! whose every clause is proven by a literal with a zero bound, and
//! [`shards_routed_by_synopsis`](ShardedEngine::shards_routed_by_synopsis)
//! the units whose proof needs a positive bound.
//!
//! An expression's scatter onto a shard is skipped only when **every**
//! DNF clause contains a skip-proving percentile literal; the per-clause
//! interval clamps are computed **once per query** and reused across
//! shards. Routing is answer-preserving bit for bit — pinned routed ≡
//! unrouted by `tests/shard_equivalence.rs` — and never engages for
//! expressions that would error (an unindexed preference rank must still
//! be reported even if every shard is otherwise skippable). A `NaN`
//! sample coordinate leaves its shard without a synopsis
//! (scatter-everywhere, answers unaffected).
//! [`with_routing`](ShardedEngine::with_routing) disables routing
//! entirely. The synopsis threads through the whole lifecycle for free:
//! add/rebuild/split/merge each rebuild the shard's engine, and the
//! engine's Ptile build carries its synopsis with it.

use crate::cache::MaskCache;
use crate::engine::{check_schema, Dnf, EngineError, MixedQueryEngine};
use crate::framework::{Dataset, LogicalExpr, MeasureFunction, Repository};
use crate::pool::{par_map_with, BuildOptions};
use crate::pref::PrefBuildParams;
use crate::ptile::PtileBuildParams;
use crate::scratch::QueryScratch;
use crate::telemetry::EngineTelemetry;
pub use crate::telemetry::{QueryReport, ShardedStats};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A stable dataset identifier: assigned at ingest, never reinterpreted
/// when shards are added or rebuilt (unlike a shard-local index).
pub type GlobalId = u64;

/// Why a shard lifecycle operation (ingest, rebuild, split, merge,
/// rebalance) was rejected. Every rejection leaves the service exactly as
/// it was; [`ShardedEngine::add_shard`] surfaces these as its panic
/// message, services (e.g. `dds-server`) serialize them via
/// [`Display`](fmt::Display).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// `global_ids.len() != repo.len()`.
    ArityMismatch {
        /// Datasets in the shard being ingested.
        datasets: usize,
        /// Global ids supplied for them.
        ids: usize,
    },
    /// The shard's schema dimension differs from the dimension already
    /// served by other shards (queries are service-wide, so every shard
    /// must share one schema).
    SchemaMismatch {
        /// Dimension served by the existing shards.
        expected: usize,
        /// Dimension of the rejected shard.
        got: usize,
    },
    /// A global id appears twice within the ingested shard.
    DuplicateId(GlobalId),
    /// A global id is already served by a *different* shard.
    IdInUse(GlobalId),
    /// The shard index passed to a rebuild does not exist.
    NoSuchShard {
        /// Requested shard index.
        shard: usize,
        /// Shards currently served.
        n_shards: usize,
    },
    /// Ingesting would grow the catalog past the declared
    /// `PtileBuildParams::with_phi_datasets` anchor, silently diluting the
    /// union-bound failure probability.
    PhiAnchorExceeded {
        /// The declared anchor.
        anchor: usize,
        /// Catalog size the ingest would reach.
        prospective: usize,
    },
    /// A split assignment names a global id the shard does not hold.
    IdNotInShard {
        /// The id the assignment asked to move.
        id: GlobalId,
        /// The shard being split.
        shard: usize,
    },
    /// A split assignment would leave one side empty: it moves none, or
    /// all, of the shard's datasets.
    EmptySplitSide {
        /// The shard being split.
        shard: usize,
        /// Datasets the assignment moves to the new shard.
        moving: usize,
        /// Datasets the shard holds.
        datasets: usize,
    },
    /// A merge named the same shard on both sides.
    MergeWithSelf {
        /// The shard named twice.
        shard: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::ArityMismatch { datasets, ids } => write!(
                f,
                "need one global id per dataset in the shard: got {ids} ids for {datasets} datasets"
            ),
            IngestError::SchemaMismatch { expected, got } => write!(
                f,
                "shard schema dimension {got} differs from the served dimension {expected}"
            ),
            IngestError::DuplicateId(id) => {
                write!(f, "global id {id} repeats within the shard")
            }
            IngestError::IdInUse(id) => {
                write!(f, "global id {id} is already served by another shard")
            }
            IngestError::NoSuchShard { shard, n_shards } => {
                write!(f, "no such shard: {shard} (service has {n_shards})")
            }
            IngestError::PhiAnchorExceeded {
                anchor,
                prospective,
            } => write!(
                f,
                "phi_datasets anchor ({anchor}) must be an upper bound on the catalog \
                 ({prospective} datasets after this ingest)"
            ),
            IngestError::IdNotInShard { id, shard } => {
                write!(f, "global id {id} is not held by shard {shard}")
            }
            IngestError::EmptySplitSide {
                shard,
                moving,
                datasets,
            } => write!(
                f,
                "split of shard {shard} leaves a side empty \
                 (assignment moves {moving} of its {datasets} datasets)"
            ),
            IngestError::MergeWithSelf { shard } => {
                write!(f, "cannot merge shard {shard} with itself")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// One shard's size and query load — the per-shard counters behind
/// [`ShardedEngine::rebalance_plan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard's index.
    pub shard: usize,
    /// Datasets the shard holds.
    pub datasets: usize,
    /// (expression, shard) scatter units this shard evaluated (skipped
    /// units don't count — routing removed their load). Carried across
    /// rebuilds; reset to zero by a split or merge, so a transitioned
    /// shard re-measures its load.
    pub queries: u64,
}

/// Thresholds steering [`ShardedEngine::rebalance_plan`].
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// A shard holding more datasets than this proposes a split.
    pub max_datasets: usize,
    /// Two shards whose combined dataset count stays within this bound
    /// propose a merge.
    pub merge_under: usize,
    /// A shard whose evaluated scatter-unit count exceeds this multiple
    /// of the per-shard mean proposes a split even within
    /// `max_datasets` (query-load skew, not size skew).
    pub hot_factor: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            max_datasets: 128,
            merge_under: 32,
            hot_factor: 4.0,
        }
    }
}

/// One proposed lifecycle transition. A plan (`Vec<RebalanceAction>`) is
/// applied **in order** — the planner emits indices that stay valid under
/// sequential application (splits never disturb existing indices; merges
/// are ordered so no earlier merge shifts a later action's indices).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Split `shard`, moving the datasets named by `move_ids` to a new
    /// shard (appended at the end of the shard list).
    Split {
        /// The shard to divide.
        shard: usize,
        /// Ids moving to the new shard — the upper half of the shard's
        /// ids in ascending order.
        move_ids: Vec<GlobalId>,
    },
    /// Merge shard `b` into shard `a` (`a < b`; the merged shard lands at
    /// `a`, shards past `b` shift down by one).
    Merge {
        /// The surviving slot.
        a: usize,
        /// The absorbed shard.
        b: usize,
    },
}

/// One repository shard: its engine plus the shard map back to global ids.
#[derive(Debug)]
struct Shard {
    engine: MixedQueryEngine,
    /// `global_ids[local]` is the stable id of the shard's `local`-th
    /// dataset — the gather-side translation table.
    global_ids: Vec<GlobalId>,
    /// Schema dimension of the shard's data.
    dim: usize,
    /// The ingested datasets (`datasets[local]` carries id
    /// `global_ids[local]`), retained so lifecycle transitions
    /// (split/merge) can rebuild replacement engines without the caller
    /// re-supplying data.
    datasets: Vec<Dataset>,
    /// (expression, shard) scatter units this shard evaluated — the load
    /// signal behind `rebalance_plan`. Carried across rebuilds (the shard
    /// keeps its identity), reset by split/merge (a transitioned shard
    /// re-measures).
    queries: AtomicU64,
}

/// How the routing fast path disposed of one (expression, shard) unit,
/// ordered from the strongest proof to none.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Skip {
    /// Skipped with a zero mass bound (counted by
    /// [`ShardedEngine::shards_routed_past`]).
    Box,
    /// Skipped with a positive mass bound (counted by
    /// [`ShardedEngine::shards_routed_by_synopsis`]).
    Synopsis,
    /// Not provably silent — evaluate the shard.
    No,
}

/// One routable percentile literal, pre-clamped for the per-shard loop:
/// the clamped threshold lower bound and the query rectangle as per-axis
/// intervals.
#[derive(Debug)]
struct RoutingLit {
    lo: f64,
    rect: Vec<(f64, f64)>,
}

/// One DNF clause as the router sees it, computed once per query.
#[derive(Debug)]
enum PlanClause {
    /// An empty clause — trivially proven silent on every shard.
    Vacuous,
    /// The clause's routable percentile literals (non-empty).
    Lits(Vec<RoutingLit>),
}

/// One expression compiled against a [`ShardedEngine`] by
/// [`plan`](ShardedEngine::plan), ready for
/// [`execute`](ShardedEngine::execute): it passed the schema check, its
/// DNF is expanded once over a table of distinct predicates (each with
/// its mask-cache key), and its routing literals are pre-clamped.
///
/// A plan is tied to the engine state it was made against; executing it
/// after an ingest changed the schema (the first shard of an empty
/// engine) panics.
#[derive(Debug)]
pub struct QueryPlan {
    /// The schema dimension the expression was checked against (`None`:
    /// the engine held no shard, so there was no schema to check).
    dim: Option<usize>,
    dnf: Dnf,
    /// Per-clause routing literals; `None` scatters everywhere (routing
    /// disabled, an unindexed preference rank — whose error must come
    /// from the shards, not be routed away — or a clause with no
    /// percentile literal, which no shard can prove silent).
    routing: Option<Vec<PlanClause>>,
}

/// One scatter unit's outcome: its tallies (how routing disposed of it,
/// what its evaluation did), and the shard's hits as global ids (empty
/// when skipped).
type Unit = (QueryReport, Result<Vec<GlobalId>, EngineError>);

/// A sharded mixed-query service: one [`MixedQueryEngine`] per repository
/// shard, scatter/gather query paths, stable [`GlobalId`] answers and
/// per-shard cross-call [`MaskCache`]s.
///
/// ```
/// use dds_core::framework::{Dataset, LogicalExpr, Predicate, Repository};
/// use dds_core::pref::PrefBuildParams;
/// use dds_core::ptile::PtileBuildParams;
/// use dds_core::shard::ShardedEngine;
/// use dds_geom::Rect;
///
/// let mut svc = ShardedEngine::new(
///     &[1],
///     PtileBuildParams::exact_centralized(),
///     PrefBuildParams::exact_centralized(),
/// );
/// // Two ingest batches become two shards; ids are caller-assigned.
/// svc.add_shard(
///     &Repository::new(vec![Dataset::from_rows("a", vec![vec![1.0], vec![2.0]])]),
///     &[10],
/// );
/// svc.add_shard(
///     &Repository::new(vec![Dataset::from_rows("b", vec![vec![1.5], vec![50.0]])]),
///     &[20],
/// );
/// let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
///     Rect::interval(0.0, 3.0),
///     0.9,
/// ));
/// // Both of dataset 10's points are in [0, 3]; only half of 20's.
/// assert_eq!(svc.query(&expr), Ok(vec![10]));
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    /// Every global id currently served, for uniqueness enforcement.
    ids_in_use: HashSet<GlobalId>,
    /// Build parameters shared by every shard engine, so answers cannot
    /// drift between shards built at different times.
    ks: Vec<usize>,
    ptile_params: PtileBuildParams,
    pref_params: PrefBuildParams,
    /// Per-shard mask-cache bound (entries, not bytes).
    cache_capacity: usize,
    /// Routing fast path (see the module docs). On by default;
    /// [`with_routing`](Self::with_routing) disables it.
    route: bool,
    /// Worker pool every shard build runs on (ingest, rebuild, split,
    /// merge). Set once with
    /// [`with_build_options`](Self::with_build_options).
    build_opts: BuildOptions,
    /// The engine's one metrics block (see the module docs): never
    /// replaced, so its lifetime counters survive every lifecycle op.
    telemetry: Arc<EngineTelemetry>,
}

impl ShardedEngine {
    /// An empty service; shards arrive via
    /// [`try_add_shard`](Self::try_add_shard). Every shard engine is built
    /// with these parameters and Pref ranks, a default-capacity
    /// [`MaskCache`] and the default worker pool. Any `seed_ids` on
    /// `ptile_params` are replaced per shard with the shard's global ids
    /// (stable-identity sampling); set
    /// `ptile_params.with_phi_datasets(catalog_size)` to anchor sampled
    /// builds to a declared catalog size (see the module docs).
    ///
    /// # Panics
    /// Panics if `ks` is empty.
    pub fn new(ks: &[usize], ptile_params: PtileBuildParams, pref_params: PrefBuildParams) -> Self {
        assert!(!ks.is_empty(), "need at least one preference rank");
        ShardedEngine {
            shards: Vec::new(),
            ids_in_use: HashSet::new(),
            ks: ks.to_vec(),
            ptile_params,
            pref_params,
            cache_capacity: crate::cache::DEFAULT_MASK_CACHE_CAPACITY,
            route: true,
            build_opts: BuildOptions::default(),
            telemetry: Arc::default(),
        }
    }

    /// Sets the per-shard mask-cache capacity (builder-style; applies to
    /// shards added afterwards).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "mask cache needs capacity >= 1");
        self.cache_capacity = capacity;
        self
    }

    /// Enables or disables the routing fast path (builder-style; default
    /// enabled). Routing never changes answers — disabling it only exists
    /// for A/B measurement and for the routed ≡ unrouted equivalence
    /// tests.
    pub fn with_routing(mut self, enabled: bool) -> Self {
        self.route = enabled;
        self
    }

    /// Sets the worker pool every lifecycle build and every batch query
    /// ([`query_batch`](Self::query_batch), and the server's `execute`
    /// calls) runs on (builder-style; default [`BuildOptions::default`]).
    /// The thread count never changes a built shard or an answer, only
    /// how fast it is produced.
    pub fn with_build_options(mut self, opts: BuildOptions) -> Self {
        self.build_opts = opts;
        self
    }

    /// The worker pool lifecycle builds and batch queries run on (see
    /// [`with_build_options`](Self::with_build_options)).
    pub fn build_options(&self) -> &BuildOptions {
        &self.build_opts
    }

    /// [`try_add_shard`](Self::try_add_shard) for callers that treat a
    /// rejected ingest as a bug.
    ///
    /// # Panics
    /// Panics with the [`IngestError`]'s message on any rejection.
    pub fn add_shard(&mut self, repo: &Repository, global_ids: &[GlobalId]) -> usize {
        self.try_add_shard(repo, global_ids)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Ingests one shard: builds its engine and records `global_ids[i]` as
    /// the stable id of `repo`'s `i`-th dataset. Returns the shard's index
    /// (for [`try_rebuild_shard`](Self::try_rebuild_shard)). A rejected
    /// ingest (`global_ids.len() != repo.len()`, an id already served, a
    /// schema mismatch, an exceeded φ anchor) returns the typed
    /// [`IngestError`] and leaves the service untouched.
    pub fn try_add_shard(
        &mut self,
        repo: &Repository,
        global_ids: &[GlobalId],
    ) -> Result<usize, IngestError> {
        // Validate, then build (which can still panic on pathological
        // parameters), then commit — a failing ingest leaves the service
        // state untouched.
        self.validate_ids(repo, global_ids, None)?;
        let cache = Arc::new(MaskCache::new(self.cache_capacity));
        let shard = self.build_shard(repo.clone(), global_ids.to_vec(), cache, 0);
        self.ids_in_use.extend(global_ids.iter().copied());
        self.shards.push(shard);
        self.publish_shape();
        Ok(self.shards.len() - 1)
    }

    /// Replaces shard `shard`'s contents (incremental ingest: a data
    /// refresh re-lands the shard). The replacement engine **inherits the
    /// shard's mask cache with its generation bumped**: the shard's stale
    /// masks are invalidated, while every other shard's cache is
    /// untouched. A rejected rebuild (`shard` out of range,
    /// `global_ids.len() != repo.len()`, an id already served by a
    /// *different* shard — re-using the replaced shard's ids is the
    /// normal case) returns the typed [`IngestError`]
    /// and leaves the service — including the shard being replaced —
    /// untouched.
    pub fn try_rebuild_shard(
        &mut self,
        shard: usize,
        repo: &Repository,
        global_ids: &[GlobalId],
    ) -> Result<(), IngestError> {
        self.check_shard(shard)?;
        // Validate against every *other* shard, then build — until the
        // commit below the old shard keeps serving with intact uniqueness
        // bookkeeping.
        self.validate_ids(repo, global_ids, Some(shard))?;
        let old = &self.shards[shard];
        let cache = Arc::clone(old.engine.mask_cache());
        let queries = old.queries.load(Ordering::Relaxed);
        let new = self.build_shard(repo.clone(), global_ids.to_vec(), cache, queries);
        // Commit: swap ids, invalidate the carried-over cache, install.
        for id in &self.shards[shard].global_ids {
            self.ids_in_use.remove(id);
        }
        self.ids_in_use.extend(global_ids.iter().copied());
        self.shards[shard].engine.mask_cache().invalidate();
        self.shards[shard] = new;
        self.publish_shape();
        Ok(())
    }

    /// Divides shard `shard` in two: the datasets whose global ids are in
    /// `move_ids` (the *assignment*) move to a new shard whose index is
    /// returned; the rest stay where they are. Ids and per-dataset
    /// sampling seeds are untouched, so no answer changes — pinned by
    /// `tests/shard_equivalence.rs`. The staying side inherits the shard's
    /// [`MaskCache`] with its generation bumped; the new shard starts with
    /// a fresh cache; every other shard's cache is untouched. A rejected
    /// split (`shard` out of range, an id not held by the shard, an
    /// assignment leaving a side empty) returns the typed [`IngestError`]
    /// and leaves the service — including the shard it named — untouched.
    pub fn try_split_shard(
        &mut self,
        shard: usize,
        move_ids: &[GlobalId],
    ) -> Result<usize, IngestError> {
        self.check_shard(shard)?;
        // Validate the assignment: distinct ids, every one held by the
        // split shard, neither side empty.
        let src = &self.shards[shard];
        let held: HashSet<GlobalId> = src.global_ids.iter().copied().collect();
        let mut moving = HashSet::with_capacity(move_ids.len());
        for &id in move_ids {
            if !moving.insert(id) {
                return Err(IngestError::DuplicateId(id));
            }
            if !held.contains(&id) {
                return Err(IngestError::IdNotInShard { id, shard });
            }
        }
        if move_ids.is_empty() || move_ids.len() == src.global_ids.len() {
            return Err(IngestError::EmptySplitSide {
                shard,
                moving: move_ids.len(),
                datasets: src.global_ids.len(),
            });
        }
        // Partition in shard-local order — the staying/moving orders (and
        // with them every observable detail of the two sides) depend only
        // on the assignment as a *set*, not on `move_ids`' order.
        let mut stay_sets = Vec::with_capacity(src.global_ids.len() - move_ids.len());
        let mut stay_ids = Vec::with_capacity(stay_sets.capacity());
        let mut move_sets = Vec::with_capacity(move_ids.len());
        let mut moved_ids = Vec::with_capacity(move_ids.len());
        for (ds, &id) in src.datasets.iter().zip(&src.global_ids) {
            if moving.contains(&id) {
                move_sets.push(ds.clone());
                moved_ids.push(id);
            } else {
                stay_sets.push(ds.clone());
                stay_ids.push(id);
            }
        }
        // Build both replacement shards before touching any state (a
        // build panic leaves the old shard serving).
        let stay_cache = Arc::clone(src.engine.mask_cache());
        let stay = self.build_shard(Repository::new(stay_sets), stay_ids, stay_cache, 0);
        let fresh = Arc::new(MaskCache::new(self.cache_capacity));
        let moved = self.build_shard(Repository::new(move_sets), moved_ids, fresh, 0);
        // Commit. The id set is unchanged, so `ids_in_use` needs no edit;
        // the carried-over cache is invalidated (generation bump) while
        // every other shard's cache — the fresh one included — is not.
        self.shards[shard].engine.mask_cache().invalidate();
        self.shards[shard] = stay;
        self.shards.push(moved);
        self.telemetry.splits.fetch_add(1, Ordering::Relaxed);
        self.publish_shape();
        Ok(self.shards.len() - 1)
    }

    /// Coalesces shards `a` and `b` into one, returning the surviving
    /// index `min(a, b)` (shards past `max(a, b)` shift down by one; the
    /// merged shard holds the lower-indexed shard's datasets followed by
    /// the higher-indexed one's). No id changes, so no answer changes —
    /// pinned by `tests/shard_equivalence.rs`. The surviving slot inherits
    /// the lower-indexed shard's [`MaskCache`] with its generation bumped;
    /// the absorbed shard's cache is dropped. A rejected merge (`a` or `b`
    /// out of range, `a == b`) returns the typed [`IngestError`] and
    /// leaves the service untouched.
    pub fn try_merge_shards(&mut self, a: usize, b: usize) -> Result<usize, IngestError> {
        self.check_shard(a)?;
        self.check_shard(b)?;
        if a == b {
            return Err(IngestError::MergeWithSelf { shard: a });
        }
        let (lo, hi) = (a.min(b), a.max(b));
        // The merged contents are lo's datasets then hi's, regardless of
        // argument order — observable state depends on the pair, not on
        // which side was named first.
        let mut datasets = self.shards[lo].datasets.clone();
        datasets.extend(self.shards[hi].datasets.iter().cloned());
        let mut global_ids = self.shards[lo].global_ids.clone();
        global_ids.extend_from_slice(&self.shards[hi].global_ids);
        let cache = Arc::clone(self.shards[lo].engine.mask_cache());
        let merged = self.build_shard(Repository::new(datasets), global_ids, cache, 0);
        // Commit: same id set, so `ids_in_use` is untouched; only the
        // surviving slot's (carried) cache generation is bumped.
        self.shards[lo].engine.mask_cache().invalidate();
        self.shards[lo] = merged;
        self.shards.remove(hi);
        self.telemetry.merges.fetch_add(1, Ordering::Relaxed);
        self.publish_shape();
        Ok(lo)
    }

    /// Per-shard size and query-load counters — the measurement side of
    /// [`rebalance_plan`](Self::rebalance_plan).
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardLoad {
                shard,
                datasets: s.global_ids.len(),
                queries: s.queries.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Proposes lifecycle transitions from the current [`ShardLoad`]
    /// counters under `cfg`: oversized or query-hot shards propose a
    /// [`Split`] (moving the upper half of their ascending ids), and pairs
    /// of small non-splitting shards propose a [`Merge`]. The plan only
    /// *proposes* — the caller applies it (see
    /// [`apply_rebalance`](Self::apply_rebalance)), typically after
    /// policy checks of its own. Actions are ordered for sequential
    /// application: splits first (they never disturb existing indices),
    /// then merges in descending index order (removing the highest
    /// absorbed shard first never shifts a later pair).
    ///
    /// [`Split`]: RebalanceAction::Split
    /// [`Merge`]: RebalanceAction::Merge
    pub fn rebalance_plan(&self, cfg: &RebalanceConfig) -> Vec<RebalanceAction> {
        let loads = self.shard_loads();
        if loads.is_empty() {
            return Vec::new();
        }
        let total_q: u64 = loads.iter().map(|l| l.queries).sum();
        let mean_q = total_q as f64 / loads.len() as f64;
        let mut plan = Vec::new();
        let mut splitting = vec![false; loads.len()];
        for l in &loads {
            if l.datasets < 2 {
                continue; // nothing to divide
            }
            let hot = total_q > 0 && (l.queries as f64) > cfg.hot_factor * mean_q;
            if l.datasets > cfg.max_datasets || hot {
                let mut ids = self.shards[l.shard].global_ids.clone();
                ids.sort_unstable();
                let move_ids = ids.split_off(ids.len() / 2);
                plan.push(RebalanceAction::Split {
                    shard: l.shard,
                    move_ids,
                });
                splitting[l.shard] = true;
            }
        }
        // Merge candidates: small, non-splitting shards, paired greedily
        // smallest-first (deterministic: ties break on shard index).
        let mut small: Vec<&ShardLoad> = loads
            .iter()
            .filter(|l| !splitting[l.shard] && l.datasets <= cfg.merge_under)
            .collect();
        small.sort_by_key(|l| (l.datasets, l.shard));
        let mut merges: Vec<(usize, usize)> = Vec::new();
        for pair in small.chunks_exact(2) {
            if pair[0].datasets + pair[1].datasets <= cfg.merge_under {
                let (x, y) = (pair[0].shard, pair[1].shard);
                merges.push((x.min(y), x.max(y)));
            }
        }
        // Descending by absorbed index: each removal leaves every
        // remaining pair's (smaller) indices intact.
        merges.sort_by_key(|pair| std::cmp::Reverse(pair.1));
        plan.extend(
            merges
                .into_iter()
                .map(|(a, b)| RebalanceAction::Merge { a, b }),
        );
        plan
    }

    /// Applies a rebalance plan in order, stopping at (and returning) the
    /// first rejection — by construction
    /// [`rebalance_plan`](Self::rebalance_plan)'s output applies cleanly
    /// against the state it was computed from.
    pub fn apply_rebalance(&mut self, plan: &[RebalanceAction]) -> Result<(), IngestError> {
        for action in plan {
            match action {
                RebalanceAction::Split { shard, move_ids } => {
                    self.try_split_shard(*shard, move_ids)?;
                }
                RebalanceAction::Merge { a, b } => {
                    self.try_merge_shards(*a, *b)?;
                }
            }
        }
        Ok(())
    }

    /// Number of shards currently served.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total datasets across all shards.
    pub fn n_datasets(&self) -> usize {
        self.shards.iter().map(|s| s.engine.n_datasets()).sum()
    }

    /// The schema dimension served, or `None` while no shard is loaded.
    pub fn dim(&self) -> Option<usize> {
        self.shards.first().map(|s| s.dim)
    }

    /// Checks every expression's predicate dimensionalities against the
    /// served schema, reporting the first mismatch as a typed
    /// [`EngineError::DimensionMismatch`]. A no-op while no shard is
    /// loaded (an empty service has no schema to violate). The same check
    /// [`plan`](Self::plan) runs before expanding an expression.
    pub fn schema_check(&self, exprs: &[LogicalExpr]) -> Result<(), EngineError> {
        let Some(dim) = self.dim() else {
            return Ok(());
        };
        exprs.iter().try_for_each(|e| check_schema(e, dim))
    }

    /// The stable ids of shard `shard`'s datasets, in shard-local order.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn global_ids(&self, shard: usize) -> &[GlobalId] {
        &self.shards[shard].global_ids
    }

    /// Read access to shard `shard`'s engine (per-shard instrumentation:
    /// its `index_queries`, its [`MaskCache`] bounds and counters). Hits
    /// returned by the shard engine directly are shard-local — translate
    /// them through [`global_ids`](Self::global_ids) before mixing with
    /// service-level answers.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_engine(&self, shard: usize) -> &MixedQueryEngine {
        &self.shards[shard].engine
    }

    /// Underlying index queries the engine's query calls issued over its
    /// lifetime: the number of distinct *uncached* predicates per
    /// evaluated shard.
    pub fn index_queries(&self) -> u64 {
        self.stats_snapshot().index_queries
    }

    /// Mask-cache `(hits, misses)` of the engine's query calls over its
    /// lifetime — counted by the engine, not read from the shard caches,
    /// so no rebuild, split or merge takes them back.
    pub fn cache_stats(&self) -> (u64, u64) {
        let s = self.stats_snapshot();
        (s.cache_hits, s.cache_misses)
    }

    /// (expression, shard) scatter units routing skipped with a zero mass
    /// bound over the service lifetime (see the module docs).
    pub fn shards_routed_past(&self) -> u64 {
        self.stats_snapshot().shards_routed_past
    }

    /// Scatter units routing skipped with a positive mass bound (disjoint
    /// from [`shards_routed_past`](Self::shards_routed_past); total
    /// skipped is the sum).
    pub fn shards_routed_by_synopsis(&self) -> u64 {
        self.stats_snapshot().shards_routed_by_synopsis
    }

    /// The engine's metrics block: counters, gauges and scatter-path
    /// histograms. The `Arc` is never replaced, so a clone keeps reading
    /// the live values without the engine.
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }

    /// A cheap counter snapshot of the metrics block (no index structure
    /// is touched) — the per-request stats surface of a serving layer.
    pub fn stats_snapshot(&self) -> ShardedStats {
        self.telemetry.stats()
    }

    /// The loosest Ptile guarantee band across shards (each shard states
    /// its own achieved band; a service-level statement must take the max).
    pub fn ptile_slack(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.engine.ptile_slack())
            .fold(0.0, f64::max)
    }

    /// Compiles one expression for [`execute`](Self::execute): checks it
    /// against the served schema (typed
    /// [`EngineError::DimensionMismatch`], before anything is expanded;
    /// a no-op while no shard is loaded), expands its DNF once over a
    /// table of distinct predicates, and pre-clamps its routing literals.
    pub fn plan(&self, expr: &LogicalExpr) -> Result<QueryPlan, EngineError> {
        let dim = self.dim();
        let dnf = Dnf::compile(expr, dim)?;
        let routing = match dim {
            Some(dim) if self.route && self.ranks_indexed(expr) => routing_clauses(&dnf, dim),
            _ => None,
        };
        Ok(QueryPlan { dim, dnf, routing })
    }

    /// Answers a slice of plans over the worker pool: every
    /// `(plan, shard)` pair is one scatter unit over
    /// `dds_pool::par_map_with` (per-worker scratch), gathered back
    /// **input-ordered** — `answers[i]` answers `plans[i]` as ascending
    /// global ids — together with the call's [`QueryReport`], which is
    /// also added to the metrics block. A shard error (every shard is
    /// built with the same ranks, so shards fail alike) is reported once.
    ///
    /// # Panics
    /// Panics if a plan was made before the engine's first shard fixed
    /// its schema (see [`QueryPlan`]).
    pub fn execute(
        &self,
        plans: &[QueryPlan],
        opts: &BuildOptions,
    ) -> (Vec<Result<Vec<GlobalId>, EngineError>>, QueryReport) {
        let dim = self.dim();
        assert!(
            plans.iter().all(|p| p.dim == dim),
            "query plan made against a different schema; re-plan after ingest"
        );
        let n_shards = self.shards.len();
        // Flattening both dimensions keeps the pool busy even when the
        // batch is smaller than the worker count.
        let units: Vec<(usize, usize)> = (0..plans.len())
            .flat_map(|e| (0..n_shards).map(move |s| (e, s)))
            .collect();
        let partials = par_map_with(opts, &units, QueryScratch::new, |scratch, _, &(e, s)| {
            self.eval_unit(&plans[e], s, scratch)
        });
        let (answers, report) = Self::gather(partials, plans.len(), n_shards);
        self.telemetry.record(&report);
        (answers, report)
    }

    /// Answers one expression: scatters it over every shard, inline on
    /// the caller's thread (through each shard's cross-call mask cache),
    /// and gathers the hits as **ascending stable global ids**. A predicate
    /// of the wrong dimensionality yields
    /// [`EngineError::DimensionMismatch`] instead of a panic deep inside a
    /// shard's indexes.
    pub fn query(&self, expr: &LogicalExpr) -> Result<Vec<GlobalId>, EngineError> {
        self.query_with(expr, &mut QueryScratch::new())
    }

    /// [`query`](Self::query) with caller-provided scratch (reused across
    /// the sequential per-shard scatter).
    pub fn query_with(
        &self,
        expr: &LogicalExpr,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<GlobalId>, EngineError> {
        let plan = self.plan(expr)?;
        let units = (0..self.shards.len()).map(|s| self.eval_unit(&plan, s, scratch));
        let (mut answers, report) = Self::gather(units, 1, self.shards.len());
        self.telemetry.record(&report);
        answers.pop().expect("one answer per plan")
    }

    /// Answers a slice of expressions on the engine's worker pool
    /// ([`build_options`](Self::build_options)), **input-ordered** —
    /// `result[i]` answers `exprs[i]`, as ascending global ids,
    /// bit-identical to [`query`](Self::query) on each expression at every
    /// shard count × thread count (pinned by `tests/shard_equivalence.rs`).
    /// Each expression is schema-checked on its own: a wrong-dimension
    /// expression yields `Err(DimensionMismatch)` *in its slot* while the
    /// rest of the batch is still scattered and answered.
    pub fn query_batch(&self, exprs: &[LogicalExpr]) -> Vec<Result<Vec<GlobalId>, EngineError>> {
        self.query_batch_opts(exprs, &self.build_opts)
    }

    /// [`query_batch`](Self::query_batch) with an explicit worker-pool
    /// configuration.
    pub fn query_batch_opts(
        &self,
        exprs: &[LogicalExpr],
        opts: &BuildOptions,
    ) -> Vec<Result<Vec<GlobalId>, EngineError>> {
        let mut plans = Vec::with_capacity(exprs.len());
        let verdicts: Vec<Result<(), EngineError>> = exprs
            .iter()
            .map(|e| self.plan(e).map(|p| plans.push(p)))
            .collect();
        let mut answers = self.execute(&plans, opts).0.into_iter();
        verdicts
            .into_iter()
            .map(|v| v.and_then(|()| answers.next().expect("one answer per plan")))
            .collect()
    }

    /// Evaluates one (expression, shard) scatter unit — the only place a
    /// shard answers a query: the routing verdict, the unit's tallies and
    /// the shard-load counter, routing and scatter telemetry, and
    /// translation of the shard-local hits to global ids.
    fn eval_unit(&self, plan: &QueryPlan, s: usize, scratch: &mut QueryScratch) -> Unit {
        let shard = &self.shards[s];
        let started = Instant::now();
        let skip = plan
            .routing
            .as_deref()
            .map_or(Skip::No, |clauses| Self::shard_skip(clauses, shard));
        let routed = Instant::now();
        self.telemetry.routing.record_duration(routed - started);
        let mut report = QueryReport::default();
        *match skip {
            Skip::Box => &mut report.skipped_box,
            Skip::Synopsis => &mut report.skipped_synopsis,
            Skip::No => &mut report.evaluated,
        } = 1;
        if skip != Skip::No {
            return (report, Ok(Vec::new()));
        }
        shard.queries.fetch_add(1, Ordering::Relaxed);
        let engine = &shard.engine;
        let hits = engine.query_inner(&plan.dnf, scratch, Some(engine.mask_cache()), &mut report);
        self.telemetry.scatter.record_duration(routed.elapsed());
        let hits = hits.map(|local| local.into_iter().map(|j| shard.global_ids[j]).collect());
        (report, hits)
    }

    /// Gathers scatter units — `n_shards` per expression, expression-major
    /// — into one answer per expression: the per-shard hits in shard order
    /// (errors are identical across shards — the first one wins),
    /// canonicalized to ascending global ids. Tallies the call's
    /// [`QueryReport`] on the way.
    fn gather(
        units: impl IntoIterator<Item = Unit>,
        n_exprs: usize,
        n_shards: usize,
    ) -> (Vec<Result<Vec<GlobalId>, EngineError>>, QueryReport) {
        let mut report = QueryReport::default();
        let mut units = units.into_iter();
        let answers = (0..n_exprs)
            .map(|_| {
                let mut merged: Result<Vec<GlobalId>, EngineError> = Ok(Vec::new());
                for (tally, partial) in units.by_ref().take(n_shards) {
                    report.add(&tally);
                    if let Ok(acc) = &mut merged {
                        match partial {
                            Ok(ids) if acc.is_empty() => *acc = ids,
                            Ok(mut ids) => acc.append(&mut ids),
                            Err(e) => merged = Err(e),
                        }
                    }
                }
                if let Ok(ids) = &mut merged {
                    ids.sort_unstable();
                }
                merged
            })
            .collect();
        (answers, report)
    }

    /// The verdict for one shard against a pre-clamped plan: skip when
    /// every clause carries a literal with `U + margin < a_θ` (see the
    /// module docs for the soundness argument). A clause's proof is the
    /// strongest its literals give — a zero bound beats a positive one —
    /// and the unit's verdict is its weakest clause's proof.
    fn shard_skip(plan: &[PlanClause], shard: &Shard) -> Skip {
        let Some(syn) = shard.engine.routing_synopsis() else {
            // A NaN coordinate was seen: interval reasoning is unsound.
            return Skip::No;
        };
        let margin = shard.engine.ptile_margin();
        plan.iter()
            .try_fold(Skip::Box, |verdict, c| {
                let proof = match c {
                    PlanClause::Vacuous => Skip::Box,
                    PlanClause::Lits(lits) => lits
                        .iter()
                        .map(|l| match syn.mass_bound(&l.rect) {
                            u if u + margin >= l.lo => Skip::No,
                            0.0 => Skip::Box,
                            _ => Skip::Synopsis,
                        })
                        .min()
                        .unwrap_or(Skip::No),
                };
                // An unproven clause settles the unit: stop early.
                (proof != Skip::No).then_some(verdict.max(proof))
            })
            .unwrap_or(Skip::No)
    }

    /// True iff every preference rank the expression uses is indexed —
    /// i.e. no shard can answer it with `MissingRank` (shards share `ks`,
    /// so they fail alike).
    fn ranks_indexed(&self, expr: &LogicalExpr) -> bool {
        match expr {
            LogicalExpr::Pred(p) => match &p.measure {
                MeasureFunction::TopK { k, .. } => self.ks.contains(k),
                MeasureFunction::Percentile(_) => true,
            },
            LogicalExpr::And(xs) | LogicalExpr::Or(xs) => xs.iter().all(|x| self.ranks_indexed(x)),
        }
    }

    /// Validates a shard's ids without touching any state: one per
    /// dataset, distinct, and none served by another shard (ids in
    /// `exempt` — the shard being replaced — don't count). Also checks the
    /// schema dimension against the served shards and a declared φ anchor
    /// against the prospective catalog size, so the union-bound failure
    /// probability can never be silently diluted by ingesting past the
    /// anchor. An error here leaves the service exactly as it was.
    fn validate_ids(
        &self,
        repo: &Repository,
        global_ids: &[GlobalId],
        exempt: Option<usize>,
    ) -> Result<(), IngestError> {
        if global_ids.len() != repo.len() {
            return Err(IngestError::ArityMismatch {
                datasets: repo.len(),
                ids: global_ids.len(),
            });
        }
        if let Some(expected) = self
            .shards
            .iter()
            .enumerate()
            .find(|(s, _)| Some(*s) != exempt)
            .map(|(_, s)| s.dim)
        {
            if repo.dim() != expected {
                return Err(IngestError::SchemaMismatch {
                    expected,
                    got: repo.dim(),
                });
            }
        }
        if let Some(d) = self.ptile_params.phi_datasets {
            let replaced = exempt.map_or(0, |s| self.shards[s].engine.n_datasets());
            let prospective = self.n_datasets() - replaced + repo.len();
            if prospective > d {
                return Err(IngestError::PhiAnchorExceeded {
                    anchor: d,
                    prospective,
                });
            }
        }
        // Hashed exempt set: the normal rebuild reuses every replaced id,
        // so a linear scan per id would make validation quadratic in the
        // shard size.
        let exempt: HashSet<GlobalId> = exempt
            .map(|s| self.shards[s].global_ids.iter().copied().collect())
            .unwrap_or_default();
        let mut fresh = HashSet::with_capacity(global_ids.len());
        for &id in global_ids {
            if !fresh.insert(id) {
                return Err(IngestError::DuplicateId(id));
            }
            if self.ids_in_use.contains(&id) && !exempt.contains(&id) {
                return Err(IngestError::IdInUse(id));
            }
        }
        Ok(())
    }

    /// Sets the metrics block's gauges to the shape a lifecycle op just
    /// committed.
    fn publish_shape(&self) {
        let (shards, datasets) = (self.shards.len() as u64, self.n_datasets() as u64);
        self.telemetry.n_shards.store(shards, Ordering::Relaxed);
        self.telemetry.n_datasets.store(datasets, Ordering::Relaxed);
    }

    /// `Err(NoSuchShard)` unless `shard` indexes a served shard.
    fn check_shard(&self, shard: usize) -> Result<(), IngestError> {
        let n_shards = self.shards.len();
        if shard < n_shards {
            Ok(())
        } else {
            Err(IngestError::NoSuchShard { shard, n_shards })
        }
    }

    /// Builds one shard on the engine's worker pool: an engine with the
    /// service-wide parameters serving through `cache`, its load counter
    /// starting at `queries`. Every dataset's sampling RNG is seeded by
    /// its **global id** (not its shard-local position): a dataset draws
    /// the same sample wherever it lands, so re-sharding cannot perturb
    /// sampled builds.
    fn build_shard(
        &self,
        repo: Repository,
        global_ids: Vec<GlobalId>,
        cache: Arc<MaskCache>,
        queries: u64,
    ) -> Shard {
        let engine = MixedQueryEngine::build_opts(
            &repo,
            &self.ks,
            self.ptile_params.clone().with_seed_ids(global_ids.clone()),
            self.pref_params.clone(),
            &self.build_opts,
        )
        .with_mask_cache(cache);
        Shard {
            engine,
            global_ids,
            dim: repo.dim(),
            datasets: repo.into_datasets(),
            queries: AtomicU64::new(queries),
        }
    }
}

/// Pre-clamps a compiled DNF into per-clause routable literals, hoisting
/// the θ clamp and the per-axis query intervals out of the per-shard
/// loop. `None` means some clause has no routable percentile literal —
/// that clause can never be proven silent, so no shard is skippable and
/// the per-shard work would be wasted.
fn routing_clauses(dnf: &Dnf, dim: usize) -> Option<Vec<PlanClause>> {
    dnf.clauses
        .iter()
        .map(|clause| {
            // An empty clause contributes nothing by the DNF evaluation
            // contract, so it never blocks a skip.
            if clause.is_empty() {
                return Some(PlanClause::Vacuous);
            }
            let lits: Vec<RoutingLit> = clause
                .iter()
                .filter_map(|&slot| {
                    let p = &dnf.preds[slot];
                    match &p.measure {
                        MeasureFunction::Percentile(r) => Some(RoutingLit {
                            // Mirrors the θ clamp of the engine's mask
                            // computation exactly.
                            lo: p.theta.lo.max(0.0),
                            rect: (0..dim).map(|h| (r.lo_at(h), r.hi_at(h))).collect(),
                        }),
                        MeasureFunction::TopK { .. } => None,
                    }
                })
                .collect();
            (!lits.is_empty()).then_some(PlanClause::Lits(lits))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Dataset, Predicate};
    use dds_geom::Rect;

    fn dataset(name: &str, xs: &[f64]) -> Dataset {
        Dataset::from_rows(name, xs.iter().map(|&x| vec![x]).collect())
    }

    fn service() -> ShardedEngine {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        // Global ids deliberately out of shard-local order and
        // non-contiguous: the shard map must do real translation.
        svc.add_shard(
            &Repository::new(vec![
                dataset("low", &[1.0, 2.0, 3.0]),
                dataset("high", &[90.0, 95.0]),
            ]),
            &[7, 3],
        );
        svc.add_shard(&Repository::new(vec![dataset("mid", &[48.0, 52.0])]), &[5]);
        svc
    }

    fn low_expr() -> LogicalExpr {
        LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 10.0),
            0.9,
        ))
    }

    /// A percentile predicate overlapping both test shards' value boxes
    /// (shard 0 spans [1, 95], shard 1 [48, 52]), for the cache-counter
    /// tests that must scatter everywhere.
    fn wide_expr() -> LogicalExpr {
        LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 60.0),
            0.9,
        ))
    }

    #[test]
    fn hits_come_back_as_sorted_global_ids() {
        let svc = service();
        assert_eq!(svc.n_shards(), 2);
        assert_eq!(svc.n_datasets(), 3);
        assert_eq!(svc.dim(), Some(1));
        assert_eq!(svc.query(&low_expr()), Ok(vec![7]));
        // A predicate matching all three datasets gathers across shards in
        // ascending id order, not ingest order.
        let all = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 100.0),
            0.9,
        ));
        assert_eq!(svc.query(&all), Ok(vec![3, 5, 7]));
    }

    #[test]
    fn batch_is_input_ordered_and_matches_single_queries() {
        let svc = service();
        let exprs = vec![
            low_expr(),
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(40.0, 60.0),
                0.9,
            )),
        ];
        let singles: Vec<_> = exprs.iter().map(|e| svc.query(e)).collect();
        assert_eq!(singles, vec![Ok(vec![7]), Ok(vec![5])]);
        for threads in [1, 2, 8] {
            assert_eq!(
                svc.query_batch_opts(&exprs, &BuildOptions::with_threads(threads)),
                singles,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn missing_rank_errors_gather_once() {
        let svc = service();
        let bad = LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 9, 0.0));
        assert_eq!(svc.query(&bad), Err(EngineError::MissingRank(9)));
        let batch = svc.query_batch(&[low_expr(), bad]);
        assert_eq!(batch[0], Ok(vec![7]));
        assert_eq!(batch[1], Err(EngineError::MissingRank(9)));
    }

    #[test]
    fn empty_service_answers_empty() {
        let svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        assert_eq!(svc.dim(), None);
        assert_eq!(svc.query(&low_expr()), Ok(vec![]));
        assert_eq!(svc.query_batch(&[low_expr()]), vec![Ok(vec![])]);
        // No shards → no schema to violate: a 3-d expression passes.
        let wide = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0; 3], &[1.0; 3]),
            0.5,
        ));
        assert_eq!(svc.schema_check(std::slice::from_ref(&wide)), Ok(()));
    }

    #[test]
    fn dimension_mismatch_is_typed_on_every_query_path() {
        let svc = service();
        let bad = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0, 0.0], &[1.0, 1.0]),
            0.5,
        ));
        let want = EngineError::DimensionMismatch {
            expected: 1,
            got: 2,
        };
        assert_eq!(
            svc.schema_check(std::slice::from_ref(&bad)),
            Err(want.clone())
        );
        assert_eq!(svc.query(&bad), Err(want.clone()));
        // Batch: the bad slot errs, the good slots still answer — at
        // every thread count.
        for threads in [1, 2, 8] {
            let batch = svc.query_batch_opts(
                &[low_expr(), bad.clone(), wide_expr()],
                &BuildOptions::with_threads(threads),
            );
            assert_eq!(batch[0], Ok(vec![7]), "threads = {threads}");
            assert_eq!(batch[1], Err(want.clone()), "threads = {threads}");
            assert_eq!(batch[2], Ok(vec![5, 7]), "threads = {threads}");
        }
        // The service keeps serving afterwards.
        assert_eq!(svc.query(&low_expr()), Ok(vec![7]));
    }

    #[test]
    fn plans_query_each_distinct_predicate_once_per_evaluated_shard() {
        // `p ∧ (q ∨ r)` expands to `(p ∧ q) ∨ (p ∧ r)`: four literals over
        // three distinct predicates, all overlapping every shard's data.
        let pred = |x: Predicate| LogicalExpr::Pred(x);
        let expr = LogicalExpr::And(vec![
            pred(Predicate::percentile_at_least(
                Rect::interval(0.0, 60.0),
                0.1,
            )),
            LogicalExpr::Or(vec![
                pred(Predicate::percentile_at_least(
                    Rect::interval(0.0, 100.0),
                    0.5,
                )),
                pred(Predicate::topk_at_least(vec![1.0], 1, 0.0)),
            ]),
        ]);
        let sets = [[1.0, 2.0], [48.0, 52.0], [4.0, 50.0]];
        for k in 1..=3 {
            let mut svc = ShardedEngine::new(
                &[1],
                PtileBuildParams::exact_centralized(),
                PrefBuildParams::exact_centralized(),
            );
            for s in 0..k {
                let members: Vec<usize> = (s..sets.len()).step_by(k).collect();
                let repo = Repository::new(
                    members
                        .iter()
                        .map(|&i| dataset(&format!("d{i}"), &sets[i]))
                        .collect(),
                );
                let ids: Vec<GlobalId> = members.iter().map(|&i| i as GlobalId).collect();
                svc.add_shard(&repo, &ids);
            }
            let plan = svc.plan(&expr).expect("well-formed");
            let literals: usize = plan.dnf.clauses.iter().map(Vec::len).sum();
            assert_eq!(literals, 4);
            assert_eq!(plan.dnf.keys.len(), 3, "one key per distinct predicate");
            let (answers, report) = svc.execute(&[plan], &BuildOptions::serial());
            assert_eq!(report.evaluated, k as u64, "k = {k}");
            assert_eq!(svc.index_queries(), 3 * k as u64, "k = {k}");
            assert_eq!(svc.cache_stats(), (0, 3 * k as u64), "cold caches, k = {k}");
            assert_eq!(answers, vec![svc.query(&expr)]);
        }
    }

    #[test]
    #[should_panic(expected = "re-plan after ingest")]
    fn plans_from_before_the_first_shard_are_refused() {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        // No schema yet, so a 2-d expression plans fine...
        let wide = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0; 2], &[1.0; 2]),
            0.5,
        ));
        let plan = svc.plan(&wide).expect("no schema to violate");
        // ...but the first shard fixes a 1-d schema it was never checked
        // against.
        svc.add_shard(&Repository::new(vec![dataset("a", &[1.0])]), &[0]);
        let _ = svc.execute(&[plan], &BuildOptions::serial());
    }

    #[test]
    #[should_panic(expected = "already served")]
    fn duplicate_global_ids_are_rejected() {
        let mut svc = service();
        svc.add_shard(&Repository::new(vec![dataset("dup", &[1.0, 2.0])]), &[5]);
    }

    #[test]
    fn try_ingest_reports_typed_errors_and_leaves_state_intact() {
        let mut svc = service();
        let repo = Repository::new(vec![dataset("dup", &[1.0, 2.0])]);
        assert_eq!(svc.try_add_shard(&repo, &[5]), Err(IngestError::IdInUse(5)));
        assert_eq!(
            svc.try_add_shard(&repo, &[9, 9]),
            Err(IngestError::ArityMismatch {
                datasets: 1,
                ids: 2
            })
        );
        assert_eq!(svc.try_add_shard(&repo, &[9]), Ok(2));
        assert_eq!(
            svc.try_rebuild_shard(9, &repo, &[9]),
            Err(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 3
            })
        );
        let two_d = Repository::new(vec![Dataset::from_rows("flat", vec![vec![1.0, 2.0]])]);
        assert_eq!(
            svc.try_add_shard(&two_d, &[40]),
            Err(IngestError::SchemaMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            svc.try_rebuild_shard(0, &two_d, &[40, 41]),
            Err(IngestError::ArityMismatch {
                datasets: 1,
                ids: 2
            })
        );
        // A duplicate within the shard is distinguished from a clash with
        // another shard.
        assert_eq!(
            svc.try_add_shard(
                &Repository::new(vec![dataset("a", &[1.0]), dataset("b", &[2.0])]),
                &[77, 77]
            ),
            Err(IngestError::DuplicateId(77))
        );
        // The rejections above changed nothing; only the one successful
        // add landed (its dataset "dup" spans [1, 2], so it answers the
        // low-band query under id 9).
        assert_eq!((svc.n_shards(), svc.n_datasets()), (3, 4));
        assert_eq!(svc.query(&low_expr()), Ok(vec![7, 9]));
    }

    #[test]
    fn phi_anchor_rejection_is_typed() {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::default().with_phi_datasets(2),
            PrefBuildParams::exact_centralized(),
        );
        svc.add_shard(
            &Repository::new(vec![dataset("a", &[1.0]), dataset("b", &[2.0])]),
            &[0, 1],
        );
        assert_eq!(
            svc.try_add_shard(&Repository::new(vec![dataset("c", &[3.0])]), &[2]),
            Err(IngestError::PhiAnchorExceeded {
                anchor: 2,
                prospective: 3
            })
        );
    }

    #[test]
    fn ingest_errors_display_and_box() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(IngestError::IdInUse(5)),
            Box::new(IngestError::DuplicateId(5)),
            Box::new(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 2,
            }),
            Box::new(IngestError::MergeWithSelf { shard: 0 }),
        ];
        assert!(errors[0].to_string().contains("already served"));
        assert!(errors[1].to_string().contains("repeats within"));
        assert!(errors[2].to_string().contains("no such shard: 9"));
        assert!(errors[3]
            .to_string()
            .contains("cannot merge shard 0 with itself"));
    }

    #[test]
    fn rebuild_swaps_data_keeps_other_shards_and_reuses_ids() {
        let mut svc = service();
        // Shard 1's dataset moves from the middle to the low band; its id
        // may be reused because the rebuild releases it first.
        svc.try_rebuild_shard(
            1,
            &Repository::new(vec![dataset("mid2", &[4.0, 6.0])]),
            &[5],
        )
        .unwrap();
        assert_eq!(svc.query(&low_expr()), Ok(vec![5, 7]));
    }

    #[test]
    fn rebuild_invalidates_only_that_shards_cache() {
        let mut svc = service();
        // An expression overlapping both shards' value boxes, so the
        // routing fast path scatters it everywhere and the counters below
        // measure pure cache behaviour.
        let exprs = vec![wide_expr()];
        let _ = svc.query_batch_opts(&exprs, &BuildOptions::serial());
        let (_, misses_cold) = svc.cache_stats();
        assert_eq!(misses_cold, 2, "one mask per shard, both cold");
        let _ = svc.query_batch_opts(&exprs, &BuildOptions::serial());
        let (hits_warm, misses_warm) = svc.cache_stats();
        assert_eq!((hits_warm, misses_warm), (2, 2), "second batch all cached");
        svc.try_rebuild_shard(
            1,
            &Repository::new(vec![dataset("mid2", &[47.0, 53.0])]),
            &[5],
        )
        .unwrap();
        let _ = svc.query_batch_opts(&exprs, &BuildOptions::serial());
        let (hits_after, misses_after) = svc.cache_stats();
        assert_eq!(
            (hits_after, misses_after),
            (3, 3),
            "shard 0 hits its cache; rebuilt shard 1 recomputes"
        );
        assert_eq!(svc.shards_routed_past(), 0, "wide_expr overlaps every box");
    }

    #[test]
    fn routing_skips_provably_disjoint_shards() {
        let svc = service();
        // low_expr's rectangle [0, 10] is disjoint from shard 1's value
        // box [48, 52] and the threshold 0.9 clears the (exact) margin 0,
        // so shard 1 is provably uninvolved.
        assert_eq!(svc.query(&low_expr()), Ok(vec![7]));
        assert_eq!(svc.shards_routed_past(), 1);
        // Batch path skips too — and the skipped shard's cache is never
        // touched (only shard 0 records a lookup).
        let _ = svc.query_batch_opts(&[low_expr()], &BuildOptions::serial());
        assert_eq!(svc.shards_routed_past(), 2);
        let (h, m) = svc.cache_stats();
        assert_eq!(m, 1, "only shard 0 computed a mask");
        assert_eq!(h + m, 2, "two scatter-side lookups on shard 0 in total");
        // A rectangle beyond every shard: all shards skipped, empty answer.
        let far = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(200.0, 300.0),
            0.5,
        ));
        assert_eq!(svc.query(&far), Ok(vec![]));
        assert_eq!(svc.shards_routed_past(), 4);
    }

    #[test]
    fn routing_matches_unrouted_answers() {
        let routed = service();
        let unrouted = {
            let mut svc = ShardedEngine::new(
                &[1],
                PtileBuildParams::exact_centralized(),
                PrefBuildParams::exact_centralized(),
            )
            .with_routing(false);
            svc.add_shard(
                &Repository::new(vec![
                    dataset("low", &[1.0, 2.0, 3.0]),
                    dataset("high", &[90.0, 95.0]),
                ]),
                &[7, 3],
            );
            svc.add_shard(&Repository::new(vec![dataset("mid", &[48.0, 52.0])]), &[5]);
            svc
        };
        let exprs: Vec<LogicalExpr> = (0..12)
            .map(|i| {
                LogicalExpr::Pred(Predicate::percentile_at_least(
                    Rect::interval(i as f64 * 20.0 - 40.0, i as f64 * 20.0 - 20.0),
                    0.4,
                ))
            })
            .collect();
        assert_eq!(routed.query_batch(&exprs), unrouted.query_batch(&exprs));
        assert_eq!(unrouted.shards_routed_past(), 0, "routing really was off");
        assert!(routed.shards_routed_past() > 0, "routing really engaged");
    }

    #[test]
    fn routing_never_swallows_missing_rank_errors() {
        let svc = service();
        // Every shard's box is disjoint from [200, 300], but the top-k
        // literal uses an unindexed rank: the typed error must survive —
        // routing declines expressions that can error.
        let expr = LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(200.0, 300.0),
                0.9,
            )),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 9, 0.0)),
        ]);
        assert_eq!(svc.query(&expr), Err(EngineError::MissingRank(9)));
        assert_eq!(svc.shards_routed_past(), 0);
        assert_eq!(
            svc.query_batch(&[expr]),
            vec![Err(EngineError::MissingRank(9))]
        );
    }

    #[test]
    fn routing_respects_sampling_margins() {
        // A sampled build has margin > 0: thresholds at or below it must
        // not route (the empty-slab path may legitimately report a
        // zero-mass dataset), larger thresholds may.
        let sets: Vec<Vec<f64>> = (0..2)
            .map(|i| (0..80).map(|j| (i * 200 + j) as f64).collect())
            .collect();
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::default()
                .with_eps(0.4)
                .with_phi_datasets(2),
            PrefBuildParams::exact_centralized(),
        );
        for (i, xs) in sets.iter().enumerate() {
            svc.add_shard(
                &Repository::new(vec![dataset(&format!("d{i}"), xs)]),
                &[i as GlobalId],
            );
        }
        let margins: Vec<f64> = (0..svc.n_shards())
            .map(|s| svc.shard_engine(s).ptile_margin())
            .collect();
        let min_margin = margins.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let max_margin = margins.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(min_margin > 0.0, "sampling must be engaged");
        assert!(max_margin < 0.99, "margin left no routable threshold");
        // Disjoint rectangle, threshold below every shard's margin: no
        // skip (each shard must be consulted for the zero-mass corner
        // case).
        let below = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(500.0, 600.0),
            min_margin / 2.0,
        ));
        let _ = svc.query(&below);
        assert_eq!(svc.shards_routed_past(), 0);
        // Threshold above every shard's margin: both shards skipped.
        let above = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(500.0, 600.0),
            (max_margin + 0.01).min(1.0),
        ));
        assert_eq!(svc.query(&above), Ok(vec![]));
        assert_eq!(svc.shards_routed_past(), 2);
    }

    #[test]
    fn synopsis_routes_past_interior_gaps_the_box_cannot_see() {
        // Shard 0's datasets sit at the two extremes of the value range,
        // so its bounding box [0, 100] overlaps an interior query the
        // shard can never answer — only the mass bound can prove it
        // silent. Shard 1 lives inside the query and answers it.
        let build = || {
            let mut svc = ShardedEngine::new(
                &[1],
                PtileBuildParams::exact_centralized(),
                PrefBuildParams::exact_centralized(),
            );
            svc.add_shard(
                &Repository::new(vec![
                    dataset("lo", &[0.0, 1.0, 2.0, 3.0]),
                    dataset("hi", &[97.0, 98.0, 99.0, 100.0]),
                ]),
                &[1, 2],
            );
            svc.add_shard(
                &Repository::new(vec![dataset("mid", &[49.0, 50.0, 51.0])]),
                &[3],
            );
            svc
        };
        let interior = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(40.0, 60.0),
            0.6,
        ));
        let svc = build();
        assert_eq!(svc.query(&interior), Ok(vec![3]));
        assert_eq!(svc.shards_routed_past(), 0, "the box overlaps [40, 60]");
        assert_eq!(svc.shards_routed_by_synopsis(), 1);
        // The batch path classifies identically, and the skipped shard's
        // cache is never touched.
        let _ = svc.query_batch_opts(std::slice::from_ref(&interior), &BuildOptions::serial());
        assert_eq!(svc.shards_routed_by_synopsis(), 2);
        let (_, m) = svc.cache_stats();
        assert_eq!(m, 1, "only shard 1 ever computed a mask");
        assert_eq!(
            svc.stats_snapshot().shards_routed_by_synopsis,
            2,
            "snapshot carries the new counter"
        );
    }

    #[test]
    fn stats_snapshot_aggregates_counters() {
        let svc = service();
        let _ = svc.query(&low_expr());
        let snap = svc.stats_snapshot();
        assert_eq!(snap.n_shards, 2);
        assert_eq!(snap.n_datasets, 3);
        assert_eq!(snap.shards_routed_past, 1);
        assert_eq!(
            snap.shards_routed_by_synopsis, 0,
            "a box-tier skip never counts against the synopsis tier"
        );
        assert_eq!(snap.cache_misses, 1);
        assert!(snap.index_queries >= 1);
        assert_eq!((snap.splits, snap.merges), (0, 0));
    }

    #[test]
    fn split_then_merge_preserves_answers() {
        let mut svc = service();
        let all = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 100.0),
            0.9,
        ));
        let before = svc.query(&all);
        assert_eq!(before, Ok(vec![3, 5, 7]));
        // Shard 0 holds ids {7, 3}; move 3 out into its own shard.
        let new = svc.try_split_shard(0, &[3]).unwrap();
        assert_eq!(new, 2);
        assert_eq!(svc.n_shards(), 3);
        assert_eq!(svc.global_ids(0), &[7]);
        assert_eq!(svc.global_ids(2), &[3]);
        assert_eq!(svc.n_datasets(), 3, "splits conserve the catalog");
        assert_eq!(svc.query(&all), before);
        assert_eq!(svc.query(&low_expr()), Ok(vec![7]));
        // Merge it back; the surviving slot is min(0, 2) = 0 and the
        // merged shard appends the absorbed shard's datasets.
        assert_eq!(svc.try_merge_shards(2, 0).unwrap(), 0);
        assert_eq!(svc.n_shards(), 2);
        assert_eq!(svc.global_ids(0), &[7, 3]);
        assert_eq!(svc.query(&all), before);
        let snap = svc.stats_snapshot();
        assert_eq!((snap.splits, snap.merges), (1, 1));
    }

    #[test]
    fn split_rejections_are_typed_and_leave_state_intact() {
        let mut svc = service();
        assert_eq!(
            svc.try_split_shard(9, &[7]),
            Err(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 2
            })
        );
        assert_eq!(
            svc.try_split_shard(0, &[5]),
            Err(IngestError::IdNotInShard { id: 5, shard: 0 })
        );
        assert_eq!(
            svc.try_split_shard(0, &[7, 7]),
            Err(IngestError::DuplicateId(7))
        );
        assert_eq!(
            svc.try_split_shard(0, &[]),
            Err(IngestError::EmptySplitSide {
                shard: 0,
                moving: 0,
                datasets: 2
            })
        );
        assert_eq!(
            svc.try_split_shard(0, &[7, 3]),
            Err(IngestError::EmptySplitSide {
                shard: 0,
                moving: 2,
                datasets: 2
            })
        );
        // A one-dataset shard can never split.
        assert_eq!(
            svc.try_split_shard(1, &[5]),
            Err(IngestError::EmptySplitSide {
                shard: 1,
                moving: 1,
                datasets: 1
            })
        );
        assert_eq!((svc.n_shards(), svc.n_datasets()), (2, 3));
        assert_eq!(svc.query(&low_expr()), Ok(vec![7]));
    }

    #[test]
    fn merge_rejections_are_typed_and_leave_state_intact() {
        let mut svc = service();
        assert_eq!(
            svc.try_merge_shards(0, 9),
            Err(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 2
            })
        );
        assert_eq!(
            svc.try_merge_shards(1, 1),
            Err(IngestError::MergeWithSelf { shard: 1 })
        );
        assert_eq!((svc.n_shards(), svc.n_datasets()), (2, 3));
        assert_eq!(svc.query(&low_expr()), Ok(vec![7]));
    }

    #[test]
    fn transitions_scope_cache_invalidation_to_the_touched_shards() {
        let mut svc = service();
        let _ = svc.query_batch_opts(&[wide_expr()], &BuildOptions::serial());
        let gen0 = svc.shard_engine(0).mask_cache().generation();
        let gen1 = svc.shard_engine(1).mask_cache().generation();
        // Split shard 0: its carried cache bumps, shard 1's does not, and
        // the new shard starts on a fresh cache object.
        svc.try_split_shard(0, &[3]).unwrap();
        assert_eq!(svc.shard_engine(0).mask_cache().generation(), gen0 + 1);
        assert_eq!(svc.shard_engine(1).mask_cache().generation(), gen1);
        assert_eq!(svc.shard_engine(2).mask_cache().len(), 0);
        // Merge shards 1 and 2: the surviving slot (1) carries shard 1's
        // cache bumped again; shard 0 is untouched.
        let merged = svc.try_merge_shards(1, 2).unwrap();
        assert_eq!(merged, 1);
        assert_eq!(svc.shard_engine(0).mask_cache().generation(), gen0 + 1);
        assert_eq!(svc.shard_engine(1).mask_cache().generation(), gen1 + 1);
    }

    #[test]
    fn shard_loads_count_evaluated_units_and_reset_on_transition() {
        let mut svc = service();
        // low_expr routes past shard 1, so only shard 0 records load.
        let _ = svc.query(&low_expr());
        let _ = svc.query_batch_opts(&[low_expr()], &BuildOptions::serial());
        let loads = svc.shard_loads();
        assert_eq!(loads[0].queries, 2);
        assert_eq!(loads[1].queries, 0);
        assert_eq!(loads[0].datasets, 2);
        // A rebuild keeps the counter (the shard keeps its identity)...
        svc.try_rebuild_shard(
            0,
            &Repository::new(vec![
                dataset("low", &[1.0, 2.0, 3.0]),
                dataset("high", &[90.0, 95.0]),
            ]),
            &[7, 3],
        )
        .unwrap();
        assert_eq!(svc.shard_loads()[0].queries, 2);
        // ...while a split resets both sides.
        svc.try_split_shard(0, &[3]).unwrap();
        assert_eq!(svc.shard_loads()[0].queries, 0);
        assert_eq!(svc.shard_loads()[2].queries, 0);
    }

    #[test]
    fn rebalance_plan_splits_hot_and_big_merges_small() {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        )
        .with_routing(false);
        // Shard 0: 4 datasets (oversized for the config below); shards
        // 1 and 2: one tiny dataset each (merge candidates).
        svc.add_shard(
            &Repository::new(vec![
                dataset("a", &[1.0]),
                dataset("b", &[2.0]),
                dataset("c", &[3.0]),
                dataset("d", &[4.0]),
            ]),
            &[10, 11, 12, 13],
        );
        svc.add_shard(&Repository::new(vec![dataset("e", &[5.0])]), &[20]);
        svc.add_shard(&Repository::new(vec![dataset("f", &[6.0])]), &[21]);
        let cfg = RebalanceConfig {
            max_datasets: 3,
            merge_under: 2,
            hot_factor: 4.0,
        };
        let plan = svc.rebalance_plan(&cfg);
        assert_eq!(
            plan,
            vec![
                RebalanceAction::Split {
                    shard: 0,
                    move_ids: vec![12, 13],
                },
                RebalanceAction::Merge { a: 1, b: 2 },
            ]
        );
        let all = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 100.0),
            0.9,
        ));
        let before = svc.query(&all);
        svc.apply_rebalance(&plan).expect("plan applies cleanly");
        assert_eq!(svc.n_shards(), 3, "0 split into {{0, 3}}, 2 merged into 1");
        assert_eq!(svc.n_datasets(), 6, "transitions conserve the catalog");
        assert_eq!(svc.query(&all), before);
        // With balanced shards and no query skew, the next plan is empty.
        assert_eq!(svc.rebalance_plan(&cfg), vec![]);
    }

    #[test]
    fn rebalance_plan_detects_query_hot_shards() {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        // Two same-sized shards with value-separated data, so routing
        // concentrates load on shard 0.
        svc.add_shard(
            &Repository::new(vec![dataset("a", &[1.0, 2.0]), dataset("b", &[3.0, 4.0])]),
            &[0, 1],
        );
        svc.add_shard(
            &Repository::new(vec![
                dataset("c", &[90.0, 91.0]),
                dataset("d", &[92.0, 93.0]),
            ]),
            &[2, 3],
        );
        for _ in 0..20 {
            let _ = svc.query(&low_expr());
        }
        let loads = svc.shard_loads();
        assert_eq!((loads[0].queries, loads[1].queries), (20, 0));
        let cfg = RebalanceConfig {
            max_datasets: 100,
            merge_under: 0,
            hot_factor: 1.5,
        };
        // Shard 0 carries all the load: > 1.5× the mean of 10.
        let plan = svc.rebalance_plan(&cfg);
        assert_eq!(
            plan,
            vec![RebalanceAction::Split {
                shard: 0,
                move_ids: vec![1],
            }]
        );
    }

    /// The lifetime counters of a snapshot (every field but the gauges).
    fn lifetime(s: &ShardedStats) -> [u64; 7] {
        [
            s.index_queries,
            s.cache_hits,
            s.cache_misses,
            s.shards_routed_past,
            s.shards_routed_by_synopsis,
            s.splits,
            s.merges,
        ]
    }

    #[test]
    fn lifetime_counters_never_decrease_across_lifecycle_ops() {
        let mut svc = service();
        let exprs = [wide_expr(), low_expr(), wide_expr()];
        let run = |svc: &ShardedEngine| {
            for e in &exprs {
                let _ = svc.query(e);
            }
            let _ = svc.query_batch_opts(&exprs, &BuildOptions::serial());
        };
        let mut prev = [0u64; 7];
        let mut check = |svc: &ShardedEngine, step: &str| {
            let snap = svc.stats_snapshot();
            assert_eq!(
                (snap.n_shards, snap.n_datasets),
                (svc.n_shards() as u64, svc.n_datasets() as u64),
                "{step}: the gauges follow the committed shape"
            );
            let now = lifetime(&snap);
            assert!(
                now.iter().zip(&prev).all(|(n, p)| n >= p),
                "{step}: a lifetime counter went backwards: {prev:?} -> {now:?}"
            );
            prev = now;
        };
        run(&svc);
        check(&svc, "queries");
        run(&svc);
        check(&svc, "warm queries");
        svc.try_rebuild_shard(
            1,
            &Repository::new(vec![dataset("mid2", &[47.0, 53.0])]),
            &[5],
        )
        .unwrap();
        check(&svc, "rebuild");
        run(&svc);
        check(&svc, "queries after rebuild");
        assert_eq!(svc.try_split_shard(0, &[3]), Ok(2));
        check(&svc, "split");
        run(&svc);
        check(&svc, "queries after split");
        assert_eq!(svc.try_merge_shards(0, 2), Ok(0));
        check(&svc, "merge");
        run(&svc);
        check(&svc, "queries after merge");
        let [index_queries, hits, misses, routed, _, splits, merges] = prev;
        assert!(index_queries > 0 && hits > 0 && misses > 0 && routed > 0);
        assert_eq!((splits, merges), (1, 1));
    }

    #[test]
    fn query_reports_are_exact_under_concurrent_execute() {
        // Four shards in disjoint value bands, routing on.
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        for s in 0..4u64 {
            let base = 100.0 * s as f64;
            svc.add_shard(
                &Repository::new(vec![
                    dataset("a", &[base + 1.0, base + 2.0]),
                    dataset("b", &[base + 5.0, base + 9.0]),
                ]),
                &[2 * s, 2 * s + 1],
            );
        }
        let band = |lo: f64, hi: f64| {
            LogicalExpr::Pred(Predicate::percentile_at_least(Rect::interval(lo, hi), 0.5))
        };
        let exprs = [
            band(0.0, 10.0),
            LogicalExpr::Or(vec![band(100.0, 110.0), band(300.0, 310.0)]),
            // p ∧ (q ∨ r) repeats p across both DNF clauses: three
            // distinct predicates.
            LogicalExpr::And(vec![
                band(0.0, 400.0),
                LogicalExpr::Or(vec![band(0.0, 10.0), band(200.0, 210.0)]),
            ]),
            band(1000.0, 2000.0),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, 50.0)),
        ];
        for threads in [1, 4] {
            let opts = BuildOptions::with_threads(threads);
            let before = svc.stats_snapshot();
            let scattered_before = svc.telemetry().scatter.count();
            let (svc, exprs, opts) = (&svc, &exprs, &opts);
            let reports: Vec<QueryReport> = std::thread::scope(|s| {
                let callers: Vec<_> = (0..4)
                    .map(|c| {
                        s.spawn(move || {
                            (0..2 * exprs.len())
                                .map(|round| {
                                    let plan = svc.plan(&exprs[(c + round) % exprs.len()]).unwrap();
                                    let (answers, r) =
                                        svc.execute(std::slice::from_ref(&plan), opts);
                                    assert!(answers[0].is_ok());
                                    assert_eq!(
                                        r.evaluated + r.skipped_box + r.skipped_synopsis,
                                        svc.n_shards() as u64
                                    );
                                    assert_eq!(
                                        r.cache_hits + r.cache_misses,
                                        r.evaluated * plan.dnf.preds.len() as u64,
                                        "one lookup per (evaluated unit, distinct predicate)"
                                    );
                                    r
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            let mut total = QueryReport::default();
            reports.iter().for_each(|r| total.add(r));
            let after = svc.stats_snapshot();
            assert_eq!(
                [
                    after.index_queries - before.index_queries,
                    after.cache_hits - before.cache_hits,
                    after.cache_misses - before.cache_misses,
                    after.shards_routed_past - before.shards_routed_past,
                    after.shards_routed_by_synopsis - before.shards_routed_by_synopsis,
                    svc.telemetry().scatter.count() - scattered_before,
                ],
                [
                    total.index_queries,
                    total.cache_hits,
                    total.cache_misses,
                    total.skipped_box,
                    total.skipped_synopsis,
                    total.evaluated,
                ],
                "threads = {threads}: the reports sum to the snapshot's change"
            );
            assert!(total.skipped_box > 0 && total.cache_hits > 0);
        }
        // With no lifecycle op, the block equals the per-object counters.
        let sum = |f: fn(&MixedQueryEngine) -> u64| {
            (0..svc.n_shards())
                .map(|s| f(svc.shard_engine(s)))
                .sum::<u64>()
        };
        let snap = svc.stats_snapshot();
        assert_eq!(snap.index_queries, sum(|e| e.index_queries()));
        assert_eq!(snap.cache_hits, sum(|e| e.mask_cache().hits()));
        assert_eq!(snap.cache_misses, sum(|e| e.mask_cache().misses()));
    }
}
