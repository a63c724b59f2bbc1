//! Bentley–Saxe logarithmic-method wrapper: batched insertion over any
//! static buildable index.
//!
//! The paper's structures are built once over `N` synopses, but Remark 1
//! (after Theorems 4.11 / 5.4 / C.8) notes they can be made dynamic under
//! insertion and deletion of synopses. This wrapper realizes insertion by
//! the classic logarithmic method — geometric buckets of static indexes,
//! merged on overflow — and deletion by tombstones (dead points are dropped
//! on the next merge that touches their bucket). Queries fan out over the
//! `O(log n)` buckets, preserving the decomposable-search guarantees the
//! remark relies on ([47, 48] in the paper).

use crate::{BuildableIndex, DeletableIndex, Region};

/// Identifier of a point across the lifetime of a [`LogStructured`] index.
/// Stable across merges.
pub type GlobalId = usize;

/// Smallest bucket capacity.
const BASE_CAPACITY: usize = 32;

#[derive(Clone, Debug)]
struct Bucket<I> {
    index: I,
    /// The points' coordinates, row-major (`dim` per local id), kept for
    /// rebuild-on-merge.
    rows: Vec<f64>,
    /// local id -> global id.
    globals: Vec<GlobalId>,
    /// Alive flags, mirroring the inner index's tombstones.
    alive: Vec<bool>,
    n_alive: usize,
}

/// A dynamic orthogonal index assembled from static buckets.
#[derive(Clone, Debug)]
pub struct LogStructured<I> {
    dim: usize,
    buckets: Vec<Option<Bucket<I>>>,
    /// global id -> (bucket, local id). `None` once dropped by a merge while
    /// dead.
    entries: Vec<Option<(u32, u32)>>,
    n_alive: usize,
}

impl<I: BuildableIndex + DeletableIndex> LogStructured<I> {
    /// Creates an empty dynamic index over `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be >= 1");
        LogStructured {
            dim,
            buckets: Vec::new(),
            entries: Vec::new(),
            n_alive: 0,
        }
    }

    /// Total number of global ids ever issued.
    pub fn issued(&self) -> usize {
        self.entries.len()
    }

    /// Number of alive points.
    pub fn alive(&self) -> usize {
        self.n_alive
    }

    /// Dimension of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn capacity(level: usize) -> usize {
        BASE_CAPACITY << level
    }

    /// Inserts a batch of points and returns their global ids.
    pub fn insert_batch(&mut self, points: Vec<Vec<f64>>) -> Vec<GlobalId> {
        let mut rows = Vec::with_capacity(points.len() * self.dim);
        for p in &points {
            assert_eq!(p.len(), self.dim, "point dimension mismatch");
            rows.extend_from_slice(p);
        }
        self.insert_rows(&rows)
    }

    /// Inserts a batch of points given as row-major coordinates (`dim`
    /// per point) and returns their global ids. A merge copies each alive
    /// row once, into the merged bucket the new index is built from.
    pub fn insert_rows(&mut self, rows: &[f64]) -> Vec<GlobalId> {
        let dim = self.dim;
        assert_eq!(rows.len() % dim, 0, "point dimension mismatch");
        let n_new = rows.len() / dim;
        let gids: Vec<GlobalId> = (self.entries.len()..self.entries.len() + n_new).collect();
        self.entries.extend(gids.iter().map(|_| None));
        self.n_alive += n_new;

        // Find the destination level: the first empty slot whose capacity
        // holds the batch plus all alive points of the levels below it.
        let mut total: usize = n_new;
        let mut level = 0usize;
        loop {
            if level == self.buckets.len() {
                self.buckets.push(None);
            }
            let occupied = self.buckets[level].is_some();
            if !occupied && Self::capacity(level) >= total {
                break;
            }
            if let Some(b) = &self.buckets[level] {
                total += b.n_alive;
            }
            level += 1;
        }

        // Drain levels below `level` (alive points only) and merge.
        let mut merged_rows: Vec<f64> = Vec::with_capacity(total * dim);
        let mut merged_globals: Vec<GlobalId> = Vec::with_capacity(total);
        for l in 0..level {
            if let Some(b) = self.buckets[l].take() {
                for (local, alive) in b.alive.iter().enumerate() {
                    let gid = b.globals[local];
                    if *alive {
                        merged_rows.extend_from_slice(&b.rows[local * dim..(local + 1) * dim]);
                        merged_globals.push(gid);
                    } else {
                        // Dead point dropped for good.
                        self.entries[gid] = None;
                    }
                }
            }
        }
        merged_rows.extend_from_slice(rows);
        merged_globals.extend(gids.iter().copied());

        let n = merged_globals.len();
        let index = I::build_rows(dim, &merged_rows);
        for (local, &gid) in merged_globals.iter().enumerate() {
            self.entries[gid] = Some((level as u32, local as u32));
        }
        self.buckets[level] = Some(Bucket {
            index,
            rows: merged_rows,
            globals: merged_globals,
            alive: vec![true; n],
            n_alive: n,
        });
        gids
    }

    /// Marks a point dead. Returns `false` if unknown, already dead, or
    /// dropped by a past merge.
    pub fn delete(&mut self, gid: GlobalId) -> bool {
        let Some(Some((bi, local))) = self.entries.get(gid).copied() else {
            return false;
        };
        let bucket = self.buckets[bi as usize]
            .as_mut()
            .expect("entry points at a live bucket");
        let local = local as usize;
        if !bucket.alive[local] {
            return false;
        }
        bucket.alive[local] = false;
        bucket.n_alive -= 1;
        bucket.index.delete(local);
        self.n_alive -= 1;
        true
    }

    /// Restores a previously deleted point (query-time re-insert pattern of
    /// Algorithms 2 and 4). Returns `false` if the point is alive or was
    /// dropped by a merge.
    pub fn restore(&mut self, gid: GlobalId) -> bool {
        let Some(Some((bi, local))) = self.entries.get(gid).copied() else {
            return false;
        };
        let bucket = self.buckets[bi as usize]
            .as_mut()
            .expect("entry points at a live bucket");
        let local = local as usize;
        if bucket.alive[local] {
            return false;
        }
        bucket.alive[local] = true;
        bucket.n_alive += 1;
        bucket.index.restore(local);
        self.n_alive += 1;
        true
    }

    /// Appends the global ids of all alive points inside `region`.
    pub fn report(&self, region: &Region, out: &mut Vec<GlobalId>) {
        let mut tmp = Vec::new();
        for bucket in self.buckets.iter().flatten() {
            tmp.clear();
            bucket.index.report(region, &mut tmp);
            out.extend(tmp.iter().map(|&local| bucket.globals[local]));
        }
    }

    /// Single-pass filtered reporting across all buckets: calls `f(gid)`
    /// for every alive point in `region`, aborting if `f` returns `false`.
    pub fn report_while(&self, region: &Region, f: &mut dyn FnMut(GlobalId) -> bool) {
        for bucket in self.buckets.iter().flatten() {
            let mut keep_going = true;
            bucket.index.report_while(region, &mut |local| {
                keep_going = f(bucket.globals[local]);
                keep_going
            });
            if !keep_going {
                return;
            }
        }
    }

    /// Returns one alive point inside `region`, if any.
    pub fn report_first(&self, region: &Region) -> Option<GlobalId> {
        self.buckets.iter().flatten().find_map(|bucket| {
            bucket
                .index
                .report_first(region)
                .map(|local| bucket.globals[local])
        })
    }

    /// Counts alive points inside `region`.
    pub fn count(&self, region: &Region) -> usize {
        self.buckets
            .iter()
            .flatten()
            .map(|b| b.index.count(region))
            .sum()
    }

    /// Number of buckets currently occupied (`O(log n)`).
    pub fn bucket_count(&self) -> usize {
        self.buckets.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KdTree;

    #[test]
    fn insert_report_roundtrip() {
        let mut ls: LogStructured<KdTree> = LogStructured::new(1);
        let a = ls.insert_batch(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let b = ls.insert_batch(vec![vec![10.0], vec![11.0]]);
        assert_eq!(ls.alive(), 5);
        let mut out = vec![];
        ls.report(&Region::closed(vec![1.5], vec![10.5]), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![a[1], a[2], b[0]]);
    }

    #[test]
    fn merges_preserve_global_ids() {
        let mut ls: LogStructured<KdTree> = LogStructured::new(1);
        let mut gids = Vec::new();
        // Enough single-point batches to force several merges.
        for i in 0..200 {
            gids.extend(ls.insert_batch(vec![vec![i as f64]]));
        }
        assert!(ls.bucket_count() <= 4, "log-structured bucket count");
        let mut out = vec![];
        ls.report(&Region::closed(vec![50.0], vec![59.0]), &mut out);
        out.sort_unstable();
        assert_eq!(out, (50..60).map(|i| gids[i]).collect::<Vec<_>>());
    }

    #[test]
    fn delete_then_merge_drops_points() {
        let mut ls: LogStructured<KdTree> = LogStructured::new(1);
        let gids = ls.insert_batch((0..40).map(|i| vec![i as f64]).collect());
        for &g in &gids[..10] {
            assert!(ls.delete(g));
        }
        assert_eq!(ls.alive(), 30);
        // Force a merge that swallows the first bucket.
        ls.insert_batch((100..200).map(|i| vec![i as f64]).collect());
        // The dead points are gone for good; restore must fail.
        assert!(!ls.restore(gids[0]));
        // Alive ones survived the merge with their ids.
        let mut out = vec![];
        ls.report(&Region::closed(vec![10.0], vec![39.0]), &mut out);
        out.sort_unstable();
        assert_eq!(out, gids[10..].to_vec());
    }

    #[test]
    fn query_time_delete_restore_cycle() {
        let mut ls: LogStructured<KdTree> = LogStructured::new(1);
        let gids = ls.insert_batch((0..32).map(|i| vec![i as f64]).collect());
        let all = Region::all(1);
        let mut seen = Vec::new();
        while let Some(g) = ls.report_first(&all) {
            seen.push(g);
            ls.delete(g);
        }
        assert_eq!(seen.len(), 32);
        for &g in &seen {
            assert!(ls.restore(g));
        }
        assert_eq!(ls.alive(), 32);
        assert_eq!(ls.count(&all), 32);
        let _ = gids;
    }

    #[test]
    fn row_inserts_match_nested_inserts_through_merges_and_deletes() {
        let mut nested: LogStructured<KdTree> = LogStructured::new(2);
        let mut flat: LogStructured<KdTree> = LogStructured::new(2);
        for b in 0..40usize {
            let points: Vec<Vec<f64>> = (0..b % 7 + 1)
                .map(|i| vec![(b * 10 + i) as f64, ((i * 3) % 5) as f64])
                .collect();
            let rows = points.concat();
            assert_eq!(nested.insert_batch(points), flat.insert_rows(&rows));
            if b % 3 == 0 {
                assert_eq!(nested.delete(b), flat.delete(b));
            }
        }
        assert_eq!(nested.bucket_count(), flat.bucket_count());
        for region in [
            Region::all(2),
            Region::closed(vec![55.0, 1.0], vec![250.0, 3.0]),
            Region::closed(vec![300.0, 0.0], vec![301.0, 4.0]),
        ] {
            let (mut a, mut b) = (vec![], vec![]);
            nested.report(&region, &mut a);
            flat.report(&region, &mut b);
            assert_eq!(a, b);
        }
    }
}
