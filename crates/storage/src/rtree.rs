//! A packed (bulk-loaded) R-tree over a linear order.
//!
//! The paper lists *R-tree packing* among the applications of locality-
//! preserving mappings, after Kamel & Faloutsos' Hilbert-packed R-trees:
//! sort the data by a 1-D order, fill leaves with consecutive runs, and
//! build the index bottom-up. The better the order preserves spatial
//! locality, the tighter the leaf MBRs and the fewer nodes a range query
//! must visit. This module implements exactly that pipeline for *any*
//! [`LinearOrder`], so the spectral order can be compared against the
//! fractals on the application the paper only gestures at.
//!
//! # Layout
//!
//! The tree is one flat structure, with no per-node allocation:
//!
//! * **Node ids.** Leaves come first, left to right over the order
//!   (`0..num_leaves`); each internal level follows, left to right; the
//!   root is the last node.
//! * **Bounds.** Every node's box lives in one `Vec<i64>`, `2·d` words
//!   per node: `lo[0..d]` followed by `hi[0..d]`.
//! * **Children.** A contiguous range per node: of packed positions for a
//!   leaf, of node ids for an internal node.
//! * **Coordinates.** At pack time the points are copied into packed
//!   (linear-order) position order, `d` words per position, so a leaf
//!   scan reads one contiguous slice.
//! * **Point ids.** Position `p` holds point `order.permutation()[p]`;
//!   the tree borrows that slice from the order instead of copying it.
//!
//! # Search
//!
//! A range query walks the tree depth-first, left to right. A leaf whose
//! box lies inside the query emits its whole id slice without testing a
//! point; any other overlapping leaf is scanned contiguously. Both scans
//! and the best-first kNN search fix the dimensionality at compile time
//! for d = 2 and d = 3 and fall back to a loop over `d` otherwise. The
//! node accounting ([`QueryCost`]) does not depend on the layout: a node
//! counts once its box overlaps the query (range) or once it is popped
//! from the frontier (kNN), exactly as in a pointer-per-node tree.

use crate::mbr::Mbr;
use serde::Serialize;
use spectral_lpm::LinearOrder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A packed R-tree: bulk-loaded, never updated (the classic static index).
///
/// Borrows the order's permutation for its point ids and keeps its own
/// packed-order copy of the coordinates (see the [module docs](self));
/// the caller's point set is only read while packing.
#[derive(Debug, Clone)]
pub struct PackedRTree<'a> {
    /// Dimensionality of every point (and of every query).
    dim: usize,
    fanout: usize,
    height: usize,
    num_leaves: usize,
    /// `2·dim` words per node: `lo[0..dim]` then `hi[0..dim]`.
    bounds: Vec<i64>,
    /// Per node, `(start, end)` of its children: packed positions for a
    /// leaf, node ids for an internal node.
    children: Vec<(usize, usize)>,
    /// `dim` words per packed position, in linear-order sequence.
    coords: Vec<i64>,
    /// `ids[p]` = point id at packed position `p` (the order's
    /// permutation, borrowed).
    ids: &'a [usize],
}

/// Access counts of one range query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct QueryCost {
    /// Internal + leaf nodes whose MBR intersected the query.
    pub nodes_visited: usize,
    /// Leaf nodes visited (page reads in the classic model).
    pub leaves_visited: usize,
    /// Matching points returned.
    pub results: usize,
}

impl QueryCost {
    /// The all-zero cost, the identity of [`QueryCost::absorb`].
    pub const ZERO: QueryCost = QueryCost {
        nodes_visited: 0,
        leaves_visited: 0,
        results: 0,
    };

    /// Saturating accumulate: add another probe's counters without ever
    /// overflow-panicking in debug builds. Iterative planners (the
    /// expanding-ball kNN probe re-pays the tree on every doubling round)
    /// can rack up counters far past any single traversal on adversarial
    /// workloads; pinning the sum at `usize::MAX` keeps the accounting a
    /// diagnostic, never a crash.
    pub fn absorb(&mut self, other: &QueryCost) {
        self.nodes_visited = self.nodes_visited.saturating_add(other.nodes_visited);
        self.leaves_visited = self.leaves_visited.saturating_add(other.leaves_visited);
        self.results = self.results.saturating_add(other.results);
    }
}

impl<'a> PackedRTree<'a> {
    /// Bulk-load a tree over `points`, packing leaves with `fanout`
    /// consecutive points of `order` (and internal levels with `fanout`
    /// consecutive children). The coordinates are copied once, into
    /// packed order; the point ids are borrowed from the order.
    ///
    /// # Panics
    /// Panics when `fanout < 2`, `points` is empty, `order.len()`
    /// differs from `points.len()`, or the points do not all have the
    /// same, non-zero dimensionality — all caller bugs.
    pub fn pack(points: &[Vec<i64>], order: &'a LinearOrder, fanout: usize) -> Self {
        assert!(fanout >= 2, "R-tree fanout must be at least 2");
        assert!(!points.is_empty(), "cannot pack an empty point set");
        assert_eq!(order.len(), points.len(), "order/point-set mismatch");
        let dim = points[0].len();
        assert!(
            dim > 0 && points.iter().all(|p| p.len() == dim),
            "every point must have the same, non-zero dimensionality"
        );

        let ids = order.permutation();
        let mut coords = Vec::with_capacity(ids.len() * dim);
        for &id in ids {
            coords.extend_from_slice(&points[id]);
        }
        let mut bounds: Vec<i64> = Vec::new();
        let mut children: Vec<(usize, usize)> = Vec::new();
        // Leaf level: consecutive runs of the order.
        for start in (0..ids.len()).step_by(fanout) {
            let end = (start + fanout).min(ids.len());
            let mut cells = coords[start * dim..end * dim].chunks_exact(dim);
            let first = cells.next().expect("a leaf holds at least one point");
            let mut node = [first, first].concat();
            for cell in cells {
                grow(&mut node, cell, cell);
            }
            bounds.extend_from_slice(&node);
            children.push((start, end));
        }
        let num_leaves = children.len();
        // Internal levels, each over the previous level's node ids.
        let mut level = 0..num_leaves;
        let mut height = 1usize;
        while level.len() > 1 {
            let next_start = children.len();
            for start in level.clone().step_by(fanout) {
                let end = (start + fanout).min(level.end);
                let mut node = bounds[start * 2 * dim..(start + 1) * 2 * dim].to_vec();
                for child in start + 1..end {
                    let (lo, hi) = bounds[child * 2 * dim..(child + 1) * 2 * dim].split_at(dim);
                    grow(&mut node, lo, hi);
                }
                bounds.extend_from_slice(&node);
                children.push((start, end));
            }
            level = next_start..children.len();
            height += 1;
        }

        PackedRTree {
            dim,
            fanout,
            height,
            num_leaves,
            bounds,
            children,
            coords,
            ids,
        }
    }

    /// Number of nodes (all levels).
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Tree height (leaf level = 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Leaf fanout used at pack time.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The bounding box of the whole point set (the root's box).
    pub fn bounds(&self) -> Mbr {
        let (lo, hi) = self.node_box(self.root());
        Mbr {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    /// Sum of leaf MBR volumes — the classic packing-quality metric
    /// (smaller = tighter leaves = fewer false node visits).
    pub fn total_leaf_volume(&self) -> u128 {
        (0..self.num_leaves)
            .map(|leaf| {
                let (lo, hi) = self.node_box(leaf);
                lo.iter()
                    .zip(hi)
                    .map(|(&l, &h)| (h - l + 1) as u128)
                    .product::<u128>()
            })
            .sum()
    }

    /// Sum of leaf MBR margins (the R*-tree quality proxy).
    pub fn total_leaf_margin(&self) -> i64 {
        (0..self.num_leaves)
            .map(|leaf| {
                let (lo, hi) = self.node_box(leaf);
                lo.iter().zip(hi).map(|(&l, &h)| h - l).sum::<i64>()
            })
            .sum()
    }

    /// Answer a range query, counting node accesses.
    ///
    /// Results are sorted by **point id** (ascending), which is generally
    /// *not* the packed linear order — downstream page reads derived from
    /// this list can jump back and forth across the order. Use
    /// [`PackedRTree::range_query_ordered`] when the consumer streams the
    /// results to storage.
    ///
    /// # Panics
    /// As [`PackedRTree::range_query_ordered`].
    pub fn range_query(&self, query: &Mbr) -> (Vec<usize>, QueryCost) {
        let (mut results, cost) = self.range_query_ordered(query);
        results.sort_unstable();
        (results, cost)
    }

    /// Answer a range query returning matches in **packed (linear-order)
    /// sequence**: leaves hold consecutive runs of the order and are
    /// visited left-to-right, so result ranks — and therefore the page
    /// ids any [`crate::PageMapper`] over the same order derives from
    /// them — are monotonically non-decreasing. That turns the query's
    /// page reads into a forward-only sweep (sequential I/O), which is
    /// what the serving layer feeds to its shards.
    ///
    /// Node-access counts are identical to [`PackedRTree::range_query`]
    /// (same nodes, different visit order).
    ///
    /// # Panics
    /// Panics when the query's corners do not both have the points'
    /// dimensionality (a caller bug; the serving engine rejects such a
    /// query with a typed error before it reaches the tree).
    pub fn range_query_ordered(&self, query: &Mbr) -> (Vec<usize>, QueryCost) {
        assert!(
            query.lo.len() == self.dim && query.hi.len() == self.dim,
            "range query dimensionality ({}, {}) differs from the points' ({})",
            query.lo.len(),
            query.hi.len(),
            self.dim
        );
        let mut results = Vec::new();
        let mut cost = QueryCost::ZERO;
        let walk = match self.dim {
            2 => Self::range_walk::<2>,
            3 => Self::range_walk::<3>,
            _ => Self::range_walk::<0>,
        };
        walk(self, &query.lo, &query.hi, &mut results, &mut cost);
        cost.results = results.len();
        (results, cost)
    }

    /// Exact k-nearest-neighbour search under the Chebyshev (L∞) metric,
    /// as a **best-first branch-and-bound** over the packed tree (the
    /// classic Hjaltason–Samet incremental search, specialised to a fixed
    /// `k`):
    ///
    /// * the frontier is a binary min-heap of tree nodes keyed by
    ///   `(Chebyshev distance from the centre to the node's box, node
    ///   id)` — the node id tie-break makes the pop order, and therefore
    ///   the node-access counters, a pure function of the tree and query;
    /// * the current `k` best candidates live in a max-heap keyed by
    ///   `(distance, point id)`; a node is descended only while its
    ///   min-distance can still beat the worst candidate (strictly
    ///   greater prunes — an equal bound may still hide an equal-distance
    ///   point with a smaller id);
    /// * once the closest frontier node is strictly farther than the
    ///   worst of `k` candidates the search stops: every unvisited point
    ///   is at least that far away.
    ///
    /// Results come back sorted ascending by `(distance, id)` — bitwise
    /// identical to brute force (score every point, sort, truncate) and to
    /// the expanding-ball probe the serving engine used before, while
    /// visiting each node **at most once** instead of re-paying the root
    /// path on every doubling round.
    ///
    /// `k` is clamped to the point count; `k == 0` returns nothing and
    /// touches nothing.
    ///
    /// # Panics
    /// Panics when `center` does not have the points' dimensionality (a
    /// caller bug, as for [`PackedRTree::range_query_ordered`]).
    pub fn knn_best_first(&self, center: &[i64], k: usize) -> (Vec<usize>, QueryCost) {
        assert_eq!(
            center.len(),
            self.dim,
            "kNN centre dimensionality differs from the points'"
        );
        let mut cost = QueryCost::ZERO;
        let k = k.min(self.ids.len());
        if k == 0 {
            return (Vec::new(), cost);
        }
        let walk = match self.dim {
            2 => Self::knn_walk::<2>,
            3 => Self::knn_walk::<3>,
            _ => Self::knn_walk::<0>,
        };
        let mut scored = walk(self, center, k, &mut cost).into_vec();
        scored.sort_unstable();
        let results: Vec<usize> = scored.into_iter().map(|(_, id)| id).collect();
        cost.results = results.len();
        (results, cost)
    }

    /// The root's node id (the last node).
    fn root(&self) -> usize {
        self.children.len() - 1
    }

    /// Node `id`'s box as `(lo, hi)` slices of length `dim`.
    fn node_box(&self, id: usize) -> (&[i64], &[i64]) {
        let w = 2 * self.dim;
        self.bounds[id * w..(id + 1) * w].split_at(self.dim)
    }

    /// The range walk behind [`PackedRTree::range_query_ordered`].
    ///
    /// `D` is the dimensionality fixed at compile time (2 or 3), or `0`
    /// to read it from the tree; the loops over `0..d` then unroll for
    /// the specialised instances.
    fn range_walk<const D: usize>(
        &self,
        lo: &[i64],
        hi: &[i64],
        results: &mut Vec<usize>,
        cost: &mut QueryCost,
    ) {
        let d = if D == 0 { self.dim } else { D };
        let (lo, hi) = (&lo[..d], &hi[..d]);
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let (node_lo, node_hi) = self.bounds[id * 2 * d..(id + 1) * 2 * d].split_at(d);
            if !(0..d).all(|k| node_lo[k] <= hi[k] && lo[k] <= node_hi[k]) {
                continue;
            }
            cost.nodes_visited += 1;
            let (start, end) = self.children[id];
            if id >= self.num_leaves {
                // Children are packed left-to-right over the order; push
                // them reversed so the leftmost pops first and leaves are
                // visited in packed order.
                stack.extend((start..end).rev());
                continue;
            }
            cost.leaves_visited += 1;
            let ids = &self.ids[start..end];
            if (0..d).all(|k| lo[k] <= node_lo[k] && node_hi[k] <= hi[k]) {
                // The leaf lies inside the query: every point matches.
                results.extend_from_slice(ids);
                continue;
            }
            let cells = self.coords[start * d..end * d].chunks_exact(d);
            for (&pid, cell) in ids.iter().zip(cells) {
                if (0..d).all(|k| lo[k] <= cell[k] && cell[k] <= hi[k]) {
                    results.push(pid);
                }
            }
        }
    }

    /// The best-first search behind [`PackedRTree::knn_best_first`] for
    /// `1 <= k <= n`; returns the max-heap of the `k` best
    /// `(distance, id)` candidates. `D` as in [`PackedRTree::range_walk`].
    fn knn_walk<const D: usize>(
        &self,
        center: &[i64],
        k: usize,
        cost: &mut QueryCost,
    ) -> BinaryHeap<(i64, usize)> {
        let d = if D == 0 { self.dim } else { D };
        let center = &center[..d];
        // Chebyshev distance from the centre to node `id`'s box (0 inside).
        let min_dist = |id: usize| {
            let (lo, hi) = self.bounds[id * 2 * d..(id + 1) * 2 * d].split_at(d);
            (0..d).fold(0i64, |far, k| {
                far.max(lo[k] - center[k]).max(center[k] - hi[k])
            })
        };
        // Min-heap frontier of (lower bound, node id).
        let mut frontier: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
        let root = self.root();
        frontier.push(Reverse((min_dist(root), root)));
        // Max-heap of the best k candidates seen, keyed (distance, id).
        let mut best: BinaryHeap<(i64, usize)> = BinaryHeap::with_capacity(k + 1);
        while let Some(Reverse((bound, id))) = frontier.pop() {
            // The frontier pops in non-decreasing bound order, so the
            // first unbeatable bound ends the whole search.
            if best.len() == k && bound > best.peek().expect("k > 0 candidates").0 {
                break;
            }
            cost.nodes_visited += 1;
            let (start, end) = self.children[id];
            if id >= self.num_leaves {
                for child in start..end {
                    let child_bound = min_dist(child);
                    // Prune only on a strictly worse bound: an equal one
                    // may hold an equal-distance point with a smaller id.
                    if best.len() < k || child_bound <= best.peek().expect("k > 0 candidates").0 {
                        frontier.push(Reverse((child_bound, child)));
                    }
                }
                continue;
            }
            cost.leaves_visited += 1;
            let cells = self.coords[start * d..end * d].chunks_exact(d);
            for (&pid, cell) in self.ids[start..end].iter().zip(cells) {
                let dist = (0..d).fold(0i64, |far, k| far.max((cell[k] - center[k]).abs()));
                let entry = (dist, pid);
                if best.len() < k {
                    best.push(entry);
                } else if entry < *best.peek().expect("k > 0 candidates") {
                    *best.peek_mut().expect("k > 0 candidates") = entry;
                }
            }
        }
        best
    }
}

/// Grow the box `node` (`lo[0..d]` then `hi[0..d]`) to enclose `lo..=hi`.
fn grow(node: &mut [i64], lo: &[i64], hi: &[i64]) {
    let d = lo.len();
    for k in 0..d {
        node[k] = node[k].min(lo[k]);
        node[d + k] = node[d + k].max(hi[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbr::chebyshev;

    /// A 4×4 grid of points, id = row-major index.
    fn grid_points(side: i64) -> Vec<Vec<i64>> {
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                pts.push(vec![x, y]);
            }
        }
        pts
    }

    #[test]
    fn pack_shapes() {
        let pts = grid_points(4);
        let order = LinearOrder::identity(16);
        let t = PackedRTree::pack(&pts, &order, 4);
        assert_eq!(t.num_leaves(), 4);
        assert_eq!(t.height(), 2);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.fanout(), 4);
        // Each leaf is one grid row of 4 cells: volume 4, margin 3.
        assert_eq!(t.total_leaf_volume(), 16);
        assert_eq!(t.total_leaf_margin(), 12);
    }

    #[test]
    fn uneven_last_leaf() {
        let pts = grid_points(3); // 9 points, fanout 4 → leaves 4+4+1
        let order = LinearOrder::identity(9);
        let t = PackedRTree::pack(&pts, &order, 4);
        assert_eq!(t.num_leaves(), 3);
    }

    #[test]
    fn range_query_returns_exact_results() {
        let pts = grid_points(4);
        let order = LinearOrder::identity(16);
        let t = PackedRTree::pack(&pts, &order, 4);
        let q = Mbr {
            lo: vec![1, 1],
            hi: vec![2, 2],
        };
        let (res, cost) = t.range_query(&q);
        assert_eq!(cost.results, 4);
        assert_eq!(res.len(), 4);
        for &pid in &res {
            assert!(q.contains_point(&pts[pid]));
        }
        // And nothing outside was returned: brute force check.
        let brute: Vec<usize> = (0..16).filter(|&i| q.contains_point(&pts[i])).collect();
        assert_eq!(res, brute);
    }

    #[test]
    fn whole_space_query_visits_everything() {
        let pts = grid_points(4);
        let order = LinearOrder::identity(16);
        let t = PackedRTree::pack(&pts, &order, 4);
        let q = Mbr {
            lo: vec![0, 0],
            hi: vec![3, 3],
        };
        let (res, cost) = t.range_query(&q);
        assert_eq!(res.len(), 16);
        assert_eq!(cost.nodes_visited, t.num_nodes());
        assert_eq!(cost.leaves_visited, t.num_leaves());
    }

    #[test]
    fn empty_region_query_touches_root_only() {
        let pts = grid_points(4);
        let order = LinearOrder::identity(16);
        let t = PackedRTree::pack(&pts, &order, 4);
        let q = Mbr {
            lo: vec![10, 10],
            hi: vec![12, 12],
        };
        let (res, cost) = t.range_query(&q);
        assert!(res.is_empty());
        assert_eq!(cost.nodes_visited, 0); // root MBR doesn't intersect
    }

    #[test]
    fn better_order_gives_tighter_leaves() {
        // Row-major (identity) leaves on a 8×8 grid with fanout 8 are full
        // rows: volume 8 each, total 64. A scrambled order mixes far-apart
        // points into leaves, inflating total volume.
        let pts = grid_points(8);
        let identity = LinearOrder::identity(64);
        let good = PackedRTree::pack(&pts, &identity, 8);
        let scramble =
            LinearOrder::from_ranks((0..64).map(|v: usize| (v * 37) % 64).collect()).unwrap();
        let bad = PackedRTree::pack(&pts, &scramble, 8);
        assert!(
            good.total_leaf_volume() < bad.total_leaf_volume(),
            "good {} vs bad {}",
            good.total_leaf_volume(),
            bad.total_leaf_volume()
        );
        assert!(good.total_leaf_margin() <= bad.total_leaf_margin());
    }

    #[test]
    fn ordered_query_yields_monotone_ranks_and_pages() {
        use crate::pages::{PageLayout, PageMapper};
        // A boustrophedon (snake) order on an 8×8 grid: nontrivial but
        // locality-preserving, so a box query spans several leaves.
        let side = 8usize;
        let pts = grid_points(side as i64);
        let ranks: Vec<usize> = (0..side * side)
            .map(|i| {
                let (x, y) = (i / side, i % side);
                x * side + if x % 2 == 1 { side - 1 - y } else { y }
            })
            .collect();
        let order = LinearOrder::from_ranks(ranks).unwrap();
        let t = PackedRTree::pack(&pts, &order, 4);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let q = Mbr {
            lo: vec![1, 2],
            hi: vec![6, 5],
        };
        let (ordered, cost) = t.range_query_ordered(&q);
        assert!(!ordered.is_empty());
        // Ranks strictly increase along the ordered result stream, so the
        // derived page ids never move backwards: a forward-only sweep.
        for w in ordered.windows(2) {
            assert!(order.rank_of(w[0]) < order.rank_of(w[1]));
            assert!(mapper.page_of(w[0]) <= mapper.page_of(w[1]));
        }
        // Same result set and identical node accounting as the id-sorted
        // variant.
        let (plain, plain_cost) = t.range_query(&q);
        let mut resorted = ordered.clone();
        resorted.sort_unstable();
        assert_eq!(resorted, plain);
        assert_eq!(cost, plain_cost);
    }

    /// Brute-force kNN reference: score, sort by (distance, id), truncate.
    fn brute_knn(points: &[Vec<i64>], center: &[i64], k: usize) -> Vec<usize> {
        let mut scored: Vec<(i64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (chebyshev(center, p), i))
            .collect();
        scored.sort_unstable();
        scored.truncate(k);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn knn_best_first_matches_brute_force() {
        let pts = grid_points(8);
        let order = LinearOrder::identity(64);
        let t = PackedRTree::pack(&pts, &order, 4);
        for center in [[3i64, 3], [0, 0], [7, 7], [-2, 4], [10, 10]] {
            for k in [1usize, 2, 5, 17, 64] {
                let (got, cost) = t.knn_best_first(&center, k);
                assert_eq!(got, brute_knn(&pts, &center, k), "center {center:?} k {k}");
                assert_eq!(cost.results, k.min(64));
                // Best-first visits each node at most once.
                assert!(cost.nodes_visited <= t.num_nodes());
                assert!(cost.leaves_visited <= t.num_leaves());
            }
        }
    }

    #[test]
    fn knn_best_first_handles_duplicates_and_large_k() {
        // Duplicate points: ties on distance resolve by id.
        let pts = vec![
            vec![2i64, 2],
            vec![2, 2],
            vec![0, 0],
            vec![2, 2],
            vec![5, 5],
        ];
        let order = LinearOrder::identity(5);
        let t = PackedRTree::pack(&pts, &order, 2);
        let (got, _) = t.knn_best_first(&[2, 2], 3);
        assert_eq!(got, vec![0, 1, 3]);
        // k beyond the point count clamps; k == 0 touches nothing.
        let (all, _) = t.knn_best_first(&[2, 2], 100);
        assert_eq!(all, brute_knn(&pts, &[2, 2], 5));
        let (none, cost) = t.knn_best_first(&[2, 2], 0);
        assert!(none.is_empty());
        assert_eq!(cost, QueryCost::ZERO);
    }

    #[test]
    fn knn_best_first_prunes_far_subtrees() {
        // A query in one corner of a well-packed 16x16 grid must not
        // visit the whole tree for a small k.
        let pts = grid_points(16);
        let order = LinearOrder::identity(256);
        let t = PackedRTree::pack(&pts, &order, 4);
        let (res, cost) = t.knn_best_first(&[0, 0], 4);
        assert_eq!(res.len(), 4);
        assert!(
            cost.nodes_visited < t.num_nodes() / 2,
            "visited {} of {} nodes",
            cost.nodes_visited,
            t.num_nodes()
        );
    }

    #[test]
    fn query_cost_absorb_saturates() {
        let mut a = QueryCost {
            nodes_visited: usize::MAX - 1,
            leaves_visited: 3,
            results: 0,
        };
        a.absorb(&QueryCost {
            nodes_visited: 5,
            leaves_visited: 2,
            results: 1,
        });
        assert_eq!(a.nodes_visited, usize::MAX);
        assert_eq!(a.leaves_visited, 5);
        assert_eq!(a.results, 1);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_panics() {
        PackedRTree::pack(&grid_points(2), &LinearOrder::identity(4), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_points_panic() {
        PackedRTree::pack(&[], &LinearOrder::identity(0), 4);
    }

    #[test]
    fn single_point_tree() {
        let pts = [vec![5, 5]];
        let order = LinearOrder::identity(1);
        let t = PackedRTree::pack(&pts, &order, 4);
        assert_eq!(t.height(), 1);
        let (res, _) = t.range_query(&Mbr {
            lo: vec![0, 0],
            hi: vec![9, 9],
        });
        assert_eq!(res, vec![0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn mixed_dimensionality_panics() {
        let pts = vec![vec![0i64, 0], vec![1, 1, 1], vec![2, 2]];
        PackedRTree::pack(&pts, &LinearOrder::identity(3), 2);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn range_query_of_another_dimensionality_panics() {
        let pts = grid_points(4);
        let order = LinearOrder::identity(16);
        let t = PackedRTree::pack(&pts, &order, 4);
        t.range_query_ordered(&Mbr {
            lo: vec![0, 0, 0],
            hi: vec![3, 3, 3],
        });
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn knn_centre_of_another_dimensionality_panics() {
        let pts = grid_points(4);
        let order = LinearOrder::identity(16);
        PackedRTree::pack(&pts, &order, 4).knn_best_first(&[1], 2);
    }

    #[test]
    fn bounds_is_the_point_set_box() {
        let pts = vec![
            vec![3i64, -1, 7],
            vec![0, 4, 2],
            vec![5, 5, 5],
            vec![-2, 0, 9],
        ];
        let order = LinearOrder::from_ranks(vec![2, 0, 3, 1]).unwrap();
        let t = PackedRTree::pack(&pts, &order, 2);
        assert_eq!(t.dim(), 3);
        assert_eq!(t.bounds(), Mbr::of_points(pts.iter().map(|p| p.as_slice())));
    }
}
