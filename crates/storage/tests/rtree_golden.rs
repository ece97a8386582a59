//! Golden node-accounting counters of the packed R-tree.
//!
//! The `(nodes_visited, leaves_visited, results)` triples below were
//! recorded from the pointer-per-node tree that preceded the flat layout
//! (one `Vec` of children and one heap-allocated MBR per node). The flat
//! tree must pay exactly the same node accounting on the same queries:
//! the serving layer's `storage.rtree_nodes_per_query` metric, its
//! planner gate and its digests all rest on these counters.
//!
//! Two fixed inputs: the boustrophedon (snake) order on a 32×32 grid at
//! fanout 8, and a 3-D snake over an 8×8×8 cube at fanout 6 (so the last
//! leaf is short and the d = 3 scan runs).

use slpm_storage::{chebyshev, Mbr, PackedRTree, QueryCost};
use spectral_lpm::LinearOrder;

/// Points of an axis-aligned cube of `side^dim` cells, id = row-major
/// index (last axis fastest).
fn cube_points(side: i64, dim: usize) -> Vec<Vec<i64>> {
    let n = (side as usize).pow(dim as u32);
    (0..n)
        .map(|mut i| {
            let mut p = vec![0i64; dim];
            for c in p.iter_mut().rev() {
                *c = (i % side as usize) as i64;
                i /= side as usize;
            }
            p
        })
        .collect()
}

/// The boustrophedon order over row-major ids: every axis but the first
/// reverses direction whenever the prefix before it is odd, so
/// consecutive positions are always grid neighbours.
fn snake_order(side: usize, dim: usize) -> LinearOrder {
    let n = side.pow(dim as u32);
    let ranks = (0..n)
        .map(|id| {
            let mut digits = vec![0usize; dim];
            let mut rest = id;
            for d in digits.iter_mut().rev() {
                *d = rest % side;
                rest /= side;
            }
            let mut rank = 0usize;
            for axis in 0..dim {
                let digit = if rank % 2 == 1 {
                    side - 1 - digits[axis]
                } else {
                    digits[axis]
                };
                rank = rank * side + digit;
            }
            rank
        })
        .collect();
    LinearOrder::from_ranks(ranks).expect("snake order is a permutation")
}

fn mbr(lo: &[i64], hi: &[i64]) -> Mbr {
    Mbr {
        lo: lo.to_vec(),
        hi: hi.to_vec(),
    }
}

fn cost(nodes_visited: usize, leaves_visited: usize, results: usize) -> QueryCost {
    QueryCost {
        nodes_visited,
        leaves_visited,
        results,
    }
}

/// Check every range query: pinned cost, brute-force result set, and the
/// id-sorted variant paying the same cost.
fn check_ranges(points: &[Vec<i64>], tree: &PackedRTree<'_>, cases: &[(Mbr, QueryCost)]) {
    for (query, want) in cases {
        let (ordered, got) = tree.range_query_ordered(query);
        assert_eq!(got, *want, "range {query:?}");
        let (sorted, sorted_cost) = tree.range_query(query);
        assert_eq!(sorted_cost, got, "range_query cost {query:?}");
        let brute: Vec<usize> = (0..points.len())
            .filter(|&i| query.contains_point(&points[i]))
            .collect();
        assert_eq!(sorted, brute, "range results {query:?}");
        assert_eq!(ordered.len(), brute.len());
    }
}

/// Check every kNN query: pinned cost and the brute-force answer.
fn check_knn(points: &[Vec<i64>], tree: &PackedRTree<'_>, cases: &[(&[i64], usize, QueryCost)]) {
    for &(center, k, want) in cases {
        let (got, got_cost) = tree.knn_best_first(center, k);
        assert_eq!(got_cost, want, "knn {center:?} k={k}");
        let mut scored: Vec<(i64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (chebyshev(center, p), i))
            .collect();
        scored.sort_unstable();
        scored.truncate(k);
        let brute: Vec<usize> = scored.into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, brute, "knn results {center:?} k={k}");
    }
}

#[test]
fn snake_grid_32x32_fanout_8_counters_are_pinned() {
    let points = cube_points(32, 2);
    let order = snake_order(32, 2);
    let tree = PackedRTree::pack(&points, &order, 8);
    assert_eq!(tree.num_nodes(), 147);
    assert_eq!(tree.num_leaves(), 128);
    assert_eq!(tree.height(), 4);
    check_ranges(
        &points,
        &tree,
        &[
            (mbr(&[0, 0], &[31, 31]), cost(147, 128, 1024)),
            (mbr(&[3, 5], &[9, 12]), cost(20, 14, 56)),
            (mbr(&[10, 0], &[10, 31]), cost(7, 4, 32)),
            (mbr(&[0, 10], &[31, 10]), cost(51, 32, 32)),
            (mbr(&[4, 4], &[27, 27]), cost(111, 96, 576)),
            (mbr(&[8, 0], &[15, 31]), cost(38, 32, 256)),
            (mbr(&[16, 16], &[16, 16]), cost(4, 1, 1)),
            (mbr(&[31, 31], &[40, 40]), cost(4, 1, 1)),
            (mbr(&[-5, -5], &[-1, -1]), cost(0, 0, 0)),
        ],
    );
    check_knn(
        &points,
        &tree,
        &[
            (&[0, 0], 1, cost(4, 1, 1)),
            (&[0, 0], 33, cost(11, 6, 33)),
            (&[15, 16], 8, cost(11, 6, 8)),
            (&[15, 16], 200, cost(41, 30, 200)),
            (&[31, 0], 8, cost(7, 3, 8)),
            (&[40, -3], 33, cost(12, 8, 33)),
            (&[7, 22], 1, cost(4, 1, 1)),
        ],
    );
}

#[test]
fn snake_cube_8x8x8_fanout_6_counters_are_pinned() {
    let points = cube_points(8, 3);
    let order = snake_order(8, 3);
    let tree = PackedRTree::pack(&points, &order, 6);
    assert_eq!(tree.num_nodes(), 105);
    assert_eq!(tree.num_leaves(), 86);
    assert_eq!(tree.height(), 4);
    check_ranges(
        &points,
        &tree,
        &[
            (mbr(&[0, 0, 0], &[7, 7, 7]), cost(105, 86, 512)),
            (mbr(&[1, 2, 3], &[4, 5, 6]), cost(35, 24, 64)),
            (mbr(&[2, 0, 0], &[3, 7, 7]), cost(30, 22, 128)),
            (mbr(&[0, 0, 4], &[7, 7, 4]), cost(83, 64, 64)),
            (mbr(&[7, 7, 7], &[9, 9, 9]), cost(4, 1, 1)),
            (mbr(&[-3, 0, 0], &[-1, 7, 7]), cost(0, 0, 0)),
        ],
    );
    check_knn(
        &points,
        &tree,
        &[
            (&[0, 0, 0], 4, cost(8, 4, 4)),
            (&[3, 4, 3], 27, cost(23, 15, 27)),
            (&[9, -2, 5], 10, cost(13, 6, 10)),
            (&[7, 0, 7], 600, cost(105, 86, 512)),
        ],
    );
}
