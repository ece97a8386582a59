//! Property tests for packed R-tree range queries: on random point sets —
//! dimensions 1 to 4 (the specialised d = 2 and d = 3 scans and the
//! generic loop), a coordinate range small enough that duplicate points
//! are common, fanouts 2–9 (so the last leaf is often short), and both
//! identity and scrambled packing orders —
//! [`PackedRTree::range_query_ordered`] must return exactly the
//! brute-force answer as a set, in strictly increasing rank order, at
//! the same node cost as [`PackedRTree::range_query`].

use proptest::prelude::*;
use slpm_storage::{Mbr, PackedRTree};
use spectral_lpm::LinearOrder;

/// A stride scramble when `stride` is coprime to `n`, else the identity.
fn order_for(n: usize, stride: usize) -> LinearOrder {
    LinearOrder::from_ranks((0..n).map(|v| (v * stride) % n).collect())
        .unwrap_or_else(|_| LinearOrder::identity(n))
}

/// Assert every range-query property of `query` against brute force.
fn check_query(points: &[Vec<i64>], order: &LinearOrder, tree: &PackedRTree<'_>, query: &Mbr) {
    let (ordered, cost) = tree.range_query_ordered(query);
    let brute: Vec<usize> = (0..points.len())
        .filter(|&i| query.contains_point(&points[i]))
        .collect();
    // Strictly increasing ranks: packed order, and no id twice.
    for w in ordered.windows(2) {
        prop_assert!(order.rank_of(w[0]) < order.rank_of(w[1]));
    }
    let mut as_set = ordered.clone();
    as_set.sort_unstable();
    prop_assert_eq!(&as_set, &brute);
    prop_assert_eq!(cost.results, brute.len());
    prop_assert!(cost.nodes_visited <= tree.num_nodes());
    prop_assert!(cost.leaves_visited <= tree.num_leaves());
    let (sorted, sorted_cost) = tree.range_query(query);
    prop_assert_eq!(sorted, brute);
    prop_assert_eq!(sorted_cost, cost);
}

/// `(points, lo, extent, fanout, stride)` in a shared dimensionality of
/// 1 to 4. Coordinates live in a tight range so duplicates occur
/// regularly; boxes range from empty (outside the data) to covering it.
#[allow(clippy::type_complexity)]
fn range_case() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<i64>, Vec<i64>, usize, usize)> {
    (1usize..=4).prop_flat_map(|dim| {
        (
            proptest::collection::vec(proptest::collection::vec(-4i64..=4, dim), 1..=80),
            proptest::collection::vec(-6i64..=6, dim),
            proptest::collection::vec(0i64..=8, dim),
            2usize..=9,
            1usize..=13,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn range_query_matches_brute_force(
        (points, lo, extent, fanout, stride) in range_case(),
    ) {
        let order = order_for(points.len(), stride);
        let tree = PackedRTree::pack(&points, &order, fanout);
        let hi: Vec<i64> = lo.iter().zip(&extent).map(|(l, e)| l + e).collect();
        check_query(&points, &order, &tree, &Mbr { lo, hi });
    }

    #[test]
    fn boxes_around_packed_runs_contain_whole_leaves_and_subtrees(
        (points, _lo, _extent, fanout, stride) in range_case(),
        window in (0usize..80, 1usize..=80),
    ) {
        // The box of a run of consecutive packed positions contains every
        // leaf (and, for long runs, every subtree) lying inside the run,
        // so the contained-leaf bulk emit runs alongside point scans.
        let n = points.len();
        let order = order_for(n, stride);
        let tree = PackedRTree::pack(&points, &order, fanout);
        let start = window.0 % n;
        let end = (start + window.1).min(n);
        let run = (start..end).map(|p| points[order.vertex_at(p)].as_slice());
        let query = Mbr::of_points(run);
        check_query(&points, &order, &tree, &query);
        let (_, cost) = tree.range_query_ordered(&query);
        prop_assert!(cost.results >= end - start);
        if end - start == n {
            // The whole data set: every node overlaps.
            prop_assert_eq!(cost.nodes_visited, tree.num_nodes());
            prop_assert_eq!(cost.leaves_visited, tree.num_leaves());
        }
    }
}
