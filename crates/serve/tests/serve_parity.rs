//! Shard-, thread-, planner- and admission-invariance of the serving
//! engine.
//!
//! The engine's contract (the serving analogue of PR 3's threading-parity
//! guarantee): replaying the same deterministic workload over the same
//! linear order must produce **identical per-query result sets, page
//! counts, run counts and batch digest** for every combination of shard
//! count, thread count, partition policy, kNN planner and in-flight batch
//! count — scheduling moves work, never answers. Additionally, the
//! engine's per-query distinct-page accounting must equal what the plain
//! unsharded [`slpm_storage::PageStore::serve_query`] loop reads for the
//! same queries.
//!
//! Debug builds run a small grid; the release (tier-2) run adds a
//! 256×256 grid with the full 1 000-query acceptance workload, matching
//! `threading_parity.rs`'s release gating. Beyond the Hilbert grids, an
//! irregular 3-D input — a box with voids, cut by a wall and reduced to
//! its largest Manhattan-connected component, in its spectral order —
//! runs the planner × shard × thread × in-flight matrix too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_graph::traversal::connected_components;
use slpm_linalg::Pool;
use slpm_querysim::mappings::curve_order;
use slpm_serve::engine::{EngineConfig, KnnPlanner, Query, ServeEngine};
use slpm_serve::shard::Partition;
use slpm_serve::workload::{grid_points, mixed_workload, WorkloadConfig};
use slpm_sfc::HilbertCurve;
use slpm_storage::{Mbr, PageLayout, PageMapper, PageStore};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper};

/// `(grid side, queries)` cases; sides are powers of two for Hilbert.
#[cfg(debug_assertions)]
const CASES: &[(usize, usize)] = &[(32, 120)];
#[cfg(not(debug_assertions))]
const CASES: &[(usize, usize)] = &[(64, 300), (256, 1000)];

/// `(box side, queries)` of the irregular 3-D case.
#[cfg(debug_assertions)]
const CLOUD: (usize, usize) = (12, 120);
#[cfg(not(debug_assertions))]
const CLOUD: (usize, usize) = (20, 400);

fn hilbert_order(spec: &GridSpec) -> LinearOrder {
    let side = spec.dim(0) as u64;
    curve_order(
        spec,
        &HilbertCurve::from_side(spec.ndim(), side).expect("power-of-two side"),
    )
}

#[test]
fn results_identical_across_shards_threads_and_partitions() {
    for &(side, queries) in CASES {
        let spec = GridSpec::cube(side, 2);
        let points = grid_points(&spec);
        let order = hilbert_order(&spec);
        let workload = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries,
                ..Default::default()
            },
        );
        let base = EngineConfig {
            buffer_pages: 32,
            ..Default::default()
        };
        let reference = ServeEngine::new(&points, &order, base)
            .run(&workload)
            .expect("no replay panic");
        assert_eq!(reference.outcomes.len(), queries);
        assert!(reference.total_results() > 0, "degenerate workload");
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                for partition in [Partition::Contiguous, Partition::RoundRobin] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        partition,
                        ..base
                    };
                    let engine = ServeEngine::new(&points, &order, cfg);
                    let report = engine.run(&workload).expect("no replay panic");
                    let label = format!("{side}x{side} S={shards} T={threads} {partition}");
                    assert_eq!(report.digest, reference.digest, "digest: {label}");
                    for (q, (a, b)) in report.outcomes.iter().zip(&reference.outcomes).enumerate() {
                        assert_eq!(a.results, b.results, "results of query {q}: {label}");
                        assert_eq!(a.pages, b.pages, "pages of query {q}: {label}");
                        assert_eq!(a.runs, b.runs, "runs of query {q}: {label}");
                    }
                    // Shard stats partition the batch exactly.
                    let routed: usize = report.shards.iter().map(|s| s.pages_routed).sum();
                    assert_eq!(routed, report.total_pages(), "routed pages: {label}");
                }
            }
        }
    }
}

/// The acceptance matrix: kNN result sets and batch digests bitwise
/// identical between expanding-ball and best-first planners, across
/// {1,4} shards × {1,4} threads × {1,4} in-flight batches.
fn assert_planner_inflight_parity(
    points: &[Vec<i64>],
    order: &LinearOrder,
    workload: &[Query],
    input: &str,
) {
    let base = EngineConfig {
        buffer_pages: 32,
        ..Default::default()
    };
    let reference = ServeEngine::new(points, order, base)
        .run(workload)
        .expect("no replay panic");
    assert!(
        reference.total_results() > 0,
        "degenerate workload: {input}"
    );
    let mut best_first_nodes = 0usize;
    let mut expanding_nodes = 0usize;
    for planner in [KnnPlanner::BestFirst, KnnPlanner::ExpandingBall] {
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                for inflight in [1usize, 4] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        knn_planner: planner,
                        ..base
                    };
                    let engine = ServeEngine::new(points, order, cfg);
                    let report = engine
                        .run_inflight(workload, inflight)
                        .expect("no replay panic");
                    let label = format!("{input} {planner} S={shards} T={threads} I={inflight}");
                    assert_eq!(report.digest, reference.digest, "digest: {label}");
                    let mut tree_cost = 0usize;
                    for (q, (a, b)) in report.outcomes.iter().zip(&reference.outcomes).enumerate() {
                        assert_eq!(a.results, b.results, "results of query {q}: {label}");
                        assert_eq!(a.pages, b.pages, "pages of query {q}: {label}");
                        assert_eq!(a.runs, b.runs, "runs of query {q}: {label}");
                        tree_cost += a.tree.nodes_visited + a.tree.leaves_visited;
                    }
                    // Tree costs depend only on the planner, not on
                    // sharding, threading or admission.
                    match planner {
                        KnnPlanner::BestFirst if best_first_nodes == 0 => {
                            best_first_nodes = tree_cost;
                        }
                        KnnPlanner::BestFirst => assert_eq!(tree_cost, best_first_nodes),
                        KnnPlanner::ExpandingBall if expanding_nodes == 0 => {
                            expanding_nodes = tree_cost;
                        }
                        KnnPlanner::ExpandingBall => assert_eq!(tree_cost, expanding_nodes),
                    }
                }
            }
        }
    }
    // The point of the planner: strictly fewer node visits on the
    // same workload (range scans identical, kNN cheaper).
    assert!(
        best_first_nodes < expanding_nodes,
        "{input}: best-first {best_first_nodes} vs expanding {expanding_nodes}"
    );
}

#[test]
fn results_identical_across_planners_and_inflight_batches() {
    for &(side, queries) in CASES {
        let spec = GridSpec::cube(side, 2);
        let workload = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries,
                ..Default::default()
            },
        );
        assert_planner_inflight_parity(
            &grid_points(&spec),
            &hilbert_order(&spec),
            &workload,
            &format!("{side}x{side}"),
        );
    }
}

/// A `side`³ box with two spherical voids and a wall of removed cells at
/// `x = side - 3` (which cuts off a two-cell slab), reduced to its
/// largest Manhattan-connected component: irregular, 3-D, and — unlike
/// the Hilbert grids — ordered by its own Fiedler vector.
fn voided_cloud(side: usize) -> PointSet {
    let s = side as i64;
    let voids = [
        ([s / 3, s / 3, s / 2], s / 4),
        ([2 * s / 3, 2 * s / 3, s / 3], s / 5),
    ];
    let mut cells: Vec<Vec<i64>> = Vec::new();
    for x in 0..s {
        for y in 0..s {
            for z in 0..s {
                let in_void = voids.iter().any(|(c, r)| {
                    let d2 = (x - c[0]).pow(2) + (y - c[1]).pow(2) + (z - c[2]).pow(2);
                    d2 <= r * r
                });
                if !in_void && x != s - 3 {
                    cells.push(vec![x, y, z]);
                }
            }
        }
    }
    let set = PointSet::new(cells).expect("the carved box keeps solid cells");
    let comp = connected_components(&set.neighbourhood_graph(Connectivity::Orthogonal));
    let mut sizes = vec![0usize; comp.iter().max().map_or(0, |&m| m + 1)];
    for &c in &comp {
        sizes[c] += 1;
    }
    assert!(sizes.len() >= 2, "the wall must disconnect the slab");
    let largest = (0..sizes.len())
        .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
        .expect("at least one component");
    let kept = set
        .points()
        .iter()
        .zip(&comp)
        .filter(|&(_, &c)| c == largest)
        .map(|(p, _)| p.clone())
        .collect();
    PointSet::new(kept).expect("the largest component is non-empty")
}

/// Seeded 3-D traffic over the cloud's bounding box: boxes of side 1 to
/// `side / 3` (some reaching past the faces, some landing in a void) and
/// every 4th query a kNN probe with `k` from 1 to 24.
fn cloud_workload(side: usize, queries: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(7);
    let reach = side as i64;
    (0..queries)
        .map(|i| {
            let lo: Vec<i64> = (0..3).map(|_| rng.gen_range(-1..reach)).collect();
            if (i + 1) % 4 == 0 {
                Query::Knn {
                    center: lo,
                    k: 1 + i % 24,
                }
            } else {
                let hi = lo
                    .iter()
                    .map(|&l| l + rng.gen_range(0..reach / 3))
                    .collect();
                Query::Range(Mbr { lo, hi })
            }
        })
        .collect()
}

#[test]
fn irregular_3d_cloud_results_identical_across_the_matrix() {
    let (side, queries) = CLOUD;
    let cloud = voided_cloud(side);
    let points = cloud.points();
    let order = SpectralMapper::new(SpectralConfig::auto())
        .map_points_on(&cloud, &Pool::serial())
        .expect("the largest component is connected")
        .order;
    assert_planner_inflight_parity(
        points,
        &order,
        &cloud_workload(side, queries),
        &format!("voided {side}^3 cloud ({} points)", points.len()),
    );
}

#[test]
fn engine_page_accounting_matches_plain_store_replay() {
    for &(side, queries) in CASES {
        let spec = GridSpec::cube(side, 2);
        let points = grid_points(&spec);
        let order = hilbert_order(&spec);
        let workload = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries: queries.min(300),
                ..Default::default()
            },
        );
        let cfg = EngineConfig {
            shards: 4,
            threads: 4,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&workload).expect("no replay panic");
        // The classic single-threaded, single-shard accounting loop.
        let mapper = PageMapper::new(&order, PageLayout::new(cfg.records_per_page));
        let store = PageStore::build(&mapper, order.len(), 8);
        let mut direct_total = 0usize;
        for (outcome, _q) in report.outcomes.iter().zip(&workload) {
            let direct = store.serve_query(outcome.results.iter().copied());
            assert_eq!(outcome.pages, direct);
            direct_total += direct;
        }
        assert_eq!(report.total_pages(), direct_total);
        assert_eq!(store.total_reads(), direct_total);
    }
}
