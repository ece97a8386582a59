//! Seeded inputs: the grid, the irregular 3-D cloud and the query sets.
//! The same seed always gives the same inputs.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_graph::traversal::connected_components;
use slpm_serve::workload::{
    grid_points, mixed_workload, zipf_workload, WorkloadConfig, ZipfConfig,
};
use slpm_serve::Query;

/// Side of the paper's canonical 2-D grid.
pub const GRID_SIDE: usize = 256;
/// Side of the box the 3-D cloud is carved from.
pub const CLOUD_SIDE: usize = 40;
/// Voids are carved until at most this many cells remain solid.
const CLOUD_SOLID_MAX: usize = 41_000;
/// Seed of the cloud's void placement. It is fixed so that every run
/// orders the same irregular instance, as every grid run orders the same
/// grid; the workload seed varies the query traffic.
const CLOUD_SEED: u64 = 0x0063_6C6F_7564_3364;
/// Queries per pass over a workload's query set (256 batches of 16).
pub const QUERIES: usize = 4096;
/// Independent Zipf streams the cloud's query set is made of, one batch
/// each. A stream puts about 40% of its traffic on its hottest spot, so
/// the cost of a single stream swings with where the seed drops that spot;
/// a mixture of many streams keeps the skew inside each batch while the
/// pass cost stays about the same from seed to seed.
const CLOUD_STREAMS: usize = 256;

/// SplitMix64: a small seeded generator for the cloud's void placement.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough integer in `0..n` for placement (modulo bias is
    /// irrelevant at these ranges).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a workload orders.
pub enum Input {
    /// A full grid with 4-connectivity.
    Grid(GridSpec),
    /// An irregular point set with Manhattan-distance-1 edges.
    Cloud(PointSet),
}

impl Input {
    pub fn grid() -> Self {
        Input::Grid(GridSpec::cube(GRID_SIDE, 2))
    }

    /// A 40³ box with seeded spherical voids (radius 2–6) carved until at
    /// most 41,000 cells remain, reduced to its largest Manhattan-connected
    /// component: about 40k points, irregular, with a simple λ₂.
    pub fn cloud() -> Self {
        let n = CLOUD_SIDE;
        let mut solid = vec![true; n * n * n];
        let mut remaining = solid.len();
        let mut rng = SplitMix64::new(CLOUD_SEED);
        while remaining > CLOUD_SOLID_MAX {
            let c = [rng.below(n), rng.below(n), rng.below(n)];
            let r = 2 + rng.below(5);
            let span = |x: usize| x.saturating_sub(r)..=(x + r).min(n - 1);
            for x in span(c[0]) {
                for y in span(c[1]) {
                    for z in span(c[2]) {
                        let d2 = [x.abs_diff(c[0]), y.abs_diff(c[1]), z.abs_diff(c[2])]
                            .iter()
                            .map(|d| d * d)
                            .sum::<usize>();
                        let cell = (x * n + y) * n + z;
                        if d2 <= r * r && solid[cell] {
                            solid[cell] = false;
                            remaining -= 1;
                        }
                    }
                }
            }
        }
        let cells: Vec<Vec<i64>> = (0..solid.len())
            .filter(|&i| solid[i])
            .map(|i| vec![(i / (n * n)) as i64, ((i / n) % n) as i64, (i % n) as i64])
            .collect();
        let box_set = PointSet::new(cells).expect("the carved box keeps solid cells");
        let comp = connected_components(&box_set.neighbourhood_graph(Connectivity::Orthogonal));
        let mut sizes = vec![0usize; comp.iter().max().map_or(0, |&m| m + 1)];
        for &c in &comp {
            sizes[c] += 1;
        }
        // Largest component; ties go to the smaller component id.
        let largest = (0..sizes.len())
            .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
            .expect("at least one component");
        let kept: Vec<Vec<i64>> = box_set
            .points()
            .iter()
            .zip(&comp)
            .filter(|&(_, &c)| c == largest)
            .map(|(p, _)| p.clone())
            .collect();
        Input::Cloud(PointSet::new(kept).expect("the largest component is non-empty"))
    }

    /// The points the engine serves; index = vertex id of the ordering.
    pub fn points(&self) -> Vec<Vec<i64>> {
        match self {
            Input::Grid(spec) => grid_points(spec),
            Input::Cloud(set) => set.points().to_vec(),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Input::Grid(spec) => spec.num_points(),
            Input::Cloud(set) => set.len(),
        }
    }
}

/// The seeded mixed workload over the 256² grid: three uniform range
/// classes (sides 8, 16 and 32) with every 4th query a kNN probe, k = 16.
pub fn grid_queries(seed: u64) -> Vec<Query> {
    mixed_workload(
        &GridSpec::cube(GRID_SIDE, 2),
        &WorkloadConfig {
            queries: QUERIES,
            seed,
            knn_every: 4,
            k: 16,
        },
    )
}

/// The seeded hot-spot traffic over the cloud's 40³ box: 256 concatenated
/// `zipf_workload` streams of 16 queries, each with its own 8 hot spots
/// (exponent 1.2) and every 2nd query a kNN probe, k = 16.
pub fn cloud_queries(seed: u64) -> Vec<Query> {
    let mut seeds = SplitMix64::new(seed);
    (0..CLOUD_STREAMS)
        .flat_map(|_| {
            zipf_workload(
                &GridSpec::cube(CLOUD_SIDE, 3),
                &ZipfConfig {
                    queries: QUERIES / CLOUD_STREAMS,
                    seed: seeds.next_u64(),
                    knn_every: 2,
                    k: 16,
                    ..ZipfConfig::default()
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_is_fixed_and_about_40k_points() {
        let a = Input::cloud();
        assert_eq!(a.points(), Input::cloud().points());
        assert!((35_000..=41_000).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn queries_follow_the_seed() {
        assert_eq!(cloud_queries(3).len(), QUERIES);
        assert_eq!(cloud_queries(3), cloud_queries(3));
        assert_ne!(cloud_queries(3), cloud_queries(4));
        assert_ne!(grid_queries(3), grid_queries(4));
    }
}
