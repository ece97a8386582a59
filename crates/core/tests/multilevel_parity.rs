//! Parity between the multilevel and dense-QL spectral orders.
//!
//! The multilevel solver is only a faster road to the same answer: on
//! reference grids its `LinearOrder` must be **identical** to the exact
//! dense path's (both go through the degeneracy-balanced canonical
//! representative and the documented tie-snapping rule, so agreement is
//! exact, not merely approximate), and the min-2-sum objective must match
//! within 1% (trivially, given identical orders — asserted separately so a
//! future tie-rule change degrades this test gracefully instead of
//! silently).

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
use spectral_lpm::{objective, SpectralConfig, SpectralMapper};

fn mapper(method: FiedlerMethod, connectivity: Connectivity) -> SpectralMapper {
    SpectralMapper::new(SpectralConfig {
        connectivity,
        fiedler: FiedlerOptions {
            method,
            // Tight residual target so the multilevel representative agrees
            // with the dense eigenspace beyond the tie-snapping window.
            tolerance: 1e-11,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Reference grids. The 32×32 case spends most of its time in the dense
/// O(n³) *reference* solve, which is painfully slow without optimisation,
/// so unoptimised (debug) runs stop at 31×17; `--release` (CI tier-1 builds
/// release first; run `cargo test --release` to reproduce locally) covers
/// the full satellite range up to 32×32.
#[cfg(debug_assertions)]
const GRIDS: &[[usize; 2]] = &[[8, 8], [16, 16], [31, 17]];
#[cfg(not(debug_assertions))]
const GRIDS: &[[usize; 2]] = &[[8, 8], [16, 16], [31, 17], [32, 32]];

fn assert_parity(connectivity: Connectivity) {
    for &dims in GRIDS {
        let spec = GridSpec::new(&dims);
        let dense = mapper(FiedlerMethod::Dense, connectivity)
            .map_grid_on(&spec, &Pool::new(None))
            .unwrap();
        let ml = mapper(FiedlerMethod::Multilevel, connectivity)
            .map_grid_on(&spec, &Pool::new(None))
            .unwrap();
        assert_eq!(
            dense.order.ranks(),
            ml.order.ranks(),
            "order mismatch on {dims:?} ({connectivity:?}); λ₂ dense {} vs multilevel {}",
            dense.fiedler.lambda2,
            ml.fiedler.lambda2
        );
        let graph = spec.graph(connectivity);
        let sigma_dense = objective::two_sum_cost(&graph, &dense.order);
        let sigma_ml = objective::two_sum_cost(&graph, &ml.order);
        assert!(
            (sigma_ml - sigma_dense).abs() <= 0.01 * sigma_dense,
            "2-sum off by >1% on {dims:?}: {sigma_ml} vs {sigma_dense}"
        );
    }
}

#[test]
fn multilevel_matches_dense_order_4_connected() {
    assert_parity(Connectivity::Orthogonal);
}

#[test]
fn multilevel_matches_dense_order_8_connected() {
    assert_parity(Connectivity::Full);
}
