//! Thread-count invariance of the spectral orders.
//!
//! The parallel kernels under the multilevel Fiedler pipeline use
//! fixed-chunk deterministic reductions (`slpm_linalg::parallel`), so the
//! computed `LinearOrder` — and therefore every downstream metric — must
//! be **identical** between a run on `Pool::serial()` and a run on a
//! 4-thread pool, on both neighbourhood models and for the multi-vector
//! order too. This is the end-to-end companion of the kernel-level
//! bitwise tests in `slpm_linalg`: if it ever fails, a parallel code path
//! has picked up a thread-count-dependent summation order.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
use spectral_lpm::{multi_vector_order_on, objective, SpectralConfig, SpectralMapper};

/// Grids forcing a real coarsening hierarchy (default coarsest size 256).
/// The 132×132 case crosses the pool's spawn threshold so worker threads
/// genuinely run; it is release-only because a debug multilevel solve at
/// 17k vertices is painfully slow (the kernel-level bitwise tests in
/// `slpm_linalg` cover genuine spawning in debug builds too).
#[cfg(debug_assertions)]
const GRIDS: &[[usize; 2]] = &[[24, 24], [40, 33]];
#[cfg(not(debug_assertions))]
const GRIDS: &[[usize; 2]] = &[[24, 24], [40, 33], [132, 132]];

fn assert_thread_parity(connectivity: Connectivity) {
    let mapper = SpectralMapper::new(SpectralConfig {
        connectivity,
        fiedler: FiedlerOptions {
            method: FiedlerMethod::Multilevel,
            ..Default::default()
        },
        ..Default::default()
    });
    for &dims in GRIDS {
        let spec = GridSpec::new(&dims);
        let serial = mapper.map_grid_on(&spec, &Pool::serial()).unwrap();
        let threaded = mapper.map_grid_on(&spec, &Pool::new(Some(4))).unwrap();
        assert_eq!(
            serial.order.ranks(),
            threaded.order.ranks(),
            "order differs serial vs 4 threads on {dims:?} ({connectivity:?})"
        );
        assert_eq!(
            serial.fiedler.lambda2.to_bits(),
            threaded.fiedler.lambda2.to_bits(),
            "λ₂ bits differ on {dims:?} ({connectivity:?})"
        );
        assert_eq!(
            serial.fiedler.vector, threaded.fiedler.vector,
            "Fiedler vector differs on {dims:?} ({connectivity:?})"
        );
        let graph = spec.graph(connectivity);
        let sigma_serial = objective::two_sum_cost(&graph, &serial.order);
        let sigma_threaded = objective::two_sum_cost(&graph, &threaded.order);
        assert_eq!(
            sigma_serial.to_bits(),
            sigma_threaded.to_bits(),
            "2-sum differs on {dims:?} ({connectivity:?})"
        );
        let multi = |pool: &Pool<'_>| multi_vector_order_on(&graph, 3, 1e-8, mapper.config(), pool);
        assert_eq!(
            multi(&Pool::serial()).unwrap().ranks(),
            multi(&Pool::new(Some(4))).unwrap().ranks(),
            "multi-vector order differs on {dims:?} ({connectivity:?})"
        );
    }
}

#[test]
fn threaded_order_matches_serial_4_connected() {
    assert_thread_parity(Connectivity::Orthogonal);
}

#[test]
fn threaded_order_matches_serial_8_connected() {
    assert_thread_parity(Connectivity::Full);
}
