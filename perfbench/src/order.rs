//! The ordering layers: graph → linalg → core.

use crate::inputs::Input;
use crate::trace::Trace;
use slpm_graph::grid::Connectivity;
use slpm_graph::Graph;
use slpm_linalg::fiedler::{fiedler_pair_balanced_on, fiedler_pair_on, FiedlerPair};
use slpm_linalg::{dispatch_counters, CsrMatrix, DispatchCounters, Hierarchy, Pool};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper, SpectralMapping};

/// One untraced `map_grid_on` / `map_points_on` call with the automatic
/// solver choice — what `slpm order` runs.
pub fn order_on(input: &Input, pool: &Pool<'_>) -> Result<SpectralMapping, String> {
    let mapper = SpectralMapper::new(SpectralConfig::auto());
    match input {
        Input::Grid(spec) => mapper.map_grid_on(spec, pool),
        Input::Cloud(set) => mapper.map_points_on(set, pool),
    }
    .map_err(|e| e.to_string())
}

/// The mapper's pipeline taken apart at its layer calls.
pub struct Decomposition {
    pub graph: Graph,
    pub laplacian: CsrMatrix,
    pub pair: FiedlerPair,
    pub order: LinearOrder,
    /// Dispatch-counter deltas over the balanced solve.
    pub dispatch: DispatchCounters,
}

/// The steps of `SpectralMapper::map_graph_impl`, one span per layer call:
/// graph build, connectivity check, Laplacian, balanced Fiedler solve with
/// the automatic options, then the snapped sort. Must give the same order
/// as [`order_on`], bit for bit.
pub fn decompose(input: &Input, pool: &Pool<'_>, trace: &Trace) -> Result<Decomposition, String> {
    let graph = trace.span("graph.build", None, || match input {
        Input::Grid(spec) => spec.graph(Connectivity::Orthogonal),
        Input::Cloud(set) => set.neighbourhood_graph(Connectivity::Orthogonal),
    });
    trace
        .span("graph.connected", None, || graph.require_connected())
        .map_err(|e| e.to_string())?;
    let laplacian = trace.span("graph.laplacian", None, || graph.laplacian());
    let opts = SpectralConfig::auto().resolved_fiedler(graph.num_vertices());
    let before = dispatch_counters();
    let pair = trace
        .span("linalg.solve", None, || {
            fiedler_pair_balanced_on(&laplacian, &opts, pool)
        })
        .map_err(|e| e.to_string())?;
    let dispatch = dispatch_counters().since(&before);
    let order = trace
        .span("core.sort", None, || {
            let max_abs = pair.vector.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            LinearOrder::from_keys_snapped(&pair.vector, max_abs * 1e-7)
        })
        .map_err(|e| e.to_string())?;
    Ok(Decomposition {
        graph,
        laplacian,
        pair,
        order,
        dispatch,
    })
}

/// Solver probes outside the reconciled ordering sum.
pub struct Probes {
    pub levels: usize,
    pub coarsest_n: usize,
    pub serial: FiedlerPair,
}

/// Time the coarsening hierarchy on its own, the plain (non-balanced)
/// Fiedler solve, and the balanced solve on the serial pool.
pub fn probe(laplacian: &CsrMatrix, pool: &Pool<'_>, trace: &Trace) -> Result<Probes, String> {
    let opts = SpectralConfig::auto().resolved_fiedler(laplacian.rows());
    let ml = &opts.multilevel;
    // The block width the balanced solve's first (k = 3) probe coarsens
    // for: three pairs plus guard vectors, capped below the coarsest size.
    let floor = (3 + ml.guard_vectors).min(ml.coarsest_size.max(5) - 1);
    let hierarchy = trace
        .span("linalg.hierarchy", None, || {
            Hierarchy::build(laplacian, floor, ml, pool)
        })
        .map_err(|e| e.to_string())?;
    trace
        .span("linalg.plain_solve", None, || {
            fiedler_pair_on(laplacian, &opts, pool)
        })
        .map_err(|e| e.to_string())?;
    let serial = trace
        .span("linalg.solve_serial", None, || {
            fiedler_pair_balanced_on(laplacian, &opts, &Pool::serial())
        })
        .map_err(|e| e.to_string())?;
    Ok(Probes {
        levels: hierarchy.levels.len(),
        coarsest_n: hierarchy.coarsest(laplacian).rows(),
        serial,
    })
}

/// True when `order` is a permutation of `0..n`.
pub fn is_permutation(order: &LinearOrder, n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order
            .ranks()
            .iter()
            .all(|&r| r < n && !std::mem::replace(&mut seen[r], true))
}

/// λ₂ of the `side × side` grid path-product Laplacian: 4·sin²(π / 2·side).
pub fn grid_lambda2(side: usize) -> f64 {
    let s = (std::f64::consts::PI / (2 * side) as f64).sin();
    4.0 * s * s
}
