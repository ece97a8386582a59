//! Multilevel (coarsen → project → refine) Fiedler solver.
//!
//! The dense QL path is O(n³) and even the Lanczos shift-invert path runs
//! every inner CG solve on the *full* graph, which makes step 3 of the
//! paper's pipeline the scalability bottleneck. This module implements the
//! classic multilevel scheme from the same relaxation lineage the paper
//! cites (Hall 1970 / Fiedler 1973; popularised for spectral partitioning
//! by Barnard & Simon):
//!
//! 1. **Coarsen** — contract the Laplacian by heavy-edge matching
//!    ([`coarsen_laplacian_pooled`]) until the graph has at most
//!    [`MultilevelOptions::coarsest_size`] vertices. The coarse operator is
//!    the Galerkin product `PᵀLP` for the piecewise-constant prolongation
//!    `P`, which is again a combinatorial Laplacian of a weighted graph —
//!    exactly the Section 4 weighted-graph extension.
//! 2. **Solve** — compute the bottom eigenpairs of the coarsest Laplacian
//!    with the existing dense Householder + QL path.
//! 3. **Prolong + refine** — interpolate each eigenvector back up one level
//!    and refine it with block inverse iteration plus a Rayleigh–Ritz
//!    projection per step. The inverse-iteration corrections are
//!    warm-started PCG solves preconditioned by one symmetric V(1,1)-cycle
//!    over the levels of the same hierarchy below the level being refined
//!    (cascadic multigrid for the Fiedler vector, Urschel, Xu, Hu &
//!    Zikatanov 2015; lean AMG for Laplacians, Livne & Brandt 2012). The
//!    cycle's coarsest step reuses the dense eigendecomposition of step 2,
//!    so each correction takes a handful of iterations at any size.
//!
//! Only a handful of loosely-converged solves ever touch the finest graph,
//! which is what makes spectral ordering at 10⁵–10⁶ points practical.

use crate::cg::CgOptions;
use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::parallel::Pool;
use crate::pcg;
use crate::sparse::CsrMatrix;
use crate::tql;
use crate::vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Coarse-to-fine interpolation scheme used when walking back up the
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prolongation {
    /// Edge-weight-scaled interpolation (default): each fine vertex takes
    /// the weighted average of its neighbours' aggregate values,
    /// `x[v] = Σ_j w_vj · x_c[parent[j]] / Σ_j w_vj`. The injected error is
    /// far smoother than piecewise-constant blocks, which cuts the
    /// refinement sweeps the finest levels need.
    #[default]
    Weighted,
    /// Piecewise-constant injection `x[v] = x_c[parent[v]]` — the classic
    /// aggregation transfer, kept as an option (it is the transpose of the
    /// restriction defining the Galerkin coarse operator, and the baseline
    /// the weighted scheme is measured against).
    PiecewiseConstant,
}

/// Tuning knobs for the multilevel solver (carried inside
/// [`crate::fiedler::FiedlerOptions::multilevel`]).
#[derive(Debug, Clone)]
pub struct MultilevelOptions {
    /// Stop coarsening once a level has at most this many vertices; the
    /// coarsest level is handed to the dense eigensolver.
    pub coarsest_size: usize,
    /// Extra "guard" vectors refined alongside the requested eigenpairs.
    /// A block of `k + guard_vectors` widens the spectral gap the block
    /// iteration contracts with (λ_k / λ_{k+guard+1} instead of
    /// λ_k / λ_{k+1}), which matters on grids whose low eigenvalues
    /// cluster.
    pub guard_vectors: usize,
    /// Refinement sweeps on the **finest** level before giving up.
    pub max_refine_steps: usize,
    /// Refinement sweeps on each intermediate level (prolongation error
    /// dominates there, so a couple of sweeps suffice).
    pub intermediate_steps: usize,
    /// Weighted-Jacobi smoothing passes applied to each vector right after
    /// prolongation. Piecewise-constant interpolation injects *blocky*,
    /// high-frequency error, which a smoother damps at the cost of one
    /// matvec per pass — far cheaper than an extra inverse-iteration sweep.
    pub smoothing_passes: usize,
    /// Relative tolerance of each inner correction solve (PCG
    /// preconditioned by a V-cycle over the hierarchy). Loose on purpose:
    /// inverse iteration converges with inexact solves, and the correction
    /// form keeps the effective accuracy improving as the eigenvector does.
    pub inner_tolerance: f64,
    /// Abort coarsening when a level shrinks by less than this factor
    /// (pathological graphs — stars, cliques — defeat matching; the
    /// hierarchy then just stops early and the coarse solve is bigger).
    pub min_shrink: f64,
    /// Coarse-to-fine interpolation scheme (see [`Prolongation`]).
    pub prolongation: Prolongation,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            coarsest_size: 256,
            guard_vectors: 2,
            max_refine_steps: 40,
            intermediate_steps: 3,
            smoothing_passes: 3,
            inner_tolerance: 0.15,
            min_shrink: 0.95,
            prolongation: Prolongation::default(),
        }
    }
}

/// One coarsening step: the Galerkin-contracted Laplacian plus the
/// fine-vertex → coarse-vertex map that defines the prolongation.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// The coarse Laplacian `PᵀLP` (a combinatorial Laplacian of the
    /// contracted weighted graph).
    pub coarse: CsrMatrix,
    /// `parent[v]` is the coarse vertex that fine vertex `v` was merged
    /// into. Prolongation is `x_fine[v] = x_coarse[parent[v]]`.
    pub parent: Vec<usize>,
}

/// A full coarsening hierarchy for one Laplacian: the sequence of
/// [`Coarsening`] steps the multilevel solver walks down and back up.
///
/// Building the hierarchy (greedy matching + Galerkin contraction per
/// level) is a fixed cost independent of how many eigensolves run on it.
/// Recursive spectral bisection exploits that through
/// [`Hierarchy::restrict`]: instead of re-matching each half from
/// scratch, the parent hierarchy is **restricted** to the half's vertex
/// set — every matched pair that survives inside the half stays merged,
/// pairs straddling the cut degrade to singletons, and each coarse
/// operator is the Galerkin contraction of the restricted fine operator,
/// so every level remains a genuine Laplacian.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// Fine-to-coarse steps, finest first; `levels[i].coarse` is the
    /// operator level `i + 1` lives on.
    pub levels: Vec<Coarsening>,
}

impl Hierarchy {
    /// Coarsen `laplacian` by heavy-edge matching until a level has at
    /// most `opts.coarsest_size.max(floor)` vertices, matching stalls
    /// (shrink factor below `opts.min_shrink`), or a level would not be
    /// strictly larger than `floor`. Identical, level for level, to what
    /// the eigensolver builds internally — the eigensolver simply calls
    /// this.
    pub fn build(
        laplacian: &CsrMatrix,
        floor: usize,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<Hierarchy, LinalgError> {
        let coarsest_size = opts.coarsest_size.max(floor + 2);
        let mut levels: Vec<Coarsening> = Vec::new();
        let mut current = laplacian;
        while current.rows() > coarsest_size {
            let step = coarsen_laplacian_pooled(current, pool)?;
            let shrunk = step.coarse_len() < (current.rows() as f64 * opts.min_shrink) as usize;
            if !shrunk || step.coarse_len() <= floor {
                break;
            }
            levels.push(step);
            current = &levels.last().expect("just pushed").coarse;
        }
        Ok(Hierarchy { levels })
    }

    /// The coarsest operator of the hierarchy, or `fallback` (the finest
    /// operator) when no level was built.
    pub fn coarsest<'a>(&'a self, fallback: &'a CsrMatrix) -> &'a CsrMatrix {
        self.levels.last().map_or(fallback, |c| &c.coarse)
    }

    /// Restrict this hierarchy to an induced sub-problem.
    ///
    /// `vertices` are finest-level vertex indices of this hierarchy (in
    /// the order the sub-problem numbers them — the `ids` returned by
    /// `induced_subgraph`), and `sub` is the sub-problem's own Laplacian
    /// on that numbering. Per level, the parent map is compressed onto
    /// the surviving vertices (distinct coarse ids in ascending order, so
    /// the numbering is deterministic) and the coarse operator is the
    /// Galerkin contraction `PᵀLP` of the restricted fine operator. The
    /// walk stops exactly as [`Hierarchy::build`] does — insufficient
    /// shrink or small enough — and if the parent hierarchy runs out of
    /// levels while the sub-problem is still large, fresh heavy-edge
    /// coarsening extends it.
    ///
    /// Matched pairs are edges of the parent graph, so a pair inside the
    /// sub-problem is still an edge of `sub`; contraction by such pairs
    /// preserves connectivity, which keeps the solver's connected-input
    /// precondition intact for connected sub-problems.
    pub fn restrict(
        &self,
        vertices: &[usize],
        sub: &CsrMatrix,
        floor: usize,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<Hierarchy, LinalgError> {
        let coarsest_size = opts.coarsest_size.max(floor + 2);
        let mut levels: Vec<Coarsening> = Vec::new();
        // `ids[i]` = the parent-hierarchy vertex (at the current depth's
        // fine level) that local vertex `i` of the current operator is.
        let mut ids: Vec<usize> = vertices.to_vec();
        let mut current: CsrMatrix = sub.clone();
        for step in &self.levels {
            if current.rows() <= coarsest_size {
                break;
            }
            // Compress the parent map onto the surviving vertices:
            // distinct coarse ids, ascending, become the local numbering.
            let mut coarse_ids: Vec<usize> = ids.iter().map(|&v| step.parent[v]).collect();
            let mut sorted = coarse_ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let rank = |c: usize| sorted.binary_search(&c).expect("own coarse id");
            for c in coarse_ids.iter_mut() {
                *c = rank(*c);
            }
            let local_parent = coarse_ids;
            let coarse_len = sorted.len();
            let shrunk = coarse_len < (current.rows() as f64 * opts.min_shrink) as usize;
            if !shrunk || coarse_len <= floor {
                break;
            }
            // Galerkin contraction of the *restricted* fine operator by
            // the restricted parent map — same triplet remap as
            // `coarsen_laplacian_pooled`, so the result is a Laplacian.
            let coarse = galerkin_contract(&current, &local_parent, coarse_len, pool)?;
            ids = sorted;
            current = coarse.clone();
            levels.push(Coarsening {
                coarse,
                parent: local_parent,
            });
        }
        // Parent hierarchy exhausted but the sub-problem is still big:
        // extend with fresh matching (rare — restricted levels shrink at
        // the parent's rate).
        while current.rows() > coarsest_size {
            let step = coarsen_laplacian_pooled(&current, pool)?;
            let shrunk = step.coarse_len() < (current.rows() as f64 * opts.min_shrink) as usize;
            if !shrunk || step.coarse_len() <= floor {
                break;
            }
            current = step.coarse.clone();
            levels.push(step);
        }
        Ok(Hierarchy { levels })
    }
}

/// Galerkin contraction `PᵀLP` for a piecewise-constant prolongation given
/// by `parent`: every fine triplet `(i, j, v)` lands at
/// `(parent[i], parent[j])` and `from_triplets` sums duplicates, which
/// preserves symmetry and zero row sums exactly. Row-chunked on the pool.
fn galerkin_contract(
    fine: &CsrMatrix,
    parent: &[usize],
    coarse_len: usize,
    pool: &Pool,
) -> Result<CsrMatrix, LinalgError> {
    let n = fine.rows();
    debug_assert_eq!(parent.len(), n);
    let triplets = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for i in lo..hi {
                for (j, v) in fine.row_iter(i) {
                    local.push((parent[i], parent[j], v));
                }
            }
            local
        })
        .concat();
    CsrMatrix::from_triplets(coarse_len, coarse_len, &triplets)
}

impl Coarsening {
    /// Number of coarse vertices.
    pub fn coarse_len(&self) -> usize {
        self.coarse.rows()
    }

    /// Interpolate a coarse-level vector back to the fine level
    /// (piecewise-constant prolongation).
    pub fn prolong(&self, coarse_values: &[f64]) -> Vec<f64> {
        self.parent.iter().map(|&p| coarse_values[p]).collect()
    }
}

/// Contract a Laplacian one level by heavy-edge matching.
///
/// Edges are visited in order of **decreasing weight** (ties broken by the
/// smaller endpoint pair, so the result is deterministic); an edge whose
/// endpoints are both unmatched contracts them into one coarse vertex —
/// the classic greedy ½-approximation of the maximum-weight matching.
/// Vertices left unmatched become singletons. The contracted operator is
/// the Galerkin product `PᵀLP`, computed directly by re-mapping the fine
/// triplets — merged-pair internal edges cancel into the diagonal, and
/// parallel coarse edges sum their weights, preserving Laplacian structure
/// (symmetry and zero row sums) exactly.
///
/// The edge-rating pass (collecting and weighting every undirected edge
/// for the greedy matching) and the Galerkin triplet remap both run
/// row-chunked on `pool`; the matching itself is inherently sequential
/// and stays serial. Chunk order is fixed, so the result is identical for
/// every thread count.
pub fn coarsen_laplacian_pooled(
    laplacian: &CsrMatrix,
    pool: &Pool,
) -> Result<Coarsening, LinalgError> {
    let n = laplacian.rows();
    if laplacian.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "coarsen_laplacian_pooled: matrix not square",
            expected: n,
            found: laplacian.cols(),
        });
    }
    // Off-diagonal Laplacian entries are −w for edge weight w > 0; collect
    // each undirected edge once from the upper triangle (the edge-rating
    // pass, row-chunked on the pool).
    let mut edges: Vec<(f64, usize, usize)> = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for u in lo..hi {
                for (v, entry) in laplacian.row_iter(u) {
                    if v > u && -entry > 0.0 {
                        local.push((-entry, u, v));
                    }
                }
            }
            local
        })
        .concat();
    edges.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite weights by CSR invariant")
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });

    const UNMATCHED: usize = usize::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &(_, u, v) in &edges {
        if mate[u] == UNMATCHED && mate[v] == UNMATCHED {
            mate[u] = v;
            mate[v] = u;
        }
    }
    for (u, m) in mate.iter_mut().enumerate() {
        if *m == UNMATCHED {
            *m = u; // singleton
        }
    }

    // Assign coarse ids in order of each pair's smaller endpoint.
    let mut parent = vec![UNMATCHED; n];
    let mut next = 0usize;
    for u in 0..n {
        if parent[u] != UNMATCHED {
            continue;
        }
        parent[u] = next;
        let m = mate[u];
        if m != u {
            parent[m] = next;
        }
        next += 1;
    }

    // Galerkin triplets: every fine entry (i, j, v) lands at
    // (parent[i], parent[j]); from_triplets sums duplicates. Row-chunked
    // remap on the pool (the sort/merge inside from_triplets stays
    // serial).
    let parent_ref = &parent;
    let triplets = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for i in lo..hi {
                for (j, v) in laplacian.row_iter(i) {
                    local.push((parent_ref[i], parent_ref[j], v));
                }
            }
            local
        })
        .concat();
    let coarse = CsrMatrix::from_triplets(next, next, &triplets)?;
    Ok(Coarsening { coarse, parent })
}

/// The `k` smallest **nonzero** eigenpairs of a connected Laplacian by the
/// multilevel scheme, ascending: `(λ₂, v₂), …, (λ_{k+1}, v_{k+1})`.
///
/// Each representative is mean-centred, unit-norm and sign-canonicalised,
/// with its eigenvalue refreshed as a Rayleigh quotient against the input
/// Laplacian — the same canonical form the dense and Lanczos paths return.
///
/// Preconditions are the caller's (see [`crate::fiedler::fiedler_pair_on`]):
/// the matrix must be an actual Laplacian of a **connected** graph. The
/// convergence target is `‖Lv − λv‖ ≤ tolerance · max(gershgorin, 1)`,
/// scaled to the matrix magnitude so large weighted graphs converge.
///
/// Every kernel down the call chain (coarsening, smoothing, PCG, matvec)
/// schedules onto `pool`.
pub fn smallest_nonzero_eigenpairs_on(
    laplacian: &CsrMatrix,
    k: usize,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let n = laplacian.rows();
    if n < k + 1 {
        return Err(LinalgError::ProblemTooSmall {
            dimension: n,
            minimum: k + 1,
        });
    }
    if k == 0 {
        return Ok(vec![]);
    }

    // Small problems skip the hierarchy entirely: the coarse solver *is*
    // the exact dense path.
    let coarsest_size = opts.coarsest_size.max(k + 2);
    if n <= coarsest_size {
        return dense_smallest(laplacian, k);
    }

    // Block width: requested pairs plus guard vectors, capped so the
    // coarsest dense solve can supply them all.
    let block = (k + opts.guard_vectors).min(coarsest_size - 1);

    // --- 1. Coarsen until the graph is small (or matching stalls). ---
    let hierarchy = Hierarchy::build(laplacian, block, opts, pool)?;
    smallest_nonzero_eigenpairs_on_hierarchy(laplacian, &hierarchy, k, tolerance, seed, opts, pool)
}

/// The solve phase of [`smallest_nonzero_eigenpairs_on`] on a prebuilt
/// [`Hierarchy`]: coarsest-level solve, then the prolong + smooth +
/// refine walk back up. Recursive bisection calls this directly with
/// [`Hierarchy::restrict`]ed hierarchies so each half skips re-coarsening.
///
/// The hierarchy must belong to `laplacian` (its first level's parent map
/// is indexed by `laplacian`'s rows); small problems
/// (`n ≤ coarsest_size`) take the exact dense path regardless.
pub fn smallest_nonzero_eigenpairs_on_hierarchy(
    laplacian: &CsrMatrix,
    hierarchy: &Hierarchy,
    k: usize,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    solve_on_hierarchy(laplacian, hierarchy, k, tolerance, seed, opts, pool).map(|(pairs, _)| pairs)
}

/// Deterministic work counters of one multilevel solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolveStats {
    /// PCG iterations summed over the finest level's inner correction
    /// solves — the solve's dominant cost.
    pub(crate) finest_inner_iterations: usize,
}

/// Eigenpairs `(λ, v)` in the crate's canonical form, ascending.
type Eigenpairs = Vec<(f64, Vec<f64>)>;

/// [`smallest_nonzero_eigenpairs_on_hierarchy`] plus its [`SolveStats`].
pub(crate) fn solve_on_hierarchy(
    laplacian: &CsrMatrix,
    hierarchy: &Hierarchy,
    k: usize,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<(Eigenpairs, SolveStats), LinalgError> {
    let mut stats = SolveStats::default();
    let n = laplacian.rows();
    if n < k + 1 {
        return Err(LinalgError::ProblemTooSmall {
            dimension: n,
            minimum: k + 1,
        });
    }
    if k == 0 {
        return Ok((vec![], stats));
    }
    let coarsest_size = opts.coarsest_size.max(k + 2);
    if n <= coarsest_size {
        return Ok((dense_smallest(laplacian, k)?, stats));
    }
    let block = (k + opts.guard_vectors).min(coarsest_size - 1);
    let levels = &hierarchy.levels;

    // --- 2. Solve the coarsest level. ---
    // Matching can stall far above `coarsest_size` (hub/clique-like graphs
    // defeat edge matching); materialising such a level densely would cost
    // O(n²) memory, so past a small multiple of the intended coarsest size
    // the bottom pairs come from shift-invert Lanczos instead. The dense
    // eigendecomposition is kept: it is the V-cycle's exact coarsest solve.
    let coarsest = hierarchy.coarsest(laplacian);
    let (coarse_pairs, coarse_eigen) = if coarsest.rows() <= coarsest_size.saturating_mul(4) {
        let eig = tql::symmetric_eigen(&coarsest.to_dense())?;
        (canonical_pairs(&eig, block)?, Some(eig))
    } else {
        let pairs = crate::fiedler::smallest_nonzero_eigenpairs_on(
            coarsest,
            block,
            &crate::fiedler::FiedlerOptions {
                method: crate::fiedler::FiedlerMethod::ShiftInvert,
                tolerance,
                seed,
                ..Default::default()
            },
            pool,
        )?;
        (pairs, None)
    };
    if levels.is_empty() {
        // Matching stalled immediately: the coarse solve already ran on
        // the input itself.
        return Ok((coarse_pairs.into_iter().take(k).collect(), stats));
    }
    let multigrid = Multigrid::new(laplacian, hierarchy, coarse_eigen, pool);
    let mut lambdas: Vec<f64> = coarse_pairs.iter().map(|(l, _)| *l).collect();
    let mut vectors: Vec<Vec<f64>> = coarse_pairs.into_iter().map(|(_, v)| v).collect();

    // --- 3. Walk back up: prolong, then refine at every level. ---
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C0A2_5E00_0000);
    let scale = laplacian.gershgorin_upper_bound().max(1.0);
    let target = tolerance * scale;
    for depth in (0..levels.len()).rev() {
        let step = &levels[depth];
        let fine = multigrid.ops[depth];
        for v in &mut vectors {
            *v = prolong_pooled(fine, step, v, opts.prolongation, pool);
        }
        smooth_block(
            fine,
            &mut vectors,
            &lambdas,
            opts.smoothing_passes,
            &multigrid.inv_diag[depth],
            pool,
        );
        let finest = depth == 0;
        let sweeps = if finest {
            opts.max_refine_steps
        } else {
            opts.intermediate_steps
        };
        // Intermediate levels only chase prolongation error; the finest
        // level must actually hit the convergence target.
        let level_target = if finest { target } else { f64::INFINITY };
        let inner_iterations;
        (lambdas, inner_iterations) = refine_block(
            &multigrid.cycle(depth),
            &mut vectors,
            k,
            level_target,
            sweeps,
            opts,
            &mut rng,
            pool,
        )?;
        if finest {
            stats.finest_inner_iterations = inner_iterations;
            let worst = worst_residual(fine, &vectors, &lambdas, k, pool)?;
            if worst > target {
                return Err(LinalgError::NoConvergence {
                    solver: "multilevel",
                    iterations: opts.max_refine_steps,
                    residual: worst,
                    tolerance: target,
                });
            }
        }
    }

    let mut out = Vec::with_capacity(k);
    for (lambda, mut v) in lambdas.into_iter().zip(vectors).take(k) {
        vector::center(&mut v);
        if vector::normalize(&mut v) == 0.0 {
            return Err(LinalgError::NonFiniteInput {
                context: "multilevel: refined eigenvector collapsed",
            });
        }
        vector::canonicalize_sign(&mut v);
        out.push((lambda, v));
    }
    Ok((out, stats))
}

/// Refine the bottom `k` nonzero eigenpairs **directly at the fine
/// level** from caller-supplied warm-start vectors, skipping the coarse
/// solve and the walk-up.
///
/// Recursive bisection uses this to amortise the parent fragment's solve:
/// the parent's refined Fiedler vector restricted to a half is an
/// excellent starting block for the half's own eigenproblem, so the child
/// can skip the coarsest dense solve and the prolong/smooth walk-up.
/// `hierarchy` must belong to `laplacian` (a [`Hierarchy::restrict`]ed
/// parent hierarchy, say): its levels carry the V-cycle that
/// preconditions the inner solves, whose coarsest step is then a fixed
/// number of Jacobi sweeps (no coarse eigendecomposition is computed
/// here). The block is padded to `k + guard_vectors` with seeded random
/// guards, and the convergence target is identical to the hierarchy path's
/// (`tolerance · max(gershgorin, 1)`); if [`MultilevelOptions::max_refine_steps`]
/// sweeps cannot reach it from the supplied guess, the call returns
/// [`LinalgError::NoConvergence`] and the caller should fall back to a
/// full hierarchy solve.
#[allow(clippy::too_many_arguments)]
pub fn refine_warm_started_on(
    laplacian: &CsrMatrix,
    hierarchy: &Hierarchy,
    warm: &[Vec<f64>],
    k: usize,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let n = laplacian.rows();
    if n < k + 1 {
        return Err(LinalgError::ProblemTooSmall {
            dimension: n,
            minimum: k + 1,
        });
    }
    if k == 0 {
        return Ok(vec![]);
    }
    for w in warm {
        if w.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "multilevel warm start",
                expected: n,
                found: w.len(),
            });
        }
    }
    let block = (k + opts.guard_vectors).max(k).min(n - 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_AA3A_5E00_0001);
    let mut vectors: Vec<Vec<f64>> = warm.iter().take(block).cloned().collect();
    while vectors.len() < block {
        let mut v = vec![0.0; n];
        vector::fill_random(&mut rng, &mut v);
        vectors.push(v);
    }
    let scale = laplacian.gershgorin_upper_bound().max(1.0);
    let target = tolerance * scale;
    let multigrid = Multigrid::new(laplacian, hierarchy, None, pool);
    let (lambdas, _) = refine_block(
        &multigrid.cycle(0),
        &mut vectors,
        k,
        target,
        opts.max_refine_steps,
        opts,
        &mut rng,
        pool,
    )?;
    let worst = worst_residual(laplacian, &vectors, &lambdas, k, pool)?;
    if worst > target {
        return Err(LinalgError::NoConvergence {
            solver: "multilevel warm start",
            iterations: opts.max_refine_steps,
            residual: worst,
            tolerance: target,
        });
    }
    let mut out = Vec::with_capacity(k);
    for (lambda, mut v) in lambdas.into_iter().zip(vectors).take(k) {
        vector::center(&mut v);
        if vector::normalize(&mut v) == 0.0 {
            return Err(LinalgError::NonFiniteInput {
                context: "multilevel warm start: refined eigenvector collapsed",
            });
        }
        vector::canonicalize_sign(&mut v);
        out.push((lambda, v));
    }
    Ok(out)
}

/// [`smallest_nonzero_eigenpairs_on`] specialised to the Fiedler pair.
pub fn fiedler_pair_on(
    laplacian: &CsrMatrix,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<(f64, Vec<f64>), LinalgError> {
    let mut pairs = smallest_nonzero_eigenpairs_on(laplacian, 1, tolerance, seed, opts, pool)?;
    let (lambda, v) = pairs.swap_remove(0);
    Ok((lambda, v))
}

/// Exact bottom-of-spectrum solve via the dense Householder + QL path, in
/// the crate's canonical form (centred, unit, sign-canonical, ascending).
/// Shared with [`crate::fiedler::smallest_nonzero_eigenpairs_on`]'s dense
/// branch so the canonical-form convention lives in exactly one place.
pub(crate) fn dense_smallest(
    laplacian: &CsrMatrix,
    k: usize,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    canonical_pairs(&tql::symmetric_eigen(&laplacian.to_dense())?, k)
}

/// The bottom `k` nonzero pairs of a full Laplacian eigendecomposition in
/// canonical form.
fn canonical_pairs(
    eig: &tql::SymmetricEigen,
    k: usize,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let mut out = Vec::with_capacity(k);
    for i in 1..=k {
        let mut v = eig.eigenvector(i);
        vector::center(&mut v);
        if vector::normalize(&mut v) == 0.0 {
            return Err(LinalgError::NonFiniteInput {
                context: "dense eigensolve: eigenvector collapsed (disconnected graph?)",
            });
        }
        vector::canonicalize_sign(&mut v);
        out.push((eig.eigenvalues[i], v));
    }
    Ok(out)
}

/// Interpolate one coarse-level vector to the fine level on the pool.
///
/// `fine` is the matrix of the level being prolonged **to** (its row count
/// equals `step.parent.len()`); the weighted scheme reads its off-diagonal
/// weights, the piecewise-constant scheme only gathers through
/// `step.parent`. Elementwise per fine vertex, so bitwise identical for
/// every thread count.
fn prolong_pooled(
    fine: &CsrMatrix,
    step: &Coarsening,
    coarse_values: &[f64],
    scheme: Prolongation,
    pool: &Pool,
) -> Vec<f64> {
    let parent = &step.parent;
    debug_assert_eq!(fine.rows(), parent.len());
    let mut out = vec![0.0; parent.len()];
    match scheme {
        Prolongation::PiecewiseConstant => {
            pool.for_each_chunk(&mut out, |off, chunk| {
                for (j, o) in chunk.iter_mut().enumerate() {
                    *o = coarse_values[parent[off + j]];
                }
            });
        }
        Prolongation::Weighted => {
            pool.for_each_chunk(&mut out, |off, chunk| {
                for (j, o) in chunk.iter_mut().enumerate() {
                    let v = off + j;
                    let mut num = 0.0;
                    let mut den = 0.0;
                    for (u, entry) in fine.row_iter(v) {
                        if u != v && entry < 0.0 {
                            num += -entry * coarse_values[parent[u]];
                            den += -entry;
                        }
                    }
                    // Isolated vertices (no edges) fall back to injection.
                    *o = if den > 0.0 {
                        num / den
                    } else {
                        coarse_values[parent[v]]
                    };
                }
            });
        }
    }
    out
}

/// Worst residual `‖Lvᵢ − λᵢvᵢ‖` over the first `k` block vectors.
fn worst_residual(
    laplacian: &CsrMatrix,
    vectors: &[Vec<f64>],
    lambdas: &[f64],
    k: usize,
    pool: &Pool,
) -> Result<f64, LinalgError> {
    let n = laplacian.rows();
    let mut worst = 0.0f64;
    let mut r = vec![0.0; n];
    for i in 0..k {
        if vectors[i].len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "multilevel worst_residual",
                expected: n,
                found: vectors[i].len(),
            });
        }
        pool.matvec_into(laplacian, &vectors[i], &mut r);
        pool.axpy(-lambdas[i], &vectors[i], &mut r);
        worst = worst.max(pool.norm2(&r));
    }
    Ok(worst)
}

/// Damp the high-frequency component of freshly-prolonged vectors with a
/// few weighted-Jacobi passes on `(L − θI)v`: eigencomponents near θ are
/// preserved while the blocky interpolation error (which lives at the top
/// of the spectrum) shrinks by a constant factor per pass, at one matvec
/// each. Row-parallel on the pool; thread count never changes the result.
fn smooth_block(
    laplacian: &CsrMatrix,
    vectors: &mut [Vec<f64>],
    lambdas: &[f64],
    passes: usize,
    inv_diag: &[f64],
    pool: &Pool,
) {
    let mut r = vec![0.0; laplacian.rows()];
    for (v, &theta) in vectors.iter_mut().zip(lambdas) {
        for _ in 0..passes {
            pool.matvec_into(laplacian, v, &mut r);
            pool.axpy(-theta, v, &mut r);
            // Level-1 elementwise update — light engagement threshold.
            pool.for_each_chunk_light(v, |off, chunk| {
                for (j, vi) in chunk.iter_mut().enumerate() {
                    *vi -= JACOBI_OMEGA * r[off + j] * inv_diag[off + j];
                }
            });
        }
    }
}

/// Damping of every weighted-Jacobi pass in this module: the
/// post-prolongation smoother and the V-cycle's smoother. A Laplacian's
/// `D⁻¹L` has spectrum in `[0, 2]`, so `ω = 0.7` keeps each pass
/// contractive in the energy norm (`ω·λ_max < 2`).
const JACOBI_OMEGA: f64 = 0.7;

/// Over-relaxation of the V-cycle's coarse-grid correction. Pairwise
/// piecewise-constant aggregation under-corrects smooth error (the coarse
/// Galerkin operator is too stiff), and a fixed factor above one restores
/// most of the lost convergence. Any positive constant keeps the cycle
/// symmetric positive definite; the value only affects speed.
const COARSE_OVER_RELAXATION: f64 = 1.3;

/// Jacobi sweeps standing in for the exact coarsest solve when no dense
/// eigendecomposition of the coarsest level exists (past the dense cap,
/// or on a warm-started refinement). A fixed count keeps the
/// preconditioner a fixed SPD linear map.
const COARSEST_SWEEPS: usize = 8;

/// Everything the V-cycle needs per level of one hierarchy, built once per
/// solve: the operators (finest first), each level's inverse diagonal for
/// the Jacobi smoother, each coarsening step's fine vertices grouped by
/// coarse vertex for the restriction, and optionally the coarsest level's
/// full eigendecomposition for an exact coarsest solve.
struct Multigrid<'a> {
    /// `ops[0]` is the input Laplacian, `ops[i + 1]` is `levels[i].coarse`.
    ops: Vec<&'a CsrMatrix>,
    /// The hierarchy's coarsening steps; `levels[i].parent` maps the
    /// vertices of `ops[i]` to those of `ops[i + 1]`.
    levels: &'a [Coarsening],
    /// Inverse diagonal of every operator (0 for an empty row).
    inv_diag: Vec<Vec<f64>>,
    /// Per coarsening step, the fine vertices of coarse vertex `c` are
    /// `members[starts[c]..starts[c + 1]]`, ascending.
    children: Vec<(Vec<usize>, Vec<usize>)>,
    /// Full eigendecomposition of `ops.last()`, when one was computed.
    coarsest: Option<tql::SymmetricEigen>,
}

impl<'a> Multigrid<'a> {
    fn new(
        laplacian: &'a CsrMatrix,
        hierarchy: &'a Hierarchy,
        coarsest: Option<tql::SymmetricEigen>,
        pool: &Pool,
    ) -> Multigrid<'a> {
        let mut ops = vec![laplacian];
        ops.extend(hierarchy.levels.iter().map(|c| &c.coarse));
        debug_assert!(coarsest
            .as_ref()
            .is_none_or(|e| e.eigenvalues.len() == ops[ops.len() - 1].rows()));
        let inv_diag = ops
            .iter()
            .map(|a| {
                let mut d = vec![0.0; a.rows()];
                pool.for_each_chunk(&mut d, |row0, chunk| {
                    for (j, di) in chunk.iter_mut().enumerate() {
                        let v = a.get(row0 + j, row0 + j);
                        *di = if v > 0.0 { 1.0 / v } else { 0.0 };
                    }
                });
                d
            })
            .collect();
        let children = hierarchy
            .levels
            .iter()
            .map(|c| {
                let mut starts = vec![0usize; c.coarse_len() + 1];
                for &p in &c.parent {
                    starts[p + 1] += 1;
                }
                for i in 0..c.coarse_len() {
                    starts[i + 1] += starts[i];
                }
                let mut next = starts.clone();
                let mut members = vec![0usize; c.parent.len()];
                for (v, &p) in c.parent.iter().enumerate() {
                    members[next[p]] = v;
                    next[p] += 1;
                }
                (starts, members)
            })
            .collect();
        Multigrid {
            ops,
            levels: &hierarchy.levels,
            inv_diag,
            children,
            coarsest,
        }
    }

    /// The V-cycle preconditioning solves on level `top`.
    fn cycle(&self, top: usize) -> VCycle<'_> {
        VCycle { grid: self, top }
    }
}

/// One symmetric V(1,1)-cycle from level `top` of a [`Multigrid`] down to
/// its coarsest level: an approximate inverse of the level-`top` Laplacian
/// on centred vectors, used as the PCG preconditioner of the block
/// refinement's correction solves.
///
/// Per level: one weighted-Jacobi pre-smoothing pass from a zero guess,
/// the residual restricted by summing it over each coarse vertex's fine
/// vertices (`Pᵀ`), the cycle applied recursively to that, the result
/// injected back (`P`) and added scaled by [`COARSE_OVER_RELAXATION`], and
/// one Jacobi post-smoothing pass. The coarsest level is solved exactly
/// through its eigendecomposition (the pseudo-inverse on the complement
/// of the constant vector) or, without one, by [`COARSEST_SWEEPS`] Jacobi
/// sweeps. Pre- and post-smoother are the same symmetric `ωD⁻¹` and every
/// coarsest step is symmetric positive semidefinite, so the cycle is a
/// fixed symmetric positive definite linear map, as CG requires. Each
/// output entry is computed from fixed-order sums only, so the result is
/// bitwise identical for every thread count.
struct VCycle<'a> {
    grid: &'a Multigrid<'a>,
    top: usize,
}

impl VCycle<'_> {
    /// The operator this cycle approximately inverts.
    fn operator(&self) -> &CsrMatrix {
        self.grid.ops[self.top]
    }

    /// `z = B r`.
    fn apply(&self, r: &[f64], z: &mut [f64], pool: &Pool) {
        z.copy_from_slice(&self.level(self.top, r, pool));
    }

    /// The cycle from `level` down, applied to `r` (a vector on `level`).
    fn level(&self, level: usize, r: &[f64], pool: &Pool) -> Vec<f64> {
        let grid = self.grid;
        let a = grid.ops[level];
        let inv_diag = &grid.inv_diag[level];
        if level + 1 == grid.ops.len() {
            return match &grid.coarsest {
                Some(eig) => eigen_pseudo_inverse(eig, r),
                None => (0..COARSEST_SWEEPS).fold(vec![0.0; r.len()], |x, _| {
                    jacobi_sweep(a, inv_diag, r, &x, pool)
                }),
            };
        }
        // Pre-smoothing from a zero guess: x = ωD⁻¹r.
        let mut x = vec![0.0; r.len()];
        pool.for_each_chunk_light(&mut x, |off, chunk| {
            for (j, xi) in chunk.iter_mut().enumerate() {
                *xi = JACOBI_OMEGA * inv_diag[off + j] * r[off + j];
            }
        });
        // Restricted residual, gathered per coarse vertex in ascending
        // fine order: rc[c] = Σ_{parent[v] = c} (r − Ax)[v].
        let (starts, members) = &grid.children[level];
        let mut rc = vec![0.0; starts.len() - 1];
        pool.for_each_chunk(&mut rc, |off, chunk| {
            let mut ax = [0.0];
            for (j, out) in chunk.iter_mut().enumerate() {
                let c = off + j;
                let mut acc = 0.0;
                for &v in &members[starts[c]..starts[c + 1]] {
                    a.matvec_rows_into(v, &x, &mut ax);
                    acc += r[v] - ax[0];
                }
                *out = acc;
            }
        });
        let ec = self.level(level + 1, &rc, pool);
        let parent = &grid.levels[level].parent;
        pool.for_each_chunk_light(&mut x, |off, chunk| {
            for (j, xi) in chunk.iter_mut().enumerate() {
                *xi += COARSE_OVER_RELAXATION * ec[parent[off + j]];
            }
        });
        jacobi_sweep(a, inv_diag, r, &x, pool)
    }
}

/// One weighted-Jacobi pass for `A x = r`: returns `x + ωD⁻¹(r − Ax)`.
fn jacobi_sweep(a: &CsrMatrix, inv_diag: &[f64], r: &[f64], x: &[f64], pool: &Pool) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    pool.for_each_chunk(&mut out, |off, chunk| {
        a.matvec_rows_into(off, x, chunk);
        for (j, o) in chunk.iter_mut().enumerate() {
            let v = off + j;
            *o = x[v] + JACOBI_OMEGA * inv_diag[v] * (r[v] - *o);
        }
    });
    out
}

/// `L⁺r` from a full eigendecomposition of a connected Laplacian `L`:
/// `Σ_{k ≥ 1} q_k (q_kᵀ r) / λ_k`, skipping the constant null vector `q_0`.
/// Serial — the coarsest level is small.
fn eigen_pseudo_inverse(eig: &tql::SymmetricEigen, r: &[f64]) -> Vec<f64> {
    let q = &eig.eigenvectors;
    let m = r.len();
    let mut coef = vec![0.0; m];
    for (i, &ri) in r.iter().enumerate() {
        for (c, &qik) in coef[1..].iter_mut().zip(&q.row(i)[1..]) {
            *c += qik * ri;
        }
    }
    for (c, &lambda) in coef[1..].iter_mut().zip(&eig.eigenvalues[1..]) {
        *c = if lambda > 0.0 { *c / lambda } else { 0.0 };
    }
    (0..m)
        .map(|i| vector::dot(&q.row(i)[1..], &coef[1..]))
        .collect()
}

/// Block inverse iteration with per-sweep Rayleigh–Ritz projection.
///
/// Refines `vectors` in place towards the bottom nonzero eigenspace of
/// `laplacian` and returns the Ritz values (ascending, aligned with the
/// block). Stops early once the first `k` residuals are below `target`.
///
/// Each sweep: (a) centre + orthonormalise the block, (b) Rayleigh–Ritz on
/// the b-dimensional subspace, (c) one warm-started inverse-iteration
/// correction per vector — solve `L d = v − Lv/θ` by PCG preconditioned
/// with `cycle` (a V-cycle over the hierarchy below `L`, see [`VCycle`])
/// and set `v ← v/θ + d`, which equals the inverse-iteration update `L⁻¹v`
/// but hands the solver a right-hand side that shrinks with the
/// eigen-residual. `L` is the cycle's top operator. Also returns the
/// total inner PCG iterations.
#[allow(clippy::too_many_arguments)]
fn refine_block(
    cycle: &VCycle<'_>,
    vectors: &mut [Vec<f64>],
    k: usize,
    target: f64,
    sweeps: usize,
    opts: &MultilevelOptions,
    rng: &mut StdRng,
    pool: &Pool,
) -> Result<(Vec<f64>, usize), LinalgError> {
    let laplacian = cycle.operator();
    let n = laplacian.rows();
    let b = vectors.len();
    let cg_opts = CgOptions {
        tolerance: opts.inner_tolerance,
        max_iterations: None,
        deflate_mean: true,
    };
    let mut lambdas = vec![0.0; b];
    let mut inner_iterations = 0;
    for sweep in 0..sweeps.max(1) {
        orthonormalize(vectors, rng, pool);

        // Rayleigh–Ritz: T = VᵀLV, rotate V by T's eigenbasis.
        let lv: Vec<Vec<f64>> = vectors
            .iter()
            .map(|v| {
                let mut y = vec![0.0; n];
                pool.matvec_into(laplacian, v, &mut y);
                y
            })
            .collect();
        let mut t = DenseMatrix::zeros(b, b);
        for i in 0..b {
            for j in i..b {
                let e = pool.dot(&vectors[i], &lv[j]);
                t.set(i, j, e);
                t.set(j, i, e);
            }
        }
        let ritz = tql::symmetric_eigen(&t)?;
        let rotated = rotate(vectors, &ritz, pool);
        let rotated_lv = rotate(&lv, &ritz, pool);
        for (dst, src) in vectors.iter_mut().zip(rotated) {
            *dst = src;
        }
        lambdas.copy_from_slice(&ritz.eigenvalues);

        // Residuals of the whole block (we have LV for free); convergence
        // is gated on the k wanted pairs only.
        let mut residuals = vec![0.0f64; b];
        for i in 0..b {
            let mut r = rotated_lv[i].clone();
            pool.axpy(-lambdas[i], &vectors[i], &mut r);
            residuals[i] = pool.norm2(&r);
        }
        let worst = residuals[..k].iter().cloned().fold(0.0f64, f64::max);
        // With a finite target this is a convergence check; on intermediate
        // levels (infinite target) every sweep but the last runs its
        // correction, and the trailing Rayleigh–Ritz still leaves the block
        // orthonormal for prolongation.
        if (target.is_finite() && worst <= target) || sweep + 1 == sweeps {
            break;
        }

        // Inverse-iteration correction per block vector, skipping (locking)
        // vectors already well below the convergence target — typically the
        // wanted pairs, whose spectral gaps are widest, leaving only the
        // guard vectors to pay for solves in late sweeps.
        let lock_below = if target.is_finite() {
            0.3 * target
        } else {
            0.0
        };
        for (i, v) in vectors.iter_mut().enumerate() {
            if residuals[i] <= lock_below {
                continue;
            }
            let theta = lambdas[i];
            if !(theta.is_finite() && theta > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { curvature: theta });
            }
            // rhs = v − Lv/θ has norm ‖residual‖/θ, so the relative PCG
            // tolerance tightens automatically as the pair converges.
            let mut rhs = rotated_lv[i].clone();
            pool.scale(-1.0 / theta, &mut rhs);
            pool.axpy(1.0, v, &mut rhs);
            // The inner solve inherits this pool — nested kernels must
            // never fall back to per-call scoped spawns.
            let correction = pcg::solve_preconditioned_on(
                laplacian,
                &rhs,
                &cg_opts,
                *pool,
                "pcg-vcycle",
                |r, z| cycle.apply(r, z, pool),
            )?;
            inner_iterations += correction.iterations;
            let mut x = correction.solution;
            pool.axpy(1.0 / theta, v, &mut x);
            *v = x;
        }
    }
    Ok((lambdas, inner_iterations))
}

/// Centre every block vector and orthonormalise with modified Gram–Schmidt,
/// replacing any collapsed vector by a fresh seeded random direction.
/// Runs the dots/axpys on the pool (bitwise equal to serial).
fn orthonormalize(vectors: &mut [Vec<f64>], rng: &mut StdRng, pool: &Pool) {
    for i in 0..vectors.len() {
        let mut attempts = 0;
        loop {
            let (done, rest) = vectors.split_at_mut(i);
            let v = &mut rest[0];
            pool.center(v);
            for q in done.iter() {
                let c = pool.dot(q, v);
                pool.axpy(-c, q, v);
            }
            let norm = pool.norm2(v);
            if norm > 1e-10 {
                pool.scale(1.0 / norm, v);
                break;
            }
            if attempts >= 4 {
                if norm > 0.0 {
                    pool.scale(1.0 / norm, v);
                }
                break;
            }
            vector::fill_random(rng, v);
            attempts += 1;
        }
    }
}

/// `V · Y` for the Ritz rotation `Y` (eigenvectors of the projected
/// operator, ascending). Axpys run on the pool.
fn rotate(vectors: &[Vec<f64>], ritz: &tql::SymmetricEigen, pool: &Pool) -> Vec<Vec<f64>> {
    let b = vectors.len();
    let n = vectors[0].len();
    let mut out = vec![vec![0.0; n]; b];
    for (col, dst) in out.iter_mut().enumerate() {
        let y = ritz.eigenvector(col);
        for (j, vj) in vectors.iter().enumerate() {
            pool.axpy(y[j], vj, dst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            t.push((i, i, deg));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn grid_laplacian(w: usize, h: usize) -> CsrMatrix {
        let idx = |x: usize, y: usize| x * h + y;
        let mut t = Vec::new();
        let mut deg = vec![0.0; w * h];
        let edge = |t: &mut Vec<(usize, usize, f64)>, deg: &mut Vec<f64>, a: usize, b: usize| {
            t.push((a, b, -1.0));
            t.push((b, a, -1.0));
            deg[a] += 1.0;
            deg[b] += 1.0;
        };
        for x in 0..w {
            for y in 0..h {
                if x + 1 < w {
                    edge(&mut t, &mut deg, idx(x, y), idx(x + 1, y));
                }
                if y + 1 < h {
                    edge(&mut t, &mut deg, idx(x, y), idx(x, y + 1));
                }
            }
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        CsrMatrix::from_triplets(w * h, w * h, &t).unwrap()
    }

    /// A 3-D lattice box with two spherical voids, 6-connected: an
    /// irregular point set whose λ₂ is simple.
    fn cloud_laplacian(w: usize, h: usize, d: usize) -> CsrMatrix {
        let voids = [
            (
                [w as f64 / 3.0, h as f64 / 3.0, d as f64 / 2.0],
                d as f64 / 4.0,
            ),
            (
                [2.0 * w as f64 / 3.0, 2.0 * h as f64 / 3.0, d as f64 / 2.0],
                d as f64 / 5.0,
            ),
        ];
        let keep = |x: usize, y: usize, z: usize| {
            voids.iter().all(|(c, r)| {
                let (dx, dy, dz) = (x as f64 - c[0], y as f64 - c[1], z as f64 - c[2]);
                dx * dx + dy * dy + dz * dz > r * r
            })
        };
        let cell = |x: usize, y: usize, z: usize| (x * h + y) * d + z;
        let mut id = vec![usize::MAX; w * h * d];
        let mut n = 0;
        for x in 0..w {
            for y in 0..h {
                for z in 0..d {
                    if keep(x, y, z) {
                        id[cell(x, y, z)] = n;
                        n += 1;
                    }
                }
            }
        }
        let mut t = Vec::new();
        let mut deg = vec![0.0; n];
        for x in 0..w {
            for y in 0..h {
                for z in 0..d {
                    let a = id[cell(x, y, z)];
                    if a == usize::MAX {
                        continue;
                    }
                    for (nx, ny, nz) in [(x + 1, y, z), (x, y + 1, z), (x, y, z + 1)] {
                        if nx < w && ny < h && nz < d && id[cell(nx, ny, nz)] != usize::MAX {
                            let b = id[cell(nx, ny, nz)];
                            t.push((a, b, -1.0));
                            t.push((b, a, -1.0));
                            deg[a] += 1.0;
                            deg[b] += 1.0;
                        }
                    }
                }
            }
        }
        for (i, dg) in deg.into_iter().enumerate() {
            t.push((i, i, dg));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    /// Finest-level inner PCG iterations of the k = 3 solve (tolerance
    /// 1e-9, seed 1, default options, serial pool).
    fn finest_inner_iterations(lap: &CsrMatrix) -> usize {
        let opts = MultilevelOptions::default();
        let pool = Pool::serial();
        let hierarchy = Hierarchy::build(lap, 5, &opts, &pool).unwrap();
        let (_, stats) = solve_on_hierarchy(lap, &hierarchy, 3, 1e-9, 1, &opts, &pool).unwrap();
        stats.finest_inner_iterations
    }

    #[test]
    fn vcycle_cuts_finest_inner_iterations() {
        // The same solves under the Jacobi preconditioner the V-cycle
        // replaced took 1,037 iterations on the grid (29 corrections of
        // ~36) and 782 on the box (84 corrections of ~9). The cycle cuts
        // each correction to 2–3 iterations. That is more than tenfold on
        // the grid, but only about threefold on the box: the box's block
        // iteration needs ~18 sweeps of up to 5 corrections, a count set
        // by the eigenvalue gap (λ₄/λ₇), not by the inner solves.
        let grid = finest_inner_iterations(&grid_laplacian(128, 128));
        assert!(grid * 10 <= 1037, "128×128 grid: {grid} inner iterations");
        let cloud = finest_inner_iterations(&cloud_laplacian(16, 13, 11));
        assert!(cloud * 3 <= 782, "voided 3-D box: {cloud} inner iterations");
    }

    #[test]
    fn vcycle_is_symmetric_positive_and_thread_invariant() {
        // 130×130 grid: the top levels exceed SPAWN_MIN, so 2 and 4
        // threads really split the V-cycle's row passes. Both coarsest
        // steps are checked: the exact eigendecomposition and the Jacobi
        // sweeps used when there is none.
        let lap = grid_laplacian(130, 130);
        let opts = MultilevelOptions {
            coarsest_size: 64,
            ..Default::default()
        };
        let n = lap.rows();
        let centred = |seed: u64| {
            let mut v = vec![0.0; n];
            vector::fill_random(&mut StdRng::seed_from_u64(seed), &mut v);
            vector::center(&mut v);
            v
        };
        let probes: Vec<Vec<f64>> = (0..4).map(centred).collect();
        for exact in [true, false] {
            let outputs: Vec<Vec<Vec<f64>>> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    let pool = Pool::new(Some(threads));
                    let hierarchy = Hierarchy::build(&lap, 5, &opts, &pool).unwrap();
                    let eig = exact.then(|| {
                        tql::symmetric_eigen(&hierarchy.coarsest(&lap).to_dense()).unwrap()
                    });
                    let grid = Multigrid::new(&lap, &hierarchy, eig, &pool);
                    let cycle = grid.cycle(0);
                    probes
                        .iter()
                        .map(|x| {
                            let mut z = vec![0.0; n];
                            cycle.apply(x, &mut z, &pool);
                            z
                        })
                        .collect()
                })
                .collect();
            let b = &outputs[0];
            for (t, other) in outputs.iter().enumerate().skip(1) {
                assert_eq!(
                    other, b,
                    "exact={exact}: thread run {t} differs from serial"
                );
            }
            for (i, (x, bx)) in probes.iter().zip(b).enumerate() {
                assert!(
                    vector::dot(bx, x) > 0.0,
                    "exact={exact}: ⟨Bx, x⟩ ≤ 0 for probe {i}"
                );
                for (y, by) in probes.iter().zip(b).skip(i + 1) {
                    let (bxy, xby) = (vector::dot(bx, y), vector::dot(x, by));
                    let scale = vector::norm2(bx) * vector::norm2(y);
                    assert!(
                        (bxy - xby).abs() <= 1e-12 * scale,
                        "exact={exact}: ⟨Bx, y⟩ = {bxy} vs ⟨x, By⟩ = {xby}"
                    );
                }
            }
        }
    }

    #[test]
    fn coarsening_preserves_laplacian_structure() {
        let lap = grid_laplacian(8, 8);
        let c = coarsen_laplacian_pooled(&lap, &Pool::new(None)).unwrap();
        // Roughly halves the vertex count on a grid.
        assert!(c.coarse_len() <= 40, "coarse size {}", c.coarse_len());
        assert!(c.coarse_len() >= 16);
        // Still symmetric with zero row sums.
        c.coarse.require_symmetric(1e-12).unwrap();
        for s in c.coarse.row_sums() {
            assert!(s.abs() < 1e-12);
        }
        // Every fine vertex has a parent in range; groups have size ≤ 2.
        let mut count = vec![0usize; c.coarse_len()];
        for &p in &c.parent {
            count[p] += 1;
        }
        assert!(count.iter().all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn coarsening_is_galerkin_product() {
        // The contracted operator must satisfy (PᵀLP)x = Pᵀ(L(Px)) for any
        // coarse vector x.
        let lap = grid_laplacian(5, 4);
        let c = coarsen_laplacian_pooled(&lap, &Pool::new(None)).unwrap();
        let nc = c.coarse_len();
        let x: Vec<f64> = (0..nc).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let px = c.prolong(&x);
        let lpx = lap.matvec(&px).unwrap();
        let mut ptlpx = vec![0.0; nc];
        for (v, &p) in c.parent.iter().enumerate() {
            ptlpx[p] += lpx[v];
        }
        let direct = c.coarse.matvec(&x).unwrap();
        for i in 0..nc {
            assert!(
                (ptlpx[i] - direct[i]).abs() < 1e-10,
                "coarse row {i}: {} vs {}",
                ptlpx[i],
                direct[i]
            );
        }
    }

    #[test]
    fn coarsening_prefers_heavy_edges() {
        // Path 0-1-2-3 with a heavy middle edge: matching must contract
        // (1,2) first, leaving 0 and 3 as singletons.
        let t = [
            (0usize, 1usize, -1.0),
            (1, 0, -1.0),
            (1, 2, -10.0),
            (2, 1, -10.0),
            (2, 3, -1.0),
            (3, 2, -1.0),
            (0, 0, 1.0),
            (1, 1, 11.0),
            (2, 2, 11.0),
            (3, 3, 11.0 - 10.0),
        ];
        let lap = CsrMatrix::from_triplets(4, 4, &t).unwrap();
        let c = coarsen_laplacian_pooled(&lap, &Pool::new(None)).unwrap();
        assert_eq!(c.parent[1], c.parent[2]);
        assert_ne!(c.parent[0], c.parent[1]);
        assert_ne!(c.parent[3], c.parent[1]);
    }

    #[test]
    fn small_problem_is_exact_dense() {
        // n below coarsest_size: multilevel must agree with dense QL to
        // machine precision.
        let n = 20;
        let lap = path_laplacian(n);
        let opts = MultilevelOptions::default();
        let (lambda, v) = fiedler_pair_on(&lap, 1e-9, 7, &opts, &Pool::new(None)).unwrap();
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        assert!((lambda - expect).abs() < 1e-10, "{lambda} vs {expect}");
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        assert!(vector::norm2(&r) < 1e-10);
    }

    #[test]
    fn multilevel_matches_closed_form_on_long_path() {
        // n = 1200 forces a real hierarchy (coarsest_size 256 → ~3 levels).
        let n = 1200;
        let lap = path_laplacian(n);
        let opts = MultilevelOptions::default();
        let (lambda, v) = fiedler_pair_on(&lap, 1e-9, 7, &opts, &Pool::new(None)).unwrap();
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        assert!(
            (lambda - expect).abs() < 1e-9 * expect.max(1e-3),
            "{lambda} vs {expect}"
        );
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        assert!(vector::norm2(&r) < 1e-8, "residual {}", vector::norm2(&r));
        // The path's Fiedler vector is monotone.
        let inc = v.windows(2).all(|w| w[1] > w[0]);
        let dec = v.windows(2).all(|w| w[1] < w[0]);
        assert!(inc || dec);
    }

    #[test]
    fn multilevel_k_pairs_match_dense_on_grid() {
        // 24×18 grid (n = 432 > coarsest floor when shrunk): compare the
        // three smallest nonzero eigenvalues against the dense reference.
        let lap = grid_laplacian(24, 18);
        let opts = MultilevelOptions {
            coarsest_size: 64, // force a real hierarchy at this size
            ..Default::default()
        };
        let ml =
            smallest_nonzero_eigenpairs_on(&lap, 3, 1e-10, 1, &opts, &Pool::new(None)).unwrap();
        let eig = tql::symmetric_eigen(&lap.to_dense()).unwrap();
        for i in 0..3 {
            let expect = eig.eigenvalues[i + 1];
            assert!(
                (ml[i].0 - expect).abs() < 1e-7 * expect.max(1.0),
                "pair {i}: {} vs {expect}",
                ml[i].0
            );
            // Genuine eigenpair.
            let mut r = lap.matvec(&ml[i].1).unwrap();
            vector::axpy(-ml[i].0, &ml[i].1, &mut r);
            assert!(vector::norm2(&r) < 1e-8);
        }
        assert!(ml[0].0 <= ml[1].0 && ml[1].0 <= ml[2].0);
    }

    #[test]
    fn weighted_graph_converges() {
        // Weights spanning six orders of magnitude: the scaled convergence
        // target and Jacobi preconditioning must still deliver a pair.
        let n = 600;
        let mut t = Vec::new();
        let mut deg = vec![0.0; n];
        for i in 0..n - 1 {
            let w = if i % 3 == 0 { 1e6 } else { 1.0 };
            t.push((i, i + 1, -w));
            t.push((i + 1, i, -w));
            deg[i] += w;
            deg[i + 1] += w;
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let (lambda, v) = fiedler_pair_on(
            &lap,
            1e-9,
            3,
            &MultilevelOptions::default(),
            &Pool::new(None),
        )
        .unwrap();
        assert!(lambda > 0.0);
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        let scale = lap.gershgorin_upper_bound();
        assert!(
            vector::norm2(&r) <= 1e-8 * scale,
            "residual {} vs scale {scale}",
            vector::norm2(&r)
        );
    }

    #[test]
    fn matching_stall_falls_back_to_iterative_coarse_solve() {
        // Star K_{1,n-1}: edge matching contracts exactly one pair per
        // level, so the hierarchy stalls at the input itself. The solver
        // must route the coarse solve through shift-invert Lanczos instead
        // of materialising an O(n²) dense matrix. λ₂ of a star is 1.
        let n = 1500; // > 4 × default coarsest_size
        let mut t = Vec::new();
        for i in 1..n {
            t.push((0, i, -1.0));
            t.push((i, 0, -1.0));
            t.push((i, i, 1.0));
        }
        t.push((0, 0, (n - 1) as f64));
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let (lambda, v) = fiedler_pair_on(
            &lap,
            1e-9,
            5,
            &MultilevelOptions::default(),
            &Pool::new(None),
        )
        .unwrap();
        assert!((lambda - 1.0).abs() < 1e-6, "star λ₂ {lambda}");
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        assert!(vector::norm2(&r) < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let lap = grid_laplacian(20, 20);
        let opts = MultilevelOptions {
            coarsest_size: 64,
            ..Default::default()
        };
        let a =
            smallest_nonzero_eigenpairs_on(&lap, 2, 1e-10, 42, &opts, &Pool::new(None)).unwrap();
        let b =
            smallest_nonzero_eigenpairs_on(&lap, 2, 1e-10, 42, &opts, &Pool::new(None)).unwrap();
        for ((la, va), (lb, vb)) in a.iter().zip(&b) {
            assert_eq!(la, lb);
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn threaded_solve_bitwise_identical_to_serial() {
        // The whole multilevel path — pooled coarsening, prolongation,
        // Jacobi smoothing, block refinement with threaded PCG — must
        // return bit-identical eigenpairs for 1, 2, and 4 workers.
        let lap = grid_laplacian(150, 140); // 21,000 vertices > SPAWN_MIN
        let run = |threads: usize| {
            smallest_nonzero_eigenpairs_on(
                &lap,
                2,
                1e-8,
                11,
                &MultilevelOptions::default(),
                &Pool::new(Some(threads)),
            )
            .unwrap()
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            for ((ls, vs), (lp, vp)) in serial.iter().zip(&par) {
                assert_eq!(ls.to_bits(), lp.to_bits(), "threads={threads}");
                assert_eq!(vs, vp, "threads={threads}");
            }
        }
    }

    #[test]
    fn coarsening_identical_across_thread_counts() {
        let lap = grid_laplacian(160, 160); // 25,600 vertices > SPAWN_MIN
        let serial = coarsen_laplacian_pooled(&lap, &Pool::serial()).unwrap();
        for threads in [2usize, 4] {
            let par = coarsen_laplacian_pooled(&lap, &Pool::new(Some(threads))).unwrap();
            assert_eq!(par.parent, serial.parent, "threads={threads}");
            assert_eq!(par.coarse, serial.coarse, "threads={threads}");
        }
    }

    #[test]
    fn weighted_prolongation_is_the_default() {
        assert_eq!(
            MultilevelOptions::default().prolongation,
            Prolongation::Weighted
        );
    }

    #[test]
    fn both_prolongation_schemes_match_closed_form() {
        // Either transfer is only an initial guess for the refinement, so
        // both must land on the same eigenpair — the path's closed-form λ₂.
        let n = 1200;
        let lap = path_laplacian(n);
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        for scheme in [Prolongation::Weighted, Prolongation::PiecewiseConstant] {
            let opts = MultilevelOptions {
                prolongation: scheme,
                ..Default::default()
            };
            let (lambda, v) = fiedler_pair_on(&lap, 1e-9, 7, &opts, &Pool::new(None)).unwrap();
            assert!(
                (lambda - expect).abs() < 1e-9 * expect.max(1e-3),
                "{scheme:?}: {lambda} vs {expect}"
            );
            let mut r = lap.matvec(&v).unwrap();
            vector::axpy(-lambda, &v, &mut r);
            assert!(vector::norm2(&r) < 1e-8, "{scheme:?} residual");
        }
    }

    #[test]
    fn weighted_prolongation_injects_smoother_error() {
        // The motivation for the weighted transfer: right after
        // prolongation (before any smoothing/refinement) the Rayleigh
        // quotient of the interpolated Fiedler guess must not be worse
        // than piecewise-constant injection's — the blocky injected error
        // lives at the top of the spectrum and inflates the quotient.
        let lap = grid_laplacian(30, 30);
        let step = coarsen_laplacian_pooled(&lap, &Pool::new(None)).unwrap();
        // Exact Fiedler vector of the coarse operator as the coarse guess.
        let coarse_pairs = dense_smallest(&step.coarse, 1).unwrap();
        let coarse_v = &coarse_pairs[0].1;
        let pool = Pool::serial();
        let rq = |v: &[f64]| {
            let mut lv = vec![0.0; v.len()];
            lap.matvec_into(v, &mut lv);
            vector::dot(v, &lv) / vector::dot(v, v)
        };
        let mut pc = prolong_pooled(
            &lap,
            &step,
            coarse_v,
            Prolongation::PiecewiseConstant,
            &pool,
        );
        let mut wt = prolong_pooled(&lap, &step, coarse_v, Prolongation::Weighted, &pool);
        vector::center(&mut pc);
        vector::center(&mut wt);
        let (rq_pc, rq_wt) = (rq(&pc), rq(&wt));
        assert!(
            rq_wt <= rq_pc * 1.0001,
            "weighted transfer worse: {rq_wt} vs {rq_pc}"
        );
    }

    #[test]
    fn rejects_tiny_problems_and_k_zero() {
        let lap = path_laplacian(3);
        assert!(matches!(
            smallest_nonzero_eigenpairs_on(
                &lap,
                4,
                1e-9,
                0,
                &MultilevelOptions::default(),
                &Pool::new(None)
            ),
            Err(LinalgError::ProblemTooSmall { .. })
        ));
        assert!(smallest_nonzero_eigenpairs_on(
            &lap,
            0,
            1e-9,
            0,
            &MultilevelOptions::default(),
            &Pool::new(None)
        )
        .unwrap()
        .is_empty());
    }
}
