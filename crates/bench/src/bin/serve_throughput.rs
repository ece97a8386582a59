//! Serving-engine throughput: serial vs pooled, unsharded vs sharded,
//! single-batch vs concurrent admission, expanding-ball vs best-first.
//!
//! Replays one reproducible mixed range/kNN workload (seeded, from
//! `slpm_serve::workload`) through the {1, S} shards × {1, T} threads ×
//! {1, B} in-flight-batches matrix and records queries/sec,
//! pages-per-query quantiles, per-class latency quantiles, hit ratios,
//! shard balance and the batch digest for each. Before the matrix it runs
//! both kNN planners over the same workload and records their R-tree
//! costs; the run **fails** (nonzero exit) if
//!
//! * any configuration's digest diverges (the serving parity contract —
//!   the digest is invariant under batch splitting, so every entry must
//!   agree), or
//! * best-first does not visit strictly fewer R-tree nodes than the
//!   expanding ball on the kNN share of the workload (the planner gate
//!   CI's `serve-smoke` job enforces).
//!
//! With `--page-file PATH` (an artifact of `slpm pack`, matching this
//! run's grid/mapping and the default page geometry) every engine in the
//! matrix serves from the on-disk page file instead of memory-resident
//! payloads — the parity contract then also proves the out-of-core tier
//! answers bitwise identically across the whole matrix. `--readahead N`
//! sets the run-prefetch window (default 0 = off).
//!
//! Usage:
//!   serve_throughput [--grid N] [--shards S] [--threads T] [--queries Q]
//!                    [--repeats R] [--inflight B] [--mapping M]
//!                    [--partition P] [--page-file PATH] [--readahead N]
//!                    [--json] [--out PATH]
//!
//! `--json` writes the machine-readable results (schema
//! `slpm.serve_matrix.v5`) to PATH (default BENCH_serve_matrix.json); the CI
//! `serve-smoke` job uploads that file as a build artifact. The JSON
//! stamps `host_parallelism` — on a single-core container the pooled
//! entries measure scheduling overhead, not speedup; read them together
//! with that field.

use slpm_graph::grid::GridSpec;
use slpm_querysim::mappings::curve_order_by_name;
use slpm_serve::engine::{BatchReport, EngineConfig, KnnPlanner, Query, ServeEngine};
use slpm_serve::shard::Partition;
use slpm_serve::workload::{grid_points, mixed_workload_labeled, WorkloadConfig, CLASS_LABELS};
use std::path::PathBuf;
use std::time::Instant;

struct Entry {
    shards: usize,
    threads: usize,
    inflight: usize,
    mode: &'static str,
    seconds_total: f64,
    qps: f64,
    pages_p50: usize,
    pages_p99: usize,
    /// Per-class (label, p50, p99) latency in microseconds, last repeat.
    class_latency: Vec<(&'static str, f64, f64)>,
    shard_balance: f64,
    /// First repeat: every buffer pool starts empty.
    hit_ratio_cold: f64,
    storage_reads_cold: usize,
    /// Last repeat: pools warmed by the preceding repeats (steady state).
    hit_ratio_warm: f64,
    storage_reads_warm: usize,
    digest: u64,
}

/// One planner's R-tree accounting over the whole workload.
struct PlannerCost {
    planner: KnnPlanner,
    knn_nodes: usize,
    knn_leaves: usize,
    total_nodes: usize,
    digest: u64,
}

/// Nearest-rank quantile of per-query latencies (µs) for one class.
fn class_latency_us(report: &BatchReport, labels: &[&'static str], class: &str, q: f64) -> f64 {
    let mut lats: Vec<f64> = report
        .outcomes
        .iter()
        .zip(labels)
        .filter(|(_, l)| **l == class)
        .map(|(o, _)| o.seconds * 1e6)
        .collect();
    if lats.is_empty() {
        return 0.0;
    }
    lats.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * lats.len() as f64).ceil() as usize;
    lats[rank.saturating_sub(1).min(lats.len() - 1)]
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    side: usize,
    mapping: &str,
    queries: usize,
    repeats: usize,
    inflight: usize,
    partition: Partition,
    cfg: &EngineConfig,
    page_file: Option<&str>,
    planners: &[PlannerCost],
    planner_gate: bool,
    entries: &[Entry],
    parity: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"slpm.serve_matrix.v5\",\n");
    out.push_str(
        "  \"description\": \"Sharded/batched query serving: planners, pooling, concurrent admission\",\n",
    );
    out.push_str(&format!("  \"grid\": [{side}, {side}],\n"));
    out.push_str(&format!("  \"mapping\": \"{mapping}\",\n"));
    out.push_str(&format!("  \"queries\": {queries},\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str(&format!("  \"inflight\": {inflight},\n"));
    out.push_str(&format!("  \"partition\": \"{partition}\",\n"));
    out.push_str(&format!(
        "  \"records_per_page\": {},\n  \"buffer_pages\": {},\n",
        cfg.records_per_page, cfg.buffer_pages
    ));
    out.push_str(&format!(
        "  \"page_file\": {},\n  \"readahead\": {},\n",
        page_file.map_or("null".to_string(), |p| format!("\"{p}\"")),
        cfg.readahead
    ));
    // Single-core hosts cannot show pooled speedups; stamp the machine so
    // the recorded trajectory is read in context (as BENCH_pipeline.json
    // does).
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str("  \"planners\": [\n");
    for (i, p) in planners.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"planner\": \"{}\", \"knn_nodes\": {}, \"knn_leaves\": {}, \
             \"total_nodes\": {}, \"digest\": \"{:016x}\"}}{}\n",
            p.planner,
            p.knn_nodes,
            p.knn_leaves,
            p.total_nodes,
            p.digest,
            if i + 1 == planners.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"planner_gate\": {planner_gate},\n"));
    out.push_str(&format!("  \"parity\": {parity},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let classes: Vec<String> = e
            .class_latency
            .iter()
            .map(|(label, p50, p99)| {
                format!("{{\"class\": \"{label}\", \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}}")
            })
            .collect();
        out.push_str(&format!(
            "    {{\"shards\": {}, \"threads\": {}, \"inflight\": {}, \"mode\": \"{}\", \
             \"seconds_total\": {:.6}, \"qps\": {:.1}, \"pages_p50\": {}, \
             \"pages_p99\": {}, \"shard_balance\": {:.3}, \
             \"hit_ratio_cold\": {:.4}, \"storage_reads_cold\": {}, \
             \"hit_ratio_warm\": {:.4}, \"storage_reads_warm\": {}, \
             \"latency\": [{}], \"digest\": \"{:016x}\"}}{}\n",
            e.shards,
            e.threads,
            e.inflight,
            e.mode,
            e.seconds_total,
            e.qps,
            e.pages_p50,
            e.pages_p99,
            e.shard_balance,
            e.hit_ratio_cold,
            e.storage_reads_cold,
            e.hit_ratio_warm,
            e.storage_reads_warm,
            classes.join(", "),
            e.digest,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut side = 256usize;
    let mut shards = 4usize;
    let mut threads = 4usize;
    let mut queries = 1000usize;
    let mut repeats = 3usize;
    let mut inflight = 4usize;
    let mut mapping = String::from("hilbert");
    let mut partition = Partition::Contiguous;
    let mut page_file: Option<String> = None;
    let mut readahead = 0usize;
    let mut json = false;
    let mut out_path = String::from("BENCH_serve_matrix.json");
    let mut i = 0;
    let bad = |flag: &str| -> ! {
        eprintln!("{flag} requires a positive integer");
        std::process::exit(2);
    };
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--grid" => {
                i += 1;
                side = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 4)
                    .unwrap_or_else(|| bad("--grid (side >= 4)"));
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--shards"));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--threads"));
            }
            "--queries" => {
                i += 1;
                queries = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--queries"));
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--repeats"));
            }
            "--inflight" => {
                i += 1;
                inflight = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--inflight"));
            }
            "--mapping" => {
                i += 1;
                mapping = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--mapping requires a name");
                    std::process::exit(2);
                });
            }
            "--partition" => {
                i += 1;
                partition = args
                    .get(i)
                    .and_then(|v| Partition::parse(v))
                    .unwrap_or_else(|| {
                        eprintln!("--partition must be contiguous or round-robin");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--page-file" => {
                i += 1;
                page_file = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--page-file requires a path (e.g. from `slpm pack`)");
                    std::process::exit(2);
                }));
            }
            "--readahead" => {
                i += 1;
                readahead = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--readahead requires a non-negative integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (try --grid N, --shards S, --threads T, \
                     --queries Q, --repeats R, --inflight B, --mapping M, --partition P, \
                     --page-file PATH, --readahead N, --json, --out PATH)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let spec = GridSpec::cube(side, 2);
    let order = match curve_order_by_name(&spec, &mapping) {
        Ok(order) => order,
        Err(msg) => {
            eprintln!("FAILED: {msg}");
            std::process::exit(1);
        }
    };
    let points = grid_points(&spec);
    let labeled = mixed_workload_labeled(
        &spec,
        &WorkloadConfig {
            queries,
            ..Default::default()
        },
    );
    let workload: Vec<Query> = labeled.iter().map(|(q, _)| q.clone()).collect();
    let labels: Vec<&'static str> = labeled.iter().map(|(_, l)| *l).collect();
    let base = EngineConfig {
        partition,
        readahead,
        ..Default::default()
    };
    // Every engine in the run — planner pass and matrix — shares one
    // backing choice: memory-resident payloads, or the page file.
    let mk_engine = |cfg: EngineConfig| -> ServeEngine {
        match &page_file {
            None => ServeEngine::new(&points, &order, cfg),
            Some(path) => ServeEngine::with_page_file(&points, &order, cfg, PathBuf::from(path))
                .unwrap_or_else(|e| {
                    eprintln!(
                        "FAILED: cannot open page file {path} (geometry/order must \
                         match this run's --grid/--mapping): {e}"
                    );
                    std::process::exit(1);
                }),
        }
    };

    // Phase 1 — the planner gate: both kNN planners over the identical
    // workload on the serial single-shard engine; identical digests,
    // strictly fewer node visits for best-first.
    let mut planners: Vec<PlannerCost> = Vec::new();
    for planner in [KnnPlanner::BestFirst, KnnPlanner::ExpandingBall] {
        let engine = mk_engine(EngineConfig {
            knn_planner: planner,
            ..base
        });
        let report = engine.run(&workload).expect("no replay panic");
        let (mut knn_nodes, mut knn_leaves, mut total_nodes) = (0usize, 0usize, 0usize);
        for (outcome, query) in report.outcomes.iter().zip(&workload) {
            total_nodes += outcome.tree.nodes_visited;
            if matches!(query, Query::Knn { .. }) {
                knn_nodes += outcome.tree.nodes_visited;
                knn_leaves += outcome.tree.leaves_visited;
            }
        }
        planners.push(PlannerCost {
            planner,
            knn_nodes,
            knn_leaves,
            total_nodes,
            digest: report.digest,
        });
    }
    let planner_gate = planners[0].digest == planners[1].digest
        && planners[0].knn_nodes + planners[0].knn_leaves
            < planners[1].knn_nodes + planners[1].knn_leaves;
    println!(
        "planner gate: best-first knn nodes+leaves {} vs expanding-ball {} (digests {})",
        planners[0].knn_nodes + planners[0].knn_leaves,
        planners[1].knn_nodes + planners[1].knn_leaves,
        if planners[0].digest == planners[1].digest {
            "agree"
        } else {
            "DIVERGE"
        },
    );
    if !planner_gate {
        eprintln!("FAILED: best-first planner did not strictly beat the expanding ball");
    }

    // Phase 2 — the serving matrix: {1, S} shards × {1, T} threads ×
    // {1, B} in-flight batches, best-first planner.
    println!(
        "{:>7} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8} {:>10} {:>10} {:>18}",
        "shards",
        "threads",
        "inflight",
        "mode",
        "seconds",
        "q/s",
        "pages p50",
        "pages p99",
        "balance",
        "hit cold",
        "hit warm",
        "digest"
    );
    let mut entries: Vec<Entry> = Vec::new();
    let mut combos: Vec<(usize, usize)> =
        vec![(1, 1), (shards, 1), (1, threads), (shards, threads)];
    combos.sort_unstable();
    combos.dedup();
    let mut flights = vec![1usize, inflight];
    flights.dedup();
    for (s, t) in combos {
        let cfg = EngineConfig {
            shards: s,
            threads: t,
            ..base
        };
        // One engine per in-flight count (buffer pools persist across
        // repeats: the first replay is cold, the last is steady-state),
        // with the admission modes' repeats **interleaved** so both see
        // the same thermal/frequency drift — the single-vs-multi-batch
        // comparison is paired, not sequential.
        let engines: Vec<ServeEngine> = flights.iter().map(|_| mk_engine(cfg)).collect();
        let mut seconds = vec![0.0f64; flights.len()];
        let mut colds: Vec<Option<BatchReport>> = vec![None; flights.len()];
        let mut lasts: Vec<Option<BatchReport>> = vec![None; flights.len()];
        for r in 0..repeats {
            for (slot, (&b, engine)) in flights.iter().zip(&engines).enumerate() {
                let start = Instant::now();
                let report = engine.run_inflight(&workload, b).expect("no replay panic");
                seconds[slot] += start.elapsed().as_secs_f64();
                if r == 0 {
                    colds[slot] = Some(report.clone());
                }
                lasts[slot] = Some(report);
            }
        }
        for (slot, &b) in flights.iter().enumerate() {
            let seconds_total = seconds[slot];
            let cold = colds[slot].take().expect("at least one repeat");
            let report = lasts[slot].take().expect("at least one repeat");
            let class_latency: Vec<(&'static str, f64, f64)> = CLASS_LABELS
                .iter()
                .map(|&label| {
                    (
                        label,
                        class_latency_us(&report, &labels, label, 0.5),
                        class_latency_us(&report, &labels, label, 0.99),
                    )
                })
                .collect();
            let entry = Entry {
                shards: s,
                threads: t,
                inflight: b,
                mode: if t > 1 { "pooled" } else { "serial" },
                seconds_total,
                qps: queries as f64 * repeats as f64 / seconds_total,
                pages_p50: report.page_quantile(0.5),
                pages_p99: report.page_quantile(0.99),
                class_latency,
                shard_balance: report.shard_balance(),
                hit_ratio_cold: cold.buffer_stats().hit_ratio(),
                storage_reads_cold: cold.total_misses(),
                hit_ratio_warm: report.buffer_stats().hit_ratio(),
                storage_reads_warm: report.total_misses(),
                digest: report.digest,
            };
            println!(
                "{:>7} {:>8} {:>9} {:>10} {:>9.4}s {:>10.0} {:>9} {:>9} {:>8.2} {:>10.4} {:>10.4} {:>18}",
                entry.shards,
                entry.threads,
                entry.inflight,
                entry.mode,
                entry.seconds_total,
                entry.qps,
                entry.pages_p50,
                entry.pages_p99,
                entry.shard_balance,
                entry.hit_ratio_cold,
                entry.hit_ratio_warm,
                format!("{:016x}", entry.digest),
            );
            entries.push(entry);
        }
    }

    // The parity contract: the digest is invariant under batch splitting,
    // so every configuration — including every in-flight count — must
    // answer identically (and match both planner passes).
    let parity = entries
        .iter()
        .all(|e| e.digest == planners[0].digest && e.digest == planners[1].digest);
    if !parity {
        eprintln!("FAILED: digests diverge across shard/thread/inflight configurations");
    }
    if json {
        let body = to_json(
            side,
            &mapping,
            queries,
            repeats,
            inflight,
            partition,
            &base,
            page_file.as_deref(),
            &planners,
            planner_gate,
            &entries,
            parity,
        );
        // xtask:allow(fs-only-in-storage): benches persist their JSON artifacts
        if let Err(e) = std::fs::write(&out_path, &body) {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {out_path}");
    }
    if !parity || !planner_gate {
        std::process::exit(1);
    }
}
