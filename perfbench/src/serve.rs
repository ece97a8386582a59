//! The serving layers: storage (page file, buffer pools, packed R-tree)
//! and serve (plan, route, queue, replay, merge), driven by one client
//! thread in a closed loop.

use crate::inputs::SplitMix64;
use crate::stats::Tally;
use crate::trace::Trace;
use slpm_serve::{
    digest_outcomes, BatchHandle, EngineConfig, Partition, Query, QueryOutcome, ServeEngine,
};
use slpm_storage::{
    chebyshev, write_page_file, BufferStats, PageFileHeader, PageLayout, PageMapper,
};
use spectral_lpm::LinearOrder;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Queries per batch.
pub const BATCH: usize = 16;
/// Batches the client keeps in flight.
pub const INFLIGHT: usize = 2;
/// Contiguous shards of every serving engine.
pub const SHARDS: usize = 4;
/// Worker threads of every serving engine.
pub const ENGINE_THREADS: usize = 2;
/// A timed serving phase completes at least this many batches, so that ten
/// lie beyond the nearest-rank p99.
pub const MIN_BATCHES: usize = 1000;
/// Records per page and bytes per record of every engine and page file.
const RECORDS_PER_PAGE: usize = 64;
const RECORD_SIZE: usize = 64;
/// Queries of each serving workload checked against a brute-force scan.
const BRUTE_FORCE_SAMPLE: usize = 64;

/// serve-disk-grid: 4 contiguous shards of the page file, 32 buffer
/// frames per shard (⅛ of a shard's pages on the 256² grid), readahead 8.
pub fn disk_config() -> EngineConfig {
    EngineConfig {
        records_per_page: RECORDS_PER_PAGE,
        record_size: RECORD_SIZE,
        shards: SHARDS,
        threads: ENGINE_THREADS,
        partition: Partition::Contiguous,
        buffer_pages: 32,
        readahead: 8,
        ..EngineConfig::default()
    }
}

/// Memory-resident serving: every shard's buffer holds all of its pages,
/// so after warm-up every page access is a hit.
pub fn mem_config(records: usize) -> EngineConfig {
    EngineConfig {
        buffer_pages: records.div_ceil(RECORDS_PER_PAGE).div_ceil(SHARDS),
        readahead: 0,
        ..disk_config()
    }
}

/// A page file under the benchmark's own directory, removed on drop.
pub struct TempFile(pub PathBuf);

impl TempFile {
    pub fn new(stem: &str) -> Result<Self, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempFile(
            dir.join(format!("{stem}-{}.pages", std::process::id())),
        ))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Pack `order` into a page file at `path` with the engines' geometry.
pub fn pack(order: &LinearOrder, path: &Path) -> Result<PageFileHeader, String> {
    let mapper = PageMapper::new(order, PageLayout::new(RECORDS_PER_PAGE));
    write_page_file(path, &mapper, RECORD_SIZE).map_err(|e| e.to_string())
}

/// What every served batch is checked against: a one-thread, one-shard,
/// single-batch replay of the whole query set on a memory-resident engine.
pub struct Reference {
    pub order: LinearOrder,
    /// Digest of the whole query set.
    pub digest: u64,
    /// Digest of each consecutive `BATCH`-query slice.
    pub batch_digests: Vec<u64>,
}

impl Reference {
    /// Replay `queries` once, then check a seeded sample of the answers
    /// against a brute-force scan.
    pub fn build(
        points: &[Vec<i64>],
        order: LinearOrder,
        queries: &[Query],
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        assert_eq!(queries.len() % BATCH, 0, "whole batches only");
        let report = ServeEngine::new(points, &order, EngineConfig::default())
            .run(queries)
            .map_err(|e| format!("reference replay: {e}"))?;
        let mut rng = SplitMix64::new(seed ^ 0x0062_7275_7465);
        let mut wrong = 0;
        for _ in 0..BRUTE_FORCE_SAMPLE {
            let i = rng.below(queries.len());
            wrong += u64::from(!agrees_with_scan(points, &queries[i], &report.outcomes[i]));
        }
        tally.record(BRUTE_FORCE_SAMPLE as u64, wrong, || {
            "engine answers differ from a brute-force scan".into()
        });
        Ok(Reference {
            digest: report.digest,
            batch_digests: report.outcomes.chunks(BATCH).map(digest_outcomes).collect(),
            order,
        })
    }

    pub fn batches(&self) -> usize {
        self.batch_digests.len()
    }
}

/// Scan every point: a range query's ids as a set, a kNN query's ids
/// ranked by (Chebyshev distance, id).
fn agrees_with_scan(points: &[Vec<i64>], query: &Query, outcome: &QueryOutcome) -> bool {
    match query {
        Query::Range(mbr) => {
            let expect: Vec<usize> = (0..points.len())
                .filter(|&i| mbr.contains_point(&points[i]))
                .collect();
            let mut got = outcome.results.clone();
            got.sort_unstable();
            got == expect
        }
        Query::Knn { center, k } => {
            let mut ranked: Vec<(i64, usize)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (chebyshev(center, p), i))
                .collect();
            ranked.sort_unstable();
            ranked.truncate(*k);
            outcome.results == ranked.into_iter().map(|(_, i)| i).collect::<Vec<_>>()
        }
    }
}

/// When a closed loop stops issuing batches.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After exactly this many batches.
    Batches(usize),
    /// At this instant, but not before [`MIN_BATCHES`] batches.
    Until(Instant),
}

/// What a closed loop observed.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Submit-to-wait-return time of each batch, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Queries of batches that returned `Ok`.
    pub completed: usize,
    /// Wall time of the serving phase.
    pub wall_s: f64,
    pub buffer: BufferStats,
    pub pages: usize,
    pub runs: usize,
    pub results: usize,
    pub tree_nodes: usize,
    pub degraded: usize,
    pub errors: usize,
    pub shard_pages: Vec<usize>,
    /// Largest per-shard queue depth seen after a submit (traced runs only).
    pub queue_depth_max: usize,
}

impl ServeStats {
    pub fn absorb(&mut self, other: &ServeStats) {
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.completed += other.completed;
        self.wall_s += other.wall_s;
        self.buffer.merge(&other.buffer);
        self.pages += other.pages;
        self.runs += other.runs;
        self.results += other.results;
        self.tree_nodes += other.tree_nodes;
        self.degraded += other.degraded;
        self.errors += other.errors;
        self.shard_pages
            .resize(other.shard_pages.len().max(self.shard_pages.len()), 0);
        for (mine, theirs) in self.shard_pages.iter_mut().zip(&other.shard_pages) {
            *mine += theirs;
        }
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }

    /// Max over mean of the pages routed to each shard.
    pub fn shard_balance(&self) -> f64 {
        let total: usize = self.shard_pages.iter().sum();
        let max = self.shard_pages.iter().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 * self.shard_pages.len() as f64 / total as f64
        }
    }

    /// The deterministic work of the loop: pages, runs, results and R-tree
    /// nodes summed over every query.
    pub fn work(&self) -> [usize; 4] {
        [self.pages, self.runs, self.results, self.tree_nodes]
    }
}

/// Serve `queries` in batches of [`BATCH`], cycling through the set from
/// its first batch, with [`INFLIGHT`] batches in flight: after each
/// `wait` returns, the next batch is planned and submitted. Each batch's
/// digest must equal the reference digest of its slice.
pub fn closed_loop(
    engine: &ServeEngine<'_>,
    queries: &[Query],
    reference: &Reference,
    stop: Stop,
    trace: &Trace,
    tally: &mut Tally,
) -> ServeStats {
    let batches = reference.batches();
    let mut stats = ServeStats {
        shard_pages: vec![0; engine.config().shards],
        ..ServeStats::default()
    };
    let more = |issued: usize| match stop {
        Stop::Batches(n) => issued < n,
        Stop::Until(deadline) => issued < MIN_BATCHES || Instant::now() < deadline,
    };
    let submit = |idx: usize, stats: &mut ServeStats| -> (usize, Instant, BatchHandle) {
        let slice = &queries[(idx % batches) * BATCH..][..BATCH];
        let sent = Instant::now();
        let planned = trace.span("serve.plan", Some(idx), || engine.plan_batch(slice));
        let handle = trace.span("serve.submit", Some(idx), || engine.submit_planned(planned));
        if trace.enabled() {
            let deepest = engine.queue_depths().into_iter().max().unwrap_or(0);
            stats.queue_depth_max = stats.queue_depth_max.max(deepest);
        }
        (idx, sent, handle)
    };
    let start = Instant::now();
    let mut in_flight: VecDeque<(usize, Instant, BatchHandle)> = VecDeque::new();
    let mut issued = 0;
    while in_flight.len() < INFLIGHT && more(issued) {
        in_flight.push_back(submit(issued, &mut stats));
        issued += 1;
    }
    while let Some((idx, sent, handle)) = in_flight.pop_front() {
        let result = trace.span("serve.wait", Some(idx), || handle.wait());
        stats.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if more(issued) {
            in_flight.push_back(submit(issued, &mut stats));
            issued += 1;
        }
        match result {
            Ok(report) => {
                let expect = reference.batch_digests[idx % batches];
                let degraded = report.coverage.degraded_queries();
                let failed = if report.digest == expect {
                    degraded
                } else {
                    BATCH
                };
                tally.record(BATCH as u64, failed as u64, || {
                    format!("batch {idx}: digest or coverage differs from the reference replay")
                });
                stats.completed += report.outcomes.len();
                stats.degraded += degraded;
                for o in &report.outcomes {
                    stats.pages += o.pages;
                    stats.runs += o.runs;
                    stats.results += o.results.len();
                    stats.tree_nodes += o.tree.nodes_visited;
                }
                for s in &report.shards {
                    stats.buffer.merge(&s.buffer);
                    stats.shard_pages[s.shard] += s.pages_routed;
                }
            }
            Err(e) => {
                stats.errors += 1;
                tally.record(BATCH as u64, BATCH as u64, || format!("batch {idx}: {e}"));
            }
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}
