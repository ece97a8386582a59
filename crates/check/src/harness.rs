//! [`MiniEngine`]: a toy client of [`slpm_serve::admission::Admission`],
//! the admission core `slpm_serve::engine::ServeEngine` runs, with a toy
//! replay in place of page I/O and a [`MiniPool`] in place of the
//! engine's OS-thread pool. Faults come from a real [`FaultPlan`]:
//! `kill:S@N` dooms shard `S`'s units from its `N`th admitted unit on,
//! on its first incarnation only, so a breaker trip heals it. Every toy
//! unit asserts that it drains on the slice epoch its admission pinned.

use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::sync::thread as sync_thread;
use crossbeam::sync::Arc;
use slpm_serve::admission::{Admission, Batch};
use slpm_serve::health::{BreakerSnapshot, UnitDirective};
use slpm_serve::{FaultPlan, QueryOutcome, RecoveryConfig};
use std::collections::VecDeque;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A tiny persistent worker pool over the shim's MPMC channel, with the
/// engine pool's lifecycle: workers drain the channel until the pool is
/// dropped, which disconnects it and joins them. Jobs are shard runners,
/// which never unwind (the core catches replay panics) except for the
/// model's session teardown — which must unwind the worker too.
pub struct MiniPool {
    tx: Option<Sender<Job>>,
    workers: Vec<sync_thread::JoinHandle<()>>,
}

impl MiniPool {
    /// Start `workers` pool threads (model threads inside a session).
    pub fn new(workers: usize) -> MiniPool {
        let (tx, rx) = channel::unbounded::<Job>();
        let spawn = |_| {
            let rx: Receiver<Job> = rx.clone();
            sync_thread::spawn(move || rx.iter().for_each(|job| job()))
        };
        let workers = (0..workers).map(spawn).collect();
        MiniPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Queue a job for some worker.
    pub fn submit(&self, job: Job) {
        let tx = self.tx.as_ref().expect("pool channel alive until drop");
        tx.send(job).expect("pool workers alive");
    }
}

impl Drop for MiniPool {
    fn drop(&mut self) {
        self.tx.take(); // last sender gone: workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One toy replay unit: the work one query routed to one shard.
#[derive(Clone, Default)]
pub struct MiniUnit {
    /// Index of the owning query in its batch.
    pub qidx: usize,
    /// Pages this unit contributes to the query's outcome.
    pub work: usize,
    /// When set, replaying this unit panics.
    pub poison: bool,
    /// When set, replay finishes only once every sender of this channel
    /// is gone (a cross-batch dependency).
    pub after: Option<Receiver<()>>,
}

/// A queued toy unit with its admission stamps: directive and epoch.
type Stamped = (MiniUnit, UnitDirective, u64);

/// The toy slice set: only its epoch.
struct Epoch(u64);

/// The toy batch's progress record.
#[derive(Default)]
struct Progress {
    failed: usize,
    /// `(qidx, shard)` of every unit that degraded instead of serving.
    degraded: Vec<(usize, usize)>,
    /// Per-query `(pages, runs)`, merged commutatively.
    served: Vec<(usize, usize)>,
}

/// Handle to one admitted toy batch.
pub struct MiniBatchHandle(Arc<Batch<Progress>>);

impl MiniBatchHandle {
    /// Block until every unit settled; the merged outcomes in query order
    /// plus the sorted `(qidx, shard)` pairs of every degraded unit.
    ///
    /// # Panics
    /// Panics when any replay unit panicked — after all units settled.
    pub fn wait(self) -> (Vec<QueryOutcome>, Vec<(usize, usize)>) {
        let taken = |p: &mut Progress| (p.failed, std::mem::take(p));
        let (failed, mut p) = self.0.wait(taken);
        assert!(
            failed == 0,
            "mini batch: {failed} replay unit(s) panicked during this batch"
        );
        p.degraded.sort_unstable();
        let outcome = |(qidx, &(pages, runs)): (usize, &(usize, usize))| QueryOutcome {
            results: vec![qidx],
            pages,
            runs,
            ..QueryOutcome::default()
        };
        let outcomes = p.served.iter().enumerate().map(outcome);
        (outcomes.collect(), p.degraded)
    }
}

/// Toy batches admitted through the real admission core, drained by
/// [`MiniPool`] runners.
pub struct MiniEngine {
    pool: MiniPool,
    core: Arc<Admission<Stamped, Epoch, Progress>>,
}

impl MiniEngine {
    /// `workers` pool threads over `shards` shards, with the fault plan
    /// `plan` (see [`FaultPlan::parse`]; `""` injects nothing) and
    /// breakers that trip after 2 consecutive doomed units and fast-fail
    /// 1 unit before probing.
    pub fn new(workers: usize, shards: usize, plan: &str) -> MiniEngine {
        let recovery = RecoveryConfig {
            breaker_threshold: 2,
            probe_cooldown: 1,
            ..RecoveryConfig::default()
        };
        let core = Admission::new(Epoch(0), shards, recovery);
        core.fleet()
            .arm(FaultPlan::parse(plan).expect("fault plan"));
        MiniEngine {
            pool: MiniPool::new(workers),
            core: Arc::new(core),
        }
    }

    /// The epoch of the currently installed slices.
    pub fn epoch(&self) -> u64 {
        self.core.pin().0
    }

    /// Snapshot one shard's breaker.
    pub fn breaker(&self, shard: usize) -> BreakerSnapshot {
        self.core.fleet().snapshot()[shard]
    }

    /// Admit a batch of `queries` queries whose units on shard `s` are
    /// `units[s]`, optionally under a per-shard queued-unit `bound`;
    /// returns without waiting for replay.
    pub fn submit(
        &self,
        queries: usize,
        units: Vec<Vec<MiniUnit>>,
        bound: Option<usize>,
    ) -> MiniBatchHandle {
        self.core.install_rebuilds(|epoch, _| Epoch(epoch.0 + 1));
        let slices = self.core.pin();
        let total = units.iter().map(Vec::len).sum();
        let per_shard: Vec<VecDeque<Stamped>> = {
            let mut fleet = self.core.fleet();
            let stamp = |(shard, units): (usize, Vec<MiniUnit>)| {
                let stamp_one = |unit| (unit, fleet.stamp(shard, &[]), slices.0);
                units.into_iter().map(stamp_one).collect()
            };
            units.into_iter().enumerate().map(stamp).collect()
        };
        let progress = Progress {
            served: vec![(0, 0); queries],
            ..Progress::default()
        };
        let batch = Arc::new(Batch::new(total, progress));
        self.core.admit(&batch, &slices, per_shard, bound, |shard| {
            let core = Arc::clone(&self.core);
            let record = move |p: &mut Progress, s, r| settle(p, shard, s, r);
            let run = move || core.run_shard(shard, replay, record);
            self.pool.submit(Box::new(run));
        });
        MiniBatchHandle(batch)
    }
}

/// Replay one toy unit: `Some(pages)` when served, `None` when degraded.
fn replay(epoch: &Epoch, (unit, directive, pinned): &Stamped) -> Option<usize> {
    assert!(*pinned == epoch.0, "unit drained off its pinned epoch");
    if let Some(after) = &unit.after {
        let _ = after.recv(); // returns once every sender is dropped
    }
    match directive {
        UnitDirective::Serve if unit.poison => panic!("seeded replay-unit panic"),
        UnitDirective::Serve => Some(unit.work),
        // The toy's only faults are `kill`s, which doom every attempt.
        UnitDirective::Faulted(_) | UnitDirective::FastFail => None,
    }
}

/// Fold one settled unit into the toy progress (`None`: it panicked).
fn settle(p: &mut Progress, shard: usize, (unit, ..): Stamped, replayed: Option<Option<usize>>) {
    match replayed {
        Some(Some(pages)) => {
            let (total, runs) = &mut p.served[unit.qidx];
            *total += pages;
            *runs += 1;
        }
        Some(None) => p.degraded.push((unit.qidx, shard)),
        None => p.failed += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_serve::{digest_outcomes, BreakerState};

    fn unit(qidx: usize, work: usize) -> MiniUnit {
        MiniUnit {
            qidx,
            work,
            ..MiniUnit::default()
        }
    }

    fn units() -> Vec<Vec<MiniUnit>> {
        vec![vec![unit(0, 4), unit(2, 2)], vec![unit(0, 6), unit(1, 8)]]
    }

    #[test]
    fn plain_mode_engine_merges_outcomes_in_query_order() {
        let engine = MiniEngine::new(2, 2, "");
        let (outcomes, _) = engine.submit(3, units(), None).wait();
        let pages: Vec<_> = outcomes.iter().map(|o| (o.pages, o.runs)).collect();
        assert_eq!(pages, [(10, 2), (8, 1), (2, 1)]); // query 0: 4 + 6 pages
        let (again, _) = engine.submit(3, units(), None).wait();
        assert_eq!(digest_outcomes(&again), digest_outcomes(&outcomes));
    }

    #[test]
    fn plain_mode_bounded_submit_backpressures_and_matches_unbounded() {
        let engine = MiniEngine::new(2, 2, "");
        let free = digest_outcomes(&engine.submit(3, units(), None).wait().0);
        // Depth 1 sends the submitter through the wait path on the
        // second unit of each shard; the answers are identical.
        for _ in 0..8 {
            let (bounded, _) = engine.submit(3, units(), Some(1)).wait();
            assert_eq!(digest_outcomes(&bounded), free, "bounded changed answers");
        }
    }

    #[test]
    fn plain_mode_zero_unit_batch_returns_immediately() {
        let engine = MiniEngine::new(1, 2, "");
        let (outcomes, _) = engine.submit(2, vec![vec![], vec![]], None).wait();
        assert_eq!((outcomes.len(), outcomes[0].pages), (2, 0));
    }

    #[test]
    fn plain_mode_breaker_trips_swaps_epoch_and_heals_pinned_faults() {
        let engine = MiniEngine::new(2, 2, "kill:0@0");
        // Two doomed units trip shard 0's breaker; shard 1 is untouched.
        let batch = vec![vec![unit(0, 3), unit(1, 3)], vec![unit(0, 6)]];
        assert_eq!(engine.submit(2, batch, None).wait().1, [(0, 0), (1, 0)]);
        let b = engine.breaker(0);
        assert_eq!(
            (b.state, b.trips, b.incarnation),
            (BreakerState::Open, 1, 1)
        );
        assert_eq!(engine.epoch(), 0, "rebuild installs at the NEXT admission");
        // The next admission swaps the epoch; its unit burns the cooldown,
        // then a probe succeeds (the kill is pinned to incarnation 0).
        let one = || vec![vec![unit(0, 4)], vec![]];
        let (_, degraded) = engine.submit(1, one(), None).wait();
        assert_eq!((engine.epoch(), degraded), (1, vec![(0, 0)]));
        let (outcomes, degraded) = engine.submit(1, one(), None).wait();
        assert_eq!((outcomes[0].pages, degraded), (4, vec![]));
        assert_eq!(engine.breaker(0).state, BreakerState::Closed);
        assert_eq!(engine.breaker(1).trips, 0);
    }

    #[test]
    fn plain_mode_poisoned_unit_panics_wait_without_wedging() {
        let caught = crate::with_quiet_panics(|| {
            std::panic::catch_unwind(|| {
                let poisoned = MiniUnit {
                    poison: true,
                    ..unit(1, 1)
                };
                let engine = MiniEngine::new(2, 1, "");
                engine
                    .submit(2, vec![vec![unit(0, 1), poisoned]], None)
                    .wait()
            })
        });
        let payload = caught.expect_err("poisoned batch must fail wait()");
        let msg = payload.downcast_ref::<String>().expect("assert! message");
        assert!(msg.contains("replay unit(s) panicked"), "got {msg:?}");
    }
}
