//! The admission core: the concurrency protocol behind
//! [`crate::engine::ServeEngine`], written once against the
//! `crossbeam::sync` facade so the model checker (`slpm_check`) explores
//! the code that ships.
//!
//! Without the crossbeam shim's `model` feature every primitive here is
//! a plain `std::sync` re-export; with it, primitives built inside an
//! exploration session become scheduling points. Nothing in this module
//! may name `std::sync` or `std::thread` directly (the xtask
//! `model-visible-sync` rule) — a primitive the scheduler cannot see is
//! an interleaving the proofs silently skip.
//!
//! The core is generic over the replay-unit payload `U`, the epoch's
//! slice set `S` and a batch's progress record `P`:
//!
//! * **Per-shard gates** ([`Admission::admit`], [`Admission::run_shard`]):
//!   each shard holds a FIFO of in-flight batches and a `running` flag.
//!   At most one runner drains a shard, taking one unit from the front
//!   batch and rotating that batch to the back while it has more
//!   (round-robin across in-flight batches; within a batch a shard's
//!   units stay in admission order). The runner pops and notifies under
//!   the gate lock, and clears `running` under the same lock hold that
//!   found the queue empty. Bounded admission checks the queued-unit
//!   count and waits on the gate's condvar under one lock hold.
//! * **One runner-start rule:** [`Admission::admit`] starts a shard's
//!   runner right after enqueuing on that shard, outside the gate lock,
//!   before gating the next shard. A bounded submitter blocked on a
//!   later shard therefore never leaves an earlier shard claimed
//!   (`running == true`) with no runner scheduled.
//! * **Epoch pin/swap** ([`Admission::pin`],
//!   [`Admission::install_rebuilds`]): the current slice set lives in a
//!   `Mutex<Arc<S>>`; every batch pins the `Arc` current at its
//!   admission and drains against it even after a later admission swaps
//!   in rebuilt slices.
//! * **Fleet lock** ([`FleetHealth`]): the per-shard
//!   [`ShardBreaker`]s and the fault plan's cursors, advanced at
//!   admission in admission order — which keeps fault and breaker
//!   decisions schedule-invariant.
//! * **Batch settlement** ([`Batch`]): a pending-unit count and a
//!   condvar. Settling a unit folds its result into `P`, decrements the
//!   count and notifies under the batch lock; [`Batch::wait`] blocks
//!   until the count reaches zero. A replay that panics still settles
//!   its unit (and marks its shard for a rebuild), so a panic never
//!   wedges a waiter.

use crate::fault::{FaultPlan, FaultState, UnitFault};
use crate::health::{
    BreakerSnapshot, RecoveryConfig, ShardBreaker, UnitDirective, UnitDisposition,
};
use crossbeam::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fleet health under one lock: per-shard breakers plus the fault plan's
/// deterministic cursors. Taken once per admission (to stamp the batch's
/// units in admission order) and briefly by runners reporting panics.
pub struct FleetHealth {
    breakers: Vec<ShardBreaker>,
    faults: Option<FaultState>,
    recovery: RecoveryConfig,
}

impl FleetHealth {
    /// Stamp the next admitted unit on `shard`, touching `pages`: resolve
    /// its fault from the plan's cursors, feed the verdict through the
    /// shard's breaker, and return what the replay seam should do.
    pub fn stamp(&mut self, shard: usize, pages: &[usize]) -> UnitDirective {
        let rec = &self.recovery;
        let incarnation = self.breakers[shard].incarnation();
        let fault = match self.faults.as_mut() {
            Some(state) => state.stamp(shard, incarnation, pages),
            None => UnitFault::NONE,
        };
        let doomed = fault.will_degrade(rec.timeout_us, rec.max_attempts);
        match self.breakers[shard].on_unit(doomed, rec) {
            UnitDisposition::FastFail => UnitDirective::FastFail,
            UnitDisposition::Execute if fault.is_none() => UnitDirective::Serve,
            UnitDisposition::Execute => UnitDirective::Faulted(fault),
        }
    }

    /// Arm a fault plan: units stamped from now on resolve against it,
    /// with fresh cursors. An empty plan disarms.
    pub fn arm(&mut self, plan: FaultPlan) {
        let shards = self.breakers.len();
        self.faults = (!plan.is_empty()).then(|| FaultState::new(plan, shards));
    }

    /// A point-in-time view of every shard's breaker.
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        self.breakers
            .iter()
            .enumerate()
            .map(|(shard, b)| b.snapshot(shard))
            .collect()
    }
}

/// Completion tracking for one admitted batch: its progress record `P`
/// plus the count of units not yet settled.
pub struct Batch<P> {
    settlement: Mutex<Settlement<P>>,
    done: Condvar,
}

struct Settlement<P> {
    pending: usize,
    progress: P,
}

impl<P> Batch<P> {
    /// A batch of `units` replay units (0 = already complete).
    pub fn new(units: usize, progress: P) -> Batch<P> {
        Batch {
            settlement: Mutex::new(Settlement {
                pending: units,
                progress,
            }),
            done: Condvar::new(),
        }
    }

    /// True once every unit has settled (never blocks).
    pub fn is_settled(&self) -> bool {
        self.settlement
            .lock()
            .expect("batch settlement lock")
            .pending
            == 0
    }

    /// Block until every unit has settled, then hand the progress record
    /// to `take` (still under the lock) and return what it returns.
    pub fn wait<R>(&self, take: impl FnOnce(&mut P) -> R) -> R {
        let mut s = self.settlement.lock().expect("batch settlement lock");
        while s.pending > 0 {
            s = self.done.wait(s).expect("batch settlement lock");
        }
        take(&mut s.progress)
    }

    /// Fold one unit's result into the progress record, retire the unit
    /// and, when it was the last, wake every waiter — all under one lock
    /// hold, so a waiter can never miss the final notification.
    fn settle(&self, record: impl FnOnce(&mut P)) {
        let mut s = self.settlement.lock().expect("batch settlement lock");
        record(&mut s.progress);
        assert!(s.pending > 0, "a batch settled more units than it admitted");
        s.pending -= 1;
        if s.pending == 0 {
            self.done.notify_all();
        }
    }
}

/// A batch's pending units on one shard, FIFO in admission order, with
/// the slice set the batch pinned at admission.
struct BatchWork<U, S, P> {
    batch: Arc<Batch<P>>,
    slices: Arc<S>,
    units: VecDeque<U>,
}

/// One shard's admission queue: in-flight batches, the is-a-runner-
/// scheduled flag, and the queued-unit count bounded admission gates on.
struct ShardQueue<U, S, P> {
    batches: VecDeque<BatchWork<U, S, P>>,
    running: bool,
    pending_units: usize,
}

/// A shard's queue plus the condvar bounded submitters sleep on until
/// the runner drains the queue below their bound.
struct ShardGate<U, S, P> {
    queue: Mutex<ShardQueue<U, S, P>>,
    space: Condvar,
}

/// The admission core shared by a serving engine, its shard runners and
/// its outstanding batches (see the module docs).
pub struct Admission<U, S, P> {
    gates: Vec<ShardGate<U, S, P>>,
    slices: Mutex<Arc<S>>,
    fleet: Mutex<FleetHealth>,
}

impl<U, S, P> Admission<U, S, P> {
    /// A core over `shards` idle shards serving `slices` (epoch 0), with
    /// closed breakers, no fault plan, and `recovery`'s breaker knobs.
    pub fn new(slices: S, shards: usize, recovery: RecoveryConfig) -> Self {
        Admission {
            gates: (0..shards)
                .map(|_| ShardGate {
                    queue: Mutex::new(ShardQueue {
                        batches: VecDeque::new(),
                        running: false,
                        pending_units: 0,
                    }),
                    space: Condvar::new(),
                })
                .collect(),
            slices: Mutex::new(Arc::new(slices)),
            fleet: Mutex::new(FleetHealth {
                breakers: (0..shards).map(|_| ShardBreaker::default()).collect(),
                faults: None,
                recovery,
            }),
        }
    }

    /// The fleet lock: stamp units, arm fault plans, snapshot breakers.
    pub fn fleet(&self) -> MutexGuard<'_, FleetHealth> {
        self.fleet.lock().expect("fleet health lock")
    }

    /// Pin the current slice set (what a batch admitted now drains on).
    pub fn pin(&self) -> Arc<S> {
        Arc::clone(&*self.slices.lock().expect("shard slices lock"))
    }

    /// Failover at an admission boundary: take every shard's pending
    /// rebuild request under the fleet lock, then — only if there were
    /// any — publish `rebuild(current, shards)` as the new slice set
    /// under the slices lock. The two locks are taken one after the
    /// other, never nested. Batches that pinned the old set keep it.
    pub fn install_rebuilds(&self, rebuild: impl FnOnce(&S, Vec<usize>) -> S) {
        let pending: Vec<usize> = {
            let mut fleet = self.fleet();
            (0..fleet.breakers.len())
                .filter(|&s| fleet.breakers[s].take_rebuild())
                .collect()
        };
        if pending.is_empty() {
            return;
        }
        let mut slices = self.slices.lock().expect("shard slices lock");
        *slices = Arc::new(rebuild(&slices, pending));
    }

    /// A snapshot of each shard's queued (not yet taken) unit count.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.gates
            .iter()
            .map(|g| g.queue.lock().expect("shard queue lock").pending_units)
            .collect()
    }

    /// Enqueue `batch`'s units, `per_shard[shard]` in admission order,
    /// pinned to `slices`. Shards are gated one at a time in ascending
    /// order; with `bound = Some(b)` the caller first blocks until the
    /// shard holds fewer than `b` queued units. Right after enqueuing on
    /// a shard whose runner was idle, and outside its lock, `start(shard)`
    /// must run [`Admission::run_shard`] for it (on a pool, or inline).
    ///
    /// Deadlock-free: a blocked submitter holds no lock while it waits,
    /// every shard it already enqueued on has a runner, and runners
    /// never wait — so every queued unit drains and signals the gate.
    pub fn admit(
        &self,
        batch: &Arc<Batch<P>>,
        slices: &Arc<S>,
        per_shard: Vec<VecDeque<U>>,
        bound: Option<usize>,
        mut start: impl FnMut(usize),
    ) {
        for (shard, units) in per_shard.into_iter().enumerate() {
            if units.is_empty() {
                continue;
            }
            let gate = &self.gates[shard];
            let claimed = {
                let mut queue = gate.queue.lock().expect("shard queue lock");
                if let Some(bound) = bound {
                    while queue.pending_units >= bound {
                        queue = gate.space.wait(queue).expect("shard queue lock");
                    }
                    // The capacity invariant, under the lock that checked it.
                    assert!(
                        queue.pending_units < bound,
                        "bounded admission woke with a full queue"
                    );
                }
                queue.pending_units += units.len();
                queue.batches.push_back(BatchWork {
                    batch: Arc::clone(batch),
                    slices: Arc::clone(slices),
                    units,
                });
                !std::mem::replace(&mut queue.running, true)
            };
            if claimed {
                start(shard);
            }
        }
    }

    /// Drain `shard`'s queue: one unit per iteration, rotating its batch
    /// to the back while it has more. Each unit is replayed outside every
    /// lock as `replay(pinned slices, &unit)`, then settled into its
    /// batch as `settle(progress, unit, result)` — `None` when the replay
    /// panicked, in which case the shard is also marked for a rebuild at
    /// the next admission. Returns once the queue is empty, clearing
    /// `running` under the same lock hold that found it empty.
    pub fn run_shard<R>(
        &self,
        shard: usize,
        replay: impl Fn(&S, &U) -> R,
        settle: impl Fn(&mut P, U, Option<R>),
    ) {
        let gate = &self.gates[shard];
        // xtask:allow(unbounded-retry): queue-drain loop, not a retry loop —
        // each iteration consumes one queued unit and the loop exits when
        // the queue is empty; the faultable call inside is the caller's
        // bounded replay.
        loop {
            let (batch, slices, unit) = {
                let mut queue = gate.queue.lock().expect("shard queue lock");
                let Some(mut work) = queue.batches.pop_front() else {
                    queue.running = false;
                    return;
                };
                let unit = work.units.pop_front().expect("queued batches have units");
                let batch = Arc::clone(&work.batch);
                let slices = Arc::clone(&work.slices);
                if !work.units.is_empty() {
                    queue.batches.push_back(work);
                }
                // Taking a unit frees one slot of the shard's bound: wake
                // blocked submitters under the same lock.
                queue.pending_units -= 1;
                gate.space.notify_all();
                (batch, slices, unit)
            };
            // A model checker's teardown unwinds through here too; the
            // next lock below re-raises it, so it is never recorded.
            let replayed = catch_unwind(AssertUnwindSafe(|| replay(&slices, &unit))).ok();
            if replayed.is_none() {
                self.fleet().breakers[shard].note_unexpected_panic();
            }
            batch.settle(|progress| settle(progress, unit, replayed));
        }
    }
}
