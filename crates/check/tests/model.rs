//! Exhaustive schedule exploration of the serving stack's concurrency
//! protocols (see `crossbeam::model` for the checker itself).
//!
//! Every test here runs its harness once per *distinct bounded
//! interleaving* — thousands of schedules — and asserts properties that
//! must hold on all of them: no deadlock or lost wakeup, schedule-
//! invariant `digest_outcomes`, and panic propagation that never wedges
//! a waiter. The admission tests drive `slpm_serve::admission` — the
//! engine's own admission core — through the toy `MiniEngine` client.
//! Debug builds (the tier-1 `cargo test -q` gate) explore a reduced
//! schedule budget; CI runs the full budget via
//! `cargo test -p slpm_check --release`.

use slpm_check::harness::{MiniEngine, MiniUnit};
use slpm_check::{explore, is_abort, with_quiet_panics, ModelOptions};
use slpm_serve::BreakerState;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Mutex as StdMutex};

/// Schedule budget: keep the debug-mode tier-1 run fast, explore wide in
/// release (CI's model-checker job).
const MAX_SCHEDULES: usize = if cfg!(debug_assertions) {
    3_000
} else {
    60_000
};

fn opts(max_threads: usize) -> ModelOptions {
    ModelOptions {
        preemption_bound: Some(2),
        max_schedules: MAX_SCHEDULES,
        max_threads,
        max_steps: 100_000,
    }
}

fn unit(qidx: usize, work: usize) -> MiniUnit {
    MiniUnit {
        qidx,
        work,
        ..MiniUnit::default()
    }
}

/// A unit a `kill` fault plan dooms (its work is never served).
fn fail_unit(qidx: usize) -> MiniUnit {
    unit(qidx, 3)
}

#[test]
fn channel_delivers_every_message_exactly_once_on_every_schedule() {
    let report = explore(opts(4), || {
        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        let tx2 = tx.clone();
        let p1 = crossbeam::sync::thread::spawn(move || {
            tx.send(10).unwrap();
            tx.send(11).unwrap();
        });
        let p2 = crossbeam::sync::thread::spawn(move || {
            tx2.send(20).unwrap();
        });
        // The root is the sole consumer: drain exactly three messages,
        // then observe disconnect once both producers are done.
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap(), rx.recv().unwrap()];
        p1.join().unwrap();
        p2.join().unwrap();
        assert_eq!(rx.recv(), Err(crossbeam::channel::RecvError));
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 20], "a message was lost or duplicated");
    });
    assert!(report.schedules > 0);
    eprintln!("channel exactly-once: {report:?}");
}

#[test]
fn last_sender_drop_wakes_every_blocked_receiver_on_every_schedule() {
    // Two receivers race a single in-flight message against disconnect:
    // on every schedule exactly one receives the message and the other
    // observes RecvError — no schedule may leave either blocked forever
    // (the lost-wakeup this satellite exists to pin down).
    let report = explore(opts(4), || {
        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        let rx2 = rx.clone();
        let c1 = crossbeam::sync::thread::spawn(move || rx.recv());
        let c2 = crossbeam::sync::thread::spawn(move || rx2.recv());
        tx.send(42).unwrap();
        drop(tx); // last sender: every still-blocked receiver must wake
        let results = [c1.join().unwrap(), c2.join().unwrap()];
        let oks = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(oks, 1, "exactly one receiver gets the message: {results:?}");
        assert!(
            results.contains(&Ok(42)),
            "the in-flight message must still be delivered: {results:?}"
        );
    });
    eprintln!("last-sender-drop wake-all: {report:?}");
}

#[test]
fn run_scoped_latch_settles_on_every_schedule() {
    // The lifetime-erasure latch under the model: borrowed jobs are
    // handed to a worker thread that already exists; on every schedule
    // run_scoped must block until both jobs ran, and the latch's
    // settled-flags invariant must hold (it asserts internally).
    let report = explore(opts(4), || {
        let mut data = [0usize; 2];
        let (tx, rx) = crossbeam::channel::unbounded::<Box<dyn FnOnce() + Send>>();
        let worker = crossbeam::sync::thread::spawn(move || {
            for job in rx.iter() {
                job();
            }
        });
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i + 1) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        crossbeam::thread::run_scoped(jobs, &mut |job| tx.send(job).expect("worker alive"));
        // Both borrowed writes are visible the moment run_scoped returns.
        assert_eq!(data, [1, 2]);
        drop(tx);
        worker.join().unwrap();
    });
    eprintln!("run_scoped latch: {report:?}");
}

#[test]
fn pool_digest_is_invariant_across_more_than_1000_schedules() {
    // The tentpole property: a 2-worker, 2-shard mini engine with two
    // concurrently admitted batches (per-shard FIFO + round-robin
    // rotation + the running-flag handoff) produces a bitwise-identical
    // `digest_outcomes` on every explored schedule, and the bounded
    // exploration covers well over 1000 distinct schedules with zero
    // deadlocks or lost wakeups.
    let digests: StdArc<StdMutex<Vec<u64>>> = StdArc::new(StdMutex::new(Vec::new()));
    let sink = StdArc::clone(&digests);
    let report = explore(opts(4), move || {
        let engine = MiniEngine::new(2, 2, "");
        let batch_a = engine.submit(
            2,
            vec![vec![unit(0, 4)], vec![unit(0, 6), unit(1, 8)]],
            None,
        );
        let batch_b = engine.submit(2, vec![vec![unit(1, 2), unit(0, 3)], vec![]], None);
        let outcomes_a = batch_a.wait().0;
        let outcomes_b = batch_b.wait().0;
        let digest_a = slpm_serve::digest_outcomes(&outcomes_a);
        let digest_b = slpm_serve::digest_outcomes(&outcomes_b);
        // Fold both batches into one per-schedule fingerprint.
        sink.lock()
            .expect("digest sink")
            .push(digest_a ^ digest_b.rotate_left(1));
    });
    let digests = digests.lock().expect("digest sink");
    assert_eq!(digests.len(), report.schedules);
    assert!(
        report.schedules >= 1000,
        "exploration too shallow: only {} schedules (report {report:?})",
        report.schedules
    );
    let first = digests[0];
    if let Some(pos) = digests.iter().position(|&d| d != first) {
        panic!(
            "digest_outcomes is schedule-dependent: schedule 0 gave {first:#x}, \
             schedule {pos} gave {:#x}",
            digests[pos]
        );
    }
    eprintln!("pool digest invariance: {report:?}");
}

#[test]
fn bounded_admission_never_deadlocks_and_digest_is_invariant() {
    // The backpressure protocol under exhaustive interleaving: two
    // submitters race depth-1 bounded admissions into the same 2-shard
    // engine while runners drain and notify. Every explored schedule
    // must terminate (no deadlock or lost wakeup between `space.wait`
    // and the runner's pop+notify), the capacity invariant asserted
    // inside the core's bounded admission must hold at every admission,
    // and the merged outcomes must digest identically on every schedule.
    let digests: StdArc<StdMutex<Vec<u64>>> = StdArc::new(StdMutex::new(Vec::new()));
    let sink = StdArc::clone(&digests);
    let report = explore(opts(4), move || {
        let engine = StdArc::new(MiniEngine::new(2, 2, ""));
        let rival = StdArc::clone(&engine);
        // A concurrent submitter contends for the same depth-1 gates.
        let other = crossbeam::sync::thread::spawn(move || {
            rival
                .submit(2, vec![vec![unit(1, 2)], vec![unit(0, 3)]], Some(1))
                .wait()
                .0
        });
        let mine = engine
            .submit(
                2,
                vec![vec![unit(0, 4), unit(1, 5)], vec![unit(1, 8)]],
                Some(1),
            )
            .wait()
            .0;
        let theirs = other.join().unwrap();
        let digest = slpm_serve::digest_outcomes(&mine)
            ^ slpm_serve::digest_outcomes(&theirs).rotate_left(1);
        sink.lock().expect("digest sink").push(digest);
    });
    let digests = digests.lock().expect("digest sink");
    assert_eq!(digests.len(), report.schedules);
    assert!(
        report.schedules >= 1000,
        "exploration too shallow: only {} schedules (report {report:?})",
        report.schedules
    );
    let first = digests[0];
    if let Some(pos) = digests.iter().position(|&d| d != first) {
        panic!(
            "bounded admission is schedule-dependent: schedule 0 gave {first:#x}, \
             schedule {pos} gave {:#x}",
            digests[pos]
        );
    }
    // CI greps for this exact line so a silently-skipped suite (e.g. a
    // filtered-out test name) fails the model-check job.
    eprintln!(
        "bounded-queue admission: explored {} schedules ({report:?})",
        report.schedules
    );
}

#[test]
fn bounded_submitter_blocked_on_a_later_shard_never_strands_an_earlier_one() {
    // The runner-start rule: admission starts a shard's runner right
    // after enqueuing on it, before gating the next shard. Batch B parks
    // two units on shard 1, the first of which finishes only after batch
    // C (shard 0 only) completes. The depth-1 submitter A enqueues on
    // shard 0, then blocks on shard 1 behind B. Had A deferred shard 0's
    // runner until every shard was enqueued, shard 0 would stay claimed
    // with no runner: C could never run, so B never drains and A never
    // unblocks. Every explored schedule must terminate.
    let report = explore(opts(4), || {
        let engine = StdArc::new(MiniEngine::new(2, 2, ""));
        let (c_done, c_gate) = crossbeam::channel::unbounded::<()>();
        let gated = MiniUnit {
            after: Some(c_gate),
            ..unit(0, 4)
        };
        let b = engine.submit(2, vec![vec![], vec![gated, unit(1, 5)]], None);
        let rival = StdArc::clone(&engine);
        let c = crossbeam::sync::thread::spawn(move || {
            let c = rival
                .submit(1, vec![vec![unit(0, 7)], vec![]], None)
                .wait()
                .0;
            drop(c_done);
            c
        });
        let a = engine
            .submit(2, vec![vec![unit(0, 2)], vec![unit(1, 3)]], Some(1))
            .wait()
            .0;
        let c = c.join().unwrap();
        let b = b.wait().0;
        assert_eq!((a[0].pages, a[1].pages), (2, 3));
        assert_eq!((b[0].pages, b[1].pages), (4, 5));
        assert_eq!(c[0].pages, 7);
    });
    assert!(report.schedules > 0);
    // CI greps for this exact line so a silently-skipped suite fails
    // the model-check job.
    eprintln!(
        "runner-start rule: explored {} schedules ({report:?})",
        report.schedules
    );
}

#[test]
fn bounded_and_unbounded_admission_answer_identically_on_every_schedule() {
    // Depth bounds move *when* units enter a shard queue, never what the
    // batch answers: on every schedule, a bounded batch's outcomes must
    // equal the plain submit of the same units (computed once outside
    // the model, where plain mode is deterministic).
    let units = || vec![vec![unit(0, 4), unit(2, 2)], vec![unit(0, 6), unit(1, 8)]];
    let reference =
        slpm_serve::digest_outcomes(&MiniEngine::new(2, 2, "").submit(3, units(), None).wait().0);
    let report = explore(opts(3), move || {
        let engine = MiniEngine::new(2, 2, "");
        let outcomes = engine.submit(3, units(), Some(1)).wait().0;
        assert_eq!(
            slpm_serve::digest_outcomes(&outcomes),
            reference,
            "bounded admission changed answers"
        );
    });
    assert!(report.schedules > 0);
    eprintln!("bounded-vs-unbounded parity: {report:?}");
}

#[test]
fn panic_in_replay_unit_never_wedges_wait_on_any_schedule() {
    let report = with_quiet_panics(|| {
        explore(opts(4), || {
            let engine = MiniEngine::new(2, 2, "");
            let poisoned = MiniUnit {
                poison: true,
                ..unit(1, 1)
            };
            let handle = engine.submit(2, vec![vec![unit(0, 4)], vec![poisoned]], None);
            let caught = catch_unwind(AssertUnwindSafe(|| handle.wait().0));
            match caught {
                Ok(_) => panic!("a poisoned batch must fail wait()"),
                Err(payload) => {
                    if is_abort(&*payload) {
                        resume_unwind(payload);
                    }
                    let msg = payload
                        .downcast_ref::<String>()
                        .expect("assert! message payload");
                    assert!(msg.contains("replay unit(s) panicked"), "got {msg:?}");
                }
            }
        })
    });
    eprintln!("panic propagation: {report:?}");
}

#[test]
fn zero_unit_batch_waits_return_on_every_schedule() {
    let report = explore(opts(4), || {
        let engine = MiniEngine::new(1, 2, "");
        let empty = engine.submit(1, vec![vec![], vec![]], None);
        let busy = engine.submit(1, vec![vec![unit(0, 5)], vec![]], None);
        assert_eq!(empty.wait().0[0].pages, 0);
        assert_eq!(busy.wait().0[0].pages, 5);
    });
    eprintln!("zero-unit batches: {report:?}");
}

#[test]
fn breaker_trips_while_epoch_swaps_and_inflight_batches_drain_their_pinned_slices() {
    // Fail-while-swapping: batch A's admission trips shard 0's breaker
    // (two consecutive doomed units at threshold 2); batch B's admission
    // installs the rebuild — swapping the slice epoch — while A may
    // still be draining. On every explored schedule the harness asserts
    // each unit replays against the epoch its admission pinned, and the
    // degraded coverage + outcomes must be bitwise identical because
    // every fault-plane decision was stamped at admission.
    let digests: StdArc<StdMutex<Vec<u64>>> = StdArc::new(StdMutex::new(Vec::new()));
    let sink = StdArc::clone(&digests);
    let report = explore(opts(4), move || {
        // Shard 0 fails from its first admitted unit, on incarnation 0.
        let engine = MiniEngine::new(2, 2, "kill:0@0");
        let a = engine.submit(
            2,
            vec![vec![fail_unit(0), fail_unit(1)], vec![unit(0, 6)]],
            None,
        );
        // B admits mid-drain: its admission installs the rebuilt slice
        // (epoch 1) and its shard-0 unit burns the cooldown fast-fail.
        let b = engine.submit(2, vec![vec![unit(0, 4)], vec![unit(1, 8)]], None);
        let (a_out, a_deg) = a.wait();
        let (b_out, b_deg) = b.wait();
        assert_eq!(a_deg, vec![(0, 0), (1, 0)], "the tripping units degrade");
        assert_eq!(
            b_deg,
            vec![(0, 0)],
            "the open breaker fast-fails B on shard 0"
        );
        assert_eq!(a_out[0].pages, 6, "shard 1 keeps serving A");
        assert_eq!(b_out[1].pages, 8, "shard 1 keeps serving B");
        assert_eq!(engine.epoch(), 1, "B's admission installs the rebuild");
        let breaker = engine.breaker(0);
        assert_eq!((breaker.trips, breaker.incarnation), (1, 1));
        assert_eq!(breaker.state, BreakerState::Open);
        let digest = slpm_serve::digest_outcomes(&a_out)
            ^ slpm_serve::digest_outcomes(&b_out).rotate_left(1);
        sink.lock().expect("digest sink").push(digest);
    });
    let digests = digests.lock().expect("digest sink");
    assert_eq!(digests.len(), report.schedules);
    let first = digests[0];
    if let Some(pos) = digests.iter().position(|&d| d != first) {
        panic!(
            "degraded serving is schedule-dependent: schedule 0 gave {first:#x}, \
             schedule {pos} gave {:#x}",
            digests[pos]
        );
    }
    // CI greps for this exact line so a silently-skipped suite fails
    // the model-check job.
    eprintln!(
        "breaker-epoch protocol: explored {} schedules (fail-while-swapping, {report:?})",
        report.schedules
    );
}

#[test]
fn probe_racing_a_rival_trip_settles_to_one_trip_and_a_closed_breaker() {
    // Probe-racing-trip: two submitters race batches of doomed units
    // into the same shard. Stamping is atomic per admission under the
    // fleet lock, so on every schedule exactly one batch trips the
    // breaker (incarnation 1 heals the pinned faults); the other batch
    // then burns the cooldown with one fast-fail and closes the breaker
    // with a successful probe. Which batch plays which role is
    // schedule-dependent — the settled protocol state must not be.
    let report = explore(opts(4), move || {
        let engine = StdArc::new(MiniEngine::new(2, 1, "kill:0@0"));
        let rival = StdArc::clone(&engine);
        let other = crossbeam::sync::thread::spawn(move || {
            rival
                .submit(2, vec![vec![fail_unit(0), fail_unit(1)]], None)
                .wait()
        });
        let (mine_out, mine_deg) = engine
            .submit(2, vec![vec![fail_unit(0), fail_unit(1)]], None)
            .wait();
        let (theirs_out, theirs_deg) = other.join().unwrap();
        // One batch tripped (2 degraded), the other fast-failed once and
        // probe-served once: 3 degraded + 3 served pages in total.
        assert_eq!(mine_deg.len() + theirs_deg.len(), 3);
        let served: usize = mine_out.iter().chain(&theirs_out).map(|o| o.pages).sum();
        assert_eq!(served, 3, "the successful probe serves its unit");
        let breaker = engine.breaker(0);
        assert_eq!(breaker.trips, 1, "a probe failure must not re-trip");
        assert_eq!(breaker.incarnation, 1);
        assert_eq!(
            breaker.state,
            BreakerState::Closed,
            "the probe closes the breaker"
        );
        // The next admission installs the rebuild and serves cleanly.
        let (out, deg) = engine.submit(1, vec![vec![unit(0, 5)]], None).wait();
        assert!(deg.is_empty());
        assert_eq!(out[0].pages, 5);
        assert_eq!(engine.epoch(), 1);
    });
    assert!(report.schedules > 0);
    eprintln!(
        "breaker-epoch protocol: explored {} schedules (probe-racing-trip, {report:?})",
        report.schedules
    );
}

#[test]
fn units_stamped_before_a_trip_keep_serving_through_the_swap() {
    // Drain-vs-admit: a healthy batch A is stamped Serve before batch B
    // trips the breaker and batch C swaps the epoch. A's units must
    // drain to completion against their pinned epoch-0 slices on every
    // schedule — failover never claws back work already admitted.
    let report = explore(opts(4), move || {
        // A's three units are shard 0's units 0–2; B's are 3 and 4.
        let engine = MiniEngine::new(2, 1, "kill:0@3");
        let a = engine.submit(2, vec![vec![unit(0, 4), unit(1, 5), unit(0, 2)]], None);
        let b = engine.submit(1, vec![vec![fail_unit(0), fail_unit(0)]], None);
        let c = engine.submit(1, vec![vec![unit(0, 7)]], None);
        let (a_out, a_deg) = a.wait();
        let (_, b_deg) = b.wait();
        let (c_out, c_deg) = c.wait();
        assert!(a_deg.is_empty(), "A was stamped healthy before the trip");
        assert_eq!(a_out[0].pages, 6);
        assert_eq!(a_out[1].pages, 5);
        assert_eq!(b_deg, vec![(0, 0), (0, 0)]);
        // C admits after the trip: epoch swapped, one cooldown fast-fail.
        assert_eq!(engine.epoch(), 1);
        assert_eq!(c_deg, vec![(0, 0)]);
        assert_eq!(c_out[0].pages, 0);
    });
    assert!(report.schedules > 0);
    eprintln!(
        "breaker-epoch protocol: explored {} schedules (drain-vs-admit, {report:?})",
        report.schedules
    );
}

#[test]
fn seeded_lost_wakeup_is_detected() {
    // Sanity check that the checker actually *finds* bugs: the classic
    // check-then-wait race (test a flag without holding the mutex, then
    // lock and wait) loses the notification when the notifier runs
    // between the check and the wait. Some explored schedule must end
    // with the waiter blocked forever, which the checker reports as a
    // deadlock/lost wakeup.
    let caught = with_quiet_panics(|| {
        catch_unwind(|| {
            explore(opts(3), || {
                use crossbeam::sync::atomic::{AtomicBool, Ordering};
                use crossbeam::sync::{Arc, Condvar, Mutex};
                let flag = Arc::new(AtomicBool::new(false));
                let pair = Arc::new((Mutex::new(()), Condvar::new()));
                let (flag2, pair2) = (Arc::clone(&flag), Arc::clone(&pair));
                let notifier = crossbeam::sync::thread::spawn(move || {
                    flag2.store(true, Ordering::SeqCst);
                    pair2.1.notify_one();
                });
                // BUG (seeded): the flag check happens outside the mutex,
                // so the store+notify can land in between — and the wait
                // below then sleeps forever.
                if !flag.load(Ordering::SeqCst) {
                    let guard = pair.0.lock().expect("model lock");
                    let _guard = pair.1.wait(guard).expect("model lock");
                }
                notifier.join().unwrap();
            });
        })
    });
    let payload = caught.expect_err("the checker must catch the seeded lost wakeup");
    let msg = payload
        .downcast_ref::<String>()
        .expect("checker panic carries a rendered trace");
    assert!(
        msg.contains("deadlock or lost wakeup"),
        "unexpected checker report: {msg}"
    );
}
