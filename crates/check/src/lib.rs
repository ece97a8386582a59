//! `slpm_check` — model-checked concurrency for the serving stack.
//!
//! Every determinism claim the tree makes rests on hand-rolled
//! concurrency: the `crossbeam` shim's MPMC channels, the
//! lifetime-erasure latch in `crossbeam::thread::run_scoped`, and the
//! serving engine's admission core ([`slpm_serve::admission`]: per-shard
//! FIFO gates, bounded admission, the runner-start rule, epoch swap,
//! breakers and batch settlement). This crate pairs the shim's
//! deterministic model checker ([`crossbeam::model::explore`], compiled
//! under the shim's `model` feature) with [`harness`]: a toy client that
//! drives that very admission core — the code `ServeEngine` ships — with
//! a toy replay payload and a small model-visible worker pool. The
//! schedule-exploration tests live in `tests/model.rs` and assert, over
//! thousands of distinct schedules:
//!
//! 1. no deadlock or lost wakeup on any explored schedule,
//! 2. [`slpm_serve::digest_outcomes`] is bitwise identical on every
//!    schedule (scheduling moves work, never answers),
//! 3. a panic inside a replay unit propagates to `wait()` on every
//!    schedule instead of wedging it.
//!
//! Run the full exploration suite with `cargo test -p slpm_check
//! --release` (debug builds explore a smaller schedule budget so the
//! tier-1 `cargo test -q` gate stays fast).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crossbeam::model::{explore, is_abort, ModelOptions, Report};

pub mod harness;

use std::sync::Mutex as StdMutex;

/// Serialises panic-hook swaps across tests: runs `f` with the global
/// panic hook silenced (the hook is process-global, so concurrent tests
/// that seed intentional panics must take turns swapping it).
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK_TURN: StdMutex<()> = StdMutex::new(());
    let _turn = HOOK_TURN
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
