//! The deterministic fault plane: seeded, reproducible failure injection
//! for the serving stack.
//!
//! A [`FaultPlan`] describes *what breaks and when* in terms of the
//! engine's own deterministic counters — never wall-clock time or thread
//! identity. Every fault is keyed on a shard's **admitted-unit sequence
//! number** (the Nth replay unit admitted to that shard, counted under
//! the shard-gate lock in admission order) or on a page's **Nth
//! admission-time access**, so the set of faulted units is a pure
//! function of `(plan, admitted workload, engine geometry)` — identical
//! for every thread count and schedule. The engine *resolves* each
//! unit's fault at admission and *manifests* it at the replay seam
//! (injected panics really unwind through `catch_unwind`; failed
//! attempts really pay the bounded retry/backoff loop), which is what
//! makes faulted runs digest-reproducible while still exercising the
//! real recovery machinery.
//!
//! Four fault shapes (mirroring how disks and replicas actually fail):
//!
//! * [`Fault::Stall`] — a run of units on one shard each take an extra
//!   `stall_us` simulated microseconds per attempt; a stall at or beyond
//!   the recovery timeout fails the attempt (a *timeout*, not an error).
//! * [`Fault::PanicUnit`] — one unit's failing attempts unwind as real
//!   panics through the runner's catch seam.
//! * [`Fault::FailShard`] — page reads on one shard error from a given
//!   unit onward: transiently (each unit's first `attempts` tries fail,
//!   then succeed — a retry recovers it) or permanently (every attempt
//!   fails — the unit degrades and the breaker counts it). By default a
//!   failure is pinned to the shard's *current incarnation*: once the
//!   breaker trips and the engine swaps in a rebuilt slice, the fault no
//!   longer applies (the "node restart fixed it" case). `every_incarnation`
//!   faults survive rebuilds (the "data center burned down" case).
//! * [`Fault::PageError`] — one specific page's Nth access fails its
//!   first read attempt (an isolated medium error a retry absorbs).
//!
//! The plan's textual form (CLI `--fault-plan`, bench fault sweeps) is a
//! comma-separated list of events — see [`FaultPlan::parse`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One injected fault event.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Units `from_unit .. from_unit + units` on `shard` each take an
    /// extra `stall_us` simulated microseconds per replay attempt.
    Stall {
        /// Target shard.
        shard: usize,
        /// First affected admitted-unit sequence number (0-based).
        from_unit: u64,
        /// How many consecutive admitted units stall.
        units: u64,
        /// Simulated stall per attempt (µs). At or beyond the recovery
        /// timeout the attempt *fails* (counted as a timeout).
        stall_us: f64,
    },
    /// Admitted unit `unit` on `shard` panics on every attempt; the
    /// panic unwinds through the runner's `catch_unwind` seam and the
    /// unit degrades once retries are exhausted.
    PanicUnit {
        /// Target shard.
        shard: usize,
        /// Admitted-unit sequence number (0-based).
        unit: u64,
    },
    /// Page reads on `shard` fail from admitted unit `from_unit` onward.
    FailShard {
        /// Target shard.
        shard: usize,
        /// First affected admitted-unit sequence number (0-based).
        from_unit: u64,
        /// Transient (retries recover) or permanent (unit degrades).
        kind: FaultKind,
        /// `false`: the fault dies with the shard's first incarnation —
        /// a rebuilt slice (post-trip epoch swap) serves cleanly.
        /// `true`: every incarnation fails; the shard is gone for good.
        every_incarnation: bool,
    },
    /// The `access`-th admission-time access (0-based) of global page
    /// `page` fails its first read attempt; one retry recovers it.
    PageError {
        /// Global page id.
        page: usize,
        /// Which access (0-based, counted at admission) errors.
        access: u64,
    },
}

/// How a [`Fault::FailShard`] fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Each affected unit's first `attempts` tries fail, then succeed —
    /// bounded retry absorbs it when `attempts < max_attempts`.
    Transient {
        /// Failing attempts per unit.
        attempts: u32,
    },
    /// Every attempt fails; affected units degrade.
    Permanent,
}

/// A set of injected faults, installed into an engine via
/// `ServeEngine::inject_faults`. Resolution order is deterministic:
/// stall microseconds add up across overlapping stalls, failing-attempt
/// counts take the maximum of overlapping failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The fault events, applied independently.
    pub faults: Vec<Fault>,
}

/// What the plan resolved for one admitted unit (the stamp carried from
/// admission to the replay seam).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitFault {
    /// Leading attempts that fail (`u32::MAX` = all of them).
    pub fail_attempts: u32,
    /// Simulated stall per attempt (µs).
    pub stall_us: f64,
    /// Failing attempts manifest as real panics through the catch seam.
    pub panics: bool,
    /// Page whose read the failing attempts manifest through: the replay
    /// seam arms the shard's store so this page's next read returns a
    /// *real* `StorageError` — the `pagerr:P@N` plan travelling the same
    /// typed path a device error would. `usize::MAX` = no page fault.
    pub fail_page: usize,
}

impl UnitFault {
    /// The no-fault stamp.
    pub const NONE: UnitFault = UnitFault {
        fail_attempts: 0,
        stall_us: 0.0,
        panics: false,
        fail_page: usize::MAX,
    };

    /// True when this stamp changes nothing.
    pub fn is_none(&self) -> bool {
        self.fail_attempts == 0 && self.stall_us == 0.0 && !self.panics
    }

    /// Attempts that fail once the recovery timeout is applied: a stall
    /// at or beyond `timeout_us` times out *every* attempt.
    pub fn effective_fail_attempts(&self, timeout_us: f64) -> u32 {
        if self.stall_us >= timeout_us && self.stall_us > 0.0 {
            u32::MAX
        } else {
            self.fail_attempts
        }
    }

    /// True when no bounded retry loop of `max_attempts` tries can make
    /// this unit succeed — the unit will degrade.
    pub fn will_degrade(&self, timeout_us: f64, max_attempts: u32) -> bool {
        self.effective_fail_attempts(timeout_us) >= max_attempts
    }
}

/// A malformed `--fault-plan` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending event text.
    pub event: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault event '{}': {}", self.event, self.reason)
    }
}

impl Error for FaultParseError {}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse the compact textual form: a comma-separated list of events.
    ///
    /// * `kill:S@N` — shard `S` fails permanently from its `N`th
    ///   admitted unit, first incarnation only (a rebuild heals it).
    /// * `kill!:S@N` — as above, but every incarnation fails (the shard
    ///   is gone for good; rebuilt slices fail their probes too).
    /// * `flaky:S@N+A` — from unit `N` on shard `S`, each unit's first
    ///   `A` attempts fail then succeed (`flaky:S@N` defaults `A` to 1).
    /// * `stall:S@N+K=U` — `K` units starting at `N` on shard `S` stall
    ///   `U` simulated µs per attempt (`+K` defaults to 1 unit).
    /// * `panic:S@N` — unit `N` on shard `S` panics on every attempt.
    /// * `pagerr:P@N` — global page `P`'s `N`th access errors once.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut faults = Vec::new();
        for event in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            faults.push(parse_event(event)?);
        }
        Ok(FaultPlan { faults })
    }

    /// A small pseudo-random plan for property tests: a deterministic
    /// function of `(seed, shards)` mixing every fault shape. Unit
    /// indices stay small so short workloads actually hit them.
    pub fn seeded(seed: u64, shards: usize) -> FaultPlan {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // splitmix64: reproducible anywhere, no rand dependency.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let shards = shards.max(1) as u64;
        let events = 1 + (next() % 4) as usize;
        let mut faults = Vec::with_capacity(events);
        for _ in 0..events {
            let shard = (next() % shards) as usize;
            let from_unit = next() % 12;
            faults.push(match next() % 5 {
                0 => Fault::Stall {
                    shard,
                    from_unit,
                    units: 1 + next() % 4,
                    stall_us: (1 + next() % 2_000) as f64,
                },
                1 => Fault::PanicUnit {
                    shard,
                    unit: from_unit,
                },
                2 => Fault::FailShard {
                    shard,
                    from_unit,
                    kind: FaultKind::Transient {
                        attempts: 1 + (next() % 2) as u32,
                    },
                    every_incarnation: false,
                },
                3 => Fault::FailShard {
                    shard,
                    from_unit,
                    kind: FaultKind::Permanent,
                    every_incarnation: next() % 2 == 0,
                },
                _ => Fault::PageError {
                    page: (next() % 16) as usize,
                    access: next() % 8,
                },
            });
        }
        FaultPlan { faults }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Stall {
                shard,
                from_unit,
                units,
                stall_us,
            } => write!(f, "stall:{shard}@{from_unit}+{units}={stall_us}"),
            Fault::PanicUnit { shard, unit } => write!(f, "panic:{shard}@{unit}"),
            Fault::FailShard {
                shard,
                from_unit,
                kind: FaultKind::Permanent,
                every_incarnation,
            } => {
                let bang = if *every_incarnation { "!" } else { "" };
                write!(f, "kill{bang}:{shard}@{from_unit}")
            }
            Fault::FailShard {
                shard,
                from_unit,
                kind: FaultKind::Transient { attempts },
                ..
            } => write!(f, "flaky:{shard}@{from_unit}+{attempts}"),
            Fault::PageError { page, access } => write!(f, "pagerr:{page}@{access}"),
        }
    }
}

impl fmt::Display for FaultPlan {
    /// Events re-joined with commas — round-trips through
    /// [`FaultPlan::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_event(event: &str) -> Result<Fault, FaultParseError> {
    let err = |reason: &str| FaultParseError {
        event: event.to_string(),
        reason: reason.to_string(),
    };
    let (name, rest) = event.split_once(':').ok_or_else(|| err("missing ':'"))?;
    let (target, at) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
    let target: usize = target.parse().map_err(|_| err("bad target id"))?;
    let parse_u64 = |s: &str, what: &str| -> Result<u64, FaultParseError> {
        s.parse()
            .map_err(|_| err(&format!("bad {what} '{s}' (want an unsigned integer)")))
    };
    Ok(match name {
        "kill" | "kill!" => Fault::FailShard {
            shard: target,
            from_unit: parse_u64(at, "unit")?,
            kind: FaultKind::Permanent,
            every_incarnation: name == "kill!",
        },
        "flaky" => {
            let (unit, attempts) = match at.split_once('+') {
                Some((u, a)) => (parse_u64(u, "unit")?, parse_u64(a, "attempt count")? as u32),
                None => (parse_u64(at, "unit")?, 1),
            };
            if attempts == 0 {
                return Err(err("flaky attempt count must be >= 1"));
            }
            Fault::FailShard {
                shard: target,
                from_unit: unit,
                kind: FaultKind::Transient { attempts },
                every_incarnation: false,
            }
        }
        "stall" => {
            let (head, stall) = at
                .split_once('=')
                .ok_or_else(|| err("missing '=stall_us'"))?;
            let (unit, units) = match head.split_once('+') {
                Some((u, k)) => (parse_u64(u, "unit")?, parse_u64(k, "unit count")?),
                None => (parse_u64(head, "unit")?, 1),
            };
            let stall_us: f64 = stall.parse().map_err(|_| err("bad stall_us"))?;
            if units == 0 {
                return Err(err("stall unit count must be >= 1"));
            }
            if stall_us.is_nan() || stall_us <= 0.0 {
                return Err(err("stall_us must be > 0"));
            }
            Fault::Stall {
                shard: target,
                from_unit: unit,
                units,
                stall_us,
            }
        }
        "panic" => Fault::PanicUnit {
            shard: target,
            unit: parse_u64(at, "unit")?,
        },
        "pagerr" => Fault::PageError {
            page: target,
            access: parse_u64(at, "access")?,
        },
        other => return Err(err(&format!("unknown fault kind '{other}'"))),
    })
}

/// The plan plus its deterministic cursors: per-shard admitted-unit
/// counters and per-page admission-time access counters. Lives under the
/// engine's fleet lock; every stamp advances the cursors in admission
/// order, which is what makes resolution schedule-invariant.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Units admitted per shard so far.
    unit_seq: Vec<u64>,
    /// Admission-time access counts per global page.
    page_access: HashMap<usize, u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, shards: usize) -> Self {
        FaultState {
            plan,
            unit_seq: vec![0; shards],
            page_access: HashMap::new(),
        }
    }

    /// Resolve the fault stamp of the next admitted unit on `shard`
    /// (running on incarnation `incarnation`), touching `pages`.
    /// Advances every cursor exactly once per call.
    pub(crate) fn stamp(&mut self, shard: usize, incarnation: u32, pages: &[usize]) -> UnitFault {
        let seq = self.unit_seq[shard];
        self.unit_seq[shard] += 1;
        let mut stamp = UnitFault::NONE;
        for fault in &self.plan.faults {
            match *fault {
                Fault::Stall {
                    shard: s,
                    from_unit,
                    units,
                    stall_us,
                } => {
                    if s == shard && seq >= from_unit && seq - from_unit < units {
                        stamp.stall_us += stall_us;
                    }
                }
                Fault::PanicUnit { shard: s, unit } => {
                    if s == shard && seq == unit {
                        stamp.fail_attempts = u32::MAX;
                        stamp.panics = true;
                    }
                }
                Fault::FailShard {
                    shard: s,
                    from_unit,
                    kind,
                    every_incarnation,
                } => {
                    if s == shard && seq >= from_unit && (every_incarnation || incarnation == 0) {
                        let fails = match kind {
                            FaultKind::Transient { attempts } => attempts,
                            FaultKind::Permanent => u32::MAX,
                        };
                        stamp.fail_attempts = stamp.fail_attempts.max(fails);
                    }
                }
                Fault::PageError { .. } => {}
            }
        }
        // Page-level errors: count every touched page's access, and fail
        // the first attempt when any of them hits its faulted access.
        for &page in pages {
            let hit = self
                .plan
                .faults
                .iter()
                .any(|f| matches!(*f, Fault::PageError { page: p, access } if p == page && access == *self.page_access.get(&page).unwrap_or(&0)));
            *self.page_access.entry(page).or_insert(0) += 1;
            if hit {
                stamp.fail_attempts = stamp.fail_attempts.max(1);
                stamp.fail_page = page;
            }
        }
        stamp
    }
}

/// Identity of a replay unit that failed outside the fault plan's
/// model — the query and shard a degraded-coverage report names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnitFailure {
    /// Query index within the batch (submission order).
    pub query: usize,
    /// Shard the unit was routed to.
    pub shard: usize,
}

/// A batch failed in a way recovery does not model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Replay units panicked outside any injected fault (a routing bug,
    /// a poisoned shard lock, …). Carries the identity of every failed
    /// unit; the affected slices are rebuilt at the next admission, so
    /// one poisoned lock does not wedge the engine forever.
    ReplayPanicked {
        /// The failed units, ascending by (query, shard).
        failures: Vec<UnitFailure>,
    },
    /// A query's box corner or kNN centre has a different number of
    /// coordinates than the served points. The query is never planned
    /// against the tree (it would answer a different question, or none);
    /// the rest of its batch still drains before this is returned.
    QueryDimension {
        /// Index of the first such query within the batch (submission
        /// order).
        query: usize,
        /// Dimensionality of the served points.
        expected: usize,
        /// Dimensionality the query carried.
        got: usize,
    },
}

impl ServeError {
    /// The same error with every query index shifted by `base` — how a
    /// caller that splits one workload into sub-batches reports
    /// whole-workload positions.
    pub(crate) fn offset_queries(mut self, base: usize) -> ServeError {
        match &mut self {
            ServeError::ReplayPanicked { failures } => {
                failures.iter_mut().for_each(|f| f.query += base);
            }
            ServeError::QueryDimension { query, .. } => *query += base,
        }
        self
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ReplayPanicked { failures } => {
                write!(
                    f,
                    "{} replay unit(s) panicked during this batch:",
                    failures.len()
                )?;
                for (i, u) in failures.iter().enumerate() {
                    let sep = if i == 0 { " " } else { ", " };
                    write!(f, "{sep}query {} on shard {}", u.query, u.shard)?;
                }
                Ok(())
            }
            ServeError::QueryDimension {
                query,
                expected,
                got,
            } => write!(
                f,
                "query {query} has {got} coordinate(s) but the served points have {expected}"
            ),
        }
    }
}

impl Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_event_kind() {
        let spec = "kill:2@10,kill!:0@3,flaky:1@5+2,stall:3@4+2=500,panic:0@7,pagerr:12@1";
        let plan = FaultPlan::parse(spec).expect("spec parses");
        assert_eq!(plan.faults.len(), 6);
        assert_eq!(
            plan.faults[0],
            Fault::FailShard {
                shard: 2,
                from_unit: 10,
                kind: FaultKind::Permanent,
                every_incarnation: false,
            }
        );
        assert_eq!(
            plan.faults[1],
            Fault::FailShard {
                shard: 0,
                from_unit: 3,
                kind: FaultKind::Permanent,
                every_incarnation: true,
            }
        );
        assert_eq!(
            plan.faults[3],
            Fault::Stall {
                shard: 3,
                from_unit: 4,
                units: 2,
                stall_us: 500.0,
            }
        );
        // Display round-trips through parse.
        let again = FaultPlan::parse(&plan.to_string()).expect("display re-parses");
        assert_eq!(plan, again);
        // Defaults: flaky without +A fails one attempt, stall without +K
        // hits one unit.
        let short = FaultPlan::parse("flaky:0@2,stall:1@3=50").expect("defaults parse");
        assert_eq!(
            short.faults[0],
            Fault::FailShard {
                shard: 0,
                from_unit: 2,
                kind: FaultKind::Transient { attempts: 1 },
                every_incarnation: false,
            }
        );
        assert_eq!(
            short.faults[1],
            Fault::Stall {
                shard: 1,
                from_unit: 3,
                units: 1,
                stall_us: 50.0,
            }
        );
        // Empty spec is an empty plan.
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
    }

    #[test]
    fn parse_rejects_malformed_events_with_reasons() {
        for (spec, needle) in [
            ("explode:0@1", "unknown fault kind"),
            ("kill:0", "missing '@'"),
            ("kill", "missing ':'"),
            ("kill:x@1", "bad target id"),
            ("kill:0@x", "bad unit"),
            ("stall:0@1", "missing '=stall_us'"),
            ("stall:0@1=0", "stall_us must be > 0"),
            ("stall:0@1+0=5", "unit count must be >= 1"),
            ("flaky:0@1+0", "attempt count must be >= 1"),
        ] {
            let e = FaultPlan::parse(spec).expect_err(spec);
            assert!(e.to_string().contains(needle), "{spec}: {e}");
        }
    }

    #[test]
    fn stamps_are_deterministic_and_cursor_driven() {
        let plan = FaultPlan::parse("kill:1@2,stall:1@0+2=100,pagerr:5@1").expect("parses");
        let mut state = FaultState::new(plan.clone(), 2);
        // Shard 1, unit 0: stalled, not killed, page 5 first access clean.
        let s0 = state.stamp(1, 0, &[5]);
        assert_eq!(s0.stall_us, 100.0);
        assert_eq!(s0.fail_attempts, 0);
        // Shard 1, unit 1: stalled, and page 5's access #1 errors once —
        // the stamp carries the page so replay can arm a real read error.
        let s1 = state.stamp(1, 0, &[5, 6]);
        assert_eq!(s1.stall_us, 100.0);
        assert_eq!(s1.fail_attempts, 1);
        assert_eq!(s1.fail_page, 5);
        assert_eq!(s0.fail_page, usize::MAX);
        // Shard 1, unit 2: the kill starts; incarnation 0 fails outright.
        let s2 = state.stamp(1, 0, &[]);
        assert_eq!(s2.fail_attempts, u32::MAX);
        // …but a rebuilt incarnation serves cleanly (kill is not `kill!`).
        let s3 = state.stamp(1, 1, &[]);
        assert_eq!(s3.fail_attempts, 0);
        // Shard 0 never matches.
        assert!(state.stamp(0, 0, &[7]).is_none());
        // Two fresh cursor states replay identically.
        let mut a = FaultState::new(plan.clone(), 2);
        let mut b = FaultState::new(plan, 2);
        for (shard, pages) in [(1usize, vec![5]), (0, vec![1, 2]), (1, vec![5])] {
            assert_eq!(a.stamp(shard, 0, &pages), b.stamp(shard, 0, &pages));
        }
    }

    #[test]
    fn will_degrade_accounts_for_timeouts_and_retry_budget() {
        let clean = UnitFault::NONE;
        assert!(!clean.will_degrade(1_000.0, 3));
        let flaky = UnitFault {
            fail_attempts: 2,
            ..UnitFault::NONE
        };
        assert!(!flaky.will_degrade(1_000.0, 3)); // 3rd attempt succeeds
        assert!(flaky.will_degrade(1_000.0, 2)); // budget exhausted
        let stalled = UnitFault {
            stall_us: 1_000.0,
            ..UnitFault::NONE
        };
        assert!(stalled.will_degrade(1_000.0, 3)); // every attempt times out
        let slow = UnitFault {
            stall_us: 999.0,
            ..UnitFault::NONE
        };
        assert!(!slow.will_degrade(1_000.0, 3)); // slow but inside budget
    }

    #[test]
    fn seeded_plans_are_reproducible_and_vary_by_seed() {
        let a = FaultPlan::seeded(7, 4);
        let b = FaultPlan::seeded(7, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::seeded(8, 4);
        let d = FaultPlan::seeded(9, 4);
        // At least one nearby seed differs (they are hash-mixed).
        assert!(a != c || a != d);
    }

    #[test]
    fn serve_error_names_every_failed_unit() {
        let err = ServeError::ReplayPanicked {
            failures: vec![
                UnitFailure { query: 0, shard: 1 },
                UnitFailure { query: 3, shard: 0 },
            ],
        };
        let msg = err.to_string();
        assert!(msg.contains("2 replay unit(s) panicked during this batch"));
        assert!(msg.contains("query 0 on shard 1"));
        assert!(msg.contains("query 3 on shard 0"));
    }
}
