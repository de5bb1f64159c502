//! Seed-deterministic fault injection: the plan vocabulary and the
//! process-wide arming switch.
//!
//! The replay stack is supervised (sharded workers degrade to the
//! single-threaded oracle, journal and atomic writes retry transient
//! errors, mapped traces are revalidated), and this module is how that
//! machinery is *tested*: a [`FaultPlan`] names one injection site and
//! its firing coordinates, and every supervised layer consults the plan
//! at its injection points. With no plan installed the consultation is
//! a single relaxed atomic load ([`active`] returns `None` without
//! locking), so the hot path costs nothing — the same zero-cost-when-
//! absent discipline as the probe layer.
//!
//! Plans come from two places:
//!
//! * a **seed** (`--fault-seed N` or a bare integer in
//!   `DSM_FAULT_PLAN`), expanded deterministically by
//!   [`FaultPlan::derive`] so a CI sweep over seeds covers the
//!   site × coordinate space reproducibly;
//! * an **explicit spec** (`DSM_FAULT_PLAN=worker-panic@r1.p0.s0`
//!   etc.), parsed by [`FaultPlan::from_spec`], for targeting one site
//!   exactly.
//!
//! This lives in `dsm-types` (not `dsm-core`) because the lowest
//! injection site — mapped-trace truncation — is in `dsm-trace`, which
//! only depends on this crate. `dsm_core::fault` re-exports everything
//! and adds the recovery helpers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Where an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A sharded-replay worker panics at the chosen
    /// `(round, part, seq)` chunk boundary.
    WorkerPanic,
    /// A worker's chunk send fails as if the committer vanished; the
    /// worker abandons its range.
    MailboxSendFail,
    /// A worker stops committing chunks (an artificial backpressure
    /// stall) until the committer's watchdog tears the mailboxes down
    /// or [`FaultPlan::stall_ms`] elapses.
    MailboxStall,
    /// Transient `EINTR`-style failures injected into sweep-journal
    /// appends ([`FaultPlan::io_failures`] consecutive attempts fail).
    JournalIo,
    /// Transient failures injected into atomic JSON writes.
    AtomicWriteIo,
    /// Mapped-trace revalidation reports the file truncated.
    MmapTruncate,
}

impl FaultSite {
    /// The stable spec label — the prefix accepted by
    /// [`FaultPlan::from_spec`] and printed in diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::MailboxSendFail => "mailbox-send-fail",
            FaultSite::MailboxStall => "mailbox-stall",
            FaultSite::JournalIo => "journal-io",
            FaultSite::AtomicWriteIo => "atomic-write-io",
            FaultSite::MmapTruncate => "mmap-truncate",
        }
    }

    /// Whether this site fires inside the sharded replay runtime (and
    /// thus carries `(round, part, seq)` coordinates).
    #[must_use]
    pub fn is_shard(self) -> bool {
        matches!(
            self,
            FaultSite::WorkerPanic | FaultSite::MailboxSendFail | FaultSite::MailboxStall
        )
    }

    /// Whether this site injects transient I/O errors (and thus carries
    /// an [`FaultPlan::io_failures`] budget).
    #[must_use]
    pub fn is_io(self) -> bool {
        matches!(self, FaultSite::JournalIo | FaultSite::AtomicWriteIo)
    }
}

/// All sites, in the order [`FaultPlan::derive`] indexes them.
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::WorkerPanic,
    FaultSite::MailboxSendFail,
    FaultSite::MailboxStall,
    FaultSite::JournalIo,
    FaultSite::AtomicWriteIo,
    FaultSite::MmapTruncate,
];

/// One deterministic fault to inject: a site plus its firing
/// coordinates. Built from a seed ([`FaultPlan::derive`]) or a spec
/// string ([`FaultPlan::from_spec`]), installed process-wide with
/// [`install`], and consulted by the supervised layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injection site.
    pub site: FaultSite,
    /// Shard sites: the parallel round to fire in, numbered from 1.
    pub round: u32,
    /// Shard sites: the partition (worker) to fire in.
    pub part: u32,
    /// Shard sites: the chunk sequence number (within the worker's
    /// round) to fire at.
    pub seq: u32,
    /// I/O sites: how many consecutive attempts fail before the
    /// operation is allowed to succeed. Below the retry budget the
    /// fault is absorbed transparently; at or above it, the structured
    /// degradation path runs.
    pub io_failures: u32,
    /// [`FaultSite::MailboxStall`]: the longest the stalled worker
    /// sleeps before resuming, an upper bound that keeps runs finite
    /// even if the committer's watchdog is configured very long.
    pub stall_ms: u64,
}

impl FaultPlan {
    /// Expands `seed` into a plan, deterministically (splitmix64): the
    /// same seed always yields the same site and coordinates, so a CI
    /// seed sweep is reproducible anywhere.
    #[must_use]
    pub fn derive(seed: u64) -> FaultPlan {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let site = FAULT_SITES[usize::try_from(next() % 6).unwrap_or(0)];
        FaultPlan {
            site,
            round: 1 + u32::try_from(next() % 3).unwrap_or(0),
            part: u32::try_from(next() % 2).unwrap_or(0),
            seq: u32::try_from(next() % 3).unwrap_or(0),
            io_failures: 1 + u32::try_from(next() % 4).unwrap_or(0),
            stall_ms: 120_000,
        }
    }

    /// Parses a `DSM_FAULT_PLAN` spec. A bare integer is a seed for
    /// [`FaultPlan::derive`]; otherwise the grammar is:
    ///
    /// ```text
    /// worker-panic@r<R>.p<P>.s<S>
    /// mailbox-send-fail@r<R>.p<P>.s<S>
    /// mailbox-stall@r<R>.p<P>.s<S>[:<stall_ms>]
    /// journal-io:<failures>
    /// atomic-write-io:<failures>
    /// mmap-truncate
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (a usage error at the CLI) when
    /// the spec matches no site or its coordinates do not parse.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if !spec.is_empty() && spec.bytes().all(|b| b.is_ascii_digit()) {
            return spec
                .parse::<u64>()
                .map(FaultPlan::derive)
                .map_err(|e| format!("fault seed '{spec}': {e}"));
        }
        let mut plan = FaultPlan {
            site: FaultSite::MmapTruncate,
            round: 0,
            part: 0,
            seq: 0,
            io_failures: 1,
            stall_ms: 120_000,
        };
        if spec == FaultSite::MmapTruncate.label() {
            return Ok(plan);
        }
        for site in [FaultSite::JournalIo, FaultSite::AtomicWriteIo] {
            if let Some(rest) = spec.strip_prefix(site.label()) {
                let n = rest.strip_prefix(':').ok_or_else(|| {
                    format!(
                        "fault spec '{spec}': expected '{}:<failures>'",
                        site.label()
                    )
                })?;
                plan.site = site;
                plan.io_failures = n
                    .parse()
                    .map_err(|e| format!("fault spec '{spec}': bad failure count: {e}"))?;
                return Ok(plan);
            }
        }
        for site in [
            FaultSite::WorkerPanic,
            FaultSite::MailboxSendFail,
            FaultSite::MailboxStall,
        ] {
            let Some(rest) = spec.strip_prefix(site.label()) else {
                continue;
            };
            let coords = rest.strip_prefix('@').ok_or_else(|| {
                format!(
                    "fault spec '{spec}': expected '{}@r<round>.p<part>.s<seq>'",
                    site.label()
                )
            })?;
            let (coords, stall) = match coords.split_once(':') {
                Some((c, ms)) if site == FaultSite::MailboxStall => {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|e| format!("fault spec '{spec}': bad stall ms: {e}"))?;
                    (c, ms)
                }
                Some(_) => return Err(format!("fault spec '{spec}': unexpected ':' suffix")),
                None => (coords, plan.stall_ms),
            };
            let mut it = coords.split('.');
            let mut field = |prefix: &str| -> Result<u32, String> {
                it.next()
                    .and_then(|p| p.strip_prefix(prefix))
                    .ok_or_else(|| {
                        format!("fault spec '{spec}': expected 'r<round>.p<part>.s<seq>'")
                    })?
                    .parse()
                    .map_err(|e| format!("fault spec '{spec}': bad coordinate: {e}"))
            };
            plan.site = site;
            plan.round = field("r")?;
            plan.part = field("p")?;
            plan.seq = field("s")?;
            plan.stall_ms = stall;
            if it.next().is_some() {
                return Err(format!("fault spec '{spec}': trailing coordinates"));
            }
            return Ok(plan);
        }
        Err(format!(
            "fault spec '{spec}': unknown site (one of worker-panic, mailbox-send-fail, \
             mailbox-stall, journal-io, atomic-write-io, mmap-truncate, or a bare seed)"
        ))
    }

    /// Whether a shard-site plan fires at this chunk coordinate.
    #[must_use]
    pub fn fires_at(&self, round: u32, part: u32, seq: u32) -> bool {
        self.site.is_shard() && self.round == round && self.part == part && self.seq == seq
    }

    /// Renders the plan back as a spec string (diagnostics only).
    #[must_use]
    pub fn spec(&self) -> String {
        match self.site {
            FaultSite::MmapTruncate => self.site.label().to_owned(),
            FaultSite::JournalIo | FaultSite::AtomicWriteIo => {
                format!("{}:{}", self.site.label(), self.io_failures)
            }
            FaultSite::MailboxStall => format!(
                "{}@r{}.p{}.s{}:{}",
                self.site.label(),
                self.round,
                self.part,
                self.seq,
                self.stall_ms
            ),
            FaultSite::WorkerPanic | FaultSite::MailboxSendFail => {
                format!(
                    "{}@r{}.p{}.s{}",
                    self.site.label(),
                    self.round,
                    self.part,
                    self.seq
                )
            }
        }
    }
}

/// Fast gate: `true` only while a plan is installed. Relaxed is enough —
/// installation happens-before the run it arms through thread spawning.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The installed plan plus its remaining transient-I/O budget.
static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);

#[derive(Debug, Clone, Copy)]
struct PlanState {
    plan: FaultPlan,
    io_left: u32,
}

/// Installs (or, with `None`, clears) the process-wide fault plan.
/// Intended for binaries at startup and for the chaos harness between
/// sequential scenarios; library code only reads.
pub fn install(plan: Option<FaultPlan>) {
    let mut guard = PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = plan.map(|plan| PlanState {
        plan,
        io_left: plan.io_failures,
    });
    ARMED.store(plan.is_some(), Ordering::Release);
}

/// The installed plan, if any. One relaxed atomic load when disarmed —
/// safe to consult on warm paths.
#[must_use]
pub fn active() -> Option<FaultPlan> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .map(|s| s.plan)
}

/// Consumes one injected transient I/O failure for `site`, if the
/// installed plan targets it and its [`FaultPlan::io_failures`] budget
/// is not exhausted. Returns the error the failed operation should
/// report (`Interrupted`, i.e. `EINTR`).
#[must_use]
pub fn take_io_error(site: FaultSite) -> Option<std::io::Error> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut guard = PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let state = guard.as_mut()?;
    if state.plan.site != site || state.io_left == 0 {
        return None;
    }
    state.io_left -= 1;
    Some(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected transient I/O failure ({})", site.label()),
    ))
}

/// Serializes tests (here and in dependent crates) that install the
/// process-wide plan, so parallel test threads cannot observe each
/// other's injections. Not part of the production surface.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_covers_sites() {
        let a = FaultPlan::derive(42);
        let b = FaultPlan::derive(42);
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let plan = FaultPlan::derive(seed);
            seen.insert(plan.site);
            // Rounds are numbered from 1: a round-0 plan could never fire.
            assert!((1..=3).contains(&plan.round), "seed {seed}: {plan:?}");
        }
        assert_eq!(
            seen.len(),
            FAULT_SITES.len(),
            "64 seeds should hit all sites"
        );
    }

    #[test]
    fn spec_round_trips() {
        for spec in [
            "worker-panic@r1.p0.s0",
            "mailbox-send-fail@r2.p1.s3",
            "mailbox-stall@r1.p0.s0:500",
            "journal-io:2",
            "atomic-write-io:4",
            "mmap-truncate",
        ] {
            let plan = FaultPlan::from_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(plan.spec(), spec, "round trip");
        }
        // Default stall cap is appended by spec(); parse without it.
        let plan = FaultPlan::from_spec("mailbox-stall@r1.p2.s3").unwrap();
        assert_eq!(plan.site, FaultSite::MailboxStall);
        assert_eq!((plan.round, plan.part, plan.seq), (1, 2, 3));
        assert_eq!(plan.stall_ms, 120_000);
    }

    #[test]
    fn bare_seed_derives() {
        assert_eq!(FaultPlan::from_spec("17").unwrap(), FaultPlan::derive(17));
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "worker-panic",
            "worker-panic@r1.p0",
            "worker-panic@r1.p0.s0.x9",
            "worker-panic@r1.p0.s0:7",
            "journal-io",
            "journal-io:x",
            "no-such-site@r1.p0.s0",
            "",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "accepted: '{bad}'");
        }
    }

    #[test]
    fn fires_at_matches_exact_coordinates() {
        let plan = FaultPlan::from_spec("worker-panic@r1.p0.s2").unwrap();
        assert!(plan.fires_at(1, 0, 2));
        assert!(!plan.fires_at(1, 0, 1));
        assert!(!plan.fires_at(0, 0, 2));
        let io = FaultPlan::from_spec("journal-io:1").unwrap();
        assert!(!io.fires_at(0, 0, 0), "I/O sites have no chunk coordinates");
    }

    #[test]
    fn io_budget_is_consumed_once_installed() {
        // Serialized against sibling tests touching the global plan.
        let _guard = crate::fault::test_lock();
        install(Some(FaultPlan::from_spec("journal-io:2").unwrap()));
        assert!(
            take_io_error(FaultSite::AtomicWriteIo).is_none(),
            "wrong site"
        );
        assert!(take_io_error(FaultSite::JournalIo).is_some());
        assert!(take_io_error(FaultSite::JournalIo).is_some());
        assert!(
            take_io_error(FaultSite::JournalIo).is_none(),
            "budget spent"
        );
        install(None);
        assert!(active().is_none());
        assert!(take_io_error(FaultSite::JournalIo).is_none());
    }
}
