//! Injectable storage I/O: every byte the durable stores move crosses
//! [`StoreIo`].
//!
//! The chunk store ([`crate::store`]) defends against *content*
//! corruption — CRC32 frames, digest checks, quarantine — but a hostile
//! disk fails below that layer:
//! transient `EIO`, a full (`ENOSPC`) or read-only (`EROFS`) filesystem,
//! writes torn mid-buffer, renames that die after the tmp file landed.
//! This module makes that layer injectable, extending the deterministic
//! [`crate::fault::FaultPlan`] idiom from task execution to storage:
//!
//! * [`StoreIo`] — the five primitive operations a store needs (read,
//!   write, rename, create_dir, remove);
//! * [`RealIo`] — `std::fs`, byte-for-byte the pre-trait behavior;
//! * [`FaultIo`] — a seed-driven injector over [`RealIo`] that fails the
//!   Nth operation with a chosen errno, tears a write at an arbitrary byte
//!   offset, and fails a rename after the tmp file landed — while keeping
//!   ledger counters the chaos tests balance against the store's own
//!   accounting;
//! * [`RetryPolicy`] — attempt cap and a doubling backoff, so transient
//!   faults are retried and permanent ones escalate;
//! * `StoreEngine` — the disk store's retry/ledger/demotion harness:
//!   when an engine exceeds its failure budget it
//!   *demotes* the store to a no-op backend (loads miss, saves vanish),
//!   so the job completes correct-but-uncached instead of failing —
//!   the same salvage philosophy the refused-chunk path follows.
//!
//! Ledger invariant (asserted by `tests/storage_chaos.rs`): every I/O
//! error observed is either retried or given up on, so
//! `io_errors == io_retries + io_gave_up` — and under a fault injector
//! with a quiescent real disk, `io_errors` equals the injector's
//! [`FaultIo::injected_errors`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use symple_core::rng::Rng64;

// ---------------------------------------------------------------------------
// The trait and the real backend
// ---------------------------------------------------------------------------

/// The primitive filesystem operations a durable store performs. All
/// framing, checksumming, retry, and demotion logic lives *above* this
/// trait; implementations only move bytes (or pretend to fail to).
pub trait StoreIo: Send + Sync {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path`, creating or truncating it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (the stores' commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The production backend: `std::fs`, unchanged semantics. The stores'
/// crash contract (old frame or new frame, never torn) comes from tmp +
/// rename; no fsync is issued.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The errno an injected storage fault surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Generic I/O error (`EIO`) — treated as transient and retried.
    Eio,
    /// Disk full (`ENOSPC`) — permanent, escalates immediately.
    Enospc,
    /// Read-only filesystem (`EROFS`) — permanent, escalates immediately.
    Erofs,
    /// Operation timed out — transient and retried.
    TimedOut,
}

impl StorageFaultKind {
    /// Every kind, for schedule enumeration.
    pub const ALL: [StorageFaultKind; 4] = [
        StorageFaultKind::Eio,
        StorageFaultKind::Enospc,
        StorageFaultKind::Erofs,
        StorageFaultKind::TimedOut,
    ];

    /// Materializes the fault as an [`io::Error`] with the matching kind.
    pub fn to_error(self) -> io::Error {
        match self {
            StorageFaultKind::Eio => io::Error::other("injected EIO"),
            StorageFaultKind::Enospc => {
                io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
            }
            StorageFaultKind::Erofs => {
                io::Error::new(io::ErrorKind::ReadOnlyFilesystem, "injected EROFS")
            }
            StorageFaultKind::TimedOut => {
                io::Error::new(io::ErrorKind::TimedOut, "injected timeout")
            }
        }
    }
}

/// A deterministic storage-fault schedule — the [`crate::fault::FaultPlan`]
/// idiom applied to the I/O layer. Operation indices are 1-based and count
/// *per category*: `fail_op` by the injector's global operation sequence,
/// `tear_write` by its write sequence, `fail_rename` by its rename
/// sequence. Retries re-enter the injector, so a retried op consumes fresh
/// indices — schedules enumerate *attempts*, not logical operations.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultPlan {
    /// `(global op index, errno)`: the Nth operation fails outright.
    pub fail_op: Vec<(u64, StorageFaultKind)>,
    /// `(write index, byte offset)`: the Nth write persists only the
    /// first `offset` bytes, then reports `EIO` — a torn write.
    pub tear_write: Vec<(u64, usize)>,
    /// Rename indices that fail *after* the tmp file landed: the write
    /// succeeded, the commit did not.
    pub fail_rename: Vec<u64>,
    /// SABOTAGE ONLY: tear the write but report success — a deliberately
    /// buggy injector. The chaos harness's negated self-test proves the
    /// ledger-balance check catches this (the injector claims an error
    /// the store never observed).
    pub silent_tear: bool,
}

impl StorageFaultPlan {
    /// A pseudo-random schedule derived from `seed`: `faults` op failures
    /// and one torn write, spread over the first `horizon` operations.
    /// Identical seeds yield identical schedules.
    pub fn seeded(seed: u64, horizon: u64, faults: u64) -> StorageFaultPlan {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x510f_a017);
        let horizon = horizon.max(1);
        let mut plan = StorageFaultPlan::default();
        for _ in 0..faults {
            let op = rng.gen_range(1..=horizon);
            let kind = StorageFaultKind::ALL[rng.gen_range(0..4usize)];
            plan.fail_op.push((op, kind));
        }
        plan.tear_write
            .push((rng.gen_range(1..=horizon.min(8)), rng.gen_range(0..64usize)));
        if rng.gen_bool(0.5) {
            plan.fail_rename.push(rng.gen_range(1..=horizon.min(8)));
        }
        plan
    }
}

/// A [`StoreIo`] that injects the faults a [`StorageFaultPlan`] schedules,
/// delegating everything else to [`RealIo`]. Counters record what was
/// actually injected so tests can balance them against the store's I/O
/// ledger.
pub struct FaultIo {
    plan: StorageFaultPlan,
    ops: AtomicU64,
    writes: AtomicU64,
    renames: AtomicU64,
    injected_errors: AtomicU64,
    torn_writes: AtomicU64,
}

impl FaultIo {
    /// An injector over the real filesystem.
    pub fn new(plan: StorageFaultPlan) -> FaultIo {
        FaultIo {
            plan,
            ops: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
        }
    }

    /// Operations that reached the injector (including failed ones).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Errors this injector *intended* to surface — including a
    /// `silent_tear`'s suppressed one, which is what makes the ledger
    /// balance check catch that sabotage.
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::SeqCst)
    }

    /// Writes that were torn (silently or not).
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes.load(Ordering::SeqCst)
    }

    /// Advances the global op sequence; injects scheduled op-level faults.
    fn gate(&self) -> io::Result<()> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(&(_, kind)) = self.plan.fail_op.iter().find(|(op, _)| *op == n) {
            self.injected_errors.fetch_add(1, Ordering::SeqCst);
            return Err(kind.to_error());
        }
        Ok(())
    }
}

impl StoreIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate()?;
        RealIo.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.gate()?;
        let w = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(&(_, offset)) = self.plan.tear_write.iter().find(|(idx, _)| *idx == w) {
            // The torn prefix really lands: that is what a power cut or
            // full disk leaves behind for the frame layer to catch.
            let torn = &bytes[..offset.min(bytes.len())];
            RealIo.write(path, torn)?;
            self.torn_writes.fetch_add(1, Ordering::SeqCst);
            self.injected_errors.fetch_add(1, Ordering::SeqCst);
            if self.plan.silent_tear {
                // The injected bug: claim success over a torn file.
                return Ok(());
            }
            return Err(io::Error::other("injected torn write"));
        }
        RealIo.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate()?;
        let r = self.renames.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.fail_rename.contains(&r) {
            // The tmp file already landed (the write succeeded); only the
            // commit rename dies, leaving the orphan for cleanup.
            self.injected_errors.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("injected rename failure"));
        }
        RealIo.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        RealIo.create_dir_all(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        RealIo.remove(path)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// When to retry a failed storage operation and how long to wait: at most
/// `max_attempts` tries, the first retry after `backoff`, each further
/// retry after twice the previous wait.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = never retry).
    pub max_attempts: u32,
    /// The wait before the first retry; doubles each further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (tests and comparisons).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// The default policy with all sleeps zeroed — full retry semantics
    /// at test speed.
    pub fn instant() -> RetryPolicy {
        RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The wait before retry number `retry` (1-based).
    fn wait_before(&self, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(31);
        self.backoff.saturating_mul(1 << doublings)
    }
}

/// Whether an I/O error is worth retrying. Transient kinds — interruption,
/// timeout, would-block, and uncategorized errors like a raw `EIO` — are;
/// semantic (`NotFound`) and resource-state kinds (`StorageFull`,
/// `ReadOnlyFilesystem`, `PermissionDenied`, …) escalate immediately: no
/// number of retries un-fills a disk.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Other
    )
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

/// Thread-safe counters for a store's I/O outcomes. Invariant:
/// `io_errors == io_retries + io_gave_up` — every observed error is
/// followed by exactly one decision.
#[derive(Debug, Default)]
pub(crate) struct IoLedger {
    io_retries: AtomicU64,
    io_gave_up: AtomicU64,
    io_errors: AtomicU64,
    store_demoted: AtomicU64,
}

impl IoLedger {
    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> IoCounts {
        IoCounts {
            io_retries: self.io_retries.load(Ordering::SeqCst),
            io_gave_up: self.io_gave_up.load(Ordering::SeqCst),
            io_errors: self.io_errors.load(Ordering::SeqCst),
            store_demoted: self.store_demoted.load(Ordering::SeqCst),
        }
    }
}

/// A snapshot of a store's I/O ledger — also the unit of per-job
/// attribution: stores outlive jobs, so the driver records
/// `end.since(&start)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Transient-error attempts that were retried.
    pub io_retries: u64,
    /// Operations that ultimately failed (retries exhausted or a
    /// permanent error).
    pub io_gave_up: u64,
    /// I/O errors observed (excluding `NotFound`, which is a miss).
    pub io_errors: u64,
    /// Demotion events: the store crossed its failure budget and fell
    /// back to a no-op backend.
    pub store_demoted: u64,
}

impl IoCounts {
    /// Counter movement since an earlier snapshot of the same ledger.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            io_retries: self.io_retries - earlier.io_retries,
            io_gave_up: self.io_gave_up - earlier.io_gave_up,
            io_errors: self.io_errors - earlier.io_errors,
            store_demoted: self.store_demoted - earlier.store_demoted,
        }
    }
}

// ---------------------------------------------------------------------------
// The retry/demotion engine
// ---------------------------------------------------------------------------

/// Default failure budget: give-up operations tolerated before a store
/// demotes itself to a no-op backend.
pub const DEFAULT_FAILURE_BUDGET: u64 = 4;

/// The harness the disk store drives its [`StoreIo`] through: a retry
/// loop under a [`RetryPolicy`], an [`IoLedger`], and the demotion latch.
/// Once `io_gave_up` reaches the failure budget the engine trips
/// [`StoreEngine::demoted`]; the owning store then answers loads with a
/// miss and drops saves, completing the job correct-but-uncached.
pub(crate) struct StoreEngine {
    io: Arc<dyn StoreIo>,
    policy: RetryPolicy,
    ledger: IoLedger,
    failure_budget: u64,
    demoted: AtomicBool,
}

impl StoreEngine {
    /// An engine over an injectable backend.
    pub(crate) fn new(
        io: Arc<dyn StoreIo>,
        policy: RetryPolicy,
        failure_budget: u64,
    ) -> StoreEngine {
        StoreEngine {
            io,
            policy,
            ledger: IoLedger::default(),
            failure_budget: failure_budget.max(1),
            demoted: AtomicBool::new(false),
        }
    }

    /// Whether the failure budget has tripped.
    pub(crate) fn demoted(&self) -> bool {
        self.demoted.load(Ordering::SeqCst)
    }

    /// The engine's I/O outcome counters.
    pub(crate) fn ledger(&self) -> &IoLedger {
        &self.ledger
    }

    /// Runs `f` against the backend under the retry policy. `NotFound`
    /// passes through uncounted (semantic absence, not an I/O fault);
    /// every other error is tallied and either retried or escalated.
    pub(crate) fn run<T>(&self, f: impl Fn(&dyn StoreIo) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 1u32;
        loop {
            match f(self.io.as_ref()) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(e),
                Err(e) => {
                    self.ledger.io_errors.fetch_add(1, Ordering::SeqCst);
                    if !is_transient(&e) || attempt >= self.policy.max_attempts {
                        self.note_gave_up();
                        return Err(e);
                    }
                    self.ledger.io_retries.fetch_add(1, Ordering::SeqCst);
                    let wait = self.policy.wait_before(attempt);
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Records a terminal failure; trips demotion at the budget.
    fn note_gave_up(&self) {
        let gave_up = self.ledger.io_gave_up.fetch_add(1, Ordering::SeqCst) + 1;
        if gave_up >= self.failure_budget && !self.demoted.swap(true, Ordering::SeqCst) {
            self.ledger.store_demoted.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A backend that fails a scripted number of times, then succeeds.
    struct Flaky {
        failures: Mutex<Vec<io::ErrorKind>>,
        calls: AtomicU64,
    }

    impl Flaky {
        fn new(failures: Vec<io::ErrorKind>) -> Flaky {
            Flaky {
                failures: Mutex::new(failures),
                calls: AtomicU64::new(0),
            }
        }
    }

    impl StoreIo for Flaky {
        fn read(&self, _path: &Path) -> io::Result<Vec<u8>> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            match self.failures.lock().unwrap().pop() {
                Some(kind) => Err(io::Error::new(kind, "scripted")),
                None => Ok(b"ok".to_vec()),
            }
        }
        fn write(&self, _path: &Path, _bytes: &[u8]) -> io::Result<()> {
            Ok(())
        }
        fn rename(&self, _from: &Path, _to: &Path) -> io::Result<()> {
            Ok(())
        }
        fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
            Ok(())
        }
        fn remove(&self, _path: &Path) -> io::Result<()> {
            Ok(())
        }
    }

    fn engine_over(failures: Vec<io::ErrorKind>) -> StoreEngine {
        StoreEngine::new(Arc::new(Flaky::new(failures)), RetryPolicy::instant(), 2)
    }

    #[test]
    fn transient_errors_retry_to_success() {
        let engine = engine_over(vec![io::ErrorKind::TimedOut, io::ErrorKind::Interrupted]);
        let out = engine.run(|io| io.read(Path::new("x"))).unwrap();
        assert_eq!(out, b"ok");
        let c = engine.ledger().snapshot();
        assert_eq!(
            (c.io_errors, c.io_retries, c.io_gave_up, c.store_demoted),
            (2, 2, 0, 0)
        );
    }

    #[test]
    fn permanent_errors_escalate_immediately() {
        let engine = engine_over(vec![io::ErrorKind::StorageFull]);
        let err = engine.run(|io| io.read(Path::new("x"))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let c = engine.ledger().snapshot();
        assert_eq!((c.io_errors, c.io_retries, c.io_gave_up), (1, 0, 1));
    }

    #[test]
    fn not_found_is_uncounted_passthrough() {
        let engine = engine_over(vec![io::ErrorKind::NotFound]);
        let err = engine.run(|io| io.read(Path::new("x"))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(engine.ledger().snapshot(), IoCounts::default());
    }

    #[test]
    fn exhausted_retries_give_up_and_budget_demotes() {
        let always: Vec<io::ErrorKind> = vec![io::ErrorKind::TimedOut; 16];
        let engine = engine_over(always.clone());
        assert!(engine.run(|io| io.read(Path::new("x"))).is_err());
        let c = engine.ledger().snapshot();
        // 3 attempts: 3 errors, 2 retries, 1 give-up; budget 2 not yet hit.
        assert_eq!((c.io_errors, c.io_retries, c.io_gave_up), (3, 2, 1));
        assert!(!engine.demoted());

        assert!(engine.run(|io| io.read(Path::new("x"))).is_err());
        assert!(engine.demoted(), "second give-up reaches the budget");
        assert_eq!(engine.ledger().snapshot().store_demoted, 1);

        // A third give-up does not double-count the demotion event.
        assert!(engine.run(|io| io.read(Path::new("x"))).is_err());
        assert_eq!(engine.ledger().snapshot().store_demoted, 1);
    }

    #[test]
    fn ledger_always_balances() {
        for failures in [
            vec![],
            vec![io::ErrorKind::TimedOut],
            vec![io::ErrorKind::StorageFull],
            vec![io::ErrorKind::TimedOut; 5],
            vec![io::ErrorKind::TimedOut, io::ErrorKind::StorageFull],
        ] {
            let engine = engine_over(failures);
            let _ = engine.run(|io| io.read(Path::new("x")));
            let c = engine.ledger().snapshot();
            assert_eq!(c.io_errors, c.io_retries + c.io_gave_up, "{c:?}");
        }
    }

    #[test]
    fn backoff_doubles_per_retry_and_instant_never_sleeps() {
        let default = RetryPolicy::default();
        let waits: Vec<Duration> = (1..=4).map(|retry| default.wait_before(retry)).collect();
        assert_eq!(waits, [500, 1000, 2000, 4000].map(Duration::from_micros));
        // The most a default-policy operation ever sleeps: two retries.
        let total: Duration = (1..default.max_attempts)
            .map(|r| default.wait_before(r))
            .sum();
        assert_eq!(total, Duration::from_micros(1500));

        for (policy, attempts) in [(RetryPolicy::instant(), 3), (RetryPolicy::no_retries(), 1)] {
            assert_eq!(policy.max_attempts, attempts);
            assert!((1..=64).all(|retry| policy.wait_before(retry).is_zero()));
        }
    }

    #[test]
    fn fault_io_injects_on_schedule_and_counts() {
        let dir = std::env::temp_dir().join(format!("symple-faultio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let plan = StorageFaultPlan {
            fail_op: vec![(2, StorageFaultKind::Enospc)],
            tear_write: vec![(2, 3)],
            ..StorageFaultPlan::default()
        };
        let io = FaultIo::new(plan);
        let a = dir.join("a");

        // Op 1 (write 1): clean.
        io.write(&a, b"hello world").unwrap();
        // Op 2: scheduled ENOSPC.
        let err = io.read(&a).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Op 3 (write 2): torn at byte 3 — prefix lands, error reported.
        let err = io.write(&a, b"hello world").unwrap_err();
        assert!(is_transient(&err));
        assert_eq!(std::fs::read(&a).unwrap(), b"hel");

        assert_eq!(io.ops(), 3);
        assert_eq!(io.injected_errors(), 2);
        assert_eq!(io.torn_writes(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_tear_reports_success_but_counts_the_intent() {
        let dir = std::env::temp_dir().join(format!("symple-silenttear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let plan = StorageFaultPlan {
            tear_write: vec![(1, 4)],
            silent_tear: true,
            ..StorageFaultPlan::default()
        };
        let io = FaultIo::new(plan);
        let a = dir.join("a");
        io.write(&a, b"hello world")
            .expect("the bug hides the tear");
        assert_eq!(std::fs::read(&a).unwrap(), b"hell");
        assert_eq!(io.injected_errors(), 1, "intent is still counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = StorageFaultPlan::seeded(42, 16, 3);
        let b = StorageFaultPlan::seeded(42, 16, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = StorageFaultPlan::seeded(43, 16, 3);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }
}
