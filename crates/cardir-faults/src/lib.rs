//! Deterministic failpoint injection — standard library only, like
//! everything else in the tree.
//!
//! A **failpoint** is a named site compiled into production code
//! (`engine.pair.compute`, `xml.write.flush`, …) where a fault can be
//! injected on demand: a panic, an error, added latency, or a short
//! write. A [`FaultPlan`] holds the armed sites. The code under test
//! carries the plan it obeys as an `Option`: `RunPolicy::faults` for the
//! engine, `StoreOptions::faults` for the relation journal, an argument
//! for the XML persistence layer. An unarmed run pays one `None` branch
//! per site, so sites stay in release builds, and two runs under
//! different plans never see each other's faults — tests that arm
//! failpoints need no serialisation.
//!
//! # Example
//!
//! ```
//! use cardir_faults::{FaultAction, FaultPlan, Trigger};
//!
//! // Nothing armed: the site is a no-op check.
//! let plan = FaultPlan::new();
//! assert_eq!(plan.hit("doc.example"), None);
//!
//! // Arm the site to error on its first two hits, then pass.
//! plan.arm("doc.example", FaultAction::Error("injected".into()), Trigger::Times(2));
//! assert!(plan.hit("doc.example").is_some());
//! assert!(plan.hit("doc.example").is_some());
//! assert_eq!(plan.hit("doc.example"), None);
//! assert_eq!(plan.fired("doc.example"), 2);
//!
//! plan.disarm("doc.example");
//! assert_eq!(plan.hit("doc.example"), None);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::Duration;

/// The catalogue of failpoint sites compiled into the workspace. Arm any
/// of these by name; the constant doubles as documentation of where the
/// site sits and which actions it honours.
pub mod sites {
    /// Per pair attempt, before any computation, inside the panic
    /// isolation boundary of the batch engine. Honours every action.
    pub const ENGINE_PAIR_COMPUTE: &str = "engine.pair.compute";
    /// Per work-queue chunk claim in a batch worker. Honours `Delay`
    /// (simulates a slow tenant); other actions are ignored.
    pub const ENGINE_CHUNK_CLAIM: &str = "engine.chunk.claim";
    /// Creating the temporary file of an atomic XML save. Honours
    /// `IoError`/`Error`, `Delay`, `Panic`.
    pub const XML_WRITE_CREATE: &str = "xml.write.create";
    /// Writing the XML payload. Honours `TornWrite` (short write, then
    /// fail), `IoError`/`Error`, `Delay`, `Panic` (kill mid-stream).
    pub const XML_WRITE_DATA: &str = "xml.write.data";
    /// Flushing/fsyncing the temporary file. Honours `IoError`/`Error`,
    /// `Delay`, `Panic`.
    pub const XML_WRITE_FLUSH: &str = "xml.write.flush";
    /// Copying the current primary to its `.bak` generation. Honours
    /// `IoError`/`Error`, `Delay`, `Panic`.
    pub const XML_WRITE_BACKUP: &str = "xml.write.backup";
    /// Renaming the temporary file over the primary. Honours
    /// `IoError`/`Error`, `Delay`, `Panic`.
    pub const XML_WRITE_RENAME: &str = "xml.write.rename";
    /// Reading the primary file on load. Honours `IoError`/`Error`
    /// (simulates an unreadable primary, forcing backup recovery),
    /// `Delay`, `Panic`.
    pub const XML_READ_PRIMARY: &str = "xml.read.primary";
    /// Appending one framed record to the relation journal. Honours
    /// `TornWrite` (a prefix of the frame reaches disk, then fail),
    /// `IoError`/`Error`, `Delay`, `Panic` (kill mid-append).
    pub const JOURNAL_APPEND: &str = "journal.append";
    /// Writing the compacted snapshot to the journal's temporary file.
    /// Honours `TornWrite`, `IoError`/`Error`, `Delay`, `Panic` (kill
    /// mid-compaction; the old journal must stay authoritative).
    pub const JOURNAL_COMPACT_WRITE: &str = "journal.compact.write";
    /// Renaming the compacted temporary over the journal. Honours
    /// `IoError`/`Error`, `Delay`, `Panic`.
    pub const JOURNAL_COMPACT_RENAME: &str = "journal.compact.rename";
    /// Opening/replaying the journal. Honours `IoError`/`Error` (an
    /// unreadable journal must degrade to a full recompute, never an
    /// abort), `Delay`, `Panic`.
    pub const JOURNAL_REPLAY: &str = "journal.replay";
}

/// What an armed failpoint injects when it fires. The site decides how to
/// interpret the action (a compute site maps `Error` to its own error
/// type, a write site maps `TornWrite` to a short write); actions a site
/// does not honour are ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message (exercises panic isolation / mid-stream
    /// kills).
    Panic(String),
    /// Fail with this message via the site's error path.
    Error(String),
    /// Sleep for this long, then proceed normally (slow tenant).
    Delay(Duration),
    /// Fail with an injected `std::io::Error`-shaped fault.
    IoError(String),
    /// Write only the first `n` bytes of the payload, then fail — a torn
    /// write. Only meaningful at write sites.
    TornWrite(usize),
}

/// When an armed site actually fires. Hit counting is per site and starts
/// at 1 on the first [`FaultPlan::hit`] after arming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first `n` hits, then pass.
    Times(u64),
    /// Fire on exactly the `n`-th hit (1-based), pass otherwise.
    Nth(u64),
    /// Fire on roughly `num/den` of hits, decided by a SplitMix64 stream
    /// seeded with `seed` — the same seed replays the same firing
    /// pattern exactly.
    Probability {
        /// Numerator of the firing ratio.
        num: u32,
        /// Denominator of the firing ratio (must be non-zero).
        den: u32,
        /// Seed of the deterministic decision stream.
        seed: u64,
    },
}

#[derive(Debug)]
struct SiteState {
    action: FaultAction,
    trigger: Trigger,
    /// SplitMix64 state for `Trigger::Probability`.
    rng: u64,
    hits: u64,
}

impl SiteState {
    fn should_fire(&mut self) -> bool {
        self.hits += 1;
        match self.trigger {
            Trigger::Always => true,
            Trigger::Times(n) => self.hits <= n,
            Trigger::Nth(n) => self.hits == n,
            Trigger::Probability { num, den, .. } => {
                debug_assert!(den > 0, "probability trigger with zero denominator");
                let r = splitmix64(&mut self.rng);
                den != 0 && (r % u64::from(den)) < u64::from(num)
            }
        }
    }
}

/// The tiny PRNG behind `Trigger::Probability` (same algorithm as
/// `cardir-workloads`, re-rolled here to keep this crate leaf-level).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The armed sites of one plan and what they fired.
#[derive(Debug, Default)]
struct PlanState {
    armed: HashMap<String, SiteState>,
    /// Faults injected per site. Unlike a [`SiteState`]'s hit count,
    /// these survive disarming and re-arming, so a whole run stays
    /// attributable site by site.
    fired: HashMap<String, u64>,
}

/// A set of armed failpoints, carried by the code under test. Share it
/// as an `Arc<FaultPlan>`: the test keeps one handle to arm, disarm and
/// read fire counts — also while a run that holds the other is going —
/// and every site reached through that run consults this plan alone.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Count of armed sites — the fast-path gate. When zero, [`hit`]
    /// returns without taking the lock. Stored (`Release`) under the lock
    /// after each arm or disarm, loaded (`Acquire`) by `hit`; the lock,
    /// not this pairing, publishes the armed sites themselves.
    ///
    /// [`hit`]: FaultPlan::hit
    armed_count: AtomicUsize,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// An empty plan: every site passes. Allocates nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn lock(&self) -> MutexGuard<'_, PlanState> {
        // Every update leaves the maps valid, so a lock poisoned by a
        // panic under it (the zero-denominator debug assertion) is
        // recovered rather than failing every later site check.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` with an action and a trigger, replacing any previous
    /// arming of the same site (its trigger starts counting afresh).
    /// Arming a `Panic` installs the process-wide filter that keeps
    /// injected panics off stderr.
    pub fn arm(&self, site: &str, action: FaultAction, trigger: Trigger) {
        if matches!(action, FaultAction::Panic(_)) {
            install_panic_filter();
        }
        let rng = match trigger {
            Trigger::Probability { seed, .. } => seed,
            _ => 0,
        };
        let mut state = self.lock();
        state.armed.insert(
            site.to_string(),
            SiteState {
                action,
                trigger,
                rng,
                hits: 0,
            },
        );
        self.armed_count.store(state.armed.len(), Ordering::Release);
    }

    /// Disarms `site`; returns whether it was armed.
    pub fn disarm(&self, site: &str) -> bool {
        let mut state = self.lock();
        let removed = state.armed.remove(site).is_some();
        self.armed_count.store(state.armed.len(), Ordering::Release);
        removed
    }

    /// The failpoint check a site compiles in: `None` (the overwhelmingly
    /// common case — one atomic load) unless the site is armed *and* its
    /// trigger fires, in which case the action to inject is returned and
    /// the site's fire count is bumped.
    pub fn hit(&self, site: &str) -> Option<FaultAction> {
        if self.armed_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut guard = self.lock();
        let PlanState { armed, fired } = &mut *guard;
        let state = armed.get_mut(site)?;
        if !state.should_fire() {
            return None;
        }
        *fired.entry(site.to_string()).or_insert(0) += 1;
        Some(state.action.clone())
    }

    /// How many faults `site` has injected under this plan, across every
    /// arming of it.
    pub fn fired(&self, site: &str) -> u64 {
        self.lock().fired.get(site).copied().unwrap_or(0)
    }

    /// The check of a step that may be killed, failed, slowed or torn —
    /// one IO step of a save or journal write, or one pair computation.
    /// `Ok(None)` proceeds (a `Delay` sleeps first); `Ok(Some(n))` asks
    /// for a torn write of `n` bytes; `Err(message)` is an injected
    /// `Error` or `IoError`, which the caller maps into its own error
    /// type. An injected `Panic` unwinds from here, as a process killed
    /// mid-step would stop.
    pub fn step(&self, site: &str) -> Result<Option<usize>, String> {
        match self.hit(site) {
            Some(FaultAction::Panic(msg)) => panic!("{INJECTED_PANIC_PREFIX}{site}: {msg}"),
            Some(FaultAction::Error(msg)) | Some(FaultAction::IoError(msg)) => Err(msg),
            Some(FaultAction::TornWrite(n)) => Ok(Some(n)),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(None)
            }
            None => Ok(None),
        }
    }
}

/// How every injected panic's message starts; the panic filter drops
/// exactly these.
const INJECTED_PANIC_PREFIX: &str = "injected panic at ";

/// Installs, once per process, a panic hook that drops injected panics
/// and forwards every other panic to the hook it replaced. Fault-injection
/// runs deliberately fire hundreds of caught panics; without the filter
/// each one would print a `thread panicked` line, while a genuine
/// failure must still print its message.
fn install_panic_filter() {
    static FILTER: Once = Once::new();
    FILTER.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if !message.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
                previous(info);
            }
        }));
    });
}

/// Extracts a printable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unarmed_site_is_a_noop() {
        let plan = FaultPlan::new();
        assert_eq!(plan.hit("never.armed"), None);
        assert_eq!(plan.step("never.armed"), Ok(None));
        assert_eq!(plan.fired("never.armed"), 0);
    }

    #[test]
    fn times_trigger_fires_then_passes() {
        let plan = FaultPlan::new();
        plan.arm("t.times", FaultAction::Error("e".into()), Trigger::Times(2));
        assert!(plan.hit("t.times").is_some());
        assert!(plan.hit("t.times").is_some());
        assert_eq!(plan.hit("t.times"), None);
        assert_eq!(plan.hit("t.times"), None);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new();
        plan.arm("t.nth", FaultAction::Panic("boom".into()), Trigger::Nth(3));
        assert_eq!(plan.hit("t.nth"), None);
        assert_eq!(plan.hit("t.nth"), None);
        assert_eq!(plan.hit("t.nth"), Some(FaultAction::Panic("boom".into())));
        assert_eq!(plan.hit("t.nth"), None);
    }

    #[test]
    fn probability_trigger_is_seed_deterministic() {
        let pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new();
            plan.arm(
                "t.prob",
                FaultAction::Delay(Duration::ZERO),
                Trigger::Probability {
                    num: 1,
                    den: 3,
                    seed,
                },
            );
            (0..64).map(|_| plan.hit("t.prob").is_some()).collect()
        };
        let a = pattern(42);
        let b = pattern(42);
        let c = pattern(43);
        assert_eq!(a, b, "same seed must replay the same firing pattern");
        assert_ne!(a, c, "different seeds should diverge");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            fired > 0 && fired < 64,
            "1/3 probability fired {fired}/64 times"
        );
    }

    #[test]
    fn disarm_stops_firing_and_rearm_replaces() {
        let plan = FaultPlan::new();
        plan.arm("t.arm", FaultAction::Error("a".into()), Trigger::Always);
        assert!(plan.disarm("t.arm"));
        assert!(!plan.disarm("t.arm"), "already disarmed");
        assert_eq!(plan.hit("t.arm"), None);

        plan.arm("t.arm", FaultAction::Error("a".into()), Trigger::Always);
        plan.arm("t.arm", FaultAction::Error("b".into()), Trigger::Always);
        assert_eq!(plan.hit("t.arm"), Some(FaultAction::Error("b".into())));
    }

    #[test]
    fn fired_counts_per_site_across_rearming() {
        let plan = FaultPlan::new();
        plan.arm("t.fired", FaultAction::Error("e".into()), Trigger::Times(2));
        plan.arm("t.other", FaultAction::Error("e".into()), Trigger::Always);
        for _ in 0..4 {
            let _ = plan.hit("t.fired");
        }
        // Re-arming resets the trigger's own hit count but not the
        // plan's per-site tally.
        plan.arm(
            "t.fired",
            FaultAction::IoError("io".into()),
            Trigger::Times(1),
        );
        let _ = plan.hit("t.fired");
        plan.disarm("t.fired");
        let _ = plan.hit("t.fired");
        assert_eq!(plan.fired("t.fired"), 3);
        assert_eq!(plan.fired("t.other"), 0, "armed but never hit");
    }

    #[test]
    fn plans_do_not_share_sites() {
        let armed = FaultPlan::new();
        let other = FaultPlan::new();
        armed.arm("t.scoped", FaultAction::Error("e".into()), Trigger::Always);
        assert!(armed.hit("t.scoped").is_some());
        assert_eq!(other.hit("t.scoped"), None);
        assert_eq!(other.fired("t.scoped"), 0);
    }

    #[test]
    fn step_maps_every_action() {
        let plan = FaultPlan::new();
        plan.arm("t.err", FaultAction::Error("e".into()), Trigger::Always);
        plan.arm("t.io", FaultAction::IoError("io".into()), Trigger::Always);
        plan.arm("t.torn", FaultAction::TornWrite(7), Trigger::Always);
        plan.arm(
            "t.delay",
            FaultAction::Delay(Duration::ZERO),
            Trigger::Always,
        );
        plan.arm(
            "t.kill",
            FaultAction::Panic("killed".into()),
            Trigger::Always,
        );
        assert_eq!(plan.step("t.err"), Err("e".to_string()));
        assert_eq!(plan.step("t.io"), Err("io".to_string()));
        assert_eq!(plan.step("t.torn"), Ok(Some(7)));
        assert_eq!(plan.step("t.delay"), Ok(None));
        let payload = catch_unwind(AssertUnwindSafe(|| plan.step("t.kill"))).unwrap_err();
        assert_eq!(panic_message(payload), "injected panic at t.kill: killed");
        assert_eq!(plan.fired("t.kill"), 1);
    }

    #[test]
    fn panic_message_reads_both_payload_kinds() {
        let payload = catch_unwind(|| std::panic::panic_any("s")).unwrap_err();
        assert_eq!(panic_message(payload), "s");
        let payload = catch_unwind(|| std::panic::panic_any("s".to_string())).unwrap_err();
        assert_eq!(panic_message(payload), "s");
        let payload = catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(payload), "non-string panic payload");
    }
}
