//! Pins the panic filter that arming a `Panic` action installs: it drops
//! injected panics and forwards every other panic to the hook that was
//! set before it, so a genuine failure still prints its message.
//!
//! The panic hook is process-wide, so this file holds exactly one
//! `#[test]`.

use cardir_faults::{sites, FaultAction, FaultPlan, Trigger};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

static REACHED: AtomicUsize = AtomicUsize::new(0);

#[test]
fn injected_panics_are_swallowed_and_others_reach_the_previous_hook() {
    std::panic::set_hook(Box::new(|_| {
        REACHED.fetch_add(1, Ordering::SeqCst);
    }));

    let plan = FaultPlan::new();
    plan.arm(
        sites::JOURNAL_APPEND,
        FaultAction::Panic("killed".into()),
        Trigger::Always,
    );
    let injected = catch_unwind(AssertUnwindSafe(|| plan.step(sites::JOURNAL_APPEND)));
    assert!(injected.is_err(), "the armed step must panic");
    assert_eq!(
        REACHED.load(Ordering::SeqCst),
        0,
        "an injected panic reached the hook"
    );

    let plain = catch_unwind(|| panic!("a genuine failure"));
    assert!(plain.is_err());
    assert_eq!(
        REACHED.load(Ordering::SeqCst),
        1,
        "a plain panic must reach the hook"
    );

    // Arming a second panic does not stack a second filter.
    plan.arm(
        sites::JOURNAL_REPLAY,
        FaultAction::Panic("again".into()),
        Trigger::Always,
    );
    let plain = catch_unwind(|| panic!("another genuine failure"));
    assert!(plain.is_err());
    assert_eq!(REACHED.load(Ordering::SeqCst), 2);
    let _ = std::panic::take_hook();
}
