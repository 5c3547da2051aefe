//! Pins the failpoint hot-path contract: an unarmed [`FaultPlan`] and the
//! `None` path the sites take when a run carries no plan perform **zero
//! heap allocations** per check.
//!
//! The check uses a counting global allocator, so this file holds exactly
//! one `#[test]` — parallel tests in the same binary would share the
//! counter and turn the assertion into noise.

// The workspace denies unsafe code; implementing `GlobalAlloc` is the one
// place it cannot be avoided, and this allocator only counts and defers
// to `System`. Test-only — the shipped crates stay unsafe-free.
#![allow(unsafe_code)]

use cardir_faults::{sites, FaultAction, FaultPlan, Trigger};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn unarmed_checks_are_allocation_free() {
    let (allocs, plan) = allocations_during(FaultPlan::new);
    assert_eq!(allocs, 0, "FaultPlan::new() allocated");

    let (allocs, _) = allocations_during(|| {
        for _ in 0..1_000_000 {
            black_box(black_box(&plan).hit(sites::ENGINE_PAIR_COMPUTE));
        }
    });
    assert_eq!(allocs, 0, "unarmed hit allocated");

    let (allocs, _) = allocations_during(|| {
        for _ in 0..1_000_000 {
            let _ = black_box(black_box(&plan).step(sites::JOURNAL_APPEND));
        }
    });
    assert_eq!(allocs, 0, "unarmed step allocated");

    // A run that carries no plan: the sites' `Option` is `None`.
    let none: Option<&FaultPlan> = None;
    let (allocs, _) = allocations_during(|| {
        for _ in 0..1_000_000 {
            black_box(black_box(none).and_then(|p| p.hit(sites::ENGINE_CHUNK_CLAIM)));
            let _ = black_box(black_box(none).map_or(Ok(None), |p| p.step(sites::JOURNAL_APPEND)));
        }
    });
    assert_eq!(allocs, 0, "the no-plan path allocated");

    // Disarming the last armed site restores the allocation-free path.
    plan.arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("e".into()),
        Trigger::Always,
    );
    assert!(plan.hit(sites::ENGINE_PAIR_COMPUTE).is_some());
    plan.disarm(sites::ENGINE_PAIR_COMPUTE);
    let (allocs, _) = allocations_during(|| {
        for _ in 0..1_000_000 {
            black_box(black_box(&plan).hit(sites::ENGINE_PAIR_COMPUTE));
        }
    });
    assert_eq!(allocs, 0, "hit on a disarmed plan allocated");
}
