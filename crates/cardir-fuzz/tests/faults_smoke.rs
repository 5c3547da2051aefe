//! Smoke test of the `--faults` check family: a block of seeded
//! fault-injection iterations must find no divergences. Each check
//! carries its own fault plan, so nothing is left armed for anything
//! else in the process.

#[test]
fn seeded_fault_block_is_divergence_free() {
    let report = cardir_fuzz::run_faults(1, 12);
    assert_eq!(report.iterations, 12);
    assert!(
        report.divergences.is_empty(),
        "unexpected fault-injection divergences:\n{}",
        report
            .divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
