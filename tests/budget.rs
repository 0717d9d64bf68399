//! Budget inertness of the fused image kernel: a live-node budget that
//! trips in the middle of a saturation traversal — inside the cube
//! substitution that fires each transition — stops the run with a sound
//! checkpoint, and lifting the budget resumes to the scratch verdict and
//! state count. This binary arms no failpoints, so it cannot see (or
//! leak) faults armed by other suites.

use std::path::PathBuf;

use stgcheck::core::{
    verify, verify_persistent, BudgetSpec, EngineKind, PersistOptions, ResourceError, VerifyOptions,
};
use stgcheck::stg::gen;

/// A fresh per-test scratch directory.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stgcheck-budget-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn node_budget_trip_in_saturation_resumes_to_the_scratch_verdict() {
    let stg = gen::master_read(5);
    let base = tmp("saturation-node-trip");
    let mut opts = VerifyOptions::default();
    opts.engine.kind = EngineKind::Saturation;
    let scratch = verify(&stg, opts).unwrap();
    let peak = scratch.traversal.peak_nodes;

    let mut tripped_in_traversal = 0;
    for percent in [40, 60, 80, 95] {
        let limit = peak * percent / 100;
        let tag = limit.to_string();
        let ck_path = base.join(format!("ck-{tag}.bin"));
        let mut budgeted = opts;
        budgeted.budget = BudgetSpec { max_nodes: limit, ..BudgetSpec::default() };
        let persist = PersistOptions {
            checkpoint: Some(ck_path.clone()),
            checkpoint_every: 1,
            ..PersistOptions::default()
        };
        let run = verify_persistent(&stg, budgeted, &persist).unwrap();
        let reason = run
            .exhausted()
            .unwrap_or_else(|| panic!("{tag}: a limit below the traversal peak must trip"));
        assert_eq!(reason, ResourceError::NodeBudget { limit }, "{tag}");
        // Below the traversal peak, the trip fell no later than the
        // traversal; a checkpoint means the loop had started, because
        // a trip before the loop writes none.
        if ck_path.exists() {
            tripped_in_traversal += 1;
        }
        let resume =
            PersistOptions { checkpoint: Some(ck_path), resume: true, ..PersistOptions::default() };
        let report = verify_persistent(&stg, opts, &resume)
            .unwrap()
            .into_report()
            .unwrap_or_else(|| panic!("{tag}: the unbudgeted resume must complete"));
        assert_eq!(report.verdict, scratch.verdict, "{tag}");
        assert_eq!(report.num_states, scratch.num_states, "{tag}");
    }
    assert!(tripped_in_traversal > 0, "no rung tripped inside the traversal");
    let _ = std::fs::remove_dir_all(&base);
}
