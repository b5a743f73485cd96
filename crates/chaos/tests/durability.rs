//! The in-process crash-recovery suite: acceptance tests for the
//! durability tentpole (ISSUE 3).
//!
//! Contract under test — resumed output is bit-identical to an
//! uninterrupted run:
//!
//! 1. a run killed at *every* checkpoint boundary (simulated by
//!    truncating the snapshot set to each prefix) resumes to the exact
//!    `DetectionResult` of a clean run,
//! 2. the same holds when the interruption is a live mid-stage panic
//!    and when the resume happens at a *different* thread count,
//! 3. a corrupted snapshot (torn or garbled) is rejected with a
//!    structured error, never silently reused,
//! 4. a checkpoint directory written under different determinism inputs
//!    is rejected with a mismatch naming the differing field.

use matelda_chaos::{corrupt_bytes, Corruption, FaultPlan, FaultPoints, STAGE_NAMES};
use matelda_core::{
    CkptError, DetectionResult, Durability, Executor, Labeler, Matelda, MateldaConfig, Oracle,
};
use matelda_lakegen::QuintetLake;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("matelda_durability_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(threads: usize) -> MateldaConfig {
    MateldaConfig { threads, ..Default::default() }
}

/// A pipeline whose `threads`-wide executor panics at `(stage, index)`.
fn crashing(threads: usize, stage: &str, index: usize) -> Matelda {
    let faults = FaultPoints::new([(stage.to_string(), index)]);
    Matelda::new(config(threads)).with_executor(Executor::new(threads).with_faults(faults))
}

fn durability(dir: &Path, resume: bool) -> Durability {
    Durability { checkpoint_dir: Some(dir.to_path_buf()), resume, ..Default::default() }
}

/// Full-result equality, minus stage wall times (restored stages report
/// the original run's timings, which legitimately differ).
fn assert_same_result(a: &DetectionResult, b: &DetectionResult, what: &str) {
    assert_eq!(a.predicted, b.predicted, "{what}: predictions diverge");
    assert_eq!(a.labels_used, b.labels_used, "{what}: labels_used diverge");
    assert_eq!(a.n_domain_folds, b.n_domain_folds, "{what}: n_domain_folds diverge");
    assert_eq!(a.n_quality_folds, b.n_quality_folds, "{what}: n_quality_folds diverge");
    assert_eq!(a.quarantine, b.quarantine, "{what}: quarantine diverges");
    assert_eq!(a.report.faults.len(), b.report.faults.len(), "{what}: fault logs diverge");
    let meta = |r: &DetectionResult| -> Vec<(String, u64, Vec<(String, f64)>)> {
        r.report.stages.iter().map(|s| (s.name.clone(), s.items, s.metrics.clone())).collect()
    };
    assert_eq!(meta(a), meta(b), "{what}: stage reports diverge");
}

#[test]
fn resume_from_every_stage_boundary_is_bit_identical() {
    let budget = 20;
    let gl = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(21);
    let pipeline = Matelda::new(config(2));

    // One clean, fully-checkpointed reference run.
    let master = tmp_dir("boundary_master");
    let mut oracle = Oracle::new(&gl.errors);
    let clean = pipeline
        .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&master, false))
        .unwrap();

    // "Crashed after stage k" == the checkpoint directory holds the
    // manifest plus the first k snapshots; k = 0 is a crash before any
    // boundary, k = 6 a crash after the last one.
    for k in 0..=STAGE_NAMES.len() {
        let dir = tmp_dir(&format!("boundary_{k}"));
        fs::create_dir_all(&dir).unwrap();
        fs::copy(master.join("manifest.ckpt"), dir.join("manifest.ckpt")).unwrap();
        for stage in &STAGE_NAMES[..k] {
            fs::copy(master.join(format!("{stage}.ckpt")), dir.join(format!("{stage}.ckpt")))
                .unwrap();
        }
        let mut oracle = Oracle::new(&gl.errors);
        let resumed = pipeline
            .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true))
            .unwrap();
        assert_same_result(&resumed, &clean, &format!("boundary {k}"));
        // Resume recommitted the missing snapshots.
        for stage in STAGE_NAMES {
            assert!(dir.join(format!("{stage}.ckpt")).is_file(), "boundary {k}: {stage}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&master).unwrap();
}

#[test]
fn mid_stage_panic_then_resume_is_bit_identical_across_thread_counts() {
    let budget = 20;
    let gl = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(22);

    // The uninterrupted reference (no checkpointing at all).
    let clean = {
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(config(1)).detect(&gl.dirty, &mut oracle, budget)
    };

    // Interrupt a 4-thread checkpointed run with a live panic in the
    // quality-folds stage (Fail policy: first fault aborts the run,
    // leaving the embed/featurize/domain_folds snapshots committed).
    let dir = tmp_dir("panic_resume");
    {
        let mut oracle = Oracle::new(&gl.errors);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crashing(4, "quality_folds", 0).detect_durable(
                &gl.dirty,
                &mut oracle,
                budget,
                &durability(&dir, false),
            )
        }));
        assert!(crashed.is_err(), "armed faultpoint must abort the run");
    }
    for stage in ["embed", "featurize", "domain_folds"] {
        assert!(dir.join(format!("{stage}.ckpt")).is_file(), "{stage} snapshot must survive");
    }
    assert!(!dir.join("quality_folds.ckpt").exists(), "crashed stage must not have committed");

    // Resume at 1, 2 and 4 threads: every result is bit-identical to the
    // clean single-thread run (thread count is outside the manifest).
    for threads in [1, 2, 4] {
        let resume_dir = tmp_dir(&format!("panic_resume_t{threads}"));
        fs::create_dir_all(&resume_dir).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            fs::copy(&p, resume_dir.join(p.file_name().unwrap())).unwrap();
        }
        let mut oracle = Oracle::new(&gl.errors);
        let resumed = Matelda::new(config(threads))
            .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&resume_dir, true))
            .unwrap();
        assert_same_result(&resumed, &clean, &format!("threads {threads}"));
        fs::remove_dir_all(&resume_dir).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupt_after_final_boundary_resumes_without_recomputation() {
    let budget = 15;
    let gl = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(23);
    let dir = tmp_dir("finalize");
    let pipeline = Matelda::new(config(2));

    // Killed between the last snapshot commit and result assembly: the
    // `finalize` faultpoint fires after every stage checkpointed.
    {
        let mut oracle = Oracle::new(&gl.errors);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crashing(2, "finalize", 0).detect_durable(
                &gl.dirty,
                &mut oracle,
                budget,
                &durability(&dir, false),
            )
        }));
        assert!(crashed.is_err());
    }
    // The resume and reference runs carry no fault plan.
    // Resume restores all six stages; the labeler is never consulted.
    let mut oracle = Oracle::new(&gl.errors);
    let resumed =
        pipeline.detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true)).unwrap();
    assert_eq!(oracle.labels_used(), 0, "fully-restored resume must not spend labels");

    let mut oracle = Oracle::new(&gl.errors);
    let clean = pipeline.detect(&gl.dirty, &mut oracle, budget);
    assert_same_result(&resumed, &clean, "finalize");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_or_garbled_snapshot_is_rejected_with_a_structured_error() {
    let budget = 15;
    let gl = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(24);
    let dir = tmp_dir("corrupt");
    let pipeline = Matelda::new(config(2));
    let mut oracle = Oracle::new(&gl.errors);
    pipeline.detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, false)).unwrap();

    let victim = dir.join("featurize.ckpt");
    let intact = fs::read(&victim).unwrap();
    let mut rng = StdRng::seed_from_u64(FaultPlan::new(7).seed);
    for kind in [Corruption::Truncate, Corruption::Garble] {
        fs::write(&victim, corrupt_bytes(&intact, kind, &mut rng)).unwrap();
        let mut oracle = Oracle::new(&gl.errors);
        let err = pipeline
            .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true))
            .unwrap_err();
        assert!(
            matches!(err, CkptError::Corrupt { .. }),
            "{kind:?} must surface as Corrupt, got: {err}"
        );
        assert_eq!(oracle.labels_used(), 0, "{kind:?}: no labels spent before rejection");
    }

    // Restore the intact snapshot: resume works again.
    fs::write(&victim, &intact).unwrap();
    let mut oracle = Oracle::new(&gl.errors);
    pipeline.detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true)).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_from_different_inputs_are_rejected_by_name() {
    let budget = 15;
    let gl = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(25);
    let dir = tmp_dir("foreign");
    let mut oracle = Oracle::new(&gl.errors);
    Matelda::new(config(2))
        .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, false))
        .unwrap();

    // A different seed is a seed mismatch …
    let mut oracle = Oracle::new(&gl.errors);
    let err = Matelda::new(MateldaConfig { seed: 1, ..config(2) })
        .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true))
        .unwrap_err();
    assert!(matches!(&err, CkptError::Mismatch { what, .. } if *what == "seed"), "got: {err}");

    // … a different strategy is a config mismatch …
    let mut oracle = Oracle::new(&gl.errors);
    let cfg =
        MateldaConfig { training: matelda_core::TrainingStrategy::PerDomainFold, ..config(2) };
    let err = Matelda::new(cfg)
        .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true))
        .unwrap_err();
    assert!(matches!(&err, CkptError::Mismatch { what, .. } if *what == "config"), "got: {err}");

    // … but a different thread count resumes cleanly.
    let mut oracle = Oracle::new(&gl.errors);
    Matelda::new(config(4))
        .detect_durable(&gl.dirty, &mut oracle, budget, &durability(&dir, true))
        .unwrap();
    fs::remove_dir_all(&dir).unwrap();
}
