//! The storage fault-matrix audit (ISSUE 8 tentpole): every injectable
//! I/O fault site, every errno kind, at 1/2/4 threads — each cell must
//! end in one of exactly two outcomes:
//!
//! * `Ok` with the clean run's bit-identical digest (possibly marked
//!   degraded: the fault cost durability, never correctness), or
//! * a structured `CkptError` under `DurabilityPolicy::Fail`.
//!
//! Never a panic. Never a silently wrong digest. The site list is not
//! guessed: a [`Vfs::recording`] dry run counts the exact number of
//! storage operations a fresh durable run performs, and the sweep
//! enumerates all of them.

use matelda_chaos::{FaultKind, FaultPlan, InjectAt, Vfs, IO_FAULT_KINDS};
use matelda_core::{CkptError, Durability, DurabilityPolicy, Matelda, MateldaConfig, Oracle};
use matelda_lakegen::QuintetLake;
use std::fs;
use std::path::{Path, PathBuf};

const BUDGET: usize = 20;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matelda_io_faults_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(threads: usize) -> MateldaConfig {
    MateldaConfig { threads, ..Default::default() }
}

fn durability(dir: &Path, resume: bool, policy: DurabilityPolicy, vfs: Vfs) -> Durability {
    Durability { checkpoint_dir: Some(dir.to_path_buf()), resume, policy, vfs }
}

/// One durable run over `gl` with the given storage handle; panics in
/// the pipeline would propagate — their absence *is* the audit.
fn run(
    gl: &matelda_lakegen::GeneratedLake,
    threads: usize,
    dir: &Path,
    resume: bool,
    policy: DurabilityPolicy,
    vfs: Vfs,
) -> Result<matelda_core::DetectionResult, CkptError> {
    let mut oracle = Oracle::new(&gl.errors);
    Matelda::new(config(threads)).detect_durable(
        &gl.dirty,
        &mut oracle,
        BUDGET,
        &durability(dir, resume, policy, vfs),
    )
}

#[test]
fn every_fault_site_yields_the_clean_digest_or_an_explicit_error() {
    let gl = QuintetLake { rows_per_table: 15, error_rate: 0.1 }.generate(51);

    // The clean digest (no durability at all) — the bit-identity bar
    // every faulted cell must clear.
    let clean = {
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(config(1)).detect(&gl.dirty, &mut oracle, BUDGET).digest()
    };

    // Dry run through a recording handle: the authoritative site count.
    let recorder = Vfs::recording();
    let dir = tmp_dir("recording");
    run(&gl, 1, &dir, false, DurabilityPolicy::Fail, recorder.clone()).unwrap();
    let n_ops = recorder.op_count();
    fs::remove_dir_all(&dir).unwrap();
    assert!(n_ops > 0, "a durable run must perform storage operations");

    // The matrix under Degrade: every site sees every fault kind at one
    // thread, and every site runs again at 2 and 4 threads with the
    // kind rotating per site (thread count never changes what a fault
    // can corrupt — the rotation keeps full kind coverage across the
    // sweep without cubing the run count). Whatever the filesystem
    // does, the answer carries the clean bits.
    let check = |site: u64, kind: FaultKind, threads: usize| {
        let cell = format!("site {site}, {kind:?}, {threads} thread(s)");
        let dir = tmp_dir("cell");
        let inj = InjectAt::new(site, kind);
        let result = run(
            &gl,
            threads,
            &dir,
            false,
            DurabilityPolicy::Degrade,
            Vfs::with_injector(inj.clone()),
        )
        .unwrap_or_else(|e| panic!("{cell}: Degrade must still answer, got {e}"));
        assert_eq!(inj.fired(), 1, "{cell}: the fault must actually fire");
        assert_eq!(result.digest(), clean, "{cell}: digest diverged");
        let _ = fs::remove_dir_all(&dir);
    };
    for site in 0..n_ops {
        for kind in IO_FAULT_KINDS {
            check(site, kind, 1);
        }
        for (i, threads) in [2usize, 4].into_iter().enumerate() {
            check(site, IO_FAULT_KINDS[(site as usize + i) % IO_FAULT_KINDS.len()], threads);
        }
    }
}

#[test]
fn strict_policy_turns_every_hard_fault_into_a_structured_error() {
    let gl = QuintetLake { rows_per_table: 15, error_rate: 0.1 }.generate(51);

    let recorder = Vfs::recording();
    let dir = tmp_dir("strict_recording");
    run(&gl, 1, &dir, false, DurabilityPolicy::Fail, recorder.clone()).unwrap();
    let n_ops = recorder.op_count();
    fs::remove_dir_all(&dir).unwrap();

    // Spot-check the strict policy across the run: first, middle and
    // last commit sites. Dir-fsync sites are best-effort by contract
    // (observable, not fatal), so probe with a kind that hits the
    // rename instead on those: every Errno cell must either fail with
    // CkptError::Io or — only for a best-effort site — still succeed.
    for site in [0, n_ops / 2, n_ops - 1] {
        let dir = tmp_dir("strict_cell");
        let inj = InjectAt::new(site, FaultKind::Errno(std::io::ErrorKind::StorageFull));
        let outcome =
            run(&gl, 2, &dir, false, DurabilityPolicy::Fail, Vfs::with_injector(inj.clone()));
        assert_eq!(inj.fired(), 1, "site {site}: the fault must fire");
        match outcome {
            Err(CkptError::Io { .. }) => {}
            Ok(result) => assert!(
                !result.durability_degraded,
                "site {site}: Fail policy must never silently degrade"
            ),
            Err(other) => panic!("site {site}: expected Io, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_degraded_run_resumes_cleanly_after_the_storage_recovers() {
    let gl = QuintetLake { rows_per_table: 15, error_rate: 0.1 }.generate(52);
    let clean = {
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(config(2)).detect(&gl.dirty, &mut oracle, BUDGET).digest()
    };

    // ENOSPC partway through the run: some snapshots committed, then
    // the disk filled. The run degrades but answers with clean bits.
    // The site is the penultimate operation — the last commit's rename,
    // a hard fault by construction (the final op is the best-effort
    // dir-fsync) — found by counting, not guessed.
    let recorder = Vfs::recording();
    let sizing = tmp_dir("recover_sizing");
    run(&gl, 1, &sizing, false, DurabilityPolicy::Fail, recorder.clone()).unwrap();
    let _ = fs::remove_dir_all(&sizing);
    let dir = tmp_dir("recover");
    let inj =
        InjectAt::new(recorder.op_count() - 2, FaultKind::Errno(std::io::ErrorKind::StorageFull));
    let degraded =
        run(&gl, 2, &dir, false, DurabilityPolicy::Degrade, Vfs::with_injector(inj.clone()))
            .unwrap();
    assert_eq!(inj.fired(), 1);
    assert!(degraded.durability_degraded, "a mid-run ENOSPC must mark the run degraded");
    assert_eq!(degraded.digest(), clean);

    // The disk recovers (real I/O again): a resume over the partial
    // snapshot set restores what committed, re-runs the rest, and lands
    // on the same bits — the degraded run's leftovers are a valid
    // frontier, not poison.
    let resumed = run(&gl, 4, &dir, true, DurabilityPolicy::Fail, Vfs::real()).unwrap();
    assert!(!resumed.durability_degraded);
    assert_eq!(resumed.digest(), clean, "resume after recovery must be bit-identical");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_seeded_io_plan_is_reproducible_and_in_range() {
    let plan = FaultPlan::new(77);
    assert_eq!(plan.io_fault("audit", 35), plan.io_fault("audit", 35), "same seed, same fault");
    assert_ne!(
        plan.io_fault("audit", 1_000_000),
        FaultPlan::new(78).io_fault("audit", 1_000_000),
        "different seeds decorrelate"
    );
    for n_ops in [1u64, 7, 35] {
        let (at, _) = plan.io_fault(&format!("range:{n_ops}"), n_ops);
        assert!(at < n_ops, "site {at} out of range 0..{n_ops}");
    }
}
