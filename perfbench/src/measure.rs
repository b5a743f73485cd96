//! Untraced runs: the end-to-end metrics of each workload.

use crate::calib::HostSpeed;
use crate::mix::{run_mix, Class, HITS_PER_CYCLE, MIN_CYCLES};
use crate::report::Report;
use crate::setup::{
    config, f1, peak_rss_bytes, read_csv_lake, repeated_setup, reset_peak_rss, scale_lake,
    served_lake, ScaleInput, THREADS, WARM_SEED,
};
use crate::stats::{judge_result, median, Tally};
use crate::{Args, Workload};
use matelda_core::{DetectionResult, Durability, Matelda, OutOfCoreOpts};
use matelda_table::{diff_lakes, CellMask, Lake, Oracle, StdFs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Detections per untraced `large-*` run, at the least. One detection's
/// time varies by a tenth or more with the shared host's load; the
/// median of several varies less.
pub const MIN_DETECTIONS: usize = 2;

/// Times in reference seconds (see [`crate::calib`]): each wall time in
/// `wall` times its factor in `factors`.
fn reference_secs(wall: &[f64], factors: &[f64]) -> Vec<f64> {
    wall.iter().zip(factors).map(|(w, f)| w * f).collect()
}

/// `large-inmem` and `large-ooc`: a closed loop of one caller running
/// whole detections of the `large-ci` lake, one after another, as many
/// as fit in `--seconds` and at least [`MIN_DETECTIONS`].
pub fn large(args: &Args, work: &Path) -> Result<Report, String> {
    let ooc = args.workload == Workload::LargeOoc;
    let mut speed = HostSpeed::new(THREADS);
    let before_setup = speed.sample();
    let ((input, lake), setup_times) = repeated_setup(work, |dir| {
        let input = scale_lake(args.seed, dir, ooc)?;
        let lake = if ooc { None } else { Some(read_csv_lake(&input.csv_dir)?) };
        Ok((input, lake))
    })?;
    let mut before = speed.sample();
    let setup_factor = speed.factor(before_setup, before);
    let matelda = Matelda::new(config(0, THREADS));
    let spill_dir = work.join("spill");
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let mut factors = Vec::new();
    let mut peaks = Vec::new();
    let mut reference: Option<u64> = None;
    let mut predicted: Option<CellMask> = None;

    let start = Instant::now();
    let mut last = 0.0;
    while (tally.attempted as usize) < MIN_DETECTIONS
        || start.elapsed().as_secs_f64() + last <= args.seconds
    {
        let _ = std::fs::remove_dir_all(&spill_dir);
        let mut oracle = Oracle::new(&input.on_disk.errors);
        reset_peak_rss();
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| match &lake {
            Some(lake) => Ok(matelda.detect(lake, &mut oracle, input.budget())),
            None => detect_ooc(&matelda, &input, &spill_dir, &mut oracle),
        }));
        let secs = t0.elapsed().as_secs_f64();
        last = secs;
        peaks.push(peak_rss_bytes() as f64 / 1e6);
        let after = speed.sample();
        let factor = speed.factor(before, after);
        before = after;
        let judged = match run {
            Ok(Ok(result)) => judge_result(&result, reference).map(|d| (d, result)),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("detection panicked".into()),
        };
        if let Some((digest, result)) = tally.record(judged) {
            times.push(secs);
            factors.push(factor);
            reference = Some(digest);
            predicted.get_or_insert(result.predicted);
        }
    }
    let _ = std::fs::remove_dir_all(&spill_dir);

    let f1 = predicted.as_ref().map_or(0.0, |p| f1(p, &input.on_disk.errors));
    let detect = reference_secs(&times, &factors);
    let mut report = Report::new(tally);
    let setup = median(&setup_times);
    report.metric("setup_s", setup * setup_factor, "s", setup_times.len());
    report.metric("detect_s", median(&detect), "s", detect.len());
    report.metric("peak_rss_mb", median(&peaks), "MB", peaks.len());
    report.metric("f1", f1, "ratio", 1);
    // One caller in a closed loop completes one detection per detection
    // time; like detect_s, the rate is the median over the run.
    let rates: Vec<f64> = detect.iter().map(|t| 1.0 / t).collect();
    report.metric("req_per_s", median(&rates), "1/s", rates.len());
    report.note(format!("wall: setup {setup:.6} s, detect {:.6} s", median(&times)));
    report.note(format!("reference kernel, s a pass, per sample: {:.6?}", speed.samples()));
    Ok(report)
}

/// One out-of-core detection, with the streaming bookkeeping checked.
fn detect_ooc(
    matelda: &Matelda,
    input: &ScaleInput,
    spill_dir: &Path,
    oracle: &mut Oracle<'_>,
) -> Result<DetectionResult, String> {
    let opts = OutOfCoreOpts::new(spill_dir);
    let run = matelda
        .detect_out_of_core(&StdFs, &input.columnar_dir, oracle, input.budget(), &opts)
        .map_err(|e| format!("out-of-core detection failed: {e}"))?;
    let n = &input.on_disk;
    if run.cells != n.n_cells || run.spill_count != n.n_tables {
        return Err(format!(
            "streamed {} cells into {} spills, expected {} and {}",
            run.cells, run.spill_count, n.n_cells, n.n_tables
        ));
    }
    Ok(run.result)
}

/// `wide-serve`: the closed-loop request mix against a daemon serving
/// DGov-1K.
pub fn wide_serve(args: &Args, work: &Path) -> Result<Report, String> {
    let mut speed = HostSpeed::new(THREADS);
    let before_setup = speed.sample();
    let (served, setup_times) = repeated_setup(work, |dir| served_lake(args.seed, dir))?;
    let before_mix = speed.sample();
    let mut tally = Tally::default();
    let mix = run_mix(&served, args.seconds, MIN_CYCLES, HITS_PER_CYCLE, &mut tally);
    let after_mix = speed.sample();
    let peaks: Vec<f64> = mix.cycle_peaks.iter().map(|&b| b as f64 / 1e6).collect();

    // The served warm-up digest must equal a direct durable run of the
    // same job on the same files; its mask gives the served F1.
    let direct = direct_durable(&served.dirty_dir, &served.clean_dir, WARM_SEED, work)?;
    let direct = tally.record(judge_result(&direct, Some(served.warm_digest)).map(|_| direct));
    let f1 = direct.map_or(0.0, |d| f1(&d.predicted, &served.lake.errors));
    drop(served);

    let cold_secs = mix.latencies(Class::Cold);
    let cold = median(&cold_secs);
    let rate = mix.completed() as f64 / mix.secs;
    let mix_factor = speed.factor(before_mix, after_mix);
    let mut report = Report::new(tally);
    let setup = median(&setup_times);
    let setup_factor = speed.factor(before_setup, before_mix);
    report.metric("setup_s", setup * setup_factor, "s", setup_times.len());
    report.metric("detect_s", cold * mix_factor, "s", cold_secs.len());
    report.metric("peak_rss_mb", median(&peaks), "MB", peaks.len());
    report.metric("f1", f1, "ratio", 1);
    report.metric("req_per_s", rate / mix_factor, "1/s", mix.completed());
    report.note(format!("wall: setup {setup:.6} s, cold {cold:.6} s, {rate:.6} requests/s"));
    report.note(format!("reference kernel, s a pass, per sample: {:.6?}", speed.samples()));
    Ok(report)
}

/// A direct `detect_durable` of a served job into a fresh checkpoint
/// directory: the lake and truth are read back from the served files,
/// exactly as the daemon reads them.
fn direct_durable(
    dirty_dir: &Path,
    clean_dir: &Path,
    seed: u64,
    work: &Path,
) -> Result<DetectionResult, String> {
    let dirty: Lake = read_csv_lake(dirty_dir)?;
    let truth = diff_lakes(&dirty, &read_csv_lake(clean_dir)?);
    let ckpt = work.join(format!("direct-ckpt-{seed}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    let durability = Durability { checkpoint_dir: Some(ckpt.clone()), ..Durability::default() };
    let budget = crate::setup::LABELS_PER_TABLE * dirty.n_tables();
    let result = Matelda::new(config(seed, THREADS))
        .detect_durable(&dirty, &mut Oracle::new(&truth), budget, &durability)
        .map_err(|e| format!("direct detect_durable failed: {e}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    result
}
