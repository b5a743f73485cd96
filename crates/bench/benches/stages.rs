//! Per-stage throughput of the staged pipeline engine at 1 vs N worker
//! threads, for the four parallel hot paths: per-table embedding,
//! per-table featurization, per-domain-fold mini-batch k-means and
//! per-column gradient-boosting training.
//!
//! Besides the criterion console output, the bench records raw
//! measurements (median seconds, items/s, speedup) into
//! `BENCH_stages.json` at the repository root, so the numbers are
//! machine-readable. Two threads is always measured under fixed
//! `secs_2t`/`items_per_sec_2t`/`speedup_2t` keys — the per-thread-count
//! baseline the gate's `--require-2t` clauses compare against — plus
//! the host's full parallelism when that differs from 2. The stage
//! outputs are bit-identical at 1/2/4/8 threads (asserted here as a
//! guard); only wall time may differ.

use criterion::{black_box, criterion_group, Criterion};
use matelda_core::{
    ClassifyStage, DomainFoldStage, Durability, EmbedStage, FeaturizeStage, LabelStage, Matelda,
    MateldaConfig, Oracle, QualityFoldStage, Stage, StageContext,
};
use matelda_lakegen::{GeneratedLake, QuintetLake};

const BUDGET: usize = 40;

fn bench_lake() -> GeneratedLake {
    let rows = match std::env::var("MATELDA_SCALE").unwrap_or_default().as_str() {
        "quick" => 40,
        "small" => 80,
        _ => 160,
    };
    QuintetLake { rows_per_table: rows, error_rate: 0.08 }.generate(1)
}

/// Runs the full staged pipeline at `threads`, returning per-stage wall
/// seconds and the flagged-cell count (for the determinism guard).
fn staged_run(lake: &GeneratedLake, threads: usize) -> (Vec<(String, f64, u64)>, usize, usize) {
    let cfg = MateldaConfig { threads, ..Default::default() };
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, BUDGET);
    let stages =
        result.report.stages.iter().map(|s| (s.name.clone(), s.wall_secs, s.items)).collect();
    (stages, result.predicted.count(), result.labels_used)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measures what fault isolation costs: the same per-table featurization
/// workload through `Executor::map` (no isolation) vs `Executor::try_map`
/// (one `catch_unwind` per item), single-threaded so per-item overhead is
/// not hidden by parallel slack. Returns (map_secs, try_map_secs).
fn fault_isolation_secs(lake: &GeneratedLake, reps: usize) -> (f64, f64) {
    let exec = matelda_exec::Executor::new(1);
    let spell = matelda_text::SpellChecker::english();
    let cfg = matelda_detect::FeatureConfig::default();
    let time = |isolated: bool| -> f64 {
        median(
            (0..reps)
                .map(|_| {
                    let start = std::time::Instant::now();
                    if isolated {
                        let r = exec.try_map("bench", &lake.dirty.tables, |_, t| {
                            matelda_detect::featurize_table(t, &spell, &cfg)
                        });
                        black_box(r);
                    } else {
                        let r = exec.map(&lake.dirty.tables, |_, t| {
                            matelda_detect::featurize_table(t, &spell, &cfg)
                        });
                        black_box(r);
                    }
                    start.elapsed().as_secs_f64()
                })
                .collect(),
        )
    };
    (time(false), time(true))
}

/// Rows per table of the lake the checkpoint overhead is measured on.
///
/// Deliberately larger than the per-stage bench lake: stage-level
/// durability exists for runs long enough that losing them hurts, so
/// its cost is quoted against a workload of that size. On a tiny lake
/// the fixed price of seven fsync'd commits (~tens of ms on ext4)
/// dwarfs a sub-100ms pipeline and says nothing about real overhead.
const CKPT_ROWS: usize = 1280;

/// Measures what durability costs: the full pipeline uncheckpointed vs
/// committing every stage snapshot (atomic tmp+fsync+rename), plus a
/// warm resume that restores all six stages from disk instead of
/// recomputing. Single-threaded so the I/O is not hidden by parallel
/// slack; plain/durable reps interleave so host drift cancels instead
/// of biasing one side. Returns (plain_secs, durable_secs, resume_secs).
fn checkpoint_secs(reps: usize) -> (f64, f64, f64) {
    let lake = QuintetLake { rows_per_table: CKPT_ROWS, error_rate: 0.08 }.generate(2);
    let dir = std::env::temp_dir().join(format!("matelda-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = Matelda::new(MateldaConfig { threads: 1, ..Default::default() });
    let run = |durability: Option<&Durability>| -> f64 {
        let mut oracle = Oracle::new(&lake.errors);
        let start = std::time::Instant::now();
        let result = match durability {
            Some(d) => pipeline
                .detect_durable(&lake.dirty, &mut oracle, BUDGET, d)
                .expect("durable bench run"),
            None => pipeline.detect(&lake.dirty, &mut oracle, BUDGET),
        };
        black_box(result);
        start.elapsed().as_secs_f64()
    };
    let write =
        Durability { checkpoint_dir: Some(dir.clone()), resume: false, ..Default::default() };
    let (mut plains, mut durables) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        plains.push(run(None));
        durables.push(run(Some(&write)));
    }
    // The snapshots of the last write run are still on disk: every
    // resume rep restores all six stages without recomputation.
    let resume =
        Durability { checkpoint_dir: Some(dir.clone()), resume: true, ..Default::default() };
    let resumed = median((0..reps).map(|_| run(Some(&resume))).collect());
    let _ = std::fs::remove_dir_all(&dir);
    (median(plains), median(durables), resumed)
}

/// Measures what observability costs: the full pipeline with tracing off
/// (a disabled handle — the shipped default) vs on (spans, events and
/// metrics recorded). Single-threaded, off/on reps interleaved so host
/// drift cancels. Returns (off_secs, on_secs, spans, events) with the
/// span/event counts of one traced run as a volume record.
fn observability_secs(lake: &GeneratedLake, reps: usize) -> (f64, f64, usize, usize) {
    let run = |obs: matelda_obs::Obs| -> f64 {
        let pipeline =
            Matelda::new(MateldaConfig { threads: 1, ..Default::default() }).with_obs(obs);
        let mut oracle = Oracle::new(&lake.errors);
        let start = std::time::Instant::now();
        let result = pipeline.detect(&lake.dirty, &mut oracle, BUDGET);
        black_box(result);
        start.elapsed().as_secs_f64()
    };
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        offs.push(run(matelda_obs::Obs::disabled()));
        ons.push(run(matelda_obs::Obs::enabled()));
    }
    let probe = matelda_obs::Obs::enabled();
    run(probe.clone());
    (median(offs), median(ons), probe.spans().len(), probe.events().len())
}

/// Measures what serving costs: a full durable detection requested
/// through a live `matelda-serve` daemon (loopback TCP, framing,
/// admission, registry lookup, memo-cache key derivation) vs the same
/// `detect_durable` called directly. A distinct seed per rep keeps every
/// run a fresh full pipeline — no memo hits, no stage restores — so the
/// delta is pure request overhead. Direct/served reps interleave so
/// host drift cancels. Returns (direct_secs, served_secs).
fn serve_secs(reps: usize) -> (f64, f64) {
    use matelda_serve::{request, serve, DetectJob, Request, Response, ServeOptions};
    let lake = bench_lake();
    let root = std::env::temp_dir().join(format!("matelda-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dirty_dir = root.join("dirty");
    let clean_dir = root.join("clean");
    matelda_table::write_lake_to_dir(&lake.dirty, &dirty_dir).expect("write dirty lake");
    matelda_table::write_lake_to_dir(&lake.clean, &clean_dir).expect("write clean lake");
    let handle =
        serve(ServeOptions { state_dir: root.join("state"), threads: 1, ..Default::default() })
            .expect("bench daemon");
    let addr = handle.addr();
    let template = DetectJob {
        dirty_dir: dirty_dir.to_str().unwrap().to_string(),
        clean_dir: clean_dir.to_str().unwrap().to_string(),
        budget: BUDGET as u64,
        seed: 999_999,
        variant: "standard".to_string(),
        deadline_ms: 0,
        fresh: true,
    };
    // Warm the registry and the page cache before timing anything.
    request(addr, &Request::Detect(template.clone())).expect("warm request");

    // The direct side works on the same from-disk parse the daemon's
    // registry holds, with the same derived truth, per-request tracing
    // and per-stage checkpointing — only the service layer differs.
    let opts = matelda_table::ReadOptions::strict();
    let (dirty_lake, _) = matelda_table::read_lake_from_dir_with(&dirty_dir, &opts).expect("dirty");
    let (clean_lake, _) = matelda_table::read_lake_from_dir_with(&clean_dir, &opts).expect("clean");
    let truth = matelda_table::diff_lakes(&dirty_lake, &clean_lake);
    let direct_run = |seed: u64| -> f64 {
        let cfg = MateldaConfig { threads: 1, seed, ..Default::default() };
        let durability = Durability {
            checkpoint_dir: Some(root.join(format!("direct-{seed}"))),
            resume: true,
            ..Default::default()
        };
        let mut oracle = Oracle::new(&truth);
        let pipeline = Matelda::new(cfg).with_obs(matelda_obs::Obs::enabled());
        let start = std::time::Instant::now();
        let result = pipeline
            .detect_durable(&dirty_lake, &mut oracle, BUDGET, &durability)
            .expect("direct durable run");
        black_box(result);
        start.elapsed().as_secs_f64()
    };
    let served_run = |seed: u64| -> f64 {
        let job = DetectJob { seed, ..template.clone() };
        let start = std::time::Instant::now();
        match request(addr, &Request::Detect(job)).expect("served run") {
            Response::Result(r) => black_box(r),
            other => panic!("bench request failed: {other:?}"),
        };
        start.elapsed().as_secs_f64()
    };
    let (mut directs, mut serveds) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let seed = 1_000 + rep as u64;
        directs.push(direct_run(seed));
        serveds.push(served_run(seed));
    }
    let _ = request(addr, &Request::Shutdown);
    handle.join();
    let _ = std::fs::remove_dir_all(&root);
    (median(directs), median(serveds))
}

/// Commits per timed storage rep and the payload size of each — enough
/// fsync'd commits that the seam's per-op cost would show against the
/// dominant I/O if it weren't near-zero.
const STORAGE_COMMITS: usize = 48;
const STORAGE_PAYLOAD: usize = 64 * 1024;

/// Measures what the VFS seam costs: `Vfs::real().write_atomic` (an
/// `Option` check and an atomic op-count bump per operation) vs the
/// identical tmp + fsync + rename + dir-fsync sequence hand-coded on
/// `std::fs`. Direct/seamed reps interleave so host drift cancels.
/// Returns (direct_secs, vfs_secs).
fn storage_secs(reps: usize) -> (f64, f64) {
    use std::io::Write as _;
    let dir = std::env::temp_dir().join(format!("matelda-bench-vfs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench storage dir");
    let payload = vec![0xA5u8; STORAGE_PAYLOAD];

    let direct_run = || -> f64 {
        let start = std::time::Instant::now();
        for i in 0..STORAGE_COMMITS {
            let tmp = dir.join(format!("direct-{i}.tmp"));
            let target = dir.join(format!("direct-{i}.bin"));
            let mut f = std::fs::File::create(&tmp).expect("create tmp");
            f.write_all(&payload).expect("write tmp");
            f.sync_all().expect("fsync tmp");
            std::fs::rename(&tmp, &target).expect("rename");
            if let Ok(d) = std::fs::File::open(&dir) {
                let _ = d.sync_all();
            }
        }
        start.elapsed().as_secs_f64()
    };
    let vfs = matelda_ckpt::Vfs::real();
    let vfs_run = || -> f64 {
        let start = std::time::Instant::now();
        for i in 0..STORAGE_COMMITS {
            vfs.write_atomic(&dir.join(format!("vfs-{i}.bin")), &payload).expect("vfs commit");
        }
        start.elapsed().as_secs_f64()
    };
    let (mut directs, mut vfss) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        directs.push(direct_run());
        vfss.push(vfs_run());
    }
    let _ = std::fs::remove_dir_all(&dir);
    (median(directs), median(vfss))
}

fn bench_stages(c: &mut Criterion) {
    let lake = bench_lake();
    let n_threads = std::thread::available_parallelism().map_or(4, |n| n.get()).max(2);

    // Criterion timings for the individual parallel hot paths.
    for threads in [1usize, n_threads] {
        let cfg = MateldaConfig { threads, ..Default::default() };
        let mut ctx = StageContext::new(&lake.dirty, &cfg);
        let embedded = EmbedStage::from_config(&cfg).run(&mut ctx, ());
        let domain = DomainFoldStage.run(&mut ctx, &embedded);
        let featurized = FeaturizeStage::default().run(&mut ctx, ());
        let quality = QualityFoldStage { budget: BUDGET }.run(&mut ctx, (&domain, &featurized));
        let mut oracle = Oracle::new(&lake.errors);
        let propagated = LabelStage { labeler: &mut oracle, budget: BUDGET }
            .run(&mut ctx, (&quality, &featurized));

        c.bench_function(&format!("embed/t{threads}"), |b| {
            b.iter(|| EmbedStage::from_config(&cfg).run(black_box(&mut ctx), ()))
        });
        c.bench_function(&format!("featurize/t{threads}"), |b| {
            b.iter(|| FeaturizeStage::default().run(black_box(&mut ctx), ()))
        });
        c.bench_function(&format!("quality_folds/t{threads}"), |b| {
            b.iter(|| QualityFoldStage { budget: BUDGET }.run(&mut ctx, (&domain, &featurized)))
        });
        c.bench_function(&format!("classify/t{threads}"), |b| {
            b.iter(|| ClassifyStage.run(&mut ctx, (&domain, &featurized, &propagated)))
        });
    }
}

/// End-to-end per-stage measurement and the JSON record.
fn emit_json() {
    let lake = bench_lake();
    let n_threads = std::thread::available_parallelism().map_or(4, |n| n.get()).max(2);
    let reps = 3;

    // Determinism guard across the pool's whole operating range: the
    // flagged mask and label spend must be identical at 1/2/4/8 threads
    // (the pool's work-stealing schedule may differ; results may not).
    let (_, flagged_1, labels_1) = staged_run(&lake, 1);
    for threads in [2usize, 4, 8] {
        let (_, flagged_t, labels_t) = staged_run(&lake, threads);
        assert_eq!(flagged_1, flagged_t, "results must not depend on thread count ({threads}t)");
        assert_eq!(labels_1, labels_t, "label spend must not depend on thread count ({threads}t)");
    }

    let measure = |threads: usize| -> Vec<(String, f64, u64)> {
        let runs: Vec<Vec<(String, f64, u64)>> =
            (0..reps).map(|_| staged_run(&lake, threads).0).collect();
        (0..runs[0].len())
            .map(|si| {
                let name = runs[0][si].0.clone();
                let secs = median(runs.iter().map(|r| r[si].1).collect());
                (name, secs, runs[0][si].2)
            })
            .collect()
    };
    let single = measure(1);
    // Two threads is measured unconditionally — the per-thread-count
    // baseline the gate's `--require-2t` clauses compare against lives
    // under fixed `*_2t` keys, whatever the host's core count.
    let two = measure(2);
    let multi = if n_threads == 2 { two.clone() } else { measure(n_threads) };

    let mut stages_json = String::new();
    for (i, ((name, s1, items), ((_, s2, _), (_, sn, _)))) in
        single.iter().zip(two.iter().zip(&multi)).enumerate()
    {
        if i > 0 {
            stages_json.push(',');
        }
        let speedup = if *sn > 0.0 { s1 / sn } else { 1.0 };
        let speedup_2 = if *s2 > 0.0 { s1 / s2 } else { 1.0 };
        let thr1 = if *s1 > 0.0 { *items as f64 / s1 } else { 0.0 };
        let thr2 = if *s2 > 0.0 { *items as f64 / s2 } else { 0.0 };
        let thrn = if *sn > 0.0 { *items as f64 / sn } else { 0.0 };
        stages_json.push_str(&format!(
            "{{\"stage\":\"{name}\",\"items\":{items},\"secs_1t\":{s1:.6},\"secs_2t\":{s2:.6},\"items_per_sec_1t\":{thr1:.1},\"items_per_sec_2t\":{thr2:.1},\"speedup_2t\":{speedup_2:.3}"
        ));
        if n_threads != 2 {
            stages_json.push_str(&format!(
                ",\"secs_{n}t\":{sn:.6},\"items_per_sec_{n}t\":{thrn:.1}",
                n = n_threads
            ));
        }
        stages_json.push_str(&format!(",\"speedup\":{speedup:.3}}}"));
    }
    let total_1: f64 = single.iter().map(|s| s.1).sum();
    let total_2: f64 = two.iter().map(|s| s.1).sum();
    let total_n: f64 = multi.iter().map(|s| s.1).sum();
    // Fault-isolation overhead: try_map vs map on the same workload.
    // Target: < 5% (the per-item catch_unwind must be nearly free).
    // Deep sample: each rep is only ~10ms, so a 5-rep median wobbles
    // past the budget on a busy 1-core host; 11 reps hold it steady.
    let (map_secs, try_secs) = fault_isolation_secs(&lake, 11);
    let overhead_pct = if map_secs > 0.0 { 100.0 * (try_secs - map_secs) / map_secs } else { 0.0 };
    // Checkpoint overhead: snapshot write+read on every stage vs an
    // uncheckpointed run. Target: < 5% end-to-end. More reps than the
    // stage timings: the signal is a few percent, so the median needs a
    // deeper sample to beat scheduler noise on small hosts.
    let (plain_secs, durable_secs, resume_secs) = checkpoint_secs(9);
    let ckpt_pct =
        if plain_secs > 0.0 { 100.0 * (durable_secs - plain_secs) / plain_secs } else { 0.0 };
    let resume_speedup = if resume_secs > 0.0 { plain_secs / resume_secs } else { 1.0 };
    // Observability overhead: tracing on vs off on the full pipeline.
    // Target: < 5% with tracing enabled; a disabled handle is the
    // default and must stay at ~0% (an Option branch per record call).
    let (obs_off_secs, obs_on_secs, obs_spans, obs_events) = observability_secs(&lake, 9);
    let obs_pct =
        if obs_off_secs > 0.0 { 100.0 * (obs_on_secs - obs_off_secs) / obs_off_secs } else { 0.0 };
    // Serving overhead: a full durable detection through the daemon vs
    // direct detect_durable. Target: < 5% — the service layer (TCP,
    // framing, admission, registry, cache keying) must be nearly free
    // relative to the detection it wraps.
    let (serve_direct_secs, serve_served_secs) = serve_secs(9);
    let serve_pct = if serve_direct_secs > 0.0 {
        100.0 * (serve_served_secs - serve_direct_secs) / serve_direct_secs
    } else {
        0.0
    };
    // Storage-seam overhead: every durability byte now routes through
    // the injectable Vfs (DESIGN.md §12). Target: < 5% vs hand-coded
    // direct I/O — the seam is an Option check, not a tax.
    let (storage_direct_secs, storage_vfs_secs) = storage_secs(9);
    let storage_pct = if storage_direct_secs > 0.0 {
        100.0 * (storage_vfs_secs - storage_direct_secs) / storage_direct_secs
    } else {
        0.0
    };
    let scale = std::env::var("MATELDA_SCALE").unwrap_or_else(|_| "full".to_string());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stages.json");
    // Preserve the out-of-core `scale` section (written by scale_bench):
    // the stages bench measures the sweep, not the scale tier, so
    // rewriting the file must not drop the tier's numbers.
    let preserved_scale = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| matelda_bench::json::Json::parse(&text).ok())
        .and_then(|doc| doc.get("scale").cloned())
        .map(|s| format!(",\"scale\":{}", s.render()))
        .unwrap_or_default();
    let threads_compared =
        if n_threads == 2 { "[1,2]".to_string() } else { format!("[1,2,{n_threads}]") };
    let extra_totals = if n_threads == 2 {
        String::new()
    } else {
        format!(
            ",\"total_secs_{n}t\":{total_n:.6},\"end_to_end_speedup\":{sp:.3}",
            n = n_threads,
            sp = if total_n > 0.0 { total_1 / total_n } else { 1.0 }
        )
    };
    let json = format!(
        "{{\"bench\":\"stages\",\"sweep\":\"{scale}\",\"host_parallelism\":{host},\"threads_compared\":{threads_compared},\"determinism_thread_counts\":[1,2,4,8],\"reps\":{reps},\"total_secs_1t\":{total_1:.6},\"total_secs_2t\":{total_2:.6},\"end_to_end_speedup_2t\":{sp2:.3}{extra_totals},\"flagged_cells\":{flagged_1},\"deterministic_across_threads\":true,\"fault_isolation\":{{\"map_secs\":{map_secs:.6},\"try_map_secs\":{try_secs:.6},\"overhead_pct\":{overhead_pct:.2},\"target_pct\":5.0}},\"checkpoint\":{{\"rows_per_table\":{ckpt_rows},\"plain_secs\":{plain_secs:.6},\"durable_secs\":{durable_secs:.6},\"overhead_pct\":{ckpt_pct:.2},\"target_pct\":5.0,\"resume_secs\":{resume_secs:.6},\"resume_speedup\":{resume_speedup:.2}}},\"observability\":{{\"off_secs\":{obs_off_secs:.6},\"on_secs\":{obs_on_secs:.6},\"overhead_pct\":{obs_pct:.2},\"target_pct\":5.0,\"spans\":{obs_spans},\"events\":{obs_events}}},\"serve\":{{\"direct_secs\":{serve_direct_secs:.6},\"served_secs\":{serve_served_secs:.6},\"overhead_pct\":{serve_pct:.2},\"target_pct\":5.0}},\"storage\":{{\"commits\":{storage_commits},\"payload_bytes\":{storage_payload},\"direct_secs\":{storage_direct_secs:.6},\"vfs_secs\":{storage_vfs_secs:.6},\"overhead_pct\":{storage_pct:.2},\"target_pct\":5.0}},\"stages\":[{stages_json}]{preserved_scale}}}\n",
        host = std::thread::available_parallelism().map_or(1, |v| v.get()),
        ckpt_rows = CKPT_ROWS,
        storage_commits = STORAGE_COMMITS,
        storage_payload = STORAGE_PAYLOAD,
        sp2 = if total_2 > 0.0 { total_1 / total_2 } else { 1.0 },
    );
    std::fs::write(path, &json).expect("write BENCH_stages.json");
    println!("\nwrote {path}");
    print!("{json}");
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group!(name = benches; config = config(); targets = bench_stages);

fn main() {
    benches();
    emit_json();
}
