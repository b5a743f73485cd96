//! The traced run: per-layer metrics, timed from outside by spans around
//! the benchmark's own calls into each crate's public functions.
//!
//! Every workload runs the same sequence on its own lake:
//!
//! 1. out of core: columnar conversion if set-up made none, then one
//!    `detect_out_of_core` with the peak resident set reset before it;
//! 2. `table`: `read_lake_columnar`, which gives the in-memory lake;
//! 3. one untraced `detect`, the reference for digests, masks and the
//!    tracing overhead;
//! 4. the six `Stage::run`s in `detect_explained` order at 2 threads,
//!    then at 1 thread committing each stage's snapshot, then a
//!    `detect_durable` that restores all six;
//! 5. a serial replay of classify through the public `matelda_ml` API;
//! 6. `spill_features` and `load_features` of the 1-thread features;
//! 7. `wide-serve` only: one served cold request against a direct
//!    `detect_durable` of the same job, then the request mix.
//!
//! The `large-*` workloads never serve, so they report the `serve.*`
//! metrics as 0.

use crate::mix::{run_mix, Class, CLIENTS, MIN_HITS};
use crate::report::Report;
use crate::setup::{
    config, dir_bytes, peak_rss_bytes, read_csv_lake, reset_peak_rss, rss_bytes, scale_lake,
    served_lake, to_columnar, ServedLake, LABELS_PER_TABLE, THREADS,
};
use crate::stats::{judge_response, judge_result, median, percentile_with_tail, Tally};
use crate::trace::Tracer;
use crate::{Args, Workload};
use matelda_core::{
    encode_snapshot, ArtifactCodec, CheckpointStore, ClassifyStage, CtxState, DetectionResult,
    DomainFoldStage, Durability, EmbedStage, Executor, FeaturizeStage, FeaturizedLake, LabelStage,
    Matelda, OutOfCoreOpts, PropagatedLabels, QualityFoldStage, Stage, StageContext, Vfs,
};
use matelda_detect::{load_features, spill_features, spill_path};
use matelda_ml::{BinnedDataset, FittedClassifier};
use matelda_serve::{request, Request};
use matelda_table::chunked::{read_lake_columnar, DEFAULT_CHUNK_LEN};
use matelda_table::{lake_fingerprint, CellId, CellMask, Lake, Oracle, StdFs};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Stages in `detect_explained` order: the span name of each, which is
/// also its `detect_durable` snapshot name, and its metric, named after
/// the crate the stage's work lives in.
const STAGES: [(&str, &str); 6] = [
    ("embed", "embed.s"),
    ("featurize", "detect.featurize_s"),
    ("domain_folds", "cluster.domain_folds_s"),
    ("quality_folds", "cluster.quality_folds_s"),
    ("label", "core.label_s"),
    ("classify", "ml.classify_s"),
];

/// The job seed of the traced `wide-serve` run: outside the warm-up and
/// the mix, so its served request is cold.
const PROBE_SEED: u64 = 1 << 32;

/// One detection job: the lake, its truth and budget, and the config
/// seed. Runs differ only in their thread count.
struct Job<'a> {
    lake: &'a Lake,
    truth: &'a CellMask,
    budget: usize,
    seed: u64,
}

impl Job<'_> {
    fn matelda(&self, threads: usize) -> Matelda {
        Matelda::new(config(self.seed, threads))
    }

    fn oracle(&self) -> Oracle<'_> {
        Oracle::new(self.truth)
    }
}

pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let lake_dir = work.join("lake");
    let (truth, csv_dir, columnar_dir, served) = match args.workload {
        Workload::LargeInmem | Workload::LargeOoc => {
            let ooc = args.workload == Workload::LargeOoc;
            let s = scale_lake(args.seed, &lake_dir, ooc)?;
            (s.on_disk.errors, s.csv_dir, s.columnar_dir, None)
        }
        Workload::WideServe => {
            let served = served_lake(args.seed, &lake_dir)?;
            let columnar_dir = lake_dir.join("columnar");
            (served.lake.errors.clone(), served.dirty_dir.clone(), columnar_dir, Some(served))
        }
    };
    let seed = if served.is_some() { PROBE_SEED } else { 0 };
    let mut tr = Tracer::new();
    let mut report = Report::new(Tally::default());

    // 1. Out of core, with the peak resident set it adds over the
    // process's current one.
    tr.set_run("ooc");
    if !columnar_dir.exists() {
        tr.span("table.csv_dir_to_columnar", |_| to_columnar(&csv_dir, &columnar_dir))?;
    }
    let lake_bytes = dir_bytes(&columnar_dir);
    let spill_dir = work.join("ooc-spill");
    let budget = LABELS_PER_TABLE * truth.dims().len();
    reset_peak_rss();
    let rss_before = rss_bytes("VmRSS:");
    let ooc = tr.span("core.detect_out_of_core", |_| {
        let opts = OutOfCoreOpts::new(&spill_dir);
        let mut oracle = Oracle::new(&truth);
        Matelda::new(config(seed, THREADS)).detect_out_of_core(
            &StdFs,
            &columnar_dir,
            &mut oracle,
            budget,
            &opts,
        )
    });
    let rss_added = peak_rss_bytes().saturating_sub(rss_before);
    let ooc_secs = tr.total_secs("ooc", "core.detect_out_of_core");
    let _ = std::fs::remove_dir_all(&spill_dir);
    let tally = &mut report.tally;
    let ooc = ooc
        .map_err(|e| format!("out-of-core detection failed: {e}"))
        .and_then(|r| judge_result(&r.result, None).map(|digest| (digest, r)));
    let ooc = tally.record(ooc);
    let ooc_digest = ooc.as_ref().map(|(digest, _)| *digest);

    // 2. The columnar read, which also gives the in-memory lake.
    tr.set_run("table");
    let lake = tr.span("table.read_lake_columnar", |_| {
        read_lake_columnar(&StdFs, &columnar_dir, DEFAULT_CHUNK_LEN)
    });
    let lake = lake.map_err(|e| format!("read columnar lake: {e}"))?;
    if let Some((_, r)) = &ooc {
        tally.check(r.fingerprint == lake_fingerprint(&lake), || {
            "streamed fingerprint differs from the materialized lake's".into()
        });
        tally.check(r.cells == lake.n_cells() && r.spill_count == lake.n_tables(), || {
            format!("streamed {} cells into {} spills", r.cells, r.spill_count)
        });
    }
    if let Some(served) = &served {
        let from_csv = read_csv_lake(&served.dirty_dir)?;
        tally.check(lake_fingerprint(&from_csv) == lake_fingerprint(&lake), || {
            "columnar lake differs from the served CSV lake".into()
        });
    }
    let job = Job { lake: &lake, truth: &truth, budget, seed };

    // 3. The untraced reference detection; out of core must agree.
    let t0 = Instant::now();
    let reference = job.matelda(THREADS).detect(&lake, &mut job.oracle(), budget);
    let detect_secs = t0.elapsed().as_secs_f64();
    let digest = tally.record(judge_result(&reference, ooc_digest));

    // 4. The six stages at 2 threads, then at 1 thread committing each
    // stage's snapshot, then a restore of all six.
    let two = staged(&mut tr, "staged-2t", &job, THREADS, None, tally);
    tally.check(two.result.predicted == reference.predicted, || "2t staged mask differs".into());
    tally.record(judge_result(&two.result, digest));
    drop(two);
    let ckpt_dir = work.join("ckpt");
    let mut manifest = job.matelda(1).manifest(&lake, budget);
    manifest.threads = 1;
    let store = CheckpointStore::open_with(&ckpt_dir, manifest, false, Vfs::real())
        .map_err(|e| format!("open checkpoint store: {e}"))?;
    let one = staged(&mut tr, "staged-1t", &job, 1, Some(&store), tally);
    drop(store);
    tally.check(one.result.predicted == reference.predicted, || "1t staged mask differs".into());
    tally.record(judge_result(&one.result, digest));
    tr.set_run("ckpt");
    let restored = tr.span("ckpt.restore", |_| {
        let resume = Durability {
            checkpoint_dir: Some(ckpt_dir.clone()),
            resume: true,
            ..Default::default()
        };
        job.matelda(THREADS).detect_durable(&lake, &mut job.oracle(), budget, &resume)
    });
    let restored = restored.map_err(|e| format!("restore from checkpoints failed: {e}"));
    tally.record(restored.and_then(|r| judge_result(&r, digest)));
    let ckpt_bytes = dir_bytes(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let mut stage_2t = 0.0;
    let mut stage_1t = 0.0;
    for (stage, metric) in STAGES {
        let (s2, s1) = (tr.self_secs("staged-2t", stage), tr.self_secs("staged-1t", stage));
        report.metric(metric, s2, "s", 1);
        report.metric(&format!("exec.speedup_2t.{stage}"), s1 / s2, "ratio", 1);
        stage_2t += s2;
        stage_1t += s1;
    }
    report.metric("exec.speedup_2t", stage_1t / stage_2t, "ratio", 1);
    let traced_2t = tr.total_secs("staged-2t", "core.run");
    report.metric("trace.overhead_share", traced_2t / detect_secs - 1.0, "ratio", 1);
    report.metric("embed.tables", lake.n_tables() as f64, "count", 1);
    report.metric("detect.cells", lake.n_cells() as f64, "count", 1);
    report.metric("cluster.domain_folds", one.result.n_domain_folds as f64, "count", 1);
    report.metric("cluster.quality_folds", one.result.n_quality_folds as f64, "count", 1);
    report.metric("core.labels_used", one.result.labels_used as f64, "count", 1);
    let propagated = one.propagated.labels.iter().flatten().filter(|l| l.is_some()).count();
    report.metric("core.propagated_cells", propagated as f64, "count", 1);
    let commit_secs = tr.total_secs("staged-1t", "ckpt.commit");
    report.metric("ckpt.commit_s", commit_secs, "s", STAGES.len());
    report.metric("ckpt.restore_s", tr.total_secs("ckpt", "ckpt.restore"), "s", 1);
    report.metric("ckpt.state_bytes", ckpt_bytes as f64, "bytes", 1);

    // 5. Classify, replayed serially kernel by kernel.
    let replay = replay_classify(&mut tr, &job, &one);
    let tally = &mut report.tally;
    tally.check(replay.predicted == one.result.predicted, || "classify replay mask differs".into());
    let mut replayed = 0.0;
    for kernel in ["ml.gather", "ml.bin", "ml.fit", "ml.predict"] {
        let secs = tr.total_secs("replay", kernel);
        replayed += secs;
        report.metric(&format!("{kernel}_s"), secs, "s", replay.models);
    }
    report.metric("ml.models", replay.models as f64, "count", 1);
    report.metric("ml.train_rows", replay.train_rows as f64, "count", 1);
    let binned_share = replay.binned_fits as f64 / replay.models as f64;
    report.metric("ml.binned_fit_share", binned_share, "ratio", replay.models);
    let classify_1t = tr.self_secs("staged-1t", "classify");
    report.metric("ml.replay_coverage", replayed / classify_1t, "ratio", 1);

    // 6. Feature spills of the 1-thread run.
    let spill_dir = work.join("spill");
    let (write_secs, read_secs) =
        spill_round_trip(&mut tr, &one.featurized, &spill_dir, &mut report.tally);
    let spill_bytes = dir_bytes(&spill_dir);
    let _ = std::fs::remove_dir_all(&spill_dir);
    drop(one);
    let read_secs_lake = tr.total_secs("table", "table.read_lake_columnar");
    report.metric("table.columnar_read_s", read_secs_lake, "s", 1);
    report.metric("table.lake_bytes", lake_bytes as f64, "bytes", 1);
    report.metric("detect.spill_write_s", write_secs, "s", lake.n_tables());
    report.metric("detect.spill_read_s", read_secs, "s", lake.n_tables());
    report.metric("detect.spill_bytes", spill_bytes as f64, "bytes", 1);
    report.metric("core.ooc_overhead_s", ooc_secs - detect_secs, "s", 1);
    report.metric("core.rss_per_lake_byte", rss_added as f64 / lake_bytes as f64, "ratio", 1);

    // 7. Serving.
    match &served {
        Some(served) => served_layer(&mut tr, &mut report, served, &job, digest, work),
        None => {
            for (name, unit) in NOT_SERVED {
                report.metric(name, 0.0, unit, 0);
            }
        }
    }
    drop(served);

    let trace_dir = Path::new(".perfbench_out");
    let trace_path =
        trace_dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&trace_path, tr.to_json()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(report)
}

/// Per-layer metrics of the serving layer, which only `wide-serve`'s
/// operations run; the other workloads report them as 0.
const NOT_SERVED: [(&str, &str); 9] = [
    ("serve.overhead_s", "s"),
    ("serve.hit_share", "ratio"),
    ("serve.restored_share", "ratio"),
    ("serve.busy", "count"),
    ("serve.state_bytes", "bytes"),
    ("serve.restore_p50_s", "s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.hit_samples", "count"),
];

/// Artifacts of one stage-by-stage run.
struct Staged {
    result: DetectionResult,
    featurized: FeaturizedLake,
    propagated: PropagatedLabels,
}

/// Runs the six stages in `detect_explained` order on a fresh context,
/// each inside a span named after the stage, all under `core.run`. With
/// a store, each stage's snapshot is committed after it, in a
/// `ckpt.commit` span beside the stage's, as `detect_durable` commits.
fn staged(
    tr: &mut Tracer,
    run: &str,
    job: &Job<'_>,
    threads: usize,
    store: Option<&CheckpointStore>,
    tally: &mut Tally,
) -> Staged {
    tr.set_run(run);
    let cfg = config(job.seed, threads);
    let cfg = &cfg;
    let budget = job.budget;
    let mut labeler = job.oracle();
    tr.span("core.run", |tr| {
        let mut ctx = StageContext::new(job.lake, cfg);
        let embedded = tr.span("embed", |_| EmbedStage::from_config(cfg).run(&mut ctx, ()));
        commit(tr, store, &ctx, "embed", &embedded, tally);
        let featurized = tr.span("featurize", |_| FeaturizeStage::default().run(&mut ctx, ()));
        commit(tr, store, &ctx, "featurize", &featurized, tally);
        let domain = tr.span("domain_folds", |_| DomainFoldStage.run(&mut ctx, &embedded));
        commit(tr, store, &ctx, "domain_folds", &domain, tally);
        // The default configuration labels centroids only, so the first
        // phase spends the whole budget.
        let quality = tr.span("quality_folds", |_| {
            QualityFoldStage { budget }.run(&mut ctx, (&domain, &featurized))
        });
        commit(tr, store, &ctx, "quality_folds", &quality, tally);
        let propagated = tr.span("label", |_| {
            LabelStage { labeler: &mut labeler, budget }.run(&mut ctx, (&quality, &featurized))
        });
        commit(tr, store, &ctx, "label", &propagated, tally);
        let predictions = tr
            .span("classify", |_| ClassifyStage.run(&mut ctx, (&domain, &featurized, &propagated)));
        commit(tr, store, &ctx, "classify", &predictions, tally);
        ctx.quarantine.normalize();
        let result = DetectionResult {
            predicted: predictions.mask,
            labels_used: propagated.labels_used,
            n_domain_folds: domain.folds.len(),
            n_quality_folds: quality.n_total(),
            report: ctx.report,
            quarantine: ctx.quarantine,
            durability_degraded: false,
        };
        Staged { result, featurized, propagated }
    })
}

/// Commits the snapshot `detect_durable` would commit after `stage`:
/// the run state so far plus the stage's artifact. A no-op without a
/// store.
fn commit<A: ArtifactCodec>(
    tr: &mut Tracer,
    store: Option<&CheckpointStore>,
    ctx: &StageContext<'_>,
    stage: &str,
    artifact: &A,
    tally: &mut Tally,
) {
    if let Some(store) = store {
        let saved = tr.span("ckpt.commit", |_| {
            store.save_stage(stage, &encode_snapshot(&CtxState::capture(ctx), artifact))
        });
        tally.check(saved.is_ok(), || format!("commit {stage}: {saved:?}"));
    }
}

struct Replay {
    predicted: CellMask,
    models: usize,
    train_rows: usize,
    binned_fits: usize,
}

/// Classify's per-column work, one kernel per span: training-set
/// gather, binning, fitting (which bins again inside) and prediction
/// over every row. Serial, on a 1-thread executor.
fn replay_classify(tr: &mut Tracer, job: &Job<'_>, run: &Staged) -> Replay {
    tr.set_run("replay");
    let lake = job.lake;
    let classifier = config(job.seed, 1).classifier;
    let exec = Executor::new(1);
    let quarantine = &run.result.quarantine;
    let labels = &run.propagated.labels;
    let features = &run.featurized.features;
    let mut out =
        Replay { predicted: CellMask::empty(lake), models: 0, train_rows: 0, binned_fits: 0 };
    tr.span("ml.replay", |tr| {
        for (t, table) in lake.tables.iter().enumerate() {
            if quarantine.table_quarantined(t) {
                continue;
            }
            let m = table.n_cols();
            for c in 0..m {
                let (x, y) = tr.span("ml.gather", |_| {
                    let mut x = Vec::new();
                    let mut y = Vec::new();
                    for r in 0..table.n_rows() {
                        if let Some(lab) = labels[t][r * m + c] {
                            x.push(features[t].get(r, c).to_vec());
                            y.push(lab);
                        }
                    }
                    (x, y)
                });
                tr.span("ml.bin", |_| black_box(BinnedDataset::build(&x)));
                let model =
                    tr.span("ml.fit", |_| FittedClassifier::fit_with(&classifier, &x, &y, &exec));
                tr.span("ml.predict", |_| {
                    for r in 0..table.n_rows() {
                        if model.predict(features[t].get(r, c)) {
                            out.predicted.set(CellId::new(t, r, c), true);
                        }
                    }
                });
                out.models += 1;
                out.train_rows += x.len();
                out.binned_fits += usize::from(model.used_binned());
            }
        }
    });
    out
}

/// Spills every table's features and loads them back, checking the
/// round trip. Returns the write and read seconds.
fn spill_round_trip(
    tr: &mut Tracer,
    featurized: &FeaturizedLake,
    dir: &Path,
    tally: &mut Tally,
) -> (f64, f64) {
    tr.set_run("spill");
    let _ = std::fs::remove_dir_all(dir);
    for (t, f) in featurized.features.iter().enumerate() {
        let written =
            tr.span("detect.spill_features", |_| spill_features(&StdFs, &spill_path(dir, t), f));
        tally.check(written.is_ok(), || format!("spill table {t}: {written:?}"));
    }
    for (t, f) in featurized.features.iter().enumerate() {
        let loaded =
            tr.span("detect.load_features", |_| load_features(&StdFs, &spill_path(dir, t)));
        let same = loaded.as_ref().is_ok_and(|l| l.blocks().eq(f.blocks()));
        tally.check(same, || format!("spilled features of table {t} did not load back equal"));
    }
    (
        tr.total_secs("spill", "detect.spill_features"),
        tr.total_secs("spill", "detect.load_features"),
    )
}

/// `serve.*`: one cold request for the probe job against a direct
/// `detect_durable` of it, then the request mix.
#[allow(clippy::too_many_arguments)]
fn served_layer(
    tr: &mut Tracer,
    report: &mut Report,
    served: &ServedLake,
    job: &Job<'_>,
    digest: Option<u64>,
    work: &Path,
) {
    tr.set_run("serve");
    let ckpt_dir = work.join("direct-ckpt");
    let direct = tr.span("serve.direct_durable", |_| {
        let fresh = Durability { checkpoint_dir: Some(ckpt_dir.clone()), ..Default::default() };
        job.matelda(THREADS).detect_durable(job.lake, &mut job.oracle(), job.budget, &fresh)
    });
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let direct = direct.map_err(|e| format!("direct detect_durable failed: {e}"));
    report.tally.record(direct.and_then(|r| judge_result(&r, digest)));
    // The same job served cold, alone on the daemon.
    let resp = tr.span("serve.cold", |_| {
        request(served.daemon.addr, &Request::Detect(served.job(job.seed, true)))
    });
    report.tally.record(judge_response(&resp, digest));
    let overhead =
        tr.total_secs("serve", "serve.cold") - tr.total_secs("serve", "serve.direct_durable");
    report.metric("serve.overhead_s", overhead, "s", 1);

    let mix = tr.span("serve.mix", |_| {
        run_mix(served, 0.0, 1, MIN_HITS.div_ceil(CLIENTS), &mut report.tally)
    });
    let hits: Vec<_> = mix.of(Class::Hit).collect();
    let restores: Vec<_> = mix.of(Class::Restore).collect();
    let cached = hits.iter().filter(|s| s.outcome.as_ref().is_some_and(|o| o.cached)).count();
    let restored: u64 =
        restores.iter().filter_map(|s| s.outcome.as_ref()).map(|o| o.stages_restored).sum();
    let busy = mix.samples.iter().filter(|s| s.busy).count();
    report.metric("serve.hit_share", cached as f64 / hits.len() as f64, "ratio", hits.len());
    report.metric(
        "serve.restored_share",
        restored as f64 / (6 * restores.len()) as f64,
        "ratio",
        restores.len(),
    );
    report.metric("serve.busy", busy as f64, "count", mix.samples.len());
    report.metric("serve.state_bytes", dir_bytes(&served.state_dir) as f64, "bytes", 1);
    let restore_lat = mix.latencies(Class::Restore);
    report.metric("serve.restore_p50_s", median(&restore_lat), "s", restore_lat.len());
    let hit_ms: Vec<f64> = mix.latencies(Class::Hit).iter().map(|s| s * 1e3).collect();
    report.metric("serve.hit_p50_ms", median(&hit_ms), "ms", hit_ms.len());
    let p90 = percentile_with_tail(&hit_ms, 90.0, 10);
    report
        .tally
        .check(p90.is_some(), || format!("{} hits leave fewer than ten beyond p90", hit_ms.len()));
    report.metric("serve.hit_p90_ms", p90.unwrap_or(f64::NAN), "ms", hit_ms.len());
    report.metric("serve.hit_samples", hit_ms.len() as f64, "count", CLIENTS);
}
