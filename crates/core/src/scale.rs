//! Out-of-core detection: the full pipeline over a columnar on-disk
//! lake, never materialized (DESIGN.md §14).
//!
//! [`Matelda::detect_out_of_core`] runs the one stage driver of
//! [`crate::pipeline`] over a *skeleton* lake (shapes only, no cell
//! values) with a `ColumnarTables` table source. Embed and featurize
//! read each `.mtc` table inside its own work item on the pool, so at
//! most one table per worker is resident, and featurize spills every
//! table's features to its own `.mtf` file. The later stages read only
//! table shapes and the resident features under the supported
//! configurations, so the skeleton is enough. The result is
//! **bit-identical** to [`Matelda::detect`] over the materialized lake:
//! same [`DetectionResult::digest`], at any thread count and any chunk
//! size. [`columnar_lake_fingerprint`] anchors the input side of that
//! contract — the streamed digest equals the in-memory
//! `lake_fingerprint`.
//!
//! Two configuration families *do* read cell values after
//! featurization and are rejected up front with
//! [`OutOfCoreError::Unsupported`] instead of silently misbehaving on
//! the empty skeleton values: the `+SF` syntactic refinement and the
//! unionability (Santos) folding strategies.

use crate::pipeline::{DetectionResult, Durability, Matelda, RunError};
use crate::DomainFolding;
use matelda_detect::{spill_features, spill_path, CellFeatures};
use matelda_exec::Executor;
use matelda_table::chunked::{
    columnar_lake_fingerprint, columnar_paths_sorted, skeleton_lake, ChunkSource, ChunkedError,
    ColumnarReader, DEFAULT_CHUNK_LEN,
};
use matelda_table::oracle::Labeler;
use matelda_table::Table;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Options for one [`Matelda::detect_out_of_core`] run.
#[derive(Debug, Clone)]
pub struct OutOfCoreOpts {
    /// Bytes per ranged read when streaming columnar data. Never changes
    /// result bits — only I/O granularity and peak memory.
    pub chunk_len: usize,
    /// Directory the per-table feature spills (`.mtf`) are written to.
    pub spill_dir: PathBuf,
}

impl OutOfCoreOpts {
    /// Default chunking into the given spill directory.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        OutOfCoreOpts { chunk_len: DEFAULT_CHUNK_LEN, spill_dir: spill_dir.into() }
    }
}

/// Why an out-of-core run could not produce a result.
#[derive(Debug)]
pub enum OutOfCoreError {
    /// The storage layer failed (reading the lake or writing a spill).
    /// Structured, not a panic: the storage fault matrix drives this
    /// path through the [`ChunkSource`] seam.
    Storage(ChunkedError),
    /// The configuration needs cell values after featurization, which
    /// the skeleton lake does not have.
    Unsupported(&'static str),
}

impl std::fmt::Display for OutOfCoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutOfCoreError::Storage(e) => write!(f, "out-of-core storage failure: {e}"),
            OutOfCoreError::Unsupported(what) => {
                write!(f, "configuration unsupported out of core: {what}")
            }
        }
    }
}

impl std::error::Error for OutOfCoreError {}

impl From<ChunkedError> for OutOfCoreError {
    fn from(e: ChunkedError) -> Self {
        OutOfCoreError::Storage(e)
    }
}

/// What one out-of-core run produced, plus the streaming bookkeeping
/// the scale bench asserts on.
#[derive(Debug)]
pub struct OutOfCoreRun {
    /// The detection result — bit-identical (same
    /// [`DetectionResult::digest`]) to [`Matelda::detect`] over the
    /// materialized lake.
    pub result: DetectionResult,
    /// The streamed lake fingerprint; equals `lake_fingerprint` of the
    /// materialized lake.
    pub fingerprint: u64,
    /// Feature spill files written (one per table).
    pub spill_count: usize,
    /// Total cells streamed through featurization.
    pub cells: usize,
    /// On-disk size of the columnar lake in bytes.
    pub lake_bytes: u64,
}

/// A columnar lake directory as the table source of one out-of-core
/// run (see [`crate::engine::StageContext::columnar`]). Storage
/// failures are recorded rather than raised, so that no work item
/// faults on one; the driver returns the failure after the stage.
pub(crate) struct ColumnarTables<'a> {
    src: &'a dyn ChunkSource,
    paths: Vec<PathBuf>,
    opts: &'a OutOfCoreOpts,
    /// The first storage failure of the current stage.
    failure: Mutex<Option<ChunkedError>>,
}

impl ColumnarTables<'_> {
    /// Reads table `ti`; `None` when the storage failed.
    pub(crate) fn read(&self, ti: usize) -> Option<Table> {
        let table = ColumnarReader::open(self.src, &self.paths[ti])
            .and_then(|reader| reader.read_table(self.opts.chunk_len));
        self.ok(table)
    }

    /// Spills every table's features to its own `.mtf` file, one table
    /// per work item.
    pub(crate) fn spill(&self, features: &[CellFeatures], executor: &Executor) {
        executor.map(features, |ti, f| {
            self.ok(spill_features(self.src, &spill_path(&self.opts.spill_dir, ti), f))
        });
    }

    /// Takes the recorded storage failure, if any.
    pub(crate) fn take_failure(&self) -> Option<ChunkedError> {
        self.failure.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// `r`'s value, or `None` with the failure recorded.
    fn ok<T>(&self, r: Result<T, ChunkedError>) -> Option<T> {
        r.map_err(|e| {
            self.failure.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
        })
        .ok()
    }
}

impl Matelda {
    /// Runs the pipeline over the columnar lake directory `dir` without
    /// ever materializing the lake: embed and featurize read one table
    /// per work item (features spilled to [`OutOfCoreOpts::spill_dir`]),
    /// and every stage runs on a shapes-only skeleton. All I/O goes
    /// through `src`, so passing the ckpt [`crate::Vfs`] puts the whole
    /// path under the storage fault matrix; a storage failure returns
    /// [`OutOfCoreError::Storage`] and never quarantines a table.
    ///
    /// Fault isolation matches the in-memory engine: a table whose
    /// embed or featurize panics is quarantined under
    /// [`crate::FaultPolicy::Skip`] (or aborts the run under `Fail`),
    /// with the same quarantine record — and therefore the same digest
    /// — as [`Matelda::detect`] hitting the same faults.
    pub fn detect_out_of_core(
        &self,
        src: &dyn ChunkSource,
        dir: &Path,
        labeler: &mut dyn Labeler,
        budget: usize,
        opts: &OutOfCoreOpts,
    ) -> Result<OutOfCoreRun, OutOfCoreError> {
        let cfg = &self.config;
        if cfg.syntactic_refinement {
            return Err(OutOfCoreError::Unsupported(
                "syntactic refinement (+SF) reads cell values after featurization",
            ));
        }
        if matches!(cfg.domain_folding, DomainFolding::SantosLike | DomainFolding::SantosSketch(_))
        {
            return Err(OutOfCoreError::Unsupported(
                "unionability folding reads cell values lake-wide",
            ));
        }

        let paths = columnar_paths_sorted(src, dir).map_err(ChunkedError::Io)?;
        let mut lake_bytes = 0u64;
        for p in &paths {
            lake_bytes += src.file_len(p).map_err(ChunkedError::Io)?;
        }
        let skeleton = skeleton_lake(src, dir)?;
        let fingerprint = columnar_lake_fingerprint(src, dir, opts.chunk_len)?;
        let tables = ColumnarTables { src, paths, opts, failure: Mutex::new(None) };
        let (result, _) = self
            .drive(&skeleton, Some(&tables), labeler, budget, &Durability::default())
            .map_err(|e| match e {
                RunError::Storage(e) => OutOfCoreError::Storage(e),
                RunError::Ckpt(e) => unreachable!("out-of-core runs open no checkpoint store: {e}"),
            })?;
        // A run that returns spilled every table exactly once.
        Ok(OutOfCoreRun {
            result,
            fingerprint,
            spill_count: skeleton.n_tables(),
            cells: skeleton.n_cells(),
            lake_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FaultPolicy, MateldaConfig};
    use matelda_lakegen::QuintetLake;
    use matelda_table::chunked::{read_lake_columnar, write_lake_columnar, StdFs};
    use matelda_table::fingerprint::lake_fingerprint;
    use matelda_table::{CellId, Column, Lake, Table};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("matelda_ooc_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A deterministic, id-keyed labeler usable identically against the
    /// materialized lake and the skeleton.
    struct HashLabeler {
        used: usize,
    }

    impl Labeler for HashLabeler {
        fn label(&mut self, id: CellId) -> bool {
            self.used += 1;
            (id.table * 31 + id.row * 7 + id.col).is_multiple_of(3)
        }
        fn labels_used(&self) -> usize {
            self.used
        }
    }

    #[test]
    fn out_of_core_digest_matches_in_memory_at_every_thread_count() {
        let gen = QuintetLake { rows_per_table: 40, error_rate: 0.09 }.generate(11);
        let dir = tmpdir("equiv");
        let lake_dir = dir.join("lake");
        write_lake_columnar(&StdFs, &lake_dir, &gen.dirty).expect("write lake");
        // The columnar directory is read in file-name order, so the
        // reference lake must be too.
        let lake = read_lake_columnar(&StdFs, &lake_dir, 64 * 1024).expect("read lake");
        let reference = {
            let mut labeler = HashLabeler { used: 0 };
            Matelda::new(MateldaConfig::default()).detect(&lake, &mut labeler, 40)
        };
        assert!(reference.predicted.count() > 0, "reference run must predict something");
        for threads in [1usize, 2, 4] {
            for chunk_len in [7usize, 64 * 1024] {
                let spill = dir.join(format!("spill_{threads}_{chunk_len}"));
                let cfg = MateldaConfig { threads, ..Default::default() };
                let mut labeler = HashLabeler { used: 0 };
                let run = Matelda::new(cfg)
                    .detect_out_of_core(
                        &StdFs,
                        &lake_dir,
                        &mut labeler,
                        40,
                        &OutOfCoreOpts { chunk_len, spill_dir: spill },
                    )
                    .expect("out-of-core run");
                assert_eq!(
                    run.result.digest(),
                    reference.digest(),
                    "threads={threads} chunk_len={chunk_len}"
                );
                assert_eq!(run.result.predicted, reference.predicted);
                assert_eq!(run.fingerprint, lake_fingerprint(&lake));
                assert_eq!(run.spill_count, lake.n_tables());
                assert_eq!(run.cells, lake.n_cells());
                assert!(run.lake_bytes > 0);
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn out_of_core_rejects_value_reading_configs() {
        let dir = tmpdir("reject");
        let lake = Lake::new(vec![Table::new("t", vec![Column::new("a", ["1", "2"])])]);
        write_lake_columnar(&StdFs, &dir, &lake).expect("write");
        let opts = OutOfCoreOpts::new(dir.join("spill"));
        let mut labeler = HashLabeler { used: 0 };
        let sf = MateldaConfig { syntactic_refinement: true, ..Default::default() };
        assert!(matches!(
            Matelda::new(sf).detect_out_of_core(&StdFs, &dir, &mut labeler, 5, &opts),
            Err(OutOfCoreError::Unsupported(_))
        ));
        let santos =
            MateldaConfig { domain_folding: DomainFolding::SantosLike, ..Default::default() };
        assert!(matches!(
            Matelda::new(santos).detect_out_of_core(&StdFs, &dir, &mut labeler, 5, &opts),
            Err(OutOfCoreError::Unsupported(_))
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn out_of_core_respects_the_mem_budget_degradation_contract() {
        let gen = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(5);
        let dir = tmpdir("budget");
        let lake_dir = dir.join("lake");
        write_lake_columnar(&StdFs, &lake_dir, &gen.dirty).expect("write lake");
        let cfg = MateldaConfig {
            mem_budget_bytes: Some(64),
            on_error: FaultPolicy::Skip,
            ..Default::default()
        };
        let mut labeler = HashLabeler { used: 0 };
        let run = Matelda::new(cfg)
            .detect_out_of_core(
                &StdFs,
                &lake_dir,
                &mut labeler,
                20,
                &OutOfCoreOpts::new(dir.join("spill")),
            )
            .expect("degraded run completes");
        assert_eq!(run.result.n_domain_folds, 1, "degrades to extreme domain folding");
        assert!(run.result.report.faults.iter().any(|f| f.stage == "domain_folds"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn storage_faults_end_in_a_structured_error_or_the_reference_digest() {
        use matelda_ckpt::{FaultKind, InjectAt, Vfs};
        use matelda_obs::Obs;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let gen = QuintetLake { rows_per_table: 8, error_rate: 0.1 }.generate(23);
        let dir = tmpdir("storage");
        let lake_dir = dir.join("lake");
        write_lake_columnar(&StdFs, &lake_dir, &gen.dirty).expect("write lake");
        let run = |vfs: &Vfs, threads: usize, on_error: FaultPolicy, obs: Obs| {
            let cfg = MateldaConfig { threads, on_error, ..Default::default() };
            let mut labeler = HashLabeler { used: 0 };
            let opts = OutOfCoreOpts::new(dir.join(format!("spill_{threads}_{on_error:?}")));
            Matelda::new(cfg).with_obs(obs).detect_out_of_core(
                vfs,
                &lake_dir,
                &mut labeler,
                12,
                &opts,
            )
        };

        // A counting pass enumerates every storage operation of a run:
        // the directory listing, the skeleton and fingerprint passes,
        // each table read and each spill write.
        let recorder = Vfs::recording();
        let reference = run(&recorder, 1, FaultPolicy::Fail, Obs::disabled()).expect("clean run");
        let n_ops = recorder.op_count();
        assert!(n_ops > 2 * gen.dirty.n_tables() as u64, "{n_ops} storage operations");

        for threads in [1usize, 2] {
            for on_error in [FaultPolicy::Fail, FaultPolicy::Skip] {
                for n in 0..n_ops {
                    let cell = format!("op {n}, {threads} thread(s), {on_error:?}");
                    let inj = InjectAt::new(n, FaultKind::Errno(std::io::ErrorKind::Other));
                    let vfs = Vfs::with_injector(inj.clone());
                    let obs = Obs::enabled();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        run(&vfs, threads, on_error, obs.clone())
                    }))
                    .unwrap_or_else(|_| panic!("{cell}: a storage fault panicked"));
                    assert_eq!(inj.fired(), 1, "{cell}: the fault must actually fire");
                    match outcome {
                        Err(OutOfCoreError::Storage(_)) => {}
                        Err(e) => panic!("{cell}: unexpected error {e}"),
                        Ok(r) => {
                            assert_eq!(r.result.digest(), reference.result.digest(), "{cell}");
                            assert!(r.result.quarantine.is_empty(), "{cell}: quarantined");
                            assert!(r.result.report.faults.is_empty(), "{cell}: fault logged");
                        }
                    }
                    assert!(obs.events_named("fault.item").is_empty(), "{cell}: fault logged");
                }
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // Satellite 4: arbitrary chunk sizes — including ones that split a
    // quoted CSV record across chunk boundaries — never change the
    // fingerprint or the detection digest at any thread count.
    mod equivalence_props {
        use super::*;
        use matelda_table::chunked::csv_dir_to_columnar;
        use matelda_table::csv::write_table;
        use proptest::prelude::*;

        /// Hostile value palette: quotes, commas, CR/LF inside quoted
        /// fields — every chunk size 1..48 lands mid-record somewhere.
        fn palette(i: usize) -> String {
            const P: &[&str] = &[
                "plain",
                "com,ma",
                "qu\"ote",
                "line\nbreak",
                "crlf\r\nmix",
                "",
                "\"lead",
                "trail\"",
                "a,b\"c\nd",
            ];
            P[i % P.len()].to_string()
        }

        fn hostile_lake(shape_seed: usize) -> Lake {
            let tables = (0..2)
                .map(|t| {
                    let cols = (0..3)
                        .map(|c| {
                            let values: Vec<String> =
                                (0..6).map(|r| palette(shape_seed + t * 17 + c * 5 + r)).collect();
                            Column::new(format!("c{c}"), values)
                        })
                        .collect();
                    Table::new(format!("t{t}"), cols)
                })
                .collect();
            Lake::new(tables)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]
            #[test]
            fn chunked_csv_to_detection_is_chunk_and_thread_invariant(
                chunk_len in 1usize..48,
                shape_seed in 0usize..32,
            ) {
                let lake = hostile_lake(shape_seed);
                let dir = tmpdir(&format!("prop_{chunk_len}_{shape_seed}"));
                let csv_dir = dir.join("csv");
                std::fs::create_dir_all(&csv_dir).expect("mkdir");
                for t in &lake.tables {
                    std::fs::write(csv_dir.join(format!("{}.csv", t.name)), write_table(t))
                        .expect("write csv");
                }
                let col_dir = dir.join("columnar");
                // The CSV → columnar conversion reads records through
                // the chunked splitter at this chunk size.
                csv_dir_to_columnar(&StdFs, &csv_dir, &col_dir, chunk_len).expect("convert");
                let materialized =
                    read_lake_columnar(&StdFs, &col_dir, chunk_len).expect("read back");
                prop_assert_eq!(&materialized, &lake, "CSV round trip");
                let reference = {
                    let mut labeler = HashLabeler { used: 0 };
                    Matelda::new(MateldaConfig::default()).detect(&lake, &mut labeler, 6)
                };
                for threads in [1usize, 2, 4] {
                    let cfg = MateldaConfig { threads, ..Default::default() };
                    let mut labeler = HashLabeler { used: 0 };
                    let run = Matelda::new(cfg)
                        .detect_out_of_core(
                            &StdFs,
                            &col_dir,
                            &mut labeler,
                            6,
                            &OutOfCoreOpts {
                                chunk_len,
                                spill_dir: dir.join(format!("spill{threads}")),
                            },
                        )
                        .expect("out-of-core");
                    prop_assert_eq!(run.fingerprint, lake_fingerprint(&lake));
                    prop_assert_eq!(run.result.digest(), reference.digest());
                }
                std::fs::remove_dir_all(&dir).expect("cleanup");
            }
        }
    }
}
