//! Workload inputs and the process-level probes every workload shares.
//!
//! Inputs are generated from the workload seed into the run's work
//! directory; the program under test only ever sees the generated files.

use matelda_core::MateldaConfig;
use matelda_lakegen::{DGovLake, GeneratedLake, ScaleLake, ScaleLakeOnDisk, ScaleTier};
use matelda_serve::{request, serve, DetectJob, Request, Response, ServeOptions, ServerHandle};
use matelda_table::chunked::{csv_dir_to_columnar, DEFAULT_CHUNK_LEN};
use matelda_table::io::write_lake_to_dir;
use matelda_table::{CellMask, Lake, StdFs};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every workload runs the pipeline at two threads (the host has two
/// cores).
pub const THREADS: usize = 2;
/// Labeling budget per table.
pub const LABELS_PER_TABLE: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// The served warm-up job's seed. Mix seeds start above it, so the
/// warm-up stays outside the mix.
pub const WARM_SEED: u64 = 1;

pub fn config(seed: u64, threads: usize) -> MateldaConfig {
    MateldaConfig { seed, threads, ..MateldaConfig::default() }
}

/// A scale-tier lake on disk: dirty CSVs, optionally their columnar
/// conversion, and the generator's truth mask in memory.
pub struct ScaleInput {
    pub on_disk: ScaleLakeOnDisk,
    pub csv_dir: PathBuf,
    pub columnar_dir: PathBuf,
}

impl ScaleInput {
    pub fn budget(&self) -> usize {
        LABELS_PER_TABLE * self.on_disk.n_tables
    }
}

/// Generates the `large-ci` lake for `seed` under `dir`, converting it
/// to columnar form when `columnar` is set.
pub fn scale_lake(seed: u64, dir: &Path, columnar: bool) -> Result<ScaleInput, String> {
    let csv_dir = dir.join("csv");
    let columnar_dir = dir.join("columnar");
    let on_disk = ScaleLake::new(ScaleTier::LargeCi)
        .generate_to_disk(seed, &csv_dir)
        .map_err(|e| format!("generate large-ci lake: {e}"))?;
    if columnar {
        to_columnar(&csv_dir, &columnar_dir)?;
    }
    Ok(ScaleInput { on_disk, csv_dir, columnar_dir })
}

pub fn to_columnar(csv_dir: &Path, columnar_dir: &Path) -> Result<(), String> {
    csv_dir_to_columnar(&StdFs, csv_dir, columnar_dir, DEFAULT_CHUNK_LEN)
        .map(|_| ())
        .map_err(|e| format!("convert {} to columnar: {e}", csv_dir.display()))
}

pub fn read_csv_lake(dir: &Path) -> Result<Lake, String> {
    matelda_table::io::read_lake_from_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))
}

/// The DGov-1K lake on disk, served by an in-process daemon that has
/// answered one warm-up request.
pub struct ServedLake {
    pub lake: GeneratedLake,
    pub dirty_dir: PathBuf,
    pub clean_dir: PathBuf,
    pub state_dir: PathBuf,
    pub daemon: Daemon,
    /// Digest of the warm-up job's served cold run.
    pub warm_digest: u64,
}

impl ServedLake {
    pub fn budget(&self) -> usize {
        LABELS_PER_TABLE * self.lake.dirty.n_tables()
    }

    pub fn job(&self, seed: u64, fresh: bool) -> DetectJob {
        DetectJob {
            dirty_dir: self.dirty_dir.to_string_lossy().into_owned(),
            clean_dir: self.clean_dir.to_string_lossy().into_owned(),
            budget: self.budget() as u64,
            seed,
            variant: "standard".into(),
            deadline_ms: 0,
            fresh,
        }
    }
}

/// Generates DGov-1K for `seed` under `dir` (an absolute path), starts a
/// daemon over it and sends the warm-up request. Table names get their
/// zero-padded index as a prefix, so the file-name order the daemon
/// reads them in is the generation order the truth mask is indexed by.
pub fn served_lake(seed: u64, dir: &Path) -> Result<ServedLake, String> {
    let mut lake = DGovLake::dgov_1k().generate(seed);
    for l in [&mut lake.dirty, &mut lake.clean] {
        for (i, t) in l.tables.iter_mut().enumerate() {
            t.name = format!("t{i:04}_{}", t.name);
        }
    }
    let dirty_dir = dir.join("dirty");
    let clean_dir = dir.join("clean");
    for (l, d) in [(&lake.dirty, &dirty_dir), (&lake.clean, &clean_dir)] {
        write_lake_to_dir(l, d).map_err(|e| format!("write {}: {e}", d.display()))?;
    }
    let state_dir = dir.join("state");
    let daemon = Daemon::start(&state_dir)?;
    let mut served = ServedLake { lake, dirty_dir, clean_dir, state_dir, daemon, warm_digest: 0 };
    let warm = request(served.daemon.addr, &Request::Detect(served.job(WARM_SEED, true)));
    served.warm_digest = crate::stats::judge_response(&warm, None)
        .map_err(|e| format!("warm-up request failed: {e}"))?
        .digest;
    Ok(served)
}

/// An in-process `matelda-serve` daemon, shut down and joined on drop.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: Option<ServerHandle>,
}

impl Daemon {
    fn start(state_dir: &Path) -> Result<Daemon, String> {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.to_path_buf(),
            threads: THREADS,
            ..ServeOptions::default()
        };
        let handle = serve(opts).map_err(|e| format!("start daemon: {e}"))?;
        Ok(Daemon { addr: handle.addr(), handle: Some(handle) })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(Response::ShutdownAck { .. }) = request(self.addr, &Request::Shutdown) {
                handle.join();
            }
        }
    }
}

/// Runs `make` [`SETUP_REPS`] times, each into a fresh directory under
/// `work`, and keeps the last input. Returns it with the median set-up
/// time. Earlier inputs are dropped and deleted outside the timing.
pub fn repeated_setup<T>(
    work: &Path,
    mut make: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup{rep}"));
        let t0 = Instant::now();
        let input = make(&dir)?;
        times.push(t0.elapsed().as_secs_f64());
        eprintln!("set-up {}/{SETUP_REPS}: {:.3} s", rep + 1, times[rep]);
        if let Some((old, old_dir)) = kept.replace((input, dir)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (input, _) = kept.expect("at least one set-up");
    Ok((input, times))
}

/// The run's working directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let rel = Path::new(".perfbench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&rel);
        std::fs::create_dir_all(&rel).map_err(|e| format!("create {}: {e}", rel.display()))?;
        // Absolute, because the daemon receives the lake directories as
        // strings inside requests.
        let abs = rel.canonicalize().map_err(|e| format!("resolve {}: {e}", rel.display()))?;
        Ok(WorkDir(abs))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// `VmHWM` (peak resident set) or `VmRSS` of this process, in bytes;
/// 0 where `/proc` is unavailable.
pub fn rss_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

pub fn peak_rss_bytes() -> u64 {
    rss_bytes("VmHWM:")
}

/// Resets `VmHWM` to the current resident set, so a later read covers
/// only what ran after this call (Linux 4.0+).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Total bytes of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// F1 of `predicted` against the generator's truth.
pub fn f1(predicted: &CellMask, truth: &CellMask) -> f64 {
    matelda_table::Confusion::from_masks(predicted, truth).f1()
}
