//! The `wide-serve` request mix: a closed loop of two clients against
//! one daemon. Each client repeats a cycle on a new job seed: one cold
//! request, one restore (all six stages from checkpoints) and eight memo
//! hits. The clients start each cycle together, so their cold requests
//! always overlap and every run sees the same contention, however many
//! cycles fit in it.

use crate::setup::{peak_rss_bytes, reset_peak_rss, ServedLake, WARM_SEED};
use crate::stats::{judge_response, Tally};
use matelda_serve::{request, DetectOutcome, Request, Response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

pub const CLIENTS: usize = 2;
/// Hits per cycle in the workload's mix.
pub const HITS_PER_CYCLE: usize = 8;
/// Cycles per client in an untraced run, at the least: the cold
/// requests of one cycle finish together, so this is the number of
/// independent cold-latency samples a run's median rests on.
pub const MIN_CYCLES: usize = 2;
/// Hit samples the traced run needs, so that p90 has ten samples beyond
/// it. It gets them from one cycle per client with more hits, since
/// thirteen cycles' cold requests would not fit in one run.
pub const MIN_HITS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Cold,
    Restore,
    Hit,
}

/// One answered request as its client saw it.
pub struct Sample {
    pub class: Class,
    pub secs: f64,
    /// `None` when the request failed (see [`judge_response`]).
    pub outcome: Option<DetectOutcome>,
    /// Whether the daemon refused the request as busy.
    pub busy: bool,
}

pub struct Mix {
    pub samples: Vec<Sample>,
    pub secs: f64,
    /// Peak resident set of the process during each cycle, in bytes.
    /// How far the two clients' concurrent cold runs overlap at their
    /// largest moves one cycle's peak by a fifth, so a run reports the
    /// median over its cycles rather than the largest.
    pub cycle_peaks: Vec<u64>,
}

impl Mix {
    /// Latencies of the successful requests of `class`.
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        self.of(class).filter(|s| s.outcome.is_some()).map(|s| s.secs).collect()
    }

    pub fn of(&self, class: Class) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.class == class)
    }

    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.outcome.is_some()).count()
    }
}

/// The job seed of `client`'s `cycle`-th cycle: distinct per client and
/// cycle, and never the warm-up seed.
fn mix_seed(client: usize, cycle: usize) -> u64 {
    WARM_SEED + 1 + (cycle * CLIENTS + client) as u64
}

/// Runs as many whole cycles of `hits` hits each as fit in `seconds`, and
/// at least `min_cycles` per client.
pub fn run_mix(
    served: &ServedLake,
    seconds: f64,
    min_cycles: usize,
    hits: usize,
    tally: &mut Tally,
) -> Mix {
    let more = AtomicBool::new(true);
    let barrier = Barrier::new(CLIENTS);
    let cycle_peaks = Mutex::new(Vec::new());
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (more, barrier, cycle_peaks) = (&more, &barrier, &cycle_peaks);
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    for cycle in 0.. {
                        // One client decides for both whether another
                        // cycle starts; the second wait publishes it.
                        // Between cycles no request is in flight, so the
                        // same client also closes the last cycle's peak
                        // resident set and opens the next one's.
                        if barrier.wait().is_leader() {
                            if cycle > 0 {
                                cycle_peaks.lock().unwrap().push(peak_rss_bytes());
                            }
                            reset_peak_rss();
                            let elapsed = start.elapsed().as_secs_f64();
                            let per_cycle = if cycle == 0 { 0.0 } else { elapsed / cycle as f64 };
                            let go = cycle < min_cycles || elapsed + per_cycle <= seconds;
                            more.store(go, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !more.load(Ordering::SeqCst) {
                            break;
                        }
                        run_cycle(served, mix_seed(client, cycle), hits, &mut samples, &mut tally);
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    eprintln!("request mix: {secs:.3} s");
    let mut samples = Vec::new();
    for (s, t) in per_client {
        samples.extend(s);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.reasons.extend(t.reasons);
    }
    Mix { samples, secs, cycle_peaks: cycle_peaks.into_inner().unwrap() }
}

fn run_cycle(
    served: &ServedLake,
    seed: u64,
    hits: usize,
    samples: &mut Vec<Sample>,
    tally: &mut Tally,
) {
    let mut send = |class: Class, fresh: bool, reference: Option<u64>| {
        let req = Request::Detect(served.job(seed, fresh));
        let t0 = Instant::now();
        let resp = request(served.daemon.addr, &req);
        let secs = t0.elapsed().as_secs_f64();
        let judged = match (class, reference) {
            (Class::Cold, _) | (_, Some(_)) => judge_response(&resp, reference),
            (_, None) => Err(format!("seed {seed}: no cold digest to compare with")),
        };
        let outcome = tally.record(judged.map_err(|e| format!("{class:?} seed {seed}: {e}")));
        let digest = outcome.as_ref().map(|o| o.digest);
        let busy = matches!(resp, Ok(Response::Busy { .. }));
        samples.push(Sample { class, secs, outcome, busy });
        digest
    };
    let reference = send(Class::Cold, true, None);
    send(Class::Restore, true, reference);
    for _ in 0..hits {
        send(Class::Hit, false, reference);
    }
}
