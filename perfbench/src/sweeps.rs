//! The two DSE workloads: `sweep_cold` and `sweep_reuse`.
//!
//! A run is a warm-up round, whose jobs are checked but not timed, then
//! fixed-size measured rounds until `--seconds` have passed (and at
//! least enough rounds for a p90 with ten samples beyond it). Before
//! the warm-up and before each measured round it times a burst of
//! back-to-back service set-ups. Each round starts its own service on
//! an empty cache directory and waits for it to shut down, and round
//! `r` always gets the same inputs for a given workload seed.

use crate::layers::with_threads;
use crate::stats::{median, percentile, samples_beyond, tile_seed, Metrics};
use crate::trace::Recorder;
use macro3d::FlowConfig;
use macro3d_dse::sweep::{expand, run_sweep, SweepAxis, SweepSpec};
use macro3d_dse::{DseConfig, DseService, DseStats, JobResult, JobSpec};
use macro3d_soc::TileConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which workload.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Closed loop of `cpus` clients, each job on its own tile.
    Cold,
    /// Batch sweeps through `run_sweep` whose points share prefixes.
    Reuse,
}

/// What a run was asked for.
pub struct Env<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub cpus: usize,
    pub work_dir: &'a Path,
}

const FLOWS: [&str; 2] = ["2D", "Macro-3D"];
/// Jobs per `sweep_cold` round (2D and Macro-3D alternating).
const COLD_ROUND_JOBS: usize = 24;
/// Tile seeds per `sweep_reuse` round; each gives 2 flows × 2
/// route-iteration values × 4 sizing-round values = 16 points.
const REUSE_ROUND_SEEDS: usize = 2;
const REUSE_ROUTE_ITERATIONS: [&str; 2] = ["2", "3"];
const REUSE_SIZING_ROUNDS: [&str; 4] = ["1", "2", "3", "4"];
const REUSE_ROUND_POINTS: usize =
    REUSE_ROUND_SEEDS * FLOWS.len() * REUSE_ROUTE_ITERATIONS.len() * REUSE_SIZING_ROUNDS.len();
/// The p90 job time needs ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Back-to-back service set-ups per burst; `setup_s` is the median of
/// every burst's set-ups.
const SETUP_SAMPLES: usize = 25;

struct Job {
    spec: JobSpec,
    latency_s: f64,
    result: Result<Arc<JobResult>, String>,
}

struct Round {
    run_s: f64,
    /// Peak resident set during the round, MB.
    peak_rss_mb: f64,
    jobs: Vec<Job>,
    stats: DseStats,
}

fn mini(seed: u64) -> TileConfig {
    let mut t = TileConfig::mini();
    t.seed = seed;
    t
}

fn job_spec(flow: &str, seed: u64) -> JobSpec {
    JobSpec {
        flow: flow.to_string(),
        tile: mini(seed),
        config: with_threads(&FlowConfig::default(), 1),
    }
}

/// Set-up as a user pays it: an empty cache directory and a started
/// service with the shipped defaults (stage reuse on).
fn start_service(
    env: &Env<'_>,
    rec: &Recorder,
    round: usize,
) -> Result<(DseService, PathBuf), String> {
    let dir = env
        .work_dir
        .join(format!("cache-{}-{round}", std::process::id()));
    let service = rec.span("dse", "start", || {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        DseService::start(DseConfig {
            workers: env.cpus,
            cache_dir: Some(dir.clone()),
            ..DseConfig::default()
        })
    });
    let service = service.map_err(|e| format!("service start: {e}"))?;
    Ok((service, dir))
}

fn stop_service(service: DseService, dir: &Path) -> Result<(), String> {
    service.shutdown();
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

fn cold_round(env: &Env<'_>, rec: &Recorder, round: usize) -> Result<Round, String> {
    let specs: Vec<JobSpec> = (0..COLD_ROUND_JOBS)
        .map(|k| {
            let seed = tile_seed(env.seed, (round * COLD_ROUND_JOBS + k) as u64);
            job_spec(FLOWS[k % 2], seed)
        })
        .collect();
    let (service, dir) = start_service(env, rec, round)?;
    let client = service.client();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Job)>> = Mutex::new(Vec::with_capacity(specs.len()));
    let t = Instant::now();
    {
        let parent = rec.current();
        std::thread::scope(|s| {
            for _ in 0..env.cpus {
                s.spawn(|| {
                    rec.adopt(parent);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(k) else { break };
                        let t = Instant::now();
                        let result = rec.span("dse", "submit+wait", || {
                            client
                                .submit(spec.clone())
                                .map_err(|e| e.to_string())
                                .and_then(|id| client.wait(id).map_err(|e| e.to_string()))
                        });
                        let job = Job {
                            spec: spec.clone(),
                            latency_s: t.elapsed().as_secs_f64(),
                            result,
                        };
                        done.lock()
                            .expect("a client thread panicked")
                            .push((k, job));
                    }
                });
            }
        });
    }
    let run_s = t.elapsed().as_secs_f64();
    let stats = client.stats();
    stop_service(service, &dir)?;
    let mut jobs = done.into_inner().expect("a client thread panicked");
    jobs.sort_by_key(|(k, _)| *k);
    Ok(Round {
        run_s,
        peak_rss_mb: 0.0,
        jobs: jobs.into_iter().map(|(_, j)| j).collect(),
        stats,
    })
}

fn reuse_sweep(env: &Env<'_>, round: usize) -> SweepSpec {
    let seeds: Vec<String> = (0..REUSE_ROUND_SEEDS)
        .map(|j| tile_seed(env.seed, (round * REUSE_ROUND_SEEDS + j) as u64).to_string())
        .collect();
    let seeds: Vec<&str> = seeds.iter().map(String::as_str).collect();
    SweepSpec {
        base: job_spec(FLOWS[0], 0),
        axes: vec![
            SweepAxis::new("flow", &FLOWS),
            SweepAxis::new("seed", &seeds),
            SweepAxis::new("route_iterations", &REUSE_ROUTE_ITERATIONS),
            SweepAxis::new("sizing_rounds", &REUSE_SIZING_ROUNDS),
        ],
    }
}

fn reuse_round(env: &Env<'_>, rec: &Recorder, round: usize) -> Result<Round, String> {
    let sweep = reuse_sweep(env, round);
    let points = expand(&sweep).map_err(|e| e.to_string())?;
    let (service, dir) = start_service(env, rec, round)?;
    let client = service.client();
    let mut latencies = Vec::with_capacity(points.len());
    let t = Instant::now();
    let outcome = rec.span("dse", "run_sweep", || {
        run_sweep(&client, &sweep, |_| {
            latencies.push(t.elapsed().as_secs_f64());
        })
    });
    let run_s = t.elapsed().as_secs_f64();
    let stats = client.stats();
    stop_service(service, &dir)?;
    let outcome = outcome.map_err(|e| format!("sweep: {e}"))?;
    let jobs = points
        .into_iter()
        .zip(outcome.points)
        .zip(latencies)
        .map(|((point, result), latency_s)| Job {
            spec: point.spec,
            latency_s,
            result: result.result,
        })
        .collect();
    Ok(Round {
        run_s,
        peak_rss_mb: 0.0,
        jobs,
        stats,
    })
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns the free memory of every malloc arena to the
    /// system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the system, then resets this
/// process's peak resident set (`VmHWM`) to its current resident set,
/// so the next reading is the peak of one round. Without the trim, the
/// baseline would depend on which malloc arenas earlier rounds' threads
/// happened to leave holding freed memory.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes no pointers; it walks glibc's own
    // arenas under their locks and accepts any padding value.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set of this process since the last reset, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Times `SETUP_SAMPLES` back-to-back service set-ups. Each phase
/// takes a burst before the warm-up and before every measured round,
/// so `setup_s` is not the host's state at one instant.
fn sample_setups(env: &Env<'_>, rec: &Recorder, out: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let (service, dir) = start_service(env, rec, 0)?;
        out.push(t.elapsed().as_secs_f64());
        stop_service(service, &dir)?;
    }
    Ok(())
}

fn run_round(kind: Kind, env: &Env<'_>, rec: &Recorder, r: usize) -> Result<Round, String> {
    reset_peak_rss()?;
    let mut round = rec.span("bench", "round", || match kind {
        Kind::Cold => cold_round(env, rec, r),
        Kind::Reuse => reuse_round(env, rec, r),
    })?;
    round.peak_rss_mb = peak_rss_mb()?;
    let busy: f64 = round
        .jobs
        .iter()
        .filter_map(|j| j.result.as_ref().ok())
        .map(|r| r.wall_s)
        .sum();
    eprintln!(
        "round {r}: {} jobs, run {:.3} s, busy {:.3} s, rss {:.1} MB",
        round.jobs.len(),
        round.run_s,
        busy,
        round.peak_rss_mb
    );
    Ok(round)
}

/// Runs one phase: a warm-up round, whose jobs are checked but not
/// timed, then measured rounds until `env.seconds` have passed.
pub fn run(kind: Kind, env: &Env<'_>, rec: &Recorder) -> Result<Outcome, String> {
    let per_round = match kind {
        Kind::Cold => COLD_ROUND_JOBS,
        Kind::Reuse => REUSE_ROUND_POINTS,
    };
    let min_rounds = MIN_JOBS.div_ceil(per_round);
    // every phase starts from the same process-wide build cache state,
    // so a traced phase on the same inputs is not warmed by the one
    // before it
    macro3d::build_cache::global().clear();
    let mut setups = Vec::new();
    sample_setups(env, rec, &mut setups)?;
    let warmup = run_round(kind, env, rec, 0)?;
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < env.seconds {
        sample_setups(env, rec, &mut setups)?;
        rounds.push(run_round(kind, env, rec, rounds.len() + 1)?);
    }
    Ok(Outcome {
        setups,
        warmup,
        rounds,
    })
}

/// Re-runs every job on a service with stage reuse off and returns
/// the jobs whose PPA fingerprint differs.
fn reference_mismatches(env: &Env<'_>, jobs: &[&Job]) -> Result<Vec<String>, String> {
    let service = DseService::start(DseConfig {
        workers: env.cpus,
        stage_reuse: false,
        ..DseConfig::default()
    })
    .map_err(|e| format!("reference service: {e}"))?;
    let client = service.client();
    let ids = jobs
        .iter()
        .map(|j| client.submit(j.spec.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut bad = Vec::new();
    for (job, id) in jobs.iter().zip(ids) {
        let want = client.wait(id).map_err(|e| format!("reference job: {e}"))?;
        if let Ok(got) = &job.result {
            if macro3d::ppa_fingerprint(&got.ppa) != macro3d::ppa_fingerprint(&want.ppa) {
                bad.push(format!(
                    "{} seed {} differs from its stage-reuse-off run",
                    job.spec.flow, job.spec.tile.seed
                ));
            }
        }
    }
    service.shutdown();
    Ok(bad)
}

/// Everything one phase of a workload produced.
pub struct Outcome {
    /// The phase's timed service set-ups, seconds.
    setups: Vec<f64>,
    warmup: Round,
    rounds: Vec<Round>,
}

impl Outcome {
    /// Every round, the warm-up first.
    fn all_rounds(&self) -> impl Iterator<Item = &Round> {
        std::iter::once(&self.warmup).chain(&self.rounds)
    }

    /// Every job, warm-up included (for checks and counts).
    fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.all_rounds().flat_map(|r| r.jobs.iter())
    }

    /// The timed jobs.
    fn measured_jobs(&self) -> impl Iterator<Item = &Job> {
        self.rounds.iter().flat_map(|r| r.jobs.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.jobs().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.jobs().filter(|j| j.result.is_err()).count() as u64
    }

    pub fn run_s(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.run_s).collect::<Vec<_>>())
    }

    fn latencies(&self) -> Vec<f64> {
        self.measured_jobs().map(|j| j.latency_s).collect()
    }

    /// The first 2D and the first Macro-3D job spec, for the layer
    /// replays.
    pub fn replay_specs(&self) -> Vec<(&'static str, JobSpec)> {
        [("2d", "2D"), ("macro3d", "Macro-3D")]
            .into_iter()
            .filter_map(|(tag, flow)| {
                self.jobs()
                    .find(|j| j.spec.flow == flow)
                    .map(|j| (tag, j.spec.clone()))
            })
            .collect()
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self, out: &mut Metrics) {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.jobs.len() as f64 / r.run_s)
            .collect();
        let lat = self.latencies();
        out.push("setup_s", median(&self.setups), "s");
        out.push("run_s", self.run_s(), "s");
        out.push("jobs_per_s", median(&rates), "1/s");
        out.push("job_s.p50", median(&lat), "s");
        out.push("job_s.p90", percentile(&lat, 90.0), "s");
        let rss: Vec<f64> = self.rounds.iter().map(|r| r.peak_rss_mb).collect();
        out.push("peak_rss_mb", median(&rss), "MB");
    }

    /// The `dse` layer's metrics, from the jobs' own service times and
    /// the service counters.
    pub fn dse_layer(&self, out: &mut Metrics) {
        let ok: Vec<&Arc<JobResult>> = self
            .measured_jobs()
            .filter_map(|j| j.result.as_ref().ok())
            .collect();
        let service: Vec<f64> = ok.iter().map(|r| r.wall_s).collect();
        let waits: Vec<f64> = self
            .measured_jobs()
            .filter_map(|j| j.result.as_ref().ok().map(|r| j.latency_s - r.wall_s))
            .collect();
        let hits: u64 = self.rounds.iter().map(|r| r.stats.stage_hits).sum();
        let misses: u64 = self.rounds.iter().map(|r| r.stats.stage_misses).sum();
        let flows: u64 = self.rounds.iter().map(|r| r.stats.flows_executed).sum();
        let stages_run: usize = ok
            .iter()
            .map(|r| macro3d::stage::NUM_STAGES - r.reuse_depth)
            .sum();
        let lat = self.latencies();
        out.push("job_s.samples", lat.len() as f64, "count");
        out.push(
            "job_s.p90_tail_samples",
            samples_beyond(lat.len(), 90.0) as f64,
            "count",
        );
        out.push("dse.service_s.p50", median(&service), "s");
        out.push("dse.queue_wait_s.p50", median(&waits), "s");
        out.push(
            "dse.stage_miss_ratio",
            misses as f64 / (hits + misses) as f64,
            "ratio",
        );
        out.push(
            "dse.stages_run_mean",
            stages_run as f64 / ok.len() as f64,
            "count",
        );
        out.push("dse.flows_executed", flows as f64, "count");
    }

    /// The output checks; each returned line is one failure.
    pub fn check(&self, kind: Kind, env: &Env<'_>) -> Result<Vec<String>, String> {
        let mut bad: Vec<String> = self
            .jobs()
            .filter_map(|j| j.result.as_ref().err())
            .map(|e| format!("job failed: {e}"))
            .collect();
        match kind {
            Kind::Cold => {
                for r in self.all_rounds() {
                    if r.stats.stage_hits != 0 || r.stats.cache.hits != 0 {
                        bad.push(format!(
                            "cold round reused work: {} stage hits, {} result-cache hits",
                            r.stats.stage_hits, r.stats.cache.hits
                        ));
                    }
                }
            }
            Kind::Reuse => bad.extend(self.check_reuse()),
        }
        let jobs: Vec<&Job> = self.jobs().collect();
        bad.extend(reference_mismatches(env, &jobs)?);
        Ok(bad)
    }

    /// `sweep_reuse` checks, per round of `G` (flow, tile) groups of 8
    /// points. One worker visiting a group in key order re-enters at
    /// depths `[0, 4, 4, 4, 2, 4, 4, 4]`, so the round's multiset is
    /// `{0: G, 2: G, 4: 6G}`. A worker that steals a group's tail starts
    /// it cold, which moves a point from depth 4 or 2 to depth 0; the
    /// exact multiset therefore depends on timing, and the check holds
    /// what stealing cannot change plus a floor on STA re-entries.
    fn check_reuse(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let groups = FLOWS.len() * REUSE_ROUND_SEEDS;
        let (mut wins, mut pairs) = (0, 0);
        for (i, r) in self.all_rounds().enumerate() {
            let mut depths: BTreeMap<usize, usize> = BTreeMap::new();
            for j in &r.jobs {
                if let Ok(res) = &j.result {
                    *depths.entry(res.reuse_depth).or_insert(0) += 1;
                }
            }
            let at = |d| depths.get(&d).copied().unwrap_or(0);
            if depths.keys().any(|d| ![0, 2, 4].contains(d))
                || at(0) < groups
                || at(2) > groups
                || at(0) + at(2) < 2 * groups
                || at(4) < 4 * groups
            {
                bad.push(format!(
                    "round {i}: re-entry depths {depths:?}, expected {{0: {groups}, 2: {groups}, 4: {}}} up to steals",
                    6 * groups
                ));
            }
            // 3D against 2D on the same tile and knobs
            let mut both: BTreeMap<(u64, usize, usize), [Option<&JobResult>; 2]> = BTreeMap::new();
            for j in &r.jobs {
                if let Ok(res) = &j.result {
                    let key = (
                        j.spec.tile.seed,
                        j.spec.config.route.iterations,
                        j.spec.config.sizing_rounds,
                    );
                    both.entry(key).or_default()[usize::from(j.spec.flow == "Macro-3D")] =
                        Some(res);
                }
            }
            for (key, pair) in both {
                let [Some(r2d), Some(r3d)] = pair else {
                    continue;
                };
                let ratio = r3d.ppa.footprint_mm2 / r2d.ppa.footprint_mm2;
                if !(0.45..=0.55).contains(&ratio) {
                    bad.push(format!("3D/2D footprint ratio {ratio:.3} at {key:?}"));
                }
                pairs += 1;
                wins += usize::from(r3d.ppa.fclk_mhz > r2d.ppa.fclk_mhz);
            }
        }
        eprintln!(
            "Macro-3D fclk above 2D on {wins} of {pairs} tile/knob pairs (reported, not checked)"
        );
        bad
    }
}
