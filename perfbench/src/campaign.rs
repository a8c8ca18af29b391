//! `campaign`: a supervised fuzz soak plus the full torture plan, both on
//! two threads. A batch job. It is the only workload that runs the
//! `Supervisor`, FTL crash/recover journal replay and registry-driven
//! `AttackPipeline` bursts.
//!
//! The untraced run times the program's own entry points, `fuzz::run_soak`
//! and `torture::run`. The traced run repeats the soak through a
//! `Supervisor` configured like `run_soak`'s, timing every
//! `simkit::fuzz::run_episode` call, and must reach the same verdicts.
//! Every run ends with one untimed round on a single thread, whose digest
//! must equal the two-thread rounds'.

use ssdhammer_bench::fuzz::{run_soak, FuzzOp, FuzzOpts, SsdFuzz};
use ssdhammer_bench::torture;
use ssdhammer_simkit::fuzz::{gen_ops, run_episode, FuzzTarget, Verdict};
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::supervisor::{ShardOutcome, Supervisor};
use ssdhammer_simkit::SimDuration;

use crate::measure::{host_slowdown, median, quantile, timed, Digest, Report};
use crate::Args;

/// Worker threads of every timed soak and torture plan.
const THREADS: usize = 2;
/// Fuzz episodes per soak.
const EPISODES: usize = 3000;
/// `run_soak`'s episode length and shrink budget.
const OPS_PER_EPISODE: usize = 40;
const SHRINK_BUDGET: usize = 4000;
/// Empty episodes timed after every untraced round for `setup_s`.
const SETUP_REPS: usize = 51;

fn field(doc: &Json, path: &[&str]) -> u64 {
    let mut j = doc;
    for key in path {
        match j.get(key) {
            Some(next) => j = next,
            None => return 0,
        }
    }
    j.as_u64().unwrap_or(0)
}

/// One untraced round: the soak and the torture plan through the
/// program's entry points, on `threads` workers.
struct Round {
    soak_s: f64,
    torture_s: f64,
    episodes: u64,
    points: u64,
    failed: u64,
    pass: u64,
    hammer_bursts: u64,
    digest: Digest,
}

fn round(seed: u64, threads: usize) -> Round {
    let opts = FuzzOpts {
        soak: Some(EPISODES),
        ..FuzzOpts::default()
    };
    let (soak_s, soak) = timed(|| run_soak(seed, threads, &opts));
    let (torture_s, plan) = timed(|| torture::run(seed, threads, true));
    let unfinished = |doc: &Json| {
        ["timeouts", "panics", "skipped"]
            .iter()
            .map(|k| field(doc, &["summary", k]))
            .sum::<u64>()
    };
    let points = field(&plan, &["plan", "crash_points"]);
    let degraded =
        |doc: &Json| u64::from(doc.get("degraded").and_then(Json::as_bool) != Some(false));
    let failed = field(&soak, &["summary", "fail"])
        + unfinished(&soak)
        + degraded(&soak)
        + (points - field(&plan, &["summary", "clean"]).min(points))
        + degraded(&plan);
    let mut digest = Digest::default();
    digest.bytes(soak.to_string().as_bytes());
    digest.bytes(plan.to_string().as_bytes());
    Round {
        soak_s,
        torture_s,
        episodes: field(&soak, &["episodes"]),
        points,
        failed,
        pass: field(&soak, &["summary", "pass"]),
        hammer_bursts: field(&soak, &["summary", "hammer_bursts"]),
        digest,
    }
}

/// The traced soak's timings and verdicts.
struct TracedSoak {
    wall_s: f64,
    episode_s: Vec<f64>,
    pass: u64,
    bursts: u64,
}

/// The soak again, through a supervisor set up like `run_soak`'s, with
/// every episode timed. A first attempt runs at `Supervisor::trial_seed(i)`,
/// the seed `run_soak` gives episode `i`.
fn traced_soak(args: &Args, r: &mut Report) -> TracedSoak {
    let target = SsdFuzz::default();
    let sup = Supervisor::new(args.seed)
        .with_tag("fuzz")
        .with_threads(THREADS)
        .with_sim_budget(SimDuration::from_secs(600))
        .with_max_retries(1);
    let (wall_s, report) = timed(|| {
        sup.run(EPISODES, |ctx| {
            let seed = ctx.trial.seed;
            let bursts = gen_ops(&target, seed, OPS_PER_EPISODE)
                .iter()
                .filter(|op| matches!(op, FuzzOp::Hammer(_)))
                .count() as u64;
            let (secs, failure) =
                timed(|| run_episode(&target, seed, OPS_PER_EPISODE, SHRINK_BUDGET));
            (failure.is_none(), bursts, secs)
        })
    });
    let mut soak = TracedSoak {
        wall_s,
        episode_s: Vec::with_capacity(EPISODES),
        pass: 0,
        bursts: 0,
    };
    for o in &report.outcomes {
        match o {
            ShardOutcome::Ok((passed, bursts, secs)) => {
                soak.pass += u64::from(*passed);
                soak.bursts += bursts;
                soak.episode_s.push(*secs);
            }
            other => r
                .notes
                .push(format!("traced soak shard ended {}", other.status())),
        }
    }
    soak
}

/// Runs the workload and fills in its report.
pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    // The campaign has no shared set-up: each episode builds its own device
    // and ends with a full-span readback. An episode with no ops is exactly
    // that fixed cost, through `SsdFuzz::execute` itself. It is timed after
    // every round, so that its samples span the run like the rounds'; timed
    // only at start-up, its median split between two levels from run to run.
    let target = SsdFuzz::default();
    let mut empty = Vec::new();
    let mut rounds = Vec::new();
    let mut traced = Vec::new();
    let mut slowdowns = Vec::new();
    let mut elapsed = 0.0;
    while elapsed < args.seconds || rounds.is_empty() {
        if !args.trace {
            slowdowns.push(host_slowdown(THREADS));
        }
        let (secs, x) = timed(|| round(args.seed, THREADS));
        elapsed += secs;
        r.attempted += x.episodes + x.points;
        r.failed += x.failed;
        r.repeat_digest("campaign round", x.digest);
        if args.trace {
            let (secs, soak) = timed(|| traced_soak(args, &mut r));
            elapsed += secs;
            if (soak.pass, soak.bursts) != (x.pass, x.hammer_bursts) {
                r.problems.push(format!(
                    "traced soak passed {} episodes with {} bursts, run_soak {} with {}",
                    soak.pass, soak.bursts, x.pass, x.hammer_bursts
                ));
            }
            traced.push(soak);
        }
        rounds.push(x);
        r.first_unit_done();
        if !args.trace {
            for _ in 0..SETUP_REPS {
                let (secs, verdict) = timed(|| target.execute(&[]));
                r.attempted += 1;
                match verdict {
                    Verdict::Pass => empty.push(secs),
                    _ => {
                        r.failed += 1;
                        r.notes.push("empty fuzz episode did not pass".to_string());
                    }
                }
            }
        }
    }
    // Thread-count invariance: the same round on one thread.
    let one = round(args.seed, 1);
    r.attempted += one.episodes + one.points;
    r.failed += one.failed;
    r.repeat_digest("campaign round at 1 thread", one.digest);
    r.notes.push(format!(
        "campaign: {} rounds of {EPISODES} fuzz episodes + {} torture points at {THREADS} \
         threads, then one at 1 thread",
        rounds.len(),
        rounds[0].points,
    ));
    let plain_soak_s = median(&rounds.iter().map(|x| x.soak_s).collect::<Vec<_>>());
    if !args.trace {
        let rates: Vec<f64> = rounds
            .iter()
            .map(|x| (x.episodes + x.points) as f64 / (x.soak_s + x.torture_s))
            .collect();
        r.notes.push(format!(
            "campaign: units per second by round {rates:?}; host slowdown before each {slowdowns:?}"
        ));
        r.normalized(&empty, &rates, &slowdowns);
        return r;
    }
    let episode_s: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.episode_s.iter().copied())
        .collect();
    let traced_soak_s = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    // Share of the soak's thread time spent inside episodes.
    let busy = median(
        &traced
            .iter()
            .map(|t| t.episode_s.iter().sum::<f64>() / (t.wall_s * THREADS as f64))
            .collect::<Vec<_>>(),
    );
    r.metric(
        "bench.episode_p50_ms",
        quantile(&episode_s, 0.5) * 1e3,
        "ms",
    );
    r.metric(
        "bench.episode_p99_ms",
        quantile(&episode_s, 0.99) * 1e3,
        "ms",
    );
    r.metric("bench.episode_samples", episode_s.len() as f64, "count");
    r.metric("simkit.supervisor_overhead_frac", 1.0 - busy, "ratio");
    r.metric(
        "bench.torture_s",
        median(&rounds.iter().map(|x| x.torture_s).collect::<Vec<_>>()),
        "s",
    );
    r.metric(
        "trace.overhead_frac",
        traced_soak_s / plain_soak_s - 1.0,
        "ratio",
    );
    r
}
