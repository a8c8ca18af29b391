//! Power-cut torture campaign (`repro torture`): deterministically
//! enumerate every crash point a recovery-critical workload crosses —
//! journal appends, meta-mirror write-throughs, grown-bad-block remaps,
//! scrub repair passes, explicit L2P flushes, and the classic pre-op
//! `ftl.power_loss` gate — cut power at each one, and grade what the
//! device recovers to.
//!
//! A crash point is one fuzz schedule: the workload below as
//! [`FuzzOp`]s plus one [`FuzzOp::ArmCut`], run through the fuzz
//! executor ([`SsdFuzz`]) and judged by its oracle — after the cut the
//! device recovers twice (recovery must be idempotent), reads back the
//! whole span, runs the rest of the workload, and reads back again. The
//! LBA whose operation the cut interrupted may hold its pre-op or its
//! post-op content, never anything else. The executor's report maps to
//! a [`CrashVerdict`]:
//!
//! * the oracle passed and saw no error → [`CrashVerdict::Clean`];
//! * it passed, but the device answered with lawful errors, went
//!   read-only, or failed to recover → [`CrashVerdict::LoudDegraded`];
//! * it failed — data the shadow model rules out, a wild L2P entry, an
//!   illegal error, a non-idempotent recovery →
//!   [`CrashVerdict::SilentCorruption`], the failure the campaign exists
//!   to catch;
//! * the armed cut never fired → [`CrashVerdict::NotTriggered`], a
//!   coverage bug that cannot pass as clean.
//!
//! Crash points come from a census pass ([`census_config`]): the workload
//! runs once through the same executor with every site configured at
//! probability zero, the plane counts crossings, and
//! [`TorturePlan::enumerate`] turns the census into the schedule —
//! exhaustive in the default configuration, seeded stratified sampling at
//! `--full` scale. Each point runs as one shard under a [`Supervisor`]:
//! panics are isolated with the shard's seed captured, and
//! `--checkpoint`/`--resume` persist completed shards so an interrupted
//! campaign finishes bit-identical to an uninterrupted one.

use std::path::Path;

use ssdhammer_ftl::CRASH_SITES;
use ssdhammer_simkit::faultplane::{FaultPlaneConfig, FaultSpec};
use ssdhammer_simkit::fuzz::Verdict;
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::{JsonCodec, ShardOutcome, SupervisedReport, Supervisor};
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::torture::{
    census_config, measure_crossings, CrashPoint, CrashVerdict, SiteCrossings, TorturePlan,
};

use crate::fuzz::{supervise, FuzzOp, SsdFuzz};

/// Structured-result schema identifier.
pub const SCHEMA: &str = "ssdhammer-torture-v1";

/// One torture shard's result: which crossing was cut and what the oracle
/// concluded about the recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashOutcome {
    /// The crash site that was cut.
    pub site: String,
    /// Which crossing of the site was cut (per-site consult index).
    pub index: u64,
    /// The oracle's verdict on the recovered device.
    pub verdict: CrashVerdict,
}

impl ToJson for CrashOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("site", Json::str(self.site.as_str())),
            ("index", Json::from(self.index)),
            ("verdict", self.verdict.to_json()),
        ])
    }
}

/// Campaign options beyond `(seed, threads)` — the `repro torture` flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct TortureOpts<'a> {
    /// Larger workload and a sampling (non-exhaustive) crash schedule.
    pub full: bool,
    /// Persist completed shards to this checkpoint file.
    pub checkpoint: Option<&'a Path>,
    /// Restore completed shards from the checkpoint before running.
    pub resume: bool,
    /// Stop launching new shards after this many (kill-switch used by the
    /// checkpoint/resume round-trip in CI; skipped shards mark the run
    /// degraded).
    pub abort_after: Option<usize>,
}

/// Every site the campaign registers: the five in-operation
/// [`CRASH_SITES`] plus the pre-operation `ftl.power_loss` gate.
#[must_use]
pub fn torture_sites() -> Vec<&'static str> {
    let mut sites = CRASH_SITES.to_vec();
    sites.push("ftl.power_loss");
    sites
}

// ---- workload ---------------------------------------------------------------

/// The recovery-critical workload: write rounds with interleaved TRIMs,
/// explicit flushes, and scrub chunks, sized to cross every registered
/// crash site while fitting the tiny journal region. `--full` writes
/// LBAs 0–23, twice the fuzz generator's span.
fn workload(full: bool) -> Vec<FuzzOp> {
    let span = if full { 24 } else { 12 };
    let rounds = if full { 3 } else { 2 };
    let mut ops = Vec::new();
    for round in 0..rounds {
        for lba in 0..span {
            ops.push(FuzzOp::Write(lba, fill_byte(lba, round)));
        }
        if round + 1 == rounds {
            // TRIMs late in the schedule: their durability is exactly what
            // journal-append and meta-mirror cuts stress.
            for lba in (1..span).step_by(4) {
                ops.push(FuzzOp::Trim(lba));
            }
        }
        ops.push(FuzzOp::Flush);
        ops.push(FuzzOp::Scrub);
    }
    ops
}

/// Deterministic content for `(lba, round)` — distinct per round so stale
/// data is distinguishable from the current version.
fn fill_byte(lba: u64, round: u64) -> u8 {
    (round as u8)
        .wrapping_mul(64)
        .wrapping_add(lba as u8)
        .wrapping_add(1)
}

/// Crash-point budget for the schedule: generous enough that the default
/// workload enumerates exhaustively, tight enough that `--full` exercises
/// the stratified-sampling path.
fn plan_limit(full: bool) -> usize {
    if full {
        120
    } else {
        128
    }
}

/// Base (non-crash) faults: one deterministic program failure at the
/// third program attempt — a data page, so the workload crosses the
/// grown-bad-block retirement path exactly once — and every crash site
/// configured at probability zero, so the plane counts its crossings.
fn base_faults() -> FaultPlaneConfig {
    let program_fail = FaultPlaneConfig::new().with_site(
        "flash.program_fail",
        FaultSpec::always().with_window(2, 3).with_max_fires(1),
    );
    census_config(&program_fail, &torture_sites())
}

// ---- census + per-point run -------------------------------------------------

/// Runs the workload once with no cut armed and reads back how often it
/// crossed each site.
fn census(full: bool) -> Vec<SiteCrossings> {
    let run = SsdFuzz::default().run(&workload(full), &base_faults());
    measure_crossings(&run.plane, &torture_sites())
}

/// Runs the workload with power cut at `point` through the fuzz executor
/// and grades the executor's report.
fn run_crash_point(full: bool, point: &CrashPoint) -> CrashVerdict {
    let site = torture_sites().iter().position(|&s| s == point.site);
    let (Some(site), Ok(crossing)) = (site, u32::try_from(point.index)) else {
        return CrashVerdict::NotTriggered;
    };
    let mut ops = vec![FuzzOp::ArmCut(site as u8, crossing)];
    ops.extend(workload(full));
    let run = SsdFuzz::default().run(&ops, &base_faults());
    match run.verdict {
        Verdict::Fail(f) => CrashVerdict::SilentCorruption {
            detail: format!("{}: {}", f.signature, f.detail),
        },
        Verdict::Pass if run.plane.fired(&point.site) == 0 => CrashVerdict::NotTriggered,
        Verdict::Pass if run.loud.is_empty() => CrashVerdict::Clean,
        Verdict::Pass => CrashVerdict::LoudDegraded {
            detail: run.loud.join("; "),
        },
    }
}

// ---- campaign ---------------------------------------------------------------

fn decode_outcome(j: &Json) -> Option<CrashOutcome> {
    let site = j.get("site").and_then(Json::as_str)?.to_string();
    let index = j.get("index").and_then(Json::as_u64)?;
    let v = j.get("verdict")?;
    let detail = v
        .get("detail")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let verdict = match v.get("status").and_then(Json::as_str)? {
        "clean" => CrashVerdict::Clean,
        "loud_degraded" => CrashVerdict::LoudDegraded { detail },
        "silent_corruption" => CrashVerdict::SilentCorruption { detail },
        "not_triggered" => CrashVerdict::NotTriggered,
        _ => return None,
    };
    Some(CrashOutcome {
        site,
        index,
        verdict,
    })
}

/// Runs the full campaign: census, crash-schedule enumeration, one
/// supervised shard per crash point, merged into the structured result
/// document. The document is bit-identical for any `threads`, and — when
/// checkpointed, killed, and resumed — bit-identical to an uninterrupted
/// run.
#[must_use]
pub fn run_supervised(seed: u64, threads: usize, opts: &TortureOpts<'_>) -> Json {
    let crossings = census(opts.full);
    let plan = TorturePlan::enumerate(&crossings, plan_limit(opts.full), seed);
    // Every shard runs the *same* workload — only the armed cut differs —
    // so the shard keys off the trial index alone.
    let (report, registry) = supervise(
        Supervisor::new(seed)
            .with_tag("torture")
            .with_threads(threads),
        plan.points.len(),
        opts.checkpoint,
        opts.resume,
        opts.abort_after,
        JsonCodec {
            encode: CrashOutcome::to_json,
            decode: decode_outcome,
        },
        |ctx| {
            let point = &plan.points[ctx.trial.index];
            CrashOutcome {
                site: point.site.clone(),
                index: point.index,
                verdict: run_crash_point(opts.full, point),
            }
        },
    );
    document(seed, opts.full, &crossings, &plan, &report, &registry)
}

/// Convenience entry without checkpointing.
#[must_use]
pub fn run(seed: u64, threads: usize, full: bool) -> Json {
    run_supervised(
        seed,
        threads,
        &TortureOpts {
            full,
            ..TortureOpts::default()
        },
    )
}

/// Assembles the structured result document and bumps the `torture.*`
/// counters from the same tallies. `resumed` is deliberately omitted: it
/// differs between a resumed and an uninterrupted run of the same
/// campaign, and the document must not.
fn document(
    seed: u64,
    full: bool,
    crossings: &[SiteCrossings],
    plan: &TorturePlan,
    report: &SupervisedReport<CrashOutcome>,
    registry: &Telemetry,
) -> Json {
    let mut clean = 0u64;
    let mut loud = 0u64;
    let mut silent = 0u64;
    let mut not_triggered = 0u64;
    let rows: Vec<Json> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let p = &plan.points[i];
            let mut fields = vec![
                ("site", Json::str(p.site.as_str())),
                ("index", Json::from(p.index)),
                ("shard", Json::str(o.status())),
            ];
            if let ShardOutcome::Ok(out) = o {
                match out.verdict {
                    CrashVerdict::Clean => clean += 1,
                    CrashVerdict::LoudDegraded { .. } => loud += 1,
                    CrashVerdict::SilentCorruption { .. } => silent += 1,
                    CrashVerdict::NotTriggered => not_triggered += 1,
                }
                fields.push(("verdict", out.verdict.to_json()));
            }
            Json::obj(fields)
        })
        .collect();
    registry
        .counter("torture.crash_points")
        .add(plan.points.len() as u64);
    registry.counter("torture.clean").add(clean);
    registry.counter("torture.loud_degraded").add(loud);
    registry.counter("torture.silent_corruption").add(silent);
    registry.counter("torture.not_triggered").add(not_triggered);
    let sites: Vec<Json> = crossings
        .iter()
        .map(|s| {
            Json::obj([
                ("site", Json::str(s.site.as_str())),
                ("crossings", Json::from(s.crossings)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::from(seed)),
        ("full", Json::from(full)),
        ("sites", Json::Arr(sites)),
        (
            "plan",
            Json::obj([
                ("crash_points", Json::from(plan.points.len())),
                ("total_crossings", Json::from(plan.total_crossings)),
                ("exhaustive", Json::from(plan.exhaustive)),
            ]),
        ),
        ("degraded", Json::from(report.degraded())),
        (
            "summary",
            Json::obj([
                ("clean", Json::from(clean)),
                ("loud_degraded", Json::from(loud)),
                ("silent_corruption", Json::from(silent)),
                ("not_triggered", Json::from(not_triggered)),
                ("timeouts", Json::from(report.timeouts)),
                ("panics", Json::from(report.panics)),
                ("skipped", Json::from(report.skipped)),
                ("retries", Json::from(report.retries)),
            ]),
        ),
        ("results", Json::Arr(rows)),
    ])
}

/// Renders the campaign document as a table.
#[must_use]
pub fn render(doc: &Json) -> String {
    let mut out =
        String::from("power-cut torture campaign: crash-point enumeration x recovery oracle\n");
    let get_u64 = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    if let Some(plan) = doc.get("plan") {
        out.push_str(&format!(
            "schedule: {} crash points over {} crossings ({})\n",
            get_u64(plan, "crash_points"),
            get_u64(plan, "total_crossings"),
            if plan.get("exhaustive").and_then(Json::as_bool) == Some(true) {
                "exhaustive"
            } else {
                "stratified sample"
            },
        ));
    }
    out.push_str(
        "site                        crossings  points  clean  loud  silent  untriggered\n",
    );
    let results = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    if let Some(sites) = doc.get("sites").and_then(Json::as_arr) {
        for s in sites {
            let name = s.get("site").and_then(Json::as_str).unwrap_or("?");
            let verdict_count = |status: &str| {
                results
                    .iter()
                    .filter(|r| {
                        r.get("site").and_then(Json::as_str) == Some(name)
                            && r.get("verdict")
                                .and_then(|v| v.get("status"))
                                .and_then(Json::as_str)
                                == Some(status)
                    })
                    .count()
            };
            let points = results
                .iter()
                .filter(|r| r.get("site").and_then(Json::as_str) == Some(name))
                .count();
            out.push_str(&format!(
                "{:<27} {:>9} {:>7} {:>6} {:>5} {:>7} {:>12}\n",
                name,
                get_u64(s, "crossings"),
                points,
                verdict_count("clean"),
                verdict_count("loud_degraded"),
                verdict_count("silent_corruption"),
                verdict_count("not_triggered"),
            ));
        }
    }
    if let Some(summary) = doc.get("summary") {
        out.push_str(&format!(
            "totals: clean={} loud={} silent={} untriggered={} timeouts={} panics={} skipped={}\n",
            get_u64(summary, "clean"),
            get_u64(summary, "loud_degraded"),
            get_u64(summary, "silent_corruption"),
            get_u64(summary, "not_triggered"),
            get_u64(summary, "timeouts"),
            get_u64(summary, "panics"),
            get_u64(summary, "skipped"),
        ));
    }
    if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
        out.push_str("WARNING: partial results (degraded run)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_crosses_every_registered_site() {
        let crossings = census(false);
        for s in &crossings {
            assert!(
                s.crossings > 0,
                "site {} never crossed by the default workload",
                s.site
            );
        }
        // The default schedule enumerates every crossing of every site.
        let plan = TorturePlan::enumerate(&crossings, plan_limit(false), 7);
        assert!(plan.exhaustive, "default config must be exhaustive");
        assert_eq!(plan.sites().len(), torture_sites().len());
    }

    #[test]
    fn every_enumerated_point_fires_and_none_corrupts_silently() {
        let doc = run(7, 4, false);
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert!(!results.is_empty());
        // Coverage: enumerated sites == sites fired. A `not_triggered`
        // verdict means the schedule and the workload disagree.
        for r in results {
            let status = r
                .get("verdict")
                .and_then(|v| v.get("status"))
                .and_then(Json::as_str)
                .expect("verdict status");
            assert_ne!(
                status,
                "not_triggered",
                "crash point {}@{} never fired",
                r.get("site").and_then(Json::as_str).unwrap_or("?"),
                r.get("index").and_then(Json::as_u64).unwrap_or(0),
            );
            assert_ne!(
                status,
                "silent_corruption",
                "silent corruption at {}@{}: {:?}",
                r.get("site").and_then(Json::as_str).unwrap_or("?"),
                r.get("index").and_then(Json::as_u64).unwrap_or(0),
                r.get("verdict")
                    .and_then(|v| v.get("detail"))
                    .and_then(Json::as_str),
            );
        }
        let summary = doc.get("summary").expect("summary");
        assert_eq!(
            summary.get("silent_corruption").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(summary.get("not_triggered").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn a_cut_past_the_last_crossing_is_not_triggered() {
        let point = CrashPoint {
            site: "ftl.crash.l2p_flush".to_string(),
            index: 1000,
        };
        assert_eq!(run_crash_point(false, &point), CrashVerdict::NotTriggered);
    }

    #[test]
    fn thread_count_does_not_change_the_document() {
        let one = run(11, 1, false).to_string();
        let four = run(11, 4, false).to_string();
        assert_eq!(one, four);
    }

    #[test]
    fn abort_after_zero_aborts_before_the_first_shard() {
        // The boundary: `--abort-after 0` must skip every shard — zero
        // crash points replay, the run reports fully skipped/degraded.
        let doc = run_supervised(
            7,
            2,
            &TortureOpts {
                full: false,
                checkpoint: None,
                resume: false,
                abort_after: Some(0),
            },
        );
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        let summary = doc.get("summary").expect("summary");
        let total = doc
            .get("plan")
            .and_then(|p| p.get("crash_points"))
            .and_then(Json::as_u64)
            .expect("crash points");
        assert!(total > 0);
        assert_eq!(summary.get("skipped").and_then(Json::as_u64), Some(total));
        for key in ["clean", "loud_degraded", "silent_corruption"] {
            assert_eq!(summary.get(key).and_then(Json::as_u64), Some(0), "{key}");
        }
    }

    #[test]
    fn aborted_campaign_resumes_bit_identical() {
        let mut path = std::env::temp_dir();
        path.push(format!("ssdhammer-torture-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let uninterrupted = run(7, 2, false).to_string();
        let killed = run_supervised(
            7,
            2,
            &TortureOpts {
                full: false,
                checkpoint: Some(&path),
                resume: false,
                abort_after: Some(5),
            },
        );
        assert_eq!(killed.get("degraded").and_then(Json::as_bool), Some(true));
        let resumed = run_supervised(
            7,
            1,
            &TortureOpts {
                full: false,
                checkpoint: Some(&path),
                resume: true,
                abort_after: None,
            },
        );
        assert_eq!(resumed.to_string(), uninterrupted);
        let _ = std::fs::remove_file(&path);
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro torture` (the binary's `--checkpoint`,
/// `--resume`, and `--abort-after` flags route through the cfg).
#[derive(Debug, Clone, Copy)]
pub struct TortureScenario;

impl TortureScenario {
    fn opts(cfg: &ScenarioCfg) -> TortureOpts<'_> {
        TortureOpts {
            full: cfg.full,
            checkpoint: cfg.checkpoint.as_deref(),
            resume: cfg.resume,
            abort_after: cfg.abort_after,
        }
    }
}

impl Scenario for TortureScenario {
    fn name(&self) -> &'static str {
        "torture"
    }

    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Json {
        run_supervised(seed, threads, &Self::opts(&cfg))
    }

    fn render(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> String {
        render(&run_supervised(seed, threads, &Self::opts(&cfg)))
    }
}
