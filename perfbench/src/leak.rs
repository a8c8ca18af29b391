//! `leak_paper`: the §4.2 spray → fill → recon → hammer → scan → clear
//! ext4 leak at the paper's prototype scale (`repro fig3 --full`'s
//! configuration), one attack cycle per case study, case studies at eight
//! seeds derived from `--seed`, taken in turn for the run's length. A batch
//! job, single-threaded.
//!
//! The untraced run times the program's own entry point, `run_case_study`.
//! The traced run alternates it with [`driver`], which rebuilds
//! `run_case_study`'s loop from the crates' public functions with a span
//! around each stage, around the calls into the filesystem, and around
//! every call of a timing [`BlockDevice`] under it. The two must report
//! the same outcome, or the run fails.

use std::collections::BTreeSet;

use ssdhammer_cloud::{
    run_case_study, AttackSetup, AttackerVm, CaseStudyConfig, CaseStudyOutcome, CloudError,
    CycleReport, PartitionView, SharedSsd, VictimVm, VictimVmOptions, ATTACKER_UID,
    LEGIT_BINARY_MARKER, SECRET_MARKER,
};
use ssdhammer_core::{
    clear_spray, cross_partition_sites, dump_through_hit, find_attack_sites, scan_for_leaks,
    spray_filesystem, AttackSite, LbaRange, SprayPlan,
};
use ssdhammer_fs::{AddressingMode, Credentials, FileSystem, FsBlock, FsError, InodeMap};
use ssdhammer_nvme::Ssd;
use ssdhammer_simkit::json::ToJson;
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::{BlockDevice, Lba, StorageResult, BLOCK_SIZE};

use crate::measure::{host_slowdown, median, timed, Digest, Report};
use crate::{Args, STAGES};

/// Attack cycles per case study. One cycle keeps the work nearly the same
/// on every seed: the first cycle cannot abort on corrupted metadata
/// (nothing has been hammered yet), and it rarely leaks, which would skip
/// its clear stage.
const CYCLES: u32 = 1;

/// Case-study seeds per run. A first cycle that leaks takes about a
/// quarter less time, so one seed per run would make that seed's whole run
/// an outlier; with several, the median case study is a typical one.
const SEEDS: usize = 8;

/// Set-ups timed after each case study for `setup_s`, so that the set-up
/// samples span the run like the case studies; timed in one block at
/// start-up, their median moved with the state of a fresh process.
const SETUP_REPS: usize = 4;

/// The configuration of the run's `k`-th case-study seed. Distinct
/// `--seed` values give disjoint case-study seeds.
fn config(seed: u64, k: usize) -> CaseStudyConfig {
    let case_seed = seed.wrapping_mul(SEEDS as u64).wrapping_add(k as u64);
    let mut config = CaseStudyConfig::paper_prototype(case_seed);
    config.max_cycles = CYCLES;
    config
}

/// Digest of everything the case study simulated; no host timing.
fn digest(o: &CaseStudyOutcome) -> Digest {
    let mut d = Digest::default();
    d.bytes(cycles_json(&o.cycles).as_bytes());
    d.u64(u64::from(o.success));
    d.u64(o.total_time.as_nanos());
    d.u64(o.corruption_events as u64);
    d.u64(u64::from(o.aborted_by_corruption));
    if let Some(block) = &o.leaked_block {
        d.bytes(block);
    }
    d
}

fn cycles_json(cycles: &[CycleReport]) -> String {
    cycles
        .iter()
        .map(|c| c.to_json().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs the workload and fills in its report.
pub fn run(args: &Args) -> Report {
    let configs: Vec<CaseStudyConfig> = (0..SEEDS).map(|k| config(args.seed, k)).collect();
    let mut r = Report::default();
    let mut digests = [None; SEEDS];
    if args.trace {
        traced(args, &configs, &mut digests, &mut r);
    } else {
        untraced(args, &configs, &mut digests, &mut r);
    }
    // The workload's digest covers every case-study seed the run reached.
    let mut d = Digest::default();
    for k in digests.iter().flatten() {
        d.u64(k.value());
    }
    r.digest = Some(d);
    r
}

/// Folds the outcome of the `k`-th seed's case study into the report:
/// operation count, the correctness checks, and the seed's digest, which
/// must equal every earlier one of the same seed. That is the determinism
/// check across repeats and, in a traced run, which runs each seed through
/// both, the driver-vs-`run_case_study` equivalence check.
fn check(
    r: &mut Report,
    digests: &mut [Option<Digest>; SEEDS],
    k: usize,
    what: &str,
    out: Result<&CaseStudyOutcome, &CloudError>,
) {
    r.attempted += 1;
    match out {
        Ok(o) => {
            if o.leaked_block
                .as_ref()
                .is_some_and(|b| !b.starts_with(SECRET_MARKER))
            {
                r.failed += 1;
                r.notes
                    .push(format!("{what}: leaked block lacks the secret marker"));
            }
            let d = digest(o);
            match digests[k] {
                None => digests[k] = Some(d),
                Some(first) if first != d => r.problems.push(format!(
                    "{what}: seed {k} digest {} differs from the first one's {}",
                    d.hex(),
                    first.hex()
                )),
                Some(_) => {}
            }
        }
        Err(e) => {
            r.failed += 1;
            r.notes.push(format!("{what}: {e}"));
        }
    }
}

/// Times one set-up of `config`: the device build and the two tenants'
/// provisioning that `run_case_study` starts with.
fn time_setup(config: &CaseStudyConfig, r: &mut Report, setups: &mut Vec<f64>) {
    let (secs, provisioned) = timed(|| -> Result<(), CloudError> {
        let shared = SharedSsd::new(Ssd::build(config.ssd.clone()));
        VictimVm::provision_with(
            &shared,
            VictimVmOptions {
                blocks: config.victim_blocks,
                filler_blocks: config.victim_filler_blocks,
                encryption_key: config.victim_encryption_key,
                extents_only: config.victim_extents_only,
            },
        )?;
        AttackerVm::provision(&shared, config.attacker_blocks)?;
        Ok(())
    });
    r.attempted += 1;
    match provisioned {
        Ok(()) => setups.push(secs),
        Err(e) => {
            r.failed += 1;
            r.notes.push(format!("set-up failed: {e}"));
        }
    }
}

fn untraced(
    args: &Args,
    configs: &[CaseStudyConfig],
    digests: &mut [Option<Digest>; SEEDS],
    r: &mut Report,
) {
    // A case study is its set-up plus its cycles. The seeds are taken in
    // turn until the time is up and every seed has run; one more than
    // that repeats the first seed, so every run checks determinism.
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    let mut slowdowns = Vec::new();
    let mut elapsed = 0.0;
    let mut k = 0;
    while elapsed < args.seconds || k <= SEEDS {
        let slow = host_slowdown(1);
        let (secs, out) = timed(|| run_case_study(&configs[k % SEEDS]));
        elapsed += secs;
        check(r, digests, k % SEEDS, "run_case_study", out.as_ref());
        k += 1;
        let Ok(o) = out else { break };
        if o.cycles.is_empty() {
            r.problems
                .push("a case study ran no attack cycle".to_string());
            return;
        }
        cases.push((secs, o.cycles.len()));
        slowdowns.push(slow);
        if k == SEEDS {
            // One pass over the seeds is the unit: a seed whose first
            // cycle leaks peaks lower.
            r.first_unit_done();
        }
        for i in 0..SETUP_REPS {
            time_setup(&configs[(k + i) % SEEDS], r, &mut setups);
        }
    }
    let setup_s = median(&setups);
    let rates: Vec<f64> = cases
        .iter()
        .map(|&(secs, cycles)| cycles as f64 / (secs - setup_s))
        .collect();
    r.notes.push(format!(
        "leak_paper: host seconds per case study of {CYCLES} cycle(s), seeds in turn {:?}; \
         host slowdown before each {slowdowns:?}",
        cases.iter().map(|c| c.0).collect::<Vec<_>>()
    ));
    r.normalized(&setups, &rates, &slowdowns);
}

/// Alternates `run_case_study` with the traced driver on the seeds in
/// turn for the run's length; per-layer times are medians over the traced
/// case studies, counts are the first seed's.
fn traced(
    args: &Args,
    configs: &[CaseStudyConfig],
    digests: &mut [Option<Digest>; SEEDS],
    r: &mut Report,
) {
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut runs = Vec::new();
    let mut elapsed = 0.0;
    while elapsed < args.seconds || runs.is_empty() {
        let k = runs.len() % SEEDS;
        let config = &configs[k];
        let (p, plain) = timed(|| run_case_study(config));
        check(r, digests, k, "run_case_study", plain.as_ref());
        let (t, traced) = timed(|| driver(config));
        check(
            r,
            digests,
            k,
            "traced driver",
            traced.as_ref().map(|d| &d.outcome),
        );
        elapsed += p + t;
        let (Ok(plain), Ok(traced)) = (plain, traced) else {
            return;
        };
        if runs.is_empty() {
            r.notes.push(format!(
                "run_case_study cycles: {}",
                cycles_json(&plain.cycles)
            ));
            r.notes.push(format!(
                "driver cycles:         {}",
                cycles_json(&traced.outcome.cycles)
            ));
        }
        plain_s.push(p);
        // Like for like: `run_case_study` stops before a leaking cycle's
        // clear.
        traced_s.push(t - traced.after_leak_s);
        runs.push(traced.stages);
    }
    let med = |f: &dyn Fn(&Stage) -> f64, i: usize| -> f64 {
        median(&runs.iter().map(|st| f(&st[i])).collect::<Vec<_>>())
    };
    for (i, st) in STAGES.iter().enumerate() {
        let s = runs[0][i];
        let (core, fs_self, dev) = (
            med(&|s| s.core_s, i),
            med(&|s| s.fs_self_s(), i),
            med(&|s| s.dev_s(), i),
        );
        r.metric(format!("core.{st}_s"), core, "s");
        r.metric(format!("fs.{st}_self_s"), fs_self, "s");
        r.metric(format!("nvme.{st}_dev_s"), dev, "s");
        r.metric(format!("nvme.{st}_cmds"), s.delta.host_cmds as f64, "count");
        r.metric(
            format!("fs.{st}_block_reads"),
            s.delta.fs_block_reads as f64,
            "count",
        );
        r.metric(
            format!("ftl.{st}_l2p_reads"),
            s.delta.l2p_reads as f64,
            "count",
        );
        r.metric(
            format!("dram.{st}_activations"),
            s.delta.activations as f64,
            "count",
        );
        r.metric(
            format!("flash.{st}_reads"),
            s.delta.flash_reads as f64,
            "count",
        );
        r.notes.push(format!(
            "{st:>6}: core {core:.4}s = fs self {fs_self:.4}s + dev {dev:.4}s + rest {:.4}s; \
             {} fs device calls, {} FTL host commands",
            core - fs_self - dev,
            s.delta.dev_calls,
            s.delta.host_cmds,
        ));
    }
    let (p, t) = (median(&plain_s), median(&traced_s));
    r.notes.push(format!(
        "{} pairs; host s per case study incl. set-up: run_case_study {p:.4}, traced driver {t:.4}",
        runs.len()
    ));
    let overhead = t / p - 1.0;
    r.metric("trace.overhead_frac", overhead, "ratio");
    // The spray stage's own bookkeeping (building the plan) is all that
    // lies outside the filesystem and device spans; allow it the share the
    // tracing costs.
    let spray = med(&|s| s.core_s, SPRAY);
    let rest = med(&|s| s.core_s - s.fs_self_s() - s.dev_s(), SPRAY);
    r.notes.push(format!(
        "spray remainder {rest:.6}s (median per case study), allowed {:.4}s",
        overhead.abs() * spray
    ));
    if rest.abs() > overhead.abs() * spray {
        r.problems.push(format!(
            "core.spray_s {spray:.4}s differs from fs.spray_self_s + nvme.spray_dev_s by \
             {rest:.4}s, more than the tracing overhead ({overhead:.3} of it)"
        ));
    }
}

// ---- driver -------------------------------------------------------------

/// A [`BlockDevice`] that counts and times every call into the device
/// below it: two host-clock reads per call, which is most of the traced
/// run's overhead.
#[derive(Debug)]
struct TimedDevice<D> {
    inner: D,
    secs: f64,
    calls: u64,
}

impl<D: BlockDevice> TimedDevice<D> {
    fn call<T>(&mut self, f: impl FnOnce(&mut D) -> T) -> T {
        self.calls += 1;
        let inner = &mut self.inner;
        let (secs, out) = timed(|| f(inner));
        self.secs += secs;
        out
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> StorageResult<()> {
        self.call(|d| d.read(lba, buf))
    }

    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()> {
        self.call(|d| d.write(lba, buf))
    }

    fn trim(&mut self, lba: Lba) -> StorageResult<()> {
        self.call(|d| d.trim(lba))
    }

    fn flush(&mut self) -> StorageResult<()> {
        self.call(BlockDevice::flush)
    }
}

type VictimFs = FileSystem<TimedDevice<PartitionView>>;

/// Counter readings at a stage boundary.
#[derive(Debug, Default, Clone, Copy)]
struct Probe {
    dev_s: f64,
    dev_calls: u64,
    fs_block_reads: u64,
    host_cmds: u64,
    l2p_reads: u64,
    activations: u64,
    flash_reads: u64,
}

impl Probe {
    fn take(fs: &mut VictimFs, shared: &SharedSsd, registry: &Telemetry) -> Probe {
        let dev = fs.device_mut();
        let ssd = shared.borrow();
        let ftl = ssd.ftl().telemetry();
        Probe {
            dev_s: dev.secs,
            dev_calls: dev.calls,
            fs_block_reads: registry.counter_value("fs.block_reads").unwrap_or(0),
            host_cmds: ftl.host_reads + ftl.host_writes + ftl.host_trims,
            l2p_reads: ftl.l2p_reads,
            activations: ssd.ftl().dram().telemetry().activations,
            flash_reads: ssd.ftl().nand().telemetry().reads,
        }
    }

    fn since(self, before: Probe) -> Probe {
        Probe {
            dev_s: self.dev_s - before.dev_s,
            dev_calls: self.dev_calls - before.dev_calls,
            fs_block_reads: self.fs_block_reads - before.fs_block_reads,
            host_cmds: self.host_cmds - before.host_cmds,
            l2p_reads: self.l2p_reads - before.l2p_reads,
            activations: self.activations - before.activations,
            flash_reads: self.flash_reads - before.flash_reads,
        }
    }

    fn add(&mut self, d: Probe) {
        self.dev_s += d.dev_s;
        self.dev_calls += d.dev_calls;
        self.fs_block_reads += d.fs_block_reads;
        self.host_cmds += d.host_cmds;
        self.l2p_reads += d.l2p_reads;
        self.activations += d.activations;
        self.flash_reads += d.flash_reads;
    }
}

/// One stage's totals over every cycle of a driver run.
#[derive(Debug, Default, Clone, Copy)]
struct Stage {
    /// Span around the whole stage.
    core_s: f64,
    /// Spans around the stage's calls into the filesystem.
    fs_s: f64,
    /// Spans around the stage's direct device calls (the helper VM's raw
    /// partition I/O, which bypasses the filesystem).
    direct_dev_s: f64,
    /// Counter deltas; `delta.dev_s` is the time inside the filesystem's
    /// device calls.
    delta: Probe,
}

impl Stage {
    fn dev_s(&self) -> f64 {
        self.delta.dev_s + self.direct_dev_s
    }

    fn fs_self_s(&self) -> f64 {
        self.fs_s - self.delta.dev_s
    }
}

const SPRAY: usize = 0;
const FILL: usize = 1;
const RECON: usize = 2;
const HAMMER: usize = 3;
const SCAN: usize = 4;
const CLEAR: usize = 5;

/// The victim VM's provisioning (`VictimVm::provision_with` without the
/// mitigation knobs), with the filesystem on a counting device.
fn provision_victim(
    shared: &SharedSsd,
    config: &CaseStudyConfig,
) -> Result<(VictimFs, LbaRange), CloudError> {
    let (ns, range) = shared.create_partition(config.victim_blocks)?;
    let view = PartitionView::new(shared.clone(), ns);
    let mut fs = FileSystem::format(TimedDevice {
        inner: view,
        secs: 0.0,
        calls: 0,
    })?;
    let root = Credentials::root();
    for (dir, perms) in [
        ("/root", 0o700),
        ("/sbin", 0o755),
        ("/srv", 0o755),
        ("/home", 0o755),
        ("/home/attacker", 0o777),
    ] {
        fs.mkdir(dir, root, perms)?;
    }
    let secret = fs.create("/root/id_ed25519", root, 0o600, AddressingMode::Extents)?;
    let mut key_block = [0u8; BLOCK_SIZE];
    key_block[..SECRET_MARKER.len()].copy_from_slice(SECRET_MARKER);
    for (i, b) in key_block[SECRET_MARKER.len()..].iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    fs.write_file_block(secret, root, 0, &key_block)?;
    let sudo = fs.create("/sbin/sudo", root, 0o755, AddressingMode::Extents)?;
    let mut bin_block = [0u8; BLOCK_SIZE];
    bin_block[..LEGIT_BINARY_MARKER.len()].copy_from_slice(LEGIT_BINARY_MARKER);
    fs.write_file_block(sudo, root, 0, &bin_block)?;
    let filler = config.victim_filler_blocks;
    for f in 0..filler.div_ceil(8) {
        let ino = fs.create(
            &format!("/srv/data-{f}"),
            root,
            0o644,
            AddressingMode::Extents,
        )?;
        for b in 0..8u32.min(filler - f * 8) {
            fs.write_file_block(ino, root, b, &[(f % 251) as u8; BLOCK_SIZE])?;
        }
    }
    Ok((fs, range))
}

/// What one driver run produced.
struct DriverRun {
    outcome: CaseStudyOutcome,
    /// Per-stage totals over every cycle.
    stages: [Stage; 6],
    /// Host seconds of the clear that follows a leaking cycle, which
    /// `run_case_study` does not run.
    after_leak_s: f64,
}

/// `run_case_study` for the helper-VM topology without mitigations, rebuilt
/// from public functions with a span per stage and around every device
/// call of the filesystem. A leaking cycle still runs its clear stage,
/// after the outcome is taken, so every traced cycle does the same stages.
fn driver(config: &CaseStudyConfig) -> Result<DriverRun, CloudError> {
    assert!(
        config.setup == AttackSetup::HelperVm
            && config.victim_encryption_key.is_none()
            && !config.victim_extents_only,
        "the driver mirrors the helper-VM topology without mitigations"
    );
    let shared = SharedSsd::new(Ssd::build(config.ssd.clone()));
    let registry = shared.borrow().telemetry();
    let (mut fs, victim_range) = provision_victim(&shared, config)?;
    fs.attach_telemetry(&registry);
    let mut helper = AttackerVm::provision(&shared, config.attacker_blocks)?;
    let attacker = Credentials::user(ATTACKER_UID);
    let t0 = shared.borrow().clock().now();

    let data_start = fs.superblock().data_start;
    let data_span = fs.superblock().total_blocks - data_start;
    let spray_count = ((config.spray_fraction * config.victim_blocks as f64) / 2.0).floor() as u32;
    let targets_per_payload = config.targets_per_payload as u32;
    let requests = (config.request_rate * config.hammer_per_site.as_secs_f64()).ceil() as u64;

    let mut stages = [Stage::default(); 6];
    let mut after_leak_s = 0.0;
    let mut cycles = Vec::new();
    let mut corruption_events = 0usize;
    let mut leaked: Option<Box<[u8]>> = None;
    let mut aborted_by_corruption = false;
    let mut total_time = None;

    for cycle in 0..config.max_cycles {
        let cycle_t0 = shared.borrow().clock().now();

        // spray
        let before = Probe::take(&mut fs, &shared, &registry);
        let mut fs_s = 0.0;
        let (core_s, spray) = timed(|| {
            let hot = targets_per_payload / 2;
            let window = cycle * (targets_per_payload - hot);
            let targets: Vec<FsBlock> = (0..hot)
                .map(|i| data_start + i % data_span)
                .chain(
                    (0..targets_per_payload - hot)
                        .map(|i| data_start + (hot + window + i) % data_span),
                )
                .collect();
            let plan = SprayPlan {
                dir: "/home/attacker".into(),
                prefix: format!("spray{cycle}-"),
                count: spray_count,
                targets,
            };
            let (s, spray) = timed(|| spray_filesystem(&mut fs, attacker, &plan));
            fs_s += s;
            spray
        });
        record(
            &mut stages[SPRAY],
            core_s,
            fs_s,
            0.0,
            before,
            &mut fs,
            &shared,
            &registry,
        );
        let spray = match spray {
            Ok(s) => s,
            Err(FsError::PermissionDenied) => break,
            Err(_) => {
                aborted_by_corruption = true;
                break;
            }
        };

        // fill: the helper VM's one payload pass
        if cycle == 0 {
            let before = Probe::take(&mut fs, &shared, &registry);
            let (core_s, filled) =
                timed(|| helper.fill_with_payload(&spray.payload, config.attacker_fill_blocks));
            record(
                &mut stages[FILL],
                core_s,
                0.0,
                core_s,
                before,
                &mut fs,
                &shared,
                &registry,
            );
            filled?;
        }

        // recon: the attacker's own indirect blocks, then the site census
        let before = Probe::take(&mut fs, &shared, &registry);
        let mut fs_s = 0.0;
        let (core_s, chosen) = timed(|| {
            let (s, indirect_lbas) = timed(|| {
                let mut lbas = BTreeSet::new();
                for f in &spray.files {
                    let Ok(inode) = fs.read_inode(f.ino) else {
                        continue;
                    };
                    if let InodeMap::Indirect { single, .. } = inode.map {
                        lbas.insert(victim_range.start.as_u64() + u64::from(single));
                    }
                }
                lbas
            });
            fs_s += s;
            let sites = find_attack_sites(shared.borrow().ftl(), 4096);
            select_sites(
                &sites,
                helper.range(),
                victim_range,
                &indirect_lbas,
                config.sites_per_cycle,
                cycle,
            )
        });
        record(
            &mut stages[RECON],
            core_s,
            fs_s,
            0.0,
            before,
            &mut fs,
            &shared,
            &registry,
        );

        // hammer
        let before = Probe::take(&mut fs, &shared, &registry);
        let mut dev_s = 0.0;
        let (core_s, flips) = timed(|| -> Result<u64, CloudError> {
            let mut flips = 0u64;
            for &(above, below) in &chosen {
                let (s, report) = timed(|| {
                    helper.hammer_device_lbas(&[above, below], requests, config.request_rate)
                });
                dev_s += s;
                flips += report?.flips.len() as u64;
            }
            Ok(flips)
        });
        record(
            &mut stages[HAMMER],
            core_s,
            0.0,
            dev_s,
            before,
            &mut fs,
            &shared,
            &registry,
        );
        let flips = flips?;

        // scan, dumping through every hit until the secret shows up
        let before = Probe::take(&mut fs, &shared, &registry);
        let mut fs_s = 0.0;
        let (core_s, scanned) = timed(|| {
            let (s, scanned) = timed(|| -> Result<(usize, bool), FsError> {
                let hits = scan_for_leaks(&mut fs, attacker, &spray)?;
                for hit in &hits {
                    for slot in 0..targets_per_payload {
                        let Ok(block) = dump_through_hit(&mut fs, attacker, hit, slot) else {
                            continue;
                        };
                        if block.starts_with(SECRET_MARKER) {
                            leaked = Some(block.to_vec().into_boxed_slice());
                            return Ok((hits.len(), true));
                        }
                    }
                }
                Ok((hits.len(), false))
            });
            fs_s += s;
            scanned
        });
        record(
            &mut stages[SCAN],
            core_s,
            fs_s,
            0.0,
            before,
            &mut fs,
            &shared,
            &registry,
        );
        let (scan_hits, leaked_this_cycle) = scanned?;
        corruption_events += scan_hits - usize::from(leaked_this_cycle);

        cycles.push(CycleReport {
            cycle,
            sprayed_files: spray.files.len(),
            sites_hammered: chosen.len(),
            flips,
            scan_hits,
            leaked_secret: leaked_this_cycle,
            elapsed: shared.borrow().clock().elapsed_since(cycle_t0),
        });
        if leaked_this_cycle {
            total_time = Some(shared.borrow().clock().elapsed_since(t0));
        }

        // clear
        let before = Probe::take(&mut fs, &shared, &registry);
        let (core_s, cleared) = timed(|| clear_spray(&mut fs, attacker, &spray));
        record(
            &mut stages[CLEAR],
            core_s,
            core_s,
            0.0,
            before,
            &mut fs,
            &shared,
            &registry,
        );
        cleared?;
        if leaked_this_cycle {
            after_leak_s = core_s;
            break;
        }
    }

    let outcome = CaseStudyOutcome {
        success: leaked.is_some(),
        cycles,
        total_time: total_time.unwrap_or_else(|| shared.borrow().clock().elapsed_since(t0)),
        leaked_block: leaked,
        corruption_events,
        aborted_by_corruption,
    };
    Ok(DriverRun {
        outcome,
        stages,
        after_leak_s,
    })
}

/// Adds one stage execution to its totals.
#[allow(clippy::too_many_arguments)]
fn record(
    stage: &mut Stage,
    core_s: f64,
    fs_s: f64,
    direct_dev_s: f64,
    before: Probe,
    fs: &mut VictimFs,
    shared: &SharedSsd,
    registry: &Telemetry,
) {
    stage.core_s += core_s;
    stage.fs_s += fs_s;
    stage.direct_dev_s += direct_dev_s;
    stage
        .delta
        .add(Probe::take(fs, shared, registry).since(before));
}

/// A copy of the case study's private site selection for the helper-VM
/// topology: sites exposing the attacker's own indirect blocks first, each
/// list rotated by `cycle`.
fn select_sites(
    sites: &[AttackSite],
    attacker_range: LbaRange,
    victim_range: LbaRange,
    indirect_lbas: &BTreeSet<u64>,
    limit: usize,
    cycle: u32,
) -> Vec<(Lba, Lba)> {
    let usable: Vec<(Lba, Lba, bool)> = cross_partition_sites(sites, attacker_range, victim_range)
        .into_iter()
        .map(|c| {
            let overlaps = c
                .exposed_victim_lbas
                .iter()
                .any(|l| indirect_lbas.contains(&l.as_u64()));
            (c.aggressor_above, c.aggressor_below, overlaps)
        })
        .collect();
    let rotated = |preferred: bool| -> Vec<(Lba, Lba)> {
        let mut v: Vec<(Lba, Lba)> = usable
            .iter()
            .filter(|u| u.2 == preferred)
            .map(|&(a, b, _)| (a, b))
            .collect();
        if !v.is_empty() {
            let offset = cycle as usize % v.len();
            v.rotate_left(offset);
        }
        v
    };
    let mut chosen = rotated(true);
    chosen.extend(rotated(false));
    chosen.truncate(limit);
    chosen
}
