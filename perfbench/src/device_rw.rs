//! `device_rw`: a closed loop of queue-depth-32 batches on one queue pair
//! of the paper-prototype device, with no filesystem above it. Each batch
//! goes through `submit_batch`, `process_all` and
//! `drain_completions_into` and is checked before the next one is built:
//! 67 % reads, 30 % writes, 3 % trims, seeded LBAs uniform over a
//! 200k-block namespace. Set-up writes the whole namespace once, so the
//! device starts nearly full and garbage collection runs early.
//!
//! Every read is checked against a shadow copy of the namespace: it must
//! return the last fill written there, or zeros if the block was never
//! written or was trimmed since.

use ssdhammer_nvme::{CmdResult, Command, NsId, NvmeError, QueuePairHandle, Ssd, SsdConfig};
use ssdhammer_simkit::rng::{seeded, Rng};
use ssdhammer_simkit::{Lba, BLOCK_SIZE};

use crate::measure::{host_slowdown, median, quantile, timed, Digest, Report};
use crate::Args;

/// Namespace size in blocks.
const NS_BLOCKS: u64 = 200_000;
/// Commands per batch, which is also the queue depth.
const QD: usize = 32;
/// Batches per round. Each round starts on a fresh device, so every round
/// replays the same inputs and must give the same digest.
const BATCHES: usize = 40_000;
/// Set-ups timed after each untraced round for `setup_s`, on top of the
/// round's own, so that the set-up samples span the run like the rounds.
const SETUP_REPS: usize = 1;

struct Rig {
    ssd: Ssd,
    ns: NsId,
    qp: QueuePairHandle,
}

/// The fill set-up writes to `lba`; never 0, so it differs from a trim.
fn initial_fill(lba: u64) -> u8 {
    (lba % 255 + 1) as u8
}

/// Builds the device and writes every block of the namespace once.
fn setup(seed: u64) -> Result<Rig, NvmeError> {
    let mut ssd = Ssd::build(SsdConfig::paper_prototype(seed));
    let ns = ssd.create_namespace(NS_BLOCKS)?;
    let qp = ssd.create_queue_pair(QD);
    let mut batch = Vec::with_capacity(QD);
    let mut completions = Vec::with_capacity(QD);
    for first in (0..NS_BLOCKS).step_by(QD) {
        batch.clear();
        batch.extend(
            (first..NS_BLOCKS.min(first + QD as u64)).map(|lba| Command::Write {
                ns,
                lba: Lba(lba),
                data: vec![initial_fill(lba); BLOCK_SIZE].into_boxed_slice(),
            }),
        );
        ssd.submit_batch(qp, &batch)?;
        ssd.process_all();
        ssd.drain_completions_into(qp, &mut completions)?;
        if let Some(e) = completions.drain(..).find_map(|c| c.error().cloned()) {
            return Err(e);
        }
    }
    Ok(Rig { ssd, ns, qp })
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    /// Host seconds per batch (submit + process + drain).
    batch_s: Vec<f64>,
    /// Traced rounds only: time in each of the three calls.
    submit_s: f64,
    process_s: f64,
    drain_s: f64,
    commands: u64,
    failed: u64,
    digest: Digest,
    /// Median simulated command latency: reported as a note only, since
    /// completions are stamped at service time (see README).
    sim_latency_p50_s: f64,
    l2p_reads: u64,
    gc_relocated: u64,
    host_writes: u64,
    flash_programs: u64,
    activations: u64,
    erases: u64,
}

impl Round {
    fn busy_s(&self) -> f64 {
        self.batch_s.iter().sum()
    }
}

/// Runs one round on a fresh device. `traced` times the three calls of
/// each batch separately.
fn round(seed: u64, traced: bool) -> Result<Round, NvmeError> {
    let (setup_s, rig) = timed(|| setup(seed));
    let Rig { mut ssd, ns, qp } = rig?;
    let mut out = Round {
        setup_s,
        batch_s: Vec::with_capacity(BATCHES),
        ..Round::default()
    };
    let ftl0 = ssd.ftl().telemetry();
    let dram0 = ssd.ftl().dram().telemetry();
    let nand0 = ssd.ftl().nand().telemetry();

    // Fill byte last written per LBA; 0 means the block reads as zeros.
    let mut shadow: Vec<u8> = (0..NS_BLOCKS).map(initial_fill).collect();
    let mut rng = seeded(seed);
    let mut batch: Vec<Command> = Vec::with_capacity(QD);
    let mut completions = Vec::with_capacity(QD);
    let mut sim_latency = Vec::with_capacity(BATCHES * QD);
    for _ in 0..BATCHES {
        batch.clear();
        for _ in 0..QD {
            let kind = rng.gen_range(0u32..100);
            let lba = Lba(rng.gen_range(0..NS_BLOCKS));
            batch.push(if kind < 67 {
                Command::Read { ns, lba }
            } else if kind < 97 {
                let fill = rng.gen_range(1u32..256) as u8;
                Command::Write {
                    ns,
                    lba,
                    data: vec![fill; BLOCK_SIZE].into_boxed_slice(),
                }
            } else {
                Command::Trim { ns, lba }
            });
        }
        let batch_s = if traced {
            let (s, submitted) = timed(|| ssd.submit_batch(qp, &batch));
            submitted?;
            out.submit_s += s;
            let (p, _) = timed(|| ssd.process_all());
            out.process_s += p;
            let (d, drained) = timed(|| ssd.drain_completions_into(qp, &mut completions));
            drained?;
            out.drain_s += d;
            s + p + d
        } else {
            let (s, done) = timed(|| -> Result<(), NvmeError> {
                ssd.submit_batch(qp, &batch)?;
                ssd.process_all();
                ssd.drain_completions_into(qp, &mut completions)
            });
            done?;
            s
        };
        out.batch_s.push(batch_s);

        // One queue pair is serviced in submission order, so checking the
        // completions in order against a sequentially updated shadow is
        // exact even when a batch touches one LBA twice.
        out.commands += QD as u64;
        out.failed += QD.saturating_sub(completions.len()) as u64;
        for (cmd, c) in batch.iter().zip(completions.drain(..)) {
            sim_latency.push(c.latency().as_secs_f64());
            let ok = match (cmd, c.result) {
                (Command::Read { lba, .. }, CmdResult::Read { data, mapped }) => {
                    let want = shadow[lba.as_u64() as usize];
                    let ok = data.iter().all(|&b| b == want);
                    out.digest.u64(u64::from(want) << 1 | u64::from(mapped));
                    ssd.recycle_buffer(data);
                    ok
                }
                (Command::Write { lba, data, .. }, CmdResult::Write) => {
                    shadow[lba.as_u64() as usize] = data[0];
                    true
                }
                (Command::Trim { lba, .. }, CmdResult::Trim) => {
                    shadow[lba.as_u64() as usize] = 0;
                    true
                }
                _ => false,
            };
            out.failed += u64::from(!ok);
        }
    }
    out.sim_latency_p50_s = quantile(&sim_latency, 0.5);
    let ftl = ssd.ftl().telemetry();
    out.l2p_reads = ftl.l2p_reads - ftl0.l2p_reads;
    out.gc_relocated = ftl.gc_relocated - ftl0.gc_relocated;
    out.host_writes = ftl.host_writes - ftl0.host_writes;
    out.flash_programs = ssd.ftl().nand().telemetry().programs - nand0.programs;
    out.erases = ssd.ftl().nand().telemetry().erases - nand0.erases;
    out.activations = ssd.ftl().dram().telemetry().activations - dram0.activations;
    for v in [
        ssd.clock().now().as_nanos(),
        ftl.gc_runs - ftl0.gc_runs,
        out.gc_relocated,
        out.flash_programs,
        out.erases,
    ] {
        out.digest.u64(v);
    }
    Ok(out)
}

/// Runs the workload and fills in its report.
pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut slowdowns = Vec::new();
    let mut setups = Vec::new();
    let mut elapsed = 0.0;
    // Untraced rounds; a traced run alternates them with traced ones.
    while elapsed < args.seconds || plain.is_empty() {
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &mode in modes {
            if !args.trace {
                slowdowns.push(host_slowdown(1));
            }
            let (secs, res) = timed(|| round(args.seed, mode));
            elapsed += secs;
            match res {
                Ok(round) => {
                    r.attempted += round.commands;
                    r.failed += round.failed;
                    r.repeat_digest("device_rw round", round.digest);
                    if mode {
                        traced.push(round);
                    } else {
                        setups.push(round.setup_s);
                        plain.push(round);
                        r.first_unit_done();
                    }
                }
                Err(e) => {
                    r.attempted += 1;
                    r.failed += 1;
                    r.notes.push(format!("device_rw round failed: {e}"));
                    return r;
                }
            }
        }
        if !args.trace {
            for _ in 0..SETUP_REPS {
                let (s, rig) = timed(|| setup(args.seed));
                if rig.is_ok() {
                    setups.push(s);
                }
            }
        }
    }
    let rates = |rounds: &[Round]| -> Vec<f64> {
        rounds
            .iter()
            .map(|x| x.commands as f64 / x.busy_s())
            .collect()
    };
    let first = &plain[0];
    r.notes.push(format!(
        "device_rw: {} untraced and {} traced rounds of {BATCHES} QD{QD} batches; \
         {} GC relocations, {} erases per round; simulated latency p50 {:.3} s",
        plain.len(),
        traced.len(),
        first.gc_relocated,
        first.erases,
        first.sim_latency_p50_s
    ));
    if !args.trace {
        r.notes.push(format!(
            "device_rw: commands per second by round {:?}; host slowdown before each {slowdowns:?}",
            rates(&plain)
        ));
        r.normalized(&setups, &rates(&plain), &slowdowns);
        return r;
    }
    let samples: Vec<f64> = plain
        .iter()
        .flat_map(|x| x.batch_s.iter().copied())
        .collect();
    let per_round = |f: fn(&Round) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    r.metric("nvme.submit_s", per_round(|x| x.submit_s), "s");
    r.metric("nvme.process_s", per_round(|x| x.process_s), "s");
    r.metric("nvme.drain_s", per_round(|x| x.drain_s), "s");
    r.metric("nvme.batch_p50_us", quantile(&samples, 0.5) * 1e6, "us");
    r.metric("nvme.batch_p99_us", quantile(&samples, 0.99) * 1e6, "us");
    r.metric("nvme.batch_samples", samples.len() as f64, "count");
    r.metric("ftl.l2p_reads", first.l2p_reads as f64, "count");
    r.metric("ftl.gc_relocated", first.gc_relocated as f64, "count");
    r.metric(
        "ftl.write_amp",
        first.flash_programs as f64 / first.host_writes.max(1) as f64,
        "ratio",
    );
    r.metric("dram.activations", first.activations as f64, "count");
    r.metric("flash.erases", first.erases as f64, "count");
    r.metric(
        "trace.overhead_frac",
        median(&rates(&plain)) / median(&rates(&traced)) - 1.0,
        "ratio",
    );
    r
}
