//! Ablations of the design choices DESIGN.md calls out (§5 of the design
//! doc): per-I/O amplification, the unmapped-read fast path, controller
//! mapping structure, and victim-activity as an accidental defense.

use ssdhammer_core::{
    cross_partition_sites, find_attack_sites, setup_entries, AttackPipeline, LbaRange,
};
use ssdhammer_dram::{DramGeneration, DramGeometry, HammerOptions, MappingKind, ModuleProfile};
use ssdhammer_flash::FlashGeometry;
use ssdhammer_nvme::{CmdResult, Command, Ssd, SsdConfig};
use ssdhammer_simkit::parallel::Campaign;
use ssdhammer_simkit::{Lba, SimDuration};

fn demo_profile(min_rate_kaps: u32) -> ModuleProfile {
    let mut p = ModuleProfile::from_min_rate("ablation", DramGeneration::Ddr4, 2020, min_rate_kaps);
    p.row_vulnerable_prob = 1.0;
    p.weak_cells_per_row = 24.0;
    p.threshold_spread = 0.3;
    p
}

fn base_config(seed: u64, profile: ModuleProfile) -> SsdConfig {
    let mut c = SsdConfig::test_small(seed);
    c.dram_geometry = DramGeometry::tiny_test();
    c.dram_profile = profile;
    c.dram_mapping = MappingKind::Linear;
    c.flash_geometry = FlashGeometry::mib64();
    c
}

// ---- amplification sweep ---------------------------------------------------

/// One amplification sweep point.
#[derive(Debug, Clone)]
pub struct AmplificationRow {
    /// L2P activations per host request.
    pub amplification: u32,
    /// Achieved activation rate, accesses/s.
    pub act_rate: f64,
    /// Flips produced in a 500 ms burst against the paper's testbed module.
    pub flips: usize,
}

/// Sweeps the §4.1 amplification knob against the testbed DDR3 profile
/// (3 M acc/s needed): on a PCIe 4.0 controller, amplification ≥ 2 crosses
/// the threshold; 1 does not — the quantitative version of "we manually
/// amplified each L2P row activation (5 hammers per I/O request)".
#[must_use]
pub fn amplification_sweep(seed: u64) -> Vec<AmplificationRow> {
    amplification_sweep_threads(seed, 1)
}

/// [`amplification_sweep`] with the four independent sweep points sharded
/// across `threads` workers; bit-identical output for any thread count.
#[must_use]
pub fn amplification_sweep_threads(seed: u64, threads: usize) -> Vec<AmplificationRow> {
    const AMPS: [u32; 4] = [1, 2, 5, 10];
    Campaign::new(seed)
        .with_tag("ablation-amp")
        .with_threads(threads)
        .run(AMPS.len(), |trial| {
            let amp = AMPS[trial.index];
            let mut profile = ModuleProfile::testbed_ddr3();
            profile.row_vulnerable_prob = 1.0;
            profile.weak_cells_per_row = 24.0;
            profile.threshold_spread = 0.3;
            let mut config = base_config(seed, profile);
            config.ftl.hammer_amplification = amp;
            let mut ssd = Ssd::build(config);
            let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
            let outcome = AttackPipeline::default()
                .with_rate(10_000_000.0)
                .with_duration(SimDuration::from_millis(500))
                .with_sites(vec![site])
                .run(&mut ssd)
                .expect("hammer");
            AmplificationRow {
                amplification: amp,
                act_rate: outcome.report.achieved_rate,
                flips: outcome.report.flips.len(),
            }
        })
}

// ---- unmapped fast path ----------------------------------------------------

/// Latency comparison for the unmapped-read fast path.
#[derive(Debug, Clone)]
pub struct FastPathRow {
    /// Configuration label.
    pub config: String,
    /// Mean completion latency of an unmapped read.
    pub mean_latency_us: f64,
}

/// Measures per-command latency of unmapped reads with the fast path on vs
/// off — why the paper's attacker prefers trimmed blocks (§3). Reads are
/// issued queue-depth-sized batches at a time through `submit_batch` /
/// `process_all` / `drain_completions` — the batched path the repro suite
/// is required to exercise.
#[must_use]
pub fn fast_path_latency(seed: u64) -> Vec<FastPathRow> {
    fast_path_latency_threads(seed, 1)
}

/// [`fast_path_latency`] with the on/off configurations measured on
/// `threads` workers; bit-identical output for any thread count.
#[must_use]
pub fn fast_path_latency_threads(seed: u64, threads: usize) -> Vec<FastPathRow> {
    const CONFIGS: [bool; 2] = [true, false];
    Campaign::new(seed)
        .with_tag("ablation-fastpath")
        .with_threads(threads)
        .run(CONFIGS.len(), |trial| {
            let fast = CONFIGS[trial.index];
            let mut config = base_config(seed, ModuleProfile::invulnerable());
            config.ftl.unmapped_fast_path = fast;
            let mut ssd = Ssd::build(config);
            let ns = ssd.create_namespace(1024).expect("namespace");
            let qp = ssd.create_queue_pair(16);
            let mut total_us = 0.0;
            let n = 200u64;
            let mut completions = Vec::with_capacity(qp.depth());
            for burst in 0..(n / qp.depth() as u64) {
                let batch: Vec<Command> = (0..qp.depth() as u64)
                    .map(|i| Command::Read {
                        ns,
                        lba: Lba((burst * qp.depth() as u64 + i) % 1024),
                    })
                    .collect();
                ssd.submit_batch(qp, &batch).expect("submit batch");
                ssd.process_all();
                ssd.drain_completions_into(qp, &mut completions)
                    .expect("drain");
                for c in completions.drain(..) {
                    total_us += c.latency().as_secs_f64() * 1e6;
                    match c.result {
                        CmdResult::Read {
                            data,
                            mapped: false,
                        } => ssd.recycle_buffer(data),
                        other => panic!("expected unmapped read, got {other:?}"),
                    }
                }
            }
            let measured = (n / qp.depth() as u64) * qp.depth() as u64;
            FastPathRow {
                config: if fast {
                    "unmapped fast path ON".to_owned()
                } else {
                    "unmapped fast path OFF (flash touched)".to_owned()
                },
                mean_latency_us: total_us / measured as f64,
            }
        })
}

// ---- controller mapping census ----------------------------------------------

/// Site census per controller mapping.
#[derive(Debug, Clone)]
pub struct MappingCensusRow {
    /// Mapping label.
    pub mapping: String,
    /// Total double-sided sites on the L2P table.
    pub total_sites: usize,
    /// Sites usable across an equal two-way partition split.
    pub cross_partition_sites: usize,
}

/// Counts attack sites under linear vs XOR-swizzled controller mappings —
/// the structural source of §4.2's cross-partition triples.
#[must_use]
pub fn mapping_census(seed: u64) -> Vec<MappingCensusRow> {
    mapping_census_threads(seed, 1)
}

/// [`mapping_census`] with the two mapping configurations counted on
/// `threads` workers; bit-identical output for any thread count.
#[must_use]
pub fn mapping_census_threads(seed: u64, threads: usize) -> Vec<MappingCensusRow> {
    let mappings = [
        ("linear", MappingKind::Linear),
        ("xor+swizzle", MappingKind::default_xor()),
    ];
    Campaign::new(seed)
        .with_tag("ablation-mapping")
        .with_threads(threads)
        .run(mappings.len(), |trial| {
            let (name, kind) = mappings[trial.index];
            let mut config = base_config(seed, demo_profile(313));
            config.dram_mapping = kind;
            let ssd = Ssd::build(config);
            let cap = ssd.ftl().capacity_lbas();
            let sites = find_attack_sites(ssd.ftl(), usize::MAX);
            let attacker = LbaRange {
                start: Lba(0),
                blocks: cap / 2,
            };
            let victim = LbaRange {
                start: Lba(cap / 2),
                blocks: cap / 2,
            };
            let cross = cross_partition_sites(&sites, attacker, victim);
            MappingCensusRow {
                mapping: name.to_owned(),
                total_sites: sites.len(),
                cross_partition_sites: cross.len(),
            }
        })
}

// ---- victim activity as a defense -------------------------------------------

/// Flip counts with an idle vs an active victim.
#[derive(Debug, Clone)]
pub struct VictimActivityRow {
    /// Scenario label.
    pub scenario: String,
    /// Flips on the victim row.
    pub victim_row_flips: usize,
}

/// Hammers the same site with the victim row left alone vs periodically
/// read: every access to the victim row re-activates (and thereby
/// refreshes) it, so a *busy* victim is accidentally protected — which is
/// why the attack targets cold metadata like L2P entries of idle files.
#[must_use]
pub fn victim_activity(seed: u64) -> Vec<VictimActivityRow> {
    victim_activity_threads(seed, 1)
}

/// [`victim_activity`] with the idle/active scenarios hammered on `threads`
/// workers; bit-identical output for any thread count.
#[must_use]
pub fn victim_activity_threads(seed: u64, threads: usize) -> Vec<VictimActivityRow> {
    let run = |active_victim: bool| -> usize {
        let mut config = base_config(seed, demo_profile(200));
        config.ftl.hammer_amplification = 1;
        let mut ssd = Ssd::build(config);
        let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
        setup_entries(ssd.ftl_mut(), &site.victim_lbas).expect("setup");
        let pattern = [site.above_lbas[0], site.below_lbas[0]];
        // Bursts small enough that no single burst crosses the ~12.8K
        // threshold on its own (8K activations ≈ 5.3 ms each); pressure only
        // accumulates across bursts within a refresh window. Between bursts
        // the victim (maybe) touches its own data, refreshing the row.
        let mut flips = 0usize;
        for _ in 0..100 {
            let report = ssd
                .hammer_reads(&pattern, 8_000, 1_500_000.0, HammerOptions::default())
                .expect("hammer");
            flips += report.flips.iter().filter(|f| f.row == site.victim).count();
            if active_victim {
                let _ = ssd.ftl_mut().entry_read(site.victim_lbas[0]);
            }
        }
        flips
    };
    const SCENARIOS: [(&str, bool); 2] = [
        ("idle victim (cold L2P entries)", false),
        ("active victim (row re-read between bursts)", true),
    ];
    Campaign::new(seed)
        .with_tag("ablation-victim")
        .with_threads(threads)
        .run(SCENARIOS.len(), |trial| {
            let (scenario, active) = SCENARIOS[trial.index];
            VictimActivityRow {
                scenario: scenario.to_owned(),
                victim_row_flips: run(active),
            }
        })
}

/// Renders all ablations as one report.
#[must_use]
pub fn render(seed: u64) -> String {
    render_with_threads(seed, 1)
}

/// [`render`] with every sweep sharded across `threads` workers;
/// bit-identical output for any thread count.
#[must_use]
pub fn render_with_threads(seed: u64, threads: usize) -> String {
    let mut out = String::from("ablations of DESIGN.md's called-out choices\n\n");
    out.push_str("A1: per-I/O amplification (testbed DDR3, needs 3M acc/s)\n");
    out.push_str("  amp  act-rate(M/s)  flips\n");
    for r in amplification_sweep_threads(seed, threads) {
        out.push_str(&format!(
            "  {:>3} {:>14.2} {:>6}\n",
            r.amplification,
            r.act_rate / 1e6,
            r.flips
        ));
    }
    out.push_str("\nA2: unmapped-read fast path (per-command latency)\n");
    for r in fast_path_latency_threads(seed, threads) {
        out.push_str(&format!(
            "  {:<40} {:>8.1} us\n",
            r.config, r.mean_latency_us
        ));
    }
    out.push_str("\nA3: controller mapping census (two equal partitions)\n");
    out.push_str("  mapping       total sites  cross-partition\n");
    for r in mapping_census_threads(seed, threads) {
        out.push_str(&format!(
            "  {:<13} {:>11} {:>16}\n",
            r.mapping, r.total_sites, r.cross_partition_sites
        ));
    }
    out.push_str("\nA4: victim activity as accidental defense\n");
    for r in victim_activity_threads(seed, threads) {
        out.push_str(&format!(
            "  {:<44} {:>4} victim-row flips\n",
            r.scenario, r.victim_row_flips
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_crosses_the_testbed_threshold() {
        let rows = amplification_sweep(5);
        let amp1 = &rows[0];
        let amp5 = &rows[2];
        assert!(amp1.act_rate < 3_000_000.0 && amp1.flips == 0);
        assert!(amp5.act_rate > 3_000_000.0 && amp5.flips > 0);
        // Rate scales linearly with the knob.
        assert!((amp5.act_rate / amp1.act_rate - 5.0).abs() < 0.3);
    }

    #[test]
    fn fast_path_is_orders_of_magnitude_faster() {
        let rows = fast_path_latency(5);
        let on = rows[0].mean_latency_us;
        let off = rows[1].mean_latency_us;
        assert!(off > on * 10.0, "fast {on}us vs slow {off}us");
    }

    #[test]
    fn swizzled_mapping_enables_cross_partition_attacks() {
        let rows = mapping_census(5);
        let linear = &rows[0];
        let xor = &rows[1];
        assert_eq!(linear.cross_partition_sites, 0);
        assert!(xor.cross_partition_sites > 0);
        assert!(linear.total_sites > 0);
    }

    #[test]
    fn busy_victims_are_protected() {
        let rows = victim_activity(5);
        let idle = rows[0].victim_row_flips;
        let active = rows[1].victim_row_flips;
        assert!(idle > 0, "idle victim must flip");
        assert!(
            active < idle,
            "victim self-refresh should suppress flips: idle {idle} vs active {active}"
        );
    }
}

// ---- structured output -------------------------------------------------------

use ssdhammer_simkit::json::{Json, ToJson};

impl ToJson for AmplificationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("amplification", Json::from(self.amplification)),
            ("act_rate", Json::from(self.act_rate)),
            ("flips", Json::from(self.flips)),
        ])
    }
}

impl ToJson for FastPathRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", Json::from(self.config.as_str())),
            ("mean_latency_us", Json::from(self.mean_latency_us)),
        ])
    }
}

impl ToJson for MappingCensusRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mapping", Json::from(self.mapping.as_str())),
            ("total_sites", Json::from(self.total_sites)),
            (
                "cross_partition_sites",
                Json::from(self.cross_partition_sites),
            ),
        ])
    }
}

impl ToJson for VictimActivityRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario.as_str())),
            ("victim_row_flips", Json::from(self.victim_row_flips)),
        ])
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro ablations`. The structured document groups
/// the four sweeps under one object.
#[derive(Debug, Clone, Copy)]
pub struct AblationsScenario;

impl Scenario for AblationsScenario {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, threads: usize) -> Json {
        Json::obj([
            (
                "amplification",
                amplification_sweep_threads(seed, threads).to_json(),
            ),
            (
                "fast_path",
                fast_path_latency_threads(seed, threads).to_json(),
            ),
            (
                "mapping_census",
                mapping_census_threads(seed, threads).to_json(),
            ),
            (
                "victim_activity",
                victim_activity_threads(seed, threads).to_json(),
            ),
        ])
    }

    fn render(&self, _cfg: ScenarioCfg, seed: u64, threads: usize) -> String {
        render_with_threads(seed, threads)
    }
}
