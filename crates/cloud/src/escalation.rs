//! §3.2's third outcome, end to end: privilege escalation via the
//! *write-something-somewhere* primitive.
//!
//! "Attacker bitflips that redirect the victim's LBAs to attacker PBAs will
//! grant attackers a write-something-somewhere primitive … the attacker
//! needs to blindly spray the disk with polyglot blocks, i.e., blocks that
//! are valid as executable code, file data, and file metadata. Replacing a
//! victim LBA in a sensitive file with a polyglot block can result in a
//! privilege escalation. For example, rewriting a binary executable that
//! has setuid permission (e.g. sudo) can result in executing malicious code
//! as root."

use ssdhammer_core::{find_attack_sites, polyglot_block, AttackSite};
use ssdhammer_dram::HammerOptions;
use ssdhammer_fs::Ino;
use ssdhammer_nvme::Ssd;
use ssdhammer_simkit::{Lba, SimDuration};

use crate::partition::SharedSsd;
use crate::study::CaseStudyConfig;
use crate::tenants::{AttackerVm, CloudError, ExecResult, VictimVm};

/// Parameters of an escalation run.
#[derive(Debug, Clone)]
pub struct EscalationConfig {
    /// Base topology (reuses the case-study plumbing; `setup` is ignored —
    /// the helper VM always drives the hammer here).
    pub base: CaseStudyConfig,
    /// How many setuid binaries the victim system ships (the target
    /// population).
    pub binaries: u32,
    /// Attacker partition blocks to fill with polyglot blocks.
    pub polyglot_fill_blocks: u64,
    /// Tag embedded in the polyglots (identifies "whose shellcode ran").
    pub payload_tag: u64,
}

impl EscalationConfig {
    /// A fast, converging demo configuration.
    #[must_use]
    pub fn fast_demo(seed: u64) -> Self {
        let mut base = CaseStudyConfig::fast_demo(seed);
        base.ssd.dram_profile.weak_cells_per_row = 32.0;
        base.max_cycles = 12;
        EscalationConfig {
            base,
            binaries: 192,
            polyglot_fill_blocks: 6000,
            payload_tag: 0x5EED_C0DE,
        }
    }
}

/// Per-cycle escalation statistics.
#[derive(Debug, Clone)]
pub struct EscalationCycle {
    /// Cycle index.
    pub cycle: u32,
    /// Flips induced this cycle.
    pub flips: u64,
    /// Binaries still running legitimate code.
    pub legitimate: u32,
    /// Binaries now crashing (corrupted but not exploitable).
    pub crashed: u32,
    /// Binaries now running attacker code.
    pub escalated: u32,
}

impl ssdhammer_simkit::json::ToJson for EscalationCycle {
    fn to_json(&self) -> ssdhammer_simkit::json::Json {
        use ssdhammer_simkit::json::Json;
        Json::obj([
            ("cycle", Json::from(self.cycle)),
            ("flips", Json::from(self.flips)),
            ("legitimate", Json::from(self.legitimate)),
            ("crashed", Json::from(self.crashed)),
            ("escalated", Json::from(self.escalated)),
        ])
    }
}

/// Result of an escalation run.
#[derive(Debug, Clone)]
pub struct EscalationOutcome {
    /// True when some root-executed binary ran attacker code.
    pub escalated: bool,
    /// The payload tag recovered from the hijacked binary, when escalated.
    pub observed_tag: Option<u64>,
    /// Per-cycle progression.
    pub cycles: Vec<EscalationCycle>,
    /// Simulated duration of the whole run.
    pub total_time: SimDuration,
}

/// Runs the escalation attack: fill the attacker partition with polyglots,
/// hammer the DRAM rows holding the victim binaries' L2P entries, and have
/// the victim periodically execute its setuid binaries.
///
/// # Errors
///
/// Propagates provisioning and device errors. Not escalating within the
/// cycle budget is a normal outcome.
pub fn run_escalation(config: &EscalationConfig) -> Result<EscalationOutcome, CloudError> {
    let base = &config.base;
    let shared = SharedSsd::new(Ssd::build(base.ssd.clone()));
    let mut victim = VictimVm::provision(&shared, base.victim_blocks, base.victim_filler_blocks)?;
    let mut helper = AttackerVm::provision(&shared, base.attacker_blocks)?;
    let t0 = shared.borrow().clock().now();

    // Victim system: a population of setuid binaries.
    let binaries: Vec<Ino> = victim.install_binaries(config.binaries)?;
    let mut binary_lbas: Vec<Lba> = Vec::new();
    for &ino in &binaries {
        if let Some(lba) = victim.first_block_device_lba(ino)? {
            binary_lbas.push(lba);
        }
    }

    // Attacker: blanket the disk with polyglot blocks (§3.2's blind spray).
    // Two passes: out-of-place writes leave the first pass's pages
    // physically intact (invalid but un-erased), roughly doubling the
    // number of physical pages a corrupted mapping can land on.
    let polyglot = polyglot_block(&[], config.payload_tag);
    helper.fill_with_payload(&polyglot, config.polyglot_fill_blocks)?;
    helper.fill_with_payload(&polyglot, config.polyglot_fill_blocks)?;

    // Recon: sites whose victim rows hold the binaries' L2P entries. The
    // hammering is driven by the unprivileged process *inside* the victim
    // VM (reads of its own partition, Figure 2 (a) style); the helper VM's
    // role in this scenario is blanketing physical pages with polyglots.
    let sites: Vec<AttackSite> = {
        let ssd = shared.borrow();
        find_attack_sites(ssd.ftl(), 4096)
    };
    let victim_range = victim.range();
    let targeted: Vec<(Lba, Lba)> = sites
        .iter()
        .filter(|s| s.victim_lbas.iter().any(|l| binary_lbas.contains(l)))
        .filter_map(|s| {
            let a = s
                .above_lbas
                .iter()
                .copied()
                .find(|&l| victim_range.contains(l))?;
            let b = s
                .below_lbas
                .iter()
                .copied()
                .find(|&l| victim_range.contains(l))?;
            Some((a, b))
        })
        .collect();

    let mut cycles = Vec::new();
    let mut escalated = false;
    let mut observed_tag = None;
    for cycle in 0..base.max_cycles {
        let mut flips = 0u64;
        for (a, b) in targeted.iter().take(base.sites_per_cycle) {
            let requests = (base.request_rate * base.hammer_per_site.as_secs_f64()).ceil() as u64;
            let report = shared.borrow_mut().hammer_reads(
                &[*a, *b],
                requests,
                base.request_rate,
                HammerOptions::default(),
            )?;
            flips += report.flips.len() as u64;
        }
        // The victim goes about its day: runs its tooling as root.
        let (mut legitimate, mut crashed, mut hijacked) = (0u32, 0u32, 0u32);
        for &ino in &binaries {
            match victim.execute_binary(ino)? {
                ExecResult::Legitimate => legitimate += 1,
                ExecResult::Crashed => crashed += 1,
                ExecResult::AttackerCode { tag } => {
                    hijacked += 1;
                    escalated = true;
                    observed_tag = Some(tag);
                }
            }
        }
        cycles.push(EscalationCycle {
            cycle,
            flips,
            legitimate,
            crashed,
            escalated: hijacked,
        });
        if escalated {
            break;
        }
    }

    let total_time = shared.borrow().clock().elapsed_since(t0);
    Ok(EscalationOutcome {
        escalated,
        observed_tag,
        cycles,
        total_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_demo_hijacks_a_binary() {
        let config = EscalationConfig::fast_demo(21);
        let outcome = run_escalation(&config).unwrap();
        assert!(
            outcome.cycles.iter().map(|c| c.flips).sum::<u64>() > 0,
            "hammering must flip bits: {:?}",
            outcome.cycles
        );
        assert!(
            outcome.escalated,
            "a binary should end up running attacker code: {:?}",
            outcome.cycles
        );
        assert_eq!(outcome.observed_tag, Some(config.payload_tag));
    }

    #[test]
    fn no_flips_no_escalation() {
        let mut config = EscalationConfig::fast_demo(21);
        config.base.ssd.dram_profile = ssdhammer_dram::ModuleProfile::invulnerable();
        config.base.max_cycles = 2;
        let outcome = run_escalation(&config).unwrap();
        assert!(!outcome.escalated);
        assert!(outcome.cycles.iter().all(|c| c.crashed == 0));
        assert!(outcome
            .cycles
            .iter()
            .all(|c| c.legitimate == config.binaries));
    }
}
