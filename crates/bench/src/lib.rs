//! # ssdhammer-bench
//!
//! The experiment library regenerating **every table and figure** of
//! *Rowhammering Storage Devices* (HotStorage '21), shared between the
//! Criterion benches (`benches/`) and the `repro` binary.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — minimal access rate to trigger bitflips |
//! | [`fig1`] | Figure 1 — two-sided FTL rowhammering redirects an LBA |
//! | [`fig2`] | Figure 2 — direct vs helper-VM setups |
//! | [`fig3`] | Figure 3 / §4.2 — end-to-end ext4 indirect-block exploit |
//! | [`sec43`] | §4.3 — probability of success |
//! | [`sec5`] | §5 — mitigations |
//! | [`sec23`] | §2.3 — NVMe-rate feasibility |
//!
//! The [`ablations`] module additionally sweeps the design choices called
//! out in DESIGN.md (amplification, fast path, mapping structure, victim
//! activity), the [`faults`] module exercises the deterministic
//! fault-injection plane against the FTL recovery stack, and the
//! [`torture`] module enumerates power-cut crash points across every
//! recovery-critical site and checks each recovery against a shadow-model
//! oracle (DESIGN.md §17). The [`fuzz`] module (`repro fuzz`) grows that
//! oracle into a model-based fuzzer: seeded random op interleavings are
//! differentially checked against the shadow model, divergences
//! auto-shrink to minimal repros, and the committed `corpus/` directory
//! replays them as regression tests (DESIGN.md §18).
//!
//! Every experiment module exposes a unit struct implementing
//! [`scenario::Scenario`] — one uniform `run(cfg, seed, threads) -> Json`
//! / `render` entry point that the `repro` binary's subcommand registry
//! dispatches through. The [`benchmark`] module (`repro bench`) times the
//! hot paths and prints the report (`--out PATH` also writes it).
//!
//! Run `cargo run -p ssdhammer-bench --bin repro -- all` for the complete
//! text reproduction, or `cargo bench` for the timed harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod attacks;
pub mod benchmark;
pub mod defenses;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fuzz;
pub mod harness;
pub mod scenario;
pub mod sec23;
pub mod sec43;
pub mod sec5;
pub mod table1;
pub mod torture;
