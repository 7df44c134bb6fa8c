//! The experiment harness of the Poseidon reproduction.
//!
//! [`paper`] regenerates every table and figure of the paper's evaluation
//! (`table1`, `table3`, `fig5` … `fig11`, `overhead`, `multigpu`,
//! `ablation`, `ssp`) and runs ad-hoc cluster simulations; the `paper`
//! binary drives it (`paper <figure|all>`, `paper sim --model ...`).
//! Expected output (paper-reported numbers vs. what this reproduction
//! measures) is catalogued in the repository's `EXPERIMENTS.md`.

pub mod paper;
