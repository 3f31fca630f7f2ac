//! # mafic-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! MAFIC paper's evaluation, plus the ablation studies listed in
//! DESIGN.md.
//!
//! Every printed block is one row of the panel table
//! `figures::PANELS`: the row names the sweep or grid it draws from
//! and the metric or builder that turns it into a [`FigureData`] (named
//! series of `(x, y)` points) or a text block. The `figures` binary
//! prints the rows its ids select as aligned text tables; a sweep shared
//! by several panels runs once per process. All scenario runs go through
//! the deterministic parallel `engine`: trial averaging is controlled
//! by `MAFIC_TRIALS` (default 3) and worker fan-out by `MAFIC_JOBS`
//! (default `available_parallelism()`); output is byte-identical at any
//! worker count.
//!
//! | `figures <id>` | Regenerates |
//! |----------------|-------------|
//! | `tables` | Tables I and II + a measured default run |
//! | `fig3` | Fig. 3(a), 3(b) |
//! | `fig4` | Fig. 4(a), 4(b) |
//! | `fig5` | Fig. 5(a)–(c) |
//! | `fig6` | Fig. 6(a)–(c) |
//! | `fig7` | Fig. 7 |
//! | `fig8` | Fig. 8 (inter-domain pushback depth; ours) |
//! | `fig9` | Fig. 9 (participation × transit policy; ours) |
//! | `fig10` | Fig. 10 (malicious pushback vs trust; ours) |
//! | `fig11` | Fig. 11 (closed-loop attack strategies; ours) |
//! | `ablations` | DESIGN.md ablations A–D |
//! | *(no id)* | everything above except the ablations |
//!
//! `run_ledger` and `checkpoint` are CI gate binaries, not figures.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod ablations;
mod engine;
mod figure;
pub mod figures;
mod sweep;
mod tables;

pub use engine::{run_jobs, run_specs, EngineConfig};
pub use figure::{FigureData, Series};
pub use sweep::{run_averaged, sweep, sweep_warm, SweepPoint, SweepSeries};
