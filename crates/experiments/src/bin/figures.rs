//! Regenerates the paper's tables and figures from the one panel table
//! in [`mafic_experiments::figures`].
//!
//! Usage: `figures [id…]` with ids from `tables fig3 … fig11 ablations`.
//! No ids prints the tables and Figs. 3–11. Panels print in paper order
//! whatever the argument order, and a sweep shared by several panels
//! runs once, so a bare run prints every panel of the per-figure ids
//! without running any scenario twice. `MAFIC_JOBS` and `MAFIC_TRIALS`
//! apply as everywhere (Figs. 10 and 11 stay at one trial); stdout is
//! byte-identical at any `MAFIC_JOBS`.

use mafic_experiments::figures::{select_panels, PanelRuns};
use mafic_experiments::EngineConfig;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let panels = select_panels(&ids).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: figures [id…]");
        std::process::exit(2);
    });
    let mut runs = PanelRuns::new(EngineConfig::from_env_or_exit());
    for (i, panel) in panels.iter().enumerate() {
        match runs.render(panel) {
            Ok(block) => {
                print!("{block}");
                if !(panel.is_text() && i + 1 == panels.len()) {
                    println!();
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
