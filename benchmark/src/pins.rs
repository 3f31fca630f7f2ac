//! `expected.json`: per-cell output digests and exact counter totals of
//! every workload at the pin seed. A digest that moves is a failed
//! operation; the counter totals are there to name what moved.

use std::path::Path;

use crate::json::Json;
use crate::measure::{exact_total, Cell, EXACT};
use crate::workloads::Workload;

pub struct Pins {
    /// The `--seed` the pins were recorded at; they apply to no other.
    pub seed: u64,
    doc: Json,
}

impl Pins {
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: no \"seed\"", path.display()))?;
        Ok(Pins {
            seed: seed as u64,
            doc,
        })
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.doc.get("workloads")?.get(name)
    }

    /// The pinned per-cell digests of `name`; empty when the workload
    /// has no pins yet, so that every cell fails until it is blessed.
    pub fn digests(&self, name: &str) -> Vec<u64> {
        self.workload(name)
            .and_then(|w| w.get("digests")?.as_arr())
            .map(|digests| {
                digests
                    .iter()
                    .filter_map(|d| u64::from_str_radix(d.as_str()?, 16).ok())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `counter: got, pinned` for every exact total that moved.
    pub fn moved(&self, name: &str, cells: &[Cell]) -> Vec<String> {
        let pinned = self.workload(name).and_then(|w| w.get("exact"));
        EXACT
            .iter()
            .filter_map(|counter| {
                let got = exact_total(cells, counter);
                let want = pinned?.get(counter)?.as_f64()? as i64;
                (got != want).then(|| format!("{counter}: {got}, pinned {want}"))
            })
            .collect()
    }
}

/// The exact counter totals of `cells`, as pin and result files hold
/// them.
pub fn exact_totals(cells: &[Cell]) -> Json {
    Json::obj(
        EXACT
            .iter()
            .map(|counter| (*counter, Json::Num(exact_total(cells, counter) as f64))),
    )
}

/// Rewrites the pin file from the reference repetitions of a run of
/// every workload at `seed` (`--bless`).
pub fn bless(path: &Path, seed: u64, run: &[(&Workload, &[Cell])]) -> Result<(), String> {
    let workloads = run.iter().map(|(w, cells)| {
        let digests = cells
            .iter()
            .map(|c| Json::Str(format!("{:016x}", c.digest)))
            .collect();
        (
            w.name,
            Json::obj([
                ("digests", Json::Arr(digests)),
                ("exact", exact_totals(cells)),
            ]),
        )
    });
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
