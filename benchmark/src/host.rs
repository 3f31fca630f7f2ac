//! Host context and codegen parity: what a reader needs to tell a slow
//! host or a different build from a regression.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// The `key = value` lines of `[profile.release]` in a manifest, spaces
/// and comments removed, sorted.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.replace(' ', ""))
        .collect();
    lines.sort();
    lines
}

/// Refuses to run when the benchmark's `[profile.release]` differs from
/// the root manifest's: thin LTO and one codegen unit change pps
/// materially, so the two must be built alike.
pub fn check_profile_parity(benchmark_dir: &Path) -> Result<(), String> {
    let read = |path: std::path::PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let own = release_profile(&read(benchmark_dir.join("Cargo.toml"))?);
    let root = release_profile(&read(benchmark_dir.join("../Cargo.toml"))?);
    if own == root {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {own:?}, ../Cargo.toml has {root:?}"
        ))
    }
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A frozen kernel shaped like the simulator's inner loop (pop the
/// earliest of a small heap, push a successor, touch a random slot of
/// a 4 MB table) that never calls repo code. Millions of ops per
/// second, median of three. Printed as context; the untraced pass also
/// clocks it every round to report its times at one host speed.
pub fn calib_mops() -> f64 {
    const OPS: u64 = 2_000_000;
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut heap: BinaryHeap<Reverse<u64>> =
                (0..1024u64).map(|i| Reverse(i * 7919 % 1024)).collect();
            let mut table = vec![0u32; 1 << 20];
            let mut x = 0x9E37_79B9_7F4A_7C15_u64;
            let started = Instant::now();
            for _ in 0..OPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let Reverse(top) = heap.pop().expect("heap never empties");
                heap.push(Reverse(top + (x & 0xFFFF)));
                let slot = (x >> 20) as usize & (table.len() - 1);
                table[slot] = table[slot].wrapping_add(top as u32);
            }
            black_box((&heap, &table));
            OPS as f64 / started.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// CPU model, core count, compiler, commit and the calibration kernel.
pub fn fingerprint(benchmark_dir: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("cpu", Json::Str(cpu)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], benchmark_dir)),
        ),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], benchmark_dir)),
        ),
        ("host_calib_mops", Json::Num(calib_mops())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_parsed_out_of_a_manifest() {
        let manifest = "[package]\nname = \"x\"\n\n# note\n[profile.release]\nlto = \"thin\"  # why\n\ncodegen-units=1\n[profile.dev]\nopt-level = 2\n";
        assert_eq!(
            release_profile(manifest),
            ["codegen-units=1", "lto=\"thin\""]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_benchmark_profile_matches_the_root_manifest() {
        check_profile_parity(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    }
}
