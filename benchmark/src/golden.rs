//! Golden cell digests for seed 1 (`benchmark/golden/seed-1.json`).
//!
//! Every cell's serialized summary is hashed; a run on the golden seed must
//! reproduce every digest, so a change meant only to make the simulator
//! faster or smaller cannot drift a simulated statistic unnoticed.
//! `--record-golden` rewrites the file.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// The seed the goldens are recorded for.
pub const SEED: u64 = 1;

/// One workload's digests, in cell order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenWorkload {
    /// Workload name.
    pub workload: String,
    /// FNV-1a digests as 16 hex digits.
    pub digests: Vec<String>,
}

/// The golden file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Golden {
    /// Seed the digests belong to.
    pub seed: u64,
    /// Per-workload digests.
    pub workloads: Vec<GoldenWorkload>,
}

/// A digest as written in the golden file.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The golden file's path.
pub fn path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("seed-{SEED}.json"))
}

impl Golden {
    /// Reads the golden file; an absent file is an empty golden set.
    pub fn load(path: &Path) -> Result<Golden, String> {
        match std::fs::read_to_string(path) {
            Ok(body) => serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Golden {
                seed: SEED,
                workloads: Vec::new(),
            }),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// The digests recorded for `workload`.
    pub fn digests(&self, workload: &str) -> Option<&[String]> {
        self.workloads
            .iter()
            .find(|w| w.workload == workload)
            .map(|w| w.digests.as_slice())
    }

    /// Replaces (or adds) `workload`'s digests.
    pub fn set(&mut self, workload: &str, digests: Vec<String>) {
        match self.workloads.iter_mut().find(|w| w.workload == workload) {
            Some(w) => w.digests = digests,
            None => self.workloads.push(GoldenWorkload {
                workload: workload.to_string(),
                digests,
            }),
        }
    }

    /// Writes the golden file.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        let body = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, body + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Cells whose digest differs from the golden one: (index, reason).
    /// Empty when the workload has no goldens.
    pub fn mismatches(&self, workload: &str, digests: &[Option<u64>]) -> Vec<(usize, String)> {
        let Some(golden) = self.digests(workload) else {
            return Vec::new();
        };
        if golden.len() != digests.len() {
            return vec![(
                0,
                format!(
                    "golden has {} cells, the workload has {}",
                    golden.len(),
                    digests.len()
                ),
            )];
        }
        digests
            .iter()
            .zip(golden)
            .enumerate()
            .filter_map(|(i, (d, g))| match d {
                Some(d) if hex(*d) == *g => None,
                Some(_) => Some((i, "summary differs from the seed-1 golden".to_string())),
                None => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_are_reported_per_cell() {
        let mut g = Golden {
            seed: SEED,
            workloads: Vec::new(),
        };
        assert!(
            g.mismatches("w", &[Some(1)]).is_empty(),
            "no goldens, no check"
        );
        g.set("w", vec![hex(1), hex(2)]);
        assert!(g.mismatches("w", &[Some(1), Some(2)]).is_empty());
        assert_eq!(g.mismatches("w", &[Some(1), Some(3)])[0].0, 1);
        assert_eq!(g.mismatches("w", &[Some(1)]).len(), 1, "cell-count drift");
        g.set("w", vec![hex(5)]);
        assert_eq!(g.digests("w"), Some(&[hex(5)][..]));
    }
}
