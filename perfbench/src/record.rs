//! The determinism guard across runs.
//!
//! Each run writes the exact counts it saw (one line per net) to a
//! record keyed by the workload and a hash of the executables under
//! test. A later run of the same build must reproduce the record line
//! for line; any difference fails that run instead of averaging away.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// FNV-1a over the bytes of each file.
pub fn build_hash(files: &[&Path]) -> Result<u64, String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(h)
}

/// Exact counts of one run, by net name.
pub type Record = BTreeMap<String, String>;

fn render(rec: &Record) -> String {
    rec.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect()
}

/// Compares `rec` with the stored record `key` under `dir`, storing it
/// when none exists. Returns the mismatching lines.
pub fn check(dir: &Path, key: &str, rec: &Record) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path: PathBuf = dir.join(format!("{key}.counts"));
    let text = render(rec);
    match std::fs::read_to_string(&path) {
        Ok(stored) => Ok(diff(&stored, &text)),
        Err(_) => {
            // Write then rename, so a concurrent reader never sees half a record.
            let tmp = dir.join(format!("{key}.counts.{}", std::process::id()));
            std::fs::write(&tmp, &text).map_err(|e| format!("{}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Vec::new())
        }
    }
}

fn diff(stored: &str, now: &str) -> Vec<String> {
    let a: Vec<&str> = stored.lines().collect();
    let b: Vec<&str> = now.lines().collect();
    let mut out = Vec::new();
    for i in 0..a.len().max(b.len()) {
        let (x, y) = (a.get(i).copied().unwrap_or("-"), b.get(i).copied().unwrap_or("-"));
        if x != y {
            out.push(format!("was `{x}`, now `{y}`"));
        }
    }
    out
}
