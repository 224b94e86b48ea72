//! Machine-readable benchmark records and line-oriented merging into the
//! repo-root `BENCH_*.json` tables.
//!
//! Several independent bench binaries (`kernels`, `infer`) contribute
//! rows to the same table, so a writer must not clobber rows it does not
//! own: [`merge_into`] re-reads the existing file, drops only the rows
//! whose `op` the caller claims, and appends the fresh ones. The format
//! stays a flat JSON array with exactly one record per line, which is
//! what makes the textual merge safe.

use std::io;
use std::path::{Path, PathBuf};

/// One benchmark row: an op timed on a backend, optionally against a
/// reference implementation.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Operation name (`gemm`, `unet_infer`, …) — the merge key.
    pub op: String,
    /// Problem shape label (`8x54x8192`, `batch8_32x32`, …).
    pub shape: String,
    /// Tensor backend the row ran on (`cpu` or `quant`).
    pub backend: String,
    /// Best-of-samples wall-clock per iteration.
    pub ns: f64,
    /// Reference implementation's ns/iter, when one was timed.
    pub reference_ns: Option<f64>,
}

impl BenchRecord {
    /// `reference / optimized`, when a reference was timed.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.reference_ns.map(|r| r / self.ns)
    }

    fn json_f64(v: Option<f64>) -> String {
        match v {
            Some(x) => format!("{x:.1}"),
            None => "null".to_string(),
        }
    }

    /// The record as one JSON object line (no trailing comma).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"op\": \"{}\", \"shape\": \"{}\", \"backend\": \"{}\", \
             \"ns_per_iter\": {:.1}, \"reference_ns_per_iter\": {}, \"speedup\": {}}}",
            self.op,
            self.shape,
            self.backend,
            self.ns,
            Self::json_f64(self.reference_ns),
            Self::json_f64(self.speedup()),
        )
    }
}

/// Where a bench binary writes its table: `NEURFILL_BENCH_OUT` when set,
/// else `file_name` at the repo root (resolved from the bench crate's
/// manifest directory).
#[must_use]
pub fn output_path(manifest_dir: &str, file_name: &str) -> PathBuf {
    std::env::var("NEURFILL_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(manifest_dir).join("../..").join(file_name))
}

/// Record lines of an existing table file, one JSON object per entry,
/// with array brackets and trailing commas stripped. A missing file is
/// an empty table.
fn existing_lines(path: &Path) -> Vec<String> {
    let Ok(body) = std::fs::read_to_string(path) else { return Vec::new() };
    body.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .map(|l| l.strip_suffix(',').unwrap_or(l).to_string())
        .collect()
}

/// Merges `rows` into the table at `path`: every existing row whose `op`
/// is in `replace_ops` is dropped (the caller owns those ops and is
/// rewriting them), every other existing row is preserved verbatim, and
/// the new rows are appended.
///
/// # Errors
///
/// Propagates the final write error; a malformed existing file is
/// treated as empty rather than an error.
pub fn merge_into(path: &Path, replace_ops: &[&str], rows: &[BenchRecord]) -> io::Result<()> {
    let owned: Vec<String> = replace_ops.iter().map(|op| format!("\"op\": \"{op}\"")).collect();
    let mut lines: Vec<String> = existing_lines(path)
        .into_iter()
        .filter(|l| !owned.iter().any(|key| l.contains(key.as_str())))
        .collect();
    lines.extend(rows.iter().map(BenchRecord::to_json_line));

    let mut body = String::from("[\n");
    for (i, line) in lines.iter().enumerate() {
        body.push_str("  ");
        body.push_str(line);
        if i + 1 < lines.len() {
            body.push(',');
        }
        body.push('\n');
    }
    body.push_str("]\n");
    std::fs::write(path, body)
}

/// Prints the standard stdout table for a slice of records.
pub fn print_table(rows: &[BenchRecord]) {
    println!(
        "{:<20} {:<20} {:<8} {:>14} {:>16} {:>9}",
        "op", "shape", "backend", "ns/iter", "reference", "speedup"
    );
    for row in rows {
        let speedup = match row.speedup() {
            Some(s) => format!("{s:.2}x"),
            None => "-".to_string(),
        };
        let reference = match row.reference_ns {
            Some(r) => format!("{r:.0}"),
            None => "-".to_string(),
        };
        println!(
            "{:<20} {:<20} {:<8} {:>14.0} {:>16} {:>9}",
            row.op, row.shape, row.backend, row.ns, reference, speedup
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            op: op.to_string(),
            shape: "s".to_string(),
            backend: "cpu".to_string(),
            ns,
            reference_ns: Some(2.0 * ns),
        }
    }

    #[test]
    fn merge_replaces_owned_ops_and_preserves_others() {
        let dir = std::env::temp_dir().join(format!("nf_bench_records_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.json");

        merge_into(&path, &["gemm"], &[record("gemm", 10.0), record("gemm", 20.0)]).unwrap();
        merge_into(&path, &["unet_infer"], &[record("unet_infer", 5.0)]).unwrap();
        // Rewriting gemm must keep the infer row and drop the stale gemm rows.
        merge_into(&path, &["gemm"], &[record("gemm", 11.0)]).unwrap();

        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.matches("\"op\": \"gemm\"").count(), 1, "{body}");
        assert_eq!(body.matches("\"op\": \"unet_infer\"").count(), 1, "{body}");
        assert!(body.contains("\"ns_per_iter\": 11.0"), "{body}");
        assert!(!body.contains("\"ns_per_iter\": 10.0"), "{body}");
        assert!(body.contains("\"speedup\": 2.0"), "{body}");
        assert!(body.trim_end().ends_with(']'), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
