//! What a result depends on besides the code: the host, the toolchain,
//! the source tree, and the environment.

use crate::metrics::json_string;
use catt_sim::Fnv64;
use std::path::Path;
use std::process::Command;

/// `CATT_*` variables set in `vars`. The repository reads about fifteen
/// of them at use time (cache mode, worker counts, fault plans, pass
/// cache, SM threading, ...), so any of them would silently change what
/// the benchmark measures.
pub fn catt_vars(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CATT_"))
        .collect();
    set.sort();
    set
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of `program args...`'s standard output, if it runs.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-64 digest of the sources the benchmark builds from (`crates/`,
/// the benchmark's own sources, and the manifests), walked in sorted
/// order. Identifies the code under test where no git revision exists.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = Fnv64::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write_str(&f.strip_prefix(root).unwrap_or(f).to_string_lossy());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

/// The host fingerprint recorded with every result.
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub git_rev: Option<String>,
    pub source_digest: String,
}

impl Fingerprint {
    pub fn capture(root: &Path) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            git_rev: first_line("git", &["rev-parse", "HEAD"]),
            source_digest: source_digest(root),
        }
    }

    /// JSON object fields (without braces); `serve_config` is the
    /// already-rendered `ServeConfig` the benchmark built.
    pub fn json_fields(&self, serve_config: &str) -> String {
        format!(
            "\"nproc\": {}, \"rustc\": {}, \"git_rev\": {}, \"source_digest\": {}, \
             \"serve_config\": {serve_config}",
            self.nproc,
            json_string(&self.rustc),
            self.git_rev
                .as_deref()
                .map_or("null".to_string(), json_string),
            json_string(&self.source_digest),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_catt_variables_block_a_run() {
        let vars = [
            ("PATH", "/bin"),
            ("CATT_SIMCACHE", "off"),
            ("CARGO_TARGET_DIR", ".bench_build"),
            ("CATT_ENGINE_WORKERS", "1"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(
            catt_vars(vars.into_iter()),
            ["CATT_ENGINE_WORKERS", "CATT_SIMCACHE"]
        );
        assert!(catt_vars(std::iter::empty()).is_empty());
    }

    #[test]
    fn peak_rss_is_positive_where_reported() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
