//! Smoke tests for the `catt` command-line tool.

use std::process::Command;

fn catt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_catt"))
}

fn demo_file() -> tempfile_path::TempPath {
    tempfile_path::write(
        "#define N 512
         __global__ void walk(float *A, float *tmp) {
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < N) {
                 for (int j = 0; j < 64; j++) {
                     tmp[i] += A[i * 64 + j];
                 }
             }
         }",
    )
}

/// Minimal temp-file helper (no external crates).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(contents: &str) -> TempPath {
        let p = std::env::temp_dir().join(format!(
            "catt_cli_test_{}_{:?}.cu",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&p, contents).unwrap();
        TempPath(p)
    }
}

#[test]
fn analyze_reports_decision() {
    let f = demo_file();
    let out = catt()
        .args([
            "analyze",
            f.0.to_str().unwrap(),
            "--launch",
            "walk=2x256",
            "--l1",
            "32",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernel `walk`"), "{stdout}");
    assert!(stdout.contains("contended=true"), "{stdout}");
}

#[test]
fn compile_emits_parsable_source() {
    let f = demo_file();
    let out_file = std::env::temp_dir().join(format!("catt_cli_out_{}.cu", std::process::id()));
    let out = catt()
        .args([
            "compile",
            f.0.to_str().unwrap(),
            "--launch",
            "walk=2x256",
            "--l1",
            "32",
            "-o",
            out_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let emitted = std::fs::read_to_string(&out_file).unwrap();
    let _ = std::fs::remove_file(&out_file);
    assert!(emitted.contains("__syncthreads();"), "{emitted}");
    catt_frontend::parse_module(&emitted).expect("emitted source parses");
}

#[test]
fn run_reports_speedup() {
    let f = demo_file();
    let out = catt()
        .args([
            "run",
            f.0.to_str().unwrap(),
            "--launch",
            "walk=2x256",
            "--l1",
            "32",
            "--args",
            "f:32768,f:512",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("speedup"), "{stdout}");
}

#[test]
fn profile_emits_reports_and_valid_trace() {
    let trace = std::env::temp_dir().join(format!("catt_cli_trace_{}.json", std::process::id()));
    let out = catt()
        .args(["profile", "ATAX", "--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stall breakdown"), "{stdout}");
    assert!(stdout.contains("memory"), "{stdout}");
    assert!(stdout.contains("L1D heat map"), "{stdout}");
    assert!(stdout.contains("pred lines"), "{stdout}");
    let json = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    catt_profile::json::validate(&json).expect("trace is valid JSON");
    assert!(json.contains("\"traceEvents\""), "trace envelope present");
}

#[test]
fn profile_rejects_unknown_workload() {
    let out = catt().args(["profile", "NOPE"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = catt().args(["analyze"]).output().unwrap();
    assert!(!out.status.success());
    let out = catt()
        .args(["frobnicate", "x.cu", "--launch", "k=1x32"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// A typo'd or overflowing `--l1` must fail with the usage exit code
/// (2), naming the bad value, instead of silently running at max L1D.
#[test]
fn bad_l1_values_are_rejected() {
    let f = demo_file();
    let file = f.0.to_str().unwrap();
    // 4194304 KB = 4 GiB: the byte count overflows u32.
    for bad in ["32k", "-1", "", "4194304", "99999999999"] {
        let cases: [Vec<&str>; 4] = [
            vec!["analyze", file, "--launch", "walk=2x256", "--l1", bad],
            vec!["compile", file, "--launch", "walk=2x256", "--l1", bad],
            vec!["profile", "HM", "--l1", bad],
            vec!["tune", "HM", "--l1", bad],
        ];
        for args in cases {
            let out = catt().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("bad --l1 value `{bad}`")),
                "{args:?}: {stderr}"
            );
        }
    }
    // The largest representable cap still parses (4194303 KB < 4 GiB).
    let out = catt()
        .args(["analyze", file, "--launch", "walk=2x256", "--l1", "4194303"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fuzz_small_campaign_is_deterministic_and_clean() {
    let run = || {
        catt()
            .args(["fuzz", "--seed", "1", "--iters", "30"])
            .output()
            .unwrap()
    };
    let a = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = run();
    assert_eq!(
        a.stdout, b.stdout,
        "same seed must give a byte-identical report"
    );
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("violations .............. 0"), "{stdout}");
    assert!(stdout.contains("kernels generated ....... 30"), "{stdout}");
}

#[test]
fn fuzz_replays_the_regression_corpus() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let out = catt()
        .args([
            "fuzz",
            "--seed",
            "2",
            "--iters",
            "5",
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("corpus replay:"), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn fuzz_unchecked_fails_and_persists_counterexamples() {
    let dir = std::env::temp_dir().join(format!(
        "catt_cli_fuzz_corpus_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = catt()
        .args([
            "fuzz",
            "--seed",
            "1",
            "--iters",
            "16",
            "--unchecked",
            "--shrink",
            "--corpus",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "an unchecked campaign over these seeds must find the miscompile"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("new counterexample written"), "{stderr}");
    let wrote_cex = std::fs::read_dir(&dir)
        .unwrap()
        .any(|e| e.unwrap().file_name().to_string_lossy().starts_with("cex-"));
    assert!(wrote_cex, "no cex-*.cu file persisted in {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_rejects_unknown_options() {
    let out = catt().args(["fuzz", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}
