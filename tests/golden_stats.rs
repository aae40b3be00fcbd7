//! Golden exact-stats pins for the simulator.
//!
//! Every registry app is run under the paper's evaluation configuration
//! (`eval_config_max_l1d`) and its exact counters are compared with
//! values recorded from a known-good build. Performance work on the issue
//! loop, the scoreboard and the L1/L2 probe must leave every one of these
//! numbers unchanged: they are the simulated behaviour, not a tolerance.
//!
//! Besides the plain runs, the suite pins the two outputs that depend on
//! *where* the idle-cycle skip-ahead lands, not only on what issues:
//! DYNCTA (its sampling windows close on cycle boundaries the skip-ahead
//! jumps over) and the profiled per-reason stall breakdown (skipped cycles
//! are charged in bulk to the reason of the cycle they skip from).
//!
//! On a mismatch the failure message prints the whole table as measured,
//! in the source layout of the constants below, so an intended model
//! change can be re-pinned by pasting it back.

use catt_repro::sim::config::DynctaConfig;
use catt_repro::sim::profile::{self, StallReason};
use catt_repro::sim::{GpuConfig, LaunchStats};
use catt_repro::workloads::harness;
use catt_repro::workloads::registry::{self, Workload};

/// `(app, [cycles, instructions, l1_hits, l2_hits, offchip_requests],
/// output-memory digest)` for every registry app but PF and DM, which
/// are left out for run length.
#[rustfmt::skip]
const PLAIN: &[(&str, [u64; 5], u64)] = &[
    ("GSMV", [390329, 49552, 52632, 43439, 48760], 0xa0137f56e026d6c4),
    ("SYR2K", [677835, 796672, 621824, 0, 33536], 0x5e5c64d9aa65fd1c),
    ("ATAX", [4669366, 1967088, 1026025, 406710, 571415], 0xc5be0ee6a4b83772),
    ("BICG", [4937191, 1967088, 994035, 438511, 603405], 0xfba5be3742bfd269),
    ("MVT", [6289833, 1967088, 813979, 617433, 783461], 0x03f473b80d6f6c75),
    ("CORR", [726321, 121304, 69852, 0, 74052], 0x14c1bd76dfece95c),
    ("BFS", [764625, 881575, 104130, 5183, 88567], 0x2c764a9180991966),
    ("CFD", [165264, 180624, 78984, 0, 13824], 0x3a7bc006ba7a8052),
    ("KM", [656838, 916216, 613876, 520, 13068], 0xb3d7402e0fd00cdc),
    ("GRAM", [187337, 80296, 5104, 0, 6176], 0x3afb0810344c63d7),
    ("SYRK", [117896, 436896, 41328, 0, 14544], 0x8cd62cf2e99294a9),
    ("DC", [183863, 252016, 23904, 0, 8864], 0x9eddd7a40fbf088e),
    ("BT", [37576, 87092, 29667, 0, 403], 0xdfe29e5b9f76f890),
    ("HP", [52586, 136864, 9872, 0, 5008], 0x9df507dae4f8330c),
    ("LVMD", [2331231, 2267648, 2040, 0, 520], 0x40d7e56cc8cc14aa),
    ("2MM", [143406, 496640, 48384, 0, 17152], 0xa56911e8a6e45e9c),
    ("GEMM", [161054, 579744, 54912, 0, 19392], 0xb0a65bbf4df5c7b7),
    ("3MM", [215109, 744960, 72576, 0, 25728], 0x8901cdf452be4758),
    ("BP", [113576, 74304, 8, 0, 4120], 0xba1a4fda1923646a),
    ("HM", [15879, 5632, 24, 0, 296], 0x7af65a9caa6e2351),
    ("LUD", [16440, 22400, 0, 0, 64], 0x0b3d0e90611d4a14),
    ("HW", [10306, 13116, 1474, 0, 66], 0x2b244a4774065ed4),
    ("MC", [8119, 9088, 0, 0, 16], 0xab2abb72cdb884d0),
];

/// The same counters for DYNCTA runs (`DynctaConfig::default()`).
#[rustfmt::skip]
const DYNCTA: &[(&str, [u64; 5], u64)] = &[
    ("ATAX", [2400787, 1967088, 1403767, 27140, 193673], 0xc5be0ee6a4b83772),
    ("GSMV", [158846, 49552, 85416, 12593, 15976], 0xa0137f56e026d6c4),
    ("MVT", [2571122, 1967088, 1372474, 57973, 224966], 0x03f473b80d6f6c75),
    ("SYR2K", [677835, 796672, 621824, 0, 33536], 0x5e5c64d9aa65fd1c),
];

/// Profiled runs: `(run, cycles, stall slots per reason in
/// `StallReason::ALL` order)`, one row per entry of `PROFILED_RUNS`.
#[rustfmt::skip]
const PROFILED: &[(&str, u64, [u64; StallReason::COUNT])] = &[
    ("ATAX", 4669366, [1782776, 14762242, 0, 0, 165358, 0]),
    ("KM", 656838, [426135, 1043096, 0, 0, 241905, 0]),
    ("LUD", 16440, [26347, 7729, 9236, 0, 48, 0]),
    ("GSMV+dyncta", 158846, [57637, 515092, 0, 802, 12301, 0]),
];

const DYNCTA_APPS: [&str; 4] = ["ATAX", "GSMV", "MVT", "SYR2K"];
/// `(app, dyncta)`: a memory-bound app, a compute-heavy one, a barrier
/// app, and a DYNCTA run (the only source of `Throttled` slots).
const PROFILED_RUNS: [(&str, bool); 4] = [
    ("ATAX", false),
    ("KM", false),
    ("LUD", false),
    ("GSMV", true),
];

fn counters(s: &LaunchStats) -> [u64; 5] {
    [
        s.cycles,
        s.instructions,
        s.l1_hits,
        s.l2_hits,
        s.offchip_requests,
    ]
}

fn workload(abbrev: &str) -> Workload {
    registry::find(abbrev).unwrap_or_else(|| panic!("{abbrev}: not in the registry"))
}

/// Run `w` without the host-side reference check (the memory digest
/// pins the outputs instead) and return its counters and digest.
fn run(w: &Workload, cfg: &GpuConfig) -> ([u64; 5], u64) {
    harness::set_mem_digest_capture(true);
    let stats = (w.run)(&w.kernels(), cfg, false);
    let digest = harness::last_mem_digest()
        .unwrap_or_else(|| panic!("{}: no memory digest recorded", w.abbrev));
    harness::set_mem_digest_capture(false);
    (counters(&stats), digest)
}

fn render_rows(rows: &[(String, [u64; 5], u64)]) -> String {
    rows.iter()
        .map(|(app, c, d)| format!("    (\"{app}\", {c:?}, {d:#018x}),\n"))
        .collect()
}

fn check_rows(what: &str, expected: &[(&str, [u64; 5], u64)], got: &[(String, [u64; 5], u64)]) {
    let same = expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(e, g)| e.0 == g.0 && e.1 == g.1 && e.2 == g.2);
    assert!(
        same,
        "{what}: simulated behaviour changed; measured table:\n{}",
        render_rows(got)
    );
}

#[test]
fn plain_runs_match_the_golden_counters() {
    let cfg = harness::eval_config_max_l1d();
    let got: Vec<_> = registry::all_workloads()
        .into_iter()
        .filter(|w| !matches!(w.abbrev, "PF" | "DM"))
        .map(|w| {
            let (c, d) = run(&w, &cfg);
            (w.abbrev.to_string(), c, d)
        })
        .collect();
    check_rows("plain", PLAIN, &got);
}

#[test]
fn dyncta_runs_match_the_golden_counters() {
    let mut cfg = harness::eval_config_max_l1d();
    cfg.dyncta = Some(DynctaConfig::default());
    let got: Vec<_> = DYNCTA_APPS
        .iter()
        .map(|a| {
            let (c, d) = run(&workload(a), &cfg);
            (a.to_string(), c, d)
        })
        .collect();
    check_rows("dyncta", DYNCTA, &got);
}

#[test]
fn profiled_stall_breakdowns_match_the_golden_counters() {
    let got: Vec<(String, u64, [u64; StallReason::COUNT])> = PROFILED_RUNS
        .iter()
        .map(|&(a, dyncta)| {
            let w = workload(a);
            let mut cfg = harness::eval_config_max_l1d();
            cfg.profile = Some(true);
            cfg.dyncta = dyncta.then(DynctaConfig::default);
            profile::set_capture(true);
            let stats = (w.run)(&w.kernels(), &cfg, false);
            let profiles = profile::take_captured();
            profile::set_capture(false);
            let mut stalls = [0u64; StallReason::COUNT];
            for p in &profiles {
                for (acc, v) in stalls.iter_mut().zip(p.stall_totals()) {
                    *acc += v;
                }
            }
            let label = if dyncta {
                format!("{a}+dyncta")
            } else {
                a.to_string()
            };
            (label, stats.cycles, stalls)
        })
        .collect();
    let same = PROFILED.len() == got.len()
        && PROFILED
            .iter()
            .zip(&got)
            .all(|(e, g)| e.0 == g.0 && e.1 == g.1 && e.2 == g.2);
    let table: String = got
        .iter()
        .map(|(app, cycles, s)| format!("    (\"{app}\", {cycles}, {s:?}),\n"))
        .collect();
    assert!(
        same,
        "profiled: stall breakdown changed; measured table:\n{table}"
    );
}
