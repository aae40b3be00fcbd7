//! The two registry-app workloads: `eval-cs` (the Fig. 7 evaluation) and
//! `tune-small` (`catt tune` over short apps), plus the probes that time
//! one layer at a time on registry apps.
//!
//! Every pass runs its apps under a fresh simcache scope and a cleared
//! pass cache, so each pass simulates and compiles as cold as the first
//! run of a fresh process would.

use crate::metrics::Outcome;
use crate::probe::{self, CompileUnit, Layers};
use crate::trace::{span, Tracer};
use crate::{Pass, Workload as BenchWorkload};
use catt_core::engine::Engine;
use catt_core::passes::reset_pass_cache;
use catt_prng::Rng;
use catt_sim::GpuConfig;
use catt_tune::{tune_workloads, TuneOptions};
use catt_workloads::harness::{self, eval_config_max_l1d};
use catt_workloads::registry::{self, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Apps of `eval-cs`: seven of the eleven cache-sensitive apps, among
/// them a warp-throttle win (ATAX), a CATT loss (SYR2K), an iterative
/// multi-launch app (BFS) and a no-op (CORR); PF and DM are left out for
/// run length.
pub const EVAL_CS_APPS: &[&str] = &["GSMV", "SYR2K", "ATAX", "BFS", "CFD", "KM", "CORR"];

/// Apps of `tune-small`: short, mostly compute-bound launches.
pub const TUNE_SMALL_APPS: &[&str] = &[
    "GSMV", "CORR", "CFD", "GRAM", "SYRK", "DC", "BT", "HP", "2MM", "GEMM", "BP", "HM", "LUD",
    "HW", "MC",
];

/// The app the canary probes use on workloads that do not exercise a
/// layer themselves (the smallest app both registry workloads share).
pub const CANARY_APP: &str = "GSMV";

/// A copy of `w` under its own simcache scope: the engine keys cached
/// simulations by the app abbreviation, so a new tag starts the app cold.
pub fn scoped(w: &Workload, tag: &str) -> Workload {
    let abbrev: &'static str = Box::leak(format!("{}@{tag}", w.abbrev).into_boxed_str());
    Workload {
        abbrev,
        name: w.name,
        suite: w.suite,
        group: w.group,
        smem_kb: w.smem_kb,
        input: w.input,
        source: w.source,
        launches: w.launches,
        run: w.run,
    }
}

/// The abbreviation without the scope tag.
fn base_abbrev(w: &Workload) -> &str {
    w.abbrev.split('@').next().unwrap_or(w.abbrev)
}

/// Look up `names` in the registry, parse every kernel once (the
/// registry panics on a malformed built-in source), and order them by a
/// permutation drawn from `seed`.
pub fn load_apps(names: &[&str], seed: u64) -> Vec<Workload> {
    let mut apps: Vec<Workload> = names
        .iter()
        .map(|n| registry::find(n).unwrap_or_else(|| panic!("app {n} is in the registry")))
        .collect();
    for w in &apps {
        std::hint::black_box(w.kernels());
    }
    let mut rng = Rng::seed(seed ^ 0xA995_0DE2);
    for i in (1..apps.len()).rev() {
        apps.swap(i, rng.range_usize(0, i));
    }
    apps
}

fn engine_delta(before: catt_core::CacheCounters, layers: &mut Layers) {
    let after = Engine::global().cache_counters();
    layers.set("engine.sim_jobs", (after.misses - before.misses) as f64);
    layers.set("engine.cache_hits", (after.hits - before.hits) as f64);
    layers.set(
        "engine.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
}

/// Exact per-app results, one line per app in abbreviation order (the
/// seed only reorders the apps).
fn render_exact(lines: BTreeMap<&str, String>) -> String {
    lines.into_values().map(|l| l + "\n").collect()
}

/// The `eval-cs` workload.
pub struct EvalCs {
    apps: Vec<Workload>,
    config: GpuConfig,
}

impl BenchWorkload for EvalCs {
    fn setup(seed: u64) -> (EvalCs, Duration) {
        let t0 = Instant::now();
        let w = EvalCs {
            apps: load_apps(EVAL_CS_APPS, seed),
            config: eval_config_max_l1d(),
        };
        (w, t0.elapsed())
    }

    fn clients(&self) -> u32 {
        1
    }

    fn pass(&self, index: usize, tracer: Option<&Tracer>) -> Pass {
        reset_pass_cache();
        let engine_before = Engine::global().cache_counters();
        let passes_before = probe::pass_cache_totals();
        let mut pass = Pass::default();
        let start = Instant::now();
        let window_start = tracer.map_or(0, Tracer::now_ns);
        let mut exact = BTreeMap::new();
        let mut sweep_ms = Vec::new();
        let mut candidates = 0u64;
        for (i, base) in self.apps.iter().enumerate() {
            let w = scoped(base, &format!("p{index}"));
            let t0 = Instant::now();
            let root = span(tracer, "app", None, i as u64, 0);
            let result = (|| {
                let b = {
                    let _s = span(tracer, "harness.run_baseline", root.id(), i as u64, 0);
                    harness::run_baseline(&w, &self.config)?
                };
                let (c, compiled) = {
                    let _s = span(tracer, "harness.run_catt", root.id(), i as u64, 0);
                    harness::run_catt(&w, &self.config)?
                };
                let t_sweep = Instant::now();
                let (f, sweep) = {
                    let _s = span(tracer, "harness.run_bftt", root.id(), i as u64, 0);
                    harness::run_bftt(&w, &self.config)?
                };
                sweep_ms.push(t_sweep.elapsed().as_secs_f64() * 1e3);
                candidates += sweep.candidates.len() as u64;
                let transformed = compiled
                    .kernels
                    .iter()
                    .filter(|k| k.is_transformed())
                    .count();
                Ok::<_, harness::EvalError>((b, c, f, transformed, sweep.candidates.len()))
            })();
            drop(root);
            pass.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            pass.outcome.attempted += 1;
            match result {
                Ok((b, c, f, transformed, n_cand)) => {
                    pass.cycles.insert(base.abbrev.to_string(), b.cycles());
                    pass.catt_speedups
                        .push(b.cycles() as f64 / c.cycles() as f64);
                    exact.insert(
                        base.abbrev,
                        format!(
                            "{} base={} insts={} l1_hits={} catt={} bftt={} \
                             transformed={transformed} candidates={n_cand}",
                            base.abbrev,
                            b.cycles(),
                            b.stats.instructions,
                            b.stats.l1_hits,
                            c.cycles(),
                            f.cycles(),
                        ),
                    );
                }
                Err(e) => {
                    pass.outcome.failed += 1;
                    pass.outcome.problem(format!("{}: {e}", base.abbrev));
                }
            }
        }
        pass.wall = start.elapsed();
        pass.window = (window_start, tracer.map_or(0, Tracer::now_ns));
        pass.exact = render_exact(exact);
        engine_delta(engine_before, &mut pass.layers);
        probe::pass_cache_hit_ratio(passes_before, &mut pass.layers);
        if !sweep_ms.is_empty() {
            pass.layers.set(
                "bftt.sweep_ms",
                sweep_ms.iter().sum::<f64>() / sweep_ms.len() as f64,
            );
        }
        pass.layers.set("bftt.candidates", candidates as f64);
        pass
    }

    fn probe(
        &self,
        seed: u64,
        served: &BTreeMap<String, u64>,
        layers: &mut Layers,
        outcome: &mut Outcome,
    ) {
        probe_registry_layers(&self.apps, &self.config, served, layers, outcome);
        canary_tune(&self.config, layers, outcome);
        crate::serve::canary(seed, layers, outcome);
    }
}

/// The `tune-small` workload.
pub struct TuneSmall {
    apps: Vec<Workload>,
    config: GpuConfig,
    options: TuneOptions,
}

impl BenchWorkload for TuneSmall {
    fn setup(seed: u64) -> (TuneSmall, Duration) {
        let t0 = Instant::now();
        let w = TuneSmall {
            apps: load_apps(TUNE_SMALL_APPS, seed),
            config: eval_config_max_l1d(),
            options: TuneOptions::default(),
        };
        (w, t0.elapsed())
    }

    fn clients(&self) -> u32 {
        1
    }

    fn pass(&self, index: usize, tracer: Option<&Tracer>) -> Pass {
        reset_pass_cache();
        let engine_before = Engine::global().cache_counters();
        let passes_before = probe::pass_cache_totals();
        let mut pass = Pass::default();
        let start = Instant::now();
        let window_start = tracer.map_or(0, Tracer::now_ns);
        let mut exact = BTreeMap::new();
        let (mut evaluations, mut iterations) = (0u64, 0u64);
        let mut tune_time = Duration::ZERO;
        for (i, base) in self.apps.iter().enumerate() {
            let w = scoped(base, &format!("p{index}"));
            let t0 = Instant::now();
            let summary = {
                let root = span(tracer, "app", None, i as u64, 0);
                let _s = span(tracer, "tune.tune_workloads", root.id(), i as u64, 0);
                tune_workloads(std::slice::from_ref(&w), &self.config, &self.options)
            };
            let took = t0.elapsed();
            tune_time += took;
            pass.latencies_us.push(took.as_secs_f64() * 1e6);
            pass.outcome.attempted += 1;
            for (app, err) in &summary.failures {
                pass.outcome.failed += 1;
                pass.outcome.problem(format!("tune {app}: {err}"));
            }
            for r in &summary.reports {
                if let Err(e) = r.self_check(&self.options) {
                    pass.outcome.problem(format!("self-check: {e}"));
                }
                pass.cycles
                    .insert(base.abbrev.to_string(), r.baseline_cycles);
                pass.catt_speedups.push(r.catt_speedup());
                pass.tuned_speedups.push(r.tuned_speedup());
                evaluations += u64::from(r.evaluations);
                iterations += u64::from(r.iterations);
                exact.insert(
                    base.abbrev,
                    format!(
                        "{} base={} catt={:?} bftt={:?} tuned={} choice={} evaluations={} \
                         iterations={}",
                        base.abbrev,
                        r.baseline_cycles,
                        r.catt_cycles,
                        r.bftt_cycles,
                        r.tuned.cycles,
                        r.tuned.describe(),
                        r.evaluations,
                        r.iterations,
                    ),
                );
            }
        }
        pass.wall = start.elapsed();
        pass.window = (window_start, tracer.map_or(0, Tracer::now_ns));
        pass.exact = render_exact(exact);
        engine_delta(engine_before, &mut pass.layers);
        probe::pass_cache_hit_ratio(passes_before, &mut pass.layers);
        pass.layers
            .set("tune.evaluations", evaluations as f64)
            .set("tune.iterations", iterations as f64)
            .set(
                "tune.ms_per_eval",
                tune_time.as_secs_f64() * 1e3 / evaluations.max(1) as f64,
            );
        pass
    }

    fn probe(
        &self,
        seed: u64,
        served: &BTreeMap<String, u64>,
        layers: &mut Layers,
        outcome: &mut Outcome,
    ) {
        probe_registry_layers(&self.apps, &self.config, served, layers, outcome);
        canary_bftt(&self.config, layers, outcome);
        crate::serve::canary(seed, layers, outcome);
    }
}

/// Every compile unit (kernel + launch) of `apps`.
fn compile_units(apps: &[Workload]) -> Vec<CompileUnit> {
    apps.iter()
        .flat_map(|w| {
            w.kernels()
                .into_iter()
                .enumerate()
                .map(|(i, kernel)| CompileUnit {
                    kernel,
                    launch: w.launch(i),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The per-layer probes on registry apps: parse, the compile passes,
/// lowering, engine cache hits, and direct simulations of every app.
pub fn probe_registry_layers(
    apps: &[Workload],
    config: &GpuConfig,
    expected: &BTreeMap<String, u64>,
    layers: &mut Layers,
    outcome: &mut Outcome,
) {
    let sources: Vec<&str> = apps.iter().map(|w| w.source).collect();
    probe::frontend(&sources, layers, outcome);
    let units = compile_units(apps);
    probe::passes(&units, config, layers, outcome);
    probe::lower(&units, layers, outcome);
    let jobs: Vec<probe::EngineJob> = apps
        .iter()
        .map(|w| probe::EngineJob {
            scope: base_abbrev(w).to_string(),
            kernels: w.kernels(),
            launches: (0..w.launches.len()).map(|i| w.launch(i)).collect(),
        })
        .collect();
    probe::engine_hit(&jobs, config, layers, outcome);
    direct_runs(apps, config, expected, layers, outcome);
}

/// Direct (engine-bypassing) runs of every app: unvalidated for the
/// simulator's cost per warp-instruction and its exact counters,
/// validated for the validation cost, and profiled for the profile sink's
/// overhead. Each app's cycles must match `expected` (the cycles the
/// engine answered in the traced pass) where it lists the app.
pub fn direct_runs(
    apps: &[Workload],
    config: &GpuConfig,
    expected: &BTreeMap<String, u64>,
    layers: &mut Layers,
    outcome: &mut Outcome,
) {
    let mut sim = probe::SimTotals::default();
    let (mut unvalidated, mut validated, mut profiled) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for w in apps {
        let kernels = w.kernels();
        let t0 = Instant::now();
        let stats = (w.run)(&kernels, config, false);
        unvalidated += t0.elapsed();
        sim.add(&stats, t0.elapsed());
        if let Some(&c) = expected.get(base_abbrev(w)) {
            if c != stats.cycles {
                outcome.problem(format!(
                    "{}: engine answered {c} cycles, direct run {}",
                    base_abbrev(w),
                    stats.cycles
                ));
            }
        }
        let t1 = Instant::now();
        let checked = (w.run)(&kernels, config, true);
        validated += t1.elapsed();
        if checked.cycles != stats.cycles {
            outcome.problem(format!(
                "{}: validated run took {} cycles, unvalidated {}",
                base_abbrev(w),
                checked.cycles,
                stats.cycles
            ));
        }
        let t2 = Instant::now();
        match harness::run_profiled(&scoped(w, "profiled"), config) {
            Ok((out, _)) if out.cycles() == stats.cycles => {}
            Ok((out, _)) => outcome.problem(format!(
                "{}: profiled run took {} cycles, unprofiled {}",
                base_abbrev(w),
                out.cycles(),
                stats.cycles
            )),
            Err(e) => outcome.problem(format!("{}: profiled run: {e}", base_abbrev(w))),
        }
        profiled += t2.elapsed();
    }
    sim.report(layers);
    let n = apps.len().max(1) as f64;
    layers
        .set("workloads.run_ms", unvalidated.as_secs_f64() * 1e3 / n)
        .set(
            "workloads.validate_ms",
            validated.saturating_sub(unvalidated).as_secs_f64() * 1e3 / n,
        )
        .set(
            "sim.profile_overhead",
            profiled.as_secs_f64() / validated.as_secs_f64().max(1e-9),
        );
}

pub fn canary_app() -> Workload {
    registry::find(CANARY_APP).expect("the canary app is in the registry")
}

/// A BFTT sweep of the canary app under a fresh scope.
pub fn canary_bftt(config: &GpuConfig, layers: &mut Layers, outcome: &mut Outcome) {
    let w = scoped(&canary_app(), "canary-bftt");
    let t0 = Instant::now();
    match harness::run_bftt(&w, config) {
        Ok((_, sweep)) => {
            layers
                .set("bftt.sweep_ms", t0.elapsed().as_secs_f64() * 1e3)
                .set("bftt.candidates", sweep.candidates.len() as f64);
        }
        Err(e) => outcome.problem(format!("canary bftt: {e}")),
    }
}

/// A tune of the canary app under a fresh scope.
pub fn canary_tune(config: &GpuConfig, layers: &mut Layers, outcome: &mut Outcome) {
    let w = scoped(&canary_app(), "canary-tune");
    let options = TuneOptions::default();
    let t0 = Instant::now();
    let summary = tune_workloads(std::slice::from_ref(&w), config, &options);
    let took = t0.elapsed();
    for (app, err) in &summary.failures {
        outcome.problem(format!("canary tune {app}: {err}"));
    }
    let evaluations: u32 = summary.reports.iter().map(|r| r.evaluations).sum();
    for r in &summary.reports {
        if let Err(e) = r.self_check(&options) {
            outcome.problem(format!("canary tune self-check: {e}"));
        }
    }
    layers
        .set("tune.evaluations", f64::from(evaluations))
        .set(
            "tune.iterations",
            f64::from(summary.reports.iter().map(|r| r.iterations).sum::<u32>()),
        )
        .set(
            "tune.ms_per_eval",
            took.as_secs_f64() * 1e3 / f64::from(evaluations.max(1)),
        );
}
