//! Probes that time one layer at a time through its public functions.
//!
//! They run after the traced pass, on the workload's own inputs, and are
//! excluded from every wall time. Cheap calls repeat [`ROUNDS`] times and
//! report the median round's mean per call.

use crate::metrics::Outcome;
use crate::stats::median;
use catt_core::engine::Engine;
use catt_core::fault::FaultPlan;
use catt_core::passes::{
    pass_cache_stats, AnalyzePass, EmitPass, LegalizePass, PassManager, TransformPass,
};
use catt_core::pipeline::Pipeline;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{GpuConfig, LaunchStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Repetitions of each cheap probe.
pub const ROUNDS: usize = 5;

/// Per-layer values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) -> &mut Layers {
        self.0.insert(name.to_string(), value);
        self
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Take every value of `other` whose name starts with `prefix`.
    pub fn take_prefixed(&mut self, other: &Layers, prefix: &str) {
        for (k, v) in &other.0 {
            if k.starts_with(prefix) {
                self.0.insert(k.clone(), *v);
            }
        }
    }
}

/// Pass-cache (hits, misses) summed over every compile pass.
pub fn pass_cache_totals() -> (u64, u64) {
    pass_cache_stats()
        .iter()
        .fold((0, 0), |(h, m), (_, s)| (h + s.hits, m + s.misses))
}

/// Set `passes.cache_hit_ratio` from the pass-cache counters since
/// `before` (a [`pass_cache_totals`] snapshot).
pub fn pass_cache_hit_ratio(before: (u64, u64), layers: &mut Layers) {
    let (h, m) = pass_cache_totals();
    let (dh, dm) = (h - before.0, m - before.1);
    layers.set(
        "passes.cache_hit_ratio",
        dh as f64 / (dh + dm).max(1) as f64,
    );
}

/// One kernel with the launch it is compiled for.
pub struct CompileUnit {
    pub kernel: Kernel,
    pub launch: LaunchConfig,
}

/// Median over [`ROUNDS`] rounds of `round()`'s mean µs per call, where
/// `round` returns (elapsed, calls).
fn per_call_us(mut round: impl FnMut() -> (Duration, usize)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (took, calls) = round();
            took.as_secs_f64() * 1e6 / calls.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// `catt_frontend::parse_module` on every source.
pub fn frontend(sources: &[&str], layers: &mut Layers, outcome: &mut Outcome) {
    let mut calls = 0u64;
    let us = per_call_us(|| {
        let t0 = Instant::now();
        for src in sources {
            if let Err(e) = catt_frontend::parse_module(std::hint::black_box(src)) {
                outcome.problem(format!("parse probe: {e}"));
            }
        }
        calls += sources.len() as u64;
        (t0.elapsed(), sources.len())
    });
    layers
        .set("frontend.parse_us", us)
        .set("frontend.parse_calls", calls as f64);
}

/// Each compile pass with the pass cache off, then the whole
/// `Pipeline::compile_kernel` with the pass cache on and warm (the path a
/// repeated serve request takes).
pub fn passes(
    units: &[CompileUnit],
    config: &GpuConfig,
    layers: &mut Layers,
    outcome: &mut Outcome,
) {
    let manager = PassManager::with_cache(false);
    let mut per_pass = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        let mut took = [Duration::ZERO; 4];
        for u in units {
            let mut diags = Vec::new();
            let analyze = AnalyzePass {
                config: config.clone(),
                launch: u.launch,
            };
            let t = Instant::now();
            let analysis = manager.run(&analyze, &u.kernel, &mut diags);
            took[0] += t.elapsed();
            let Some(analysis) = analysis else {
                outcome.problem(format!("analyze probe failed on `{}`", u.kernel.name));
                continue;
            };
            let legal_input = (u.kernel.clone(), analysis.clone());
            let t = Instant::now();
            let plan = manager.run(&LegalizePass, &legal_input, &mut diags);
            took[1] += t.elapsed();
            let Some(plan) = plan else {
                outcome.problem(format!("legalize probe failed on `{}`", u.kernel.name));
                continue;
            };
            let transform = TransformPass {
                fault: FaultPlan::none(),
            };
            let tr_input = (u.kernel.clone(), analysis, plan);
            let t = Instant::now();
            let transformed = manager.run(&transform, &tr_input, &mut diags);
            took[2] += t.elapsed();
            let Some(transformed) = transformed else {
                outcome.problem(format!("transform probe failed on `{}`", u.kernel.name));
                continue;
            };
            let t = Instant::now();
            let emitted = manager.run(&EmitPass, &transformed.kernel, &mut diags);
            took[3] += t.elapsed();
            std::hint::black_box(emitted);
        }
        for (samples, t) in per_pass.iter_mut().zip(took) {
            samples.push(t.as_secs_f64() * 1e6 / units.len().max(1) as f64);
        }
    }
    for (name, samples) in [
        "passes.analyze_us",
        "passes.legalize_us",
        "passes.transform_us",
        "passes.emit_us",
    ]
    .into_iter()
    .zip(&per_pass)
    {
        layers.set(name, median(samples).unwrap_or(0.0));
    }

    let pipe = Pipeline::new(config.clone()).with_pass_cache(true);
    let mut transformed = 0u64;
    for u in units {
        match pipe.compile_kernel(&u.kernel, u.launch) {
            Ok(ck) => transformed += u64::from(ck.is_transformed()),
            Err(e) => outcome.problem(format!("compile probe on `{}`: {e}", u.kernel.name)),
        }
    }
    let us = per_call_us(|| {
        let t0 = Instant::now();
        for u in units {
            std::hint::black_box(pipe.compile_kernel(&u.kernel, u.launch).is_ok());
        }
        (t0.elapsed(), units.len())
    });
    layers
        .set("passes.compile_us", us)
        .set("passes.transformed", transformed as f64);
}

/// `catt_sim::lower` on every kernel.
pub fn lower(units: &[CompileUnit], layers: &mut Layers, outcome: &mut Outcome) {
    let us = per_call_us(|| {
        let t0 = Instant::now();
        for u in units {
            if let Err(e) = catt_sim::lower(std::hint::black_box(&u.kernel)) {
                outcome.problem(format!("lower probe on `{}`: {e}", u.kernel.name));
            }
        }
        (t0.elapsed(), units.len())
    });
    layers.set("sim.lower_us", us);
}

/// One cacheable simulation job.
pub struct EngineJob {
    pub scope: String,
    pub kernels: Vec<Kernel>,
    pub launches: Vec<LaunchConfig>,
}

/// `Engine::sim_app` calls answered from the cache: each job is inserted
/// once into a private in-memory engine, then looked up [`ROUNDS`] times.
pub fn engine_hit(
    jobs: &[EngineJob],
    config: &GpuConfig,
    layers: &mut Layers,
    outcome: &mut Outcome,
) {
    let engine = Engine::with_workers(1);
    let placeholder = || LaunchStats {
        cycles: 1,
        ..LaunchStats::default()
    };
    for j in jobs {
        if let Err(e) = engine.sim_app(&j.scope, &j.kernels, &j.launches, config, placeholder) {
            outcome.problem(format!("engine probe insert: {e}"));
        }
    }
    let before = engine.cache_counters();
    let us = per_call_us(|| {
        let t0 = Instant::now();
        for j in jobs {
            let hit = engine.sim_app(&j.scope, &j.kernels, &j.launches, config, || {
                LaunchStats::default()
            });
            std::hint::black_box(hit.is_ok());
        }
        (t0.elapsed(), jobs.len())
    });
    let after = engine.cache_counters();
    let expected = (ROUNDS * jobs.len()) as u64;
    if after.hits - before.hits != expected || after.misses != before.misses {
        outcome.problem(format!(
            "engine probe: {} of {expected} lookups hit the cache",
            after.hits - before.hits
        ));
    }
    layers.set("engine.hit_us", us);
}

/// Exact simulator counters and time over a set of direct runs.
#[derive(Debug, Default)]
pub struct SimTotals {
    pub time: Duration,
    pub stats: LaunchStats,
}

impl SimTotals {
    pub fn add(&mut self, stats: &LaunchStats, took: Duration) {
        self.time += took;
        self.stats.accumulate(stats);
    }

    pub fn report(&self, layers: &mut Layers) {
        let s = &self.stats;
        let rate = |hits: u64, accesses: u64| {
            if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            }
        };
        layers
            .set(
                "sim.ns_per_warp_inst",
                self.time.as_secs_f64() * 1e9 / s.instructions.max(1) as f64,
            )
            .set("sim.warp_insts", s.instructions as f64)
            .set("sim.cycles", s.cycles as f64)
            .set("sim.l1_hit_rate", rate(s.l1_hits, s.l1_accesses))
            .set("sim.l2_hit_rate", rate(s.l2_hits, s.l2_accesses))
            .set("sim.offchip_requests", s.offchip_requests as f64);
    }
}
