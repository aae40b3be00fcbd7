//! The `serve-zipf` workload: a closed loop of `nproc` clients, each
//! submitting through `Server::submit` and waiting for the reply.
//!
//! The corpus is a seeded set of distinct kernels in the shape of
//! `catt serve-bench`'s template; requests pick a kernel by Zipf(s = 1)
//! popularity and a grid of 4 or 8 blocks, and a small share carry a
//! source with a stray `@` spliced in, which must come back as a
//! diagnosed `compile-error`. Every pass starts a fresh server over a
//! fresh in-memory engine, so each pass misses on every distinct job once.

use crate::metrics::{json_string, Outcome};
use crate::probe::{self, CompileUnit, EngineJob, Layers, SimTotals};
use crate::trace::{span, Tracer};
use crate::{Pass, Workload};
use catt_core::engine::Engine;
use catt_core::passes::reset_pass_cache;
use catt_core::pipeline::Pipeline;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_prng::Rng;
use catt_serve::json::Json;
use catt_serve::{ErrorKind, Response, ServeConfig, Server, SubmitRequest};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, FUEL_BASE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Distinct kernels in the corpus.
const KERNELS: usize = 96;
/// Requests per pass: about 5% of them miss the simcache (each distinct
/// kernel × grid once per pass), so p99 falls among the simulations and
/// p50 among the cache hits.
const REQUESTS: usize = 4096;
/// Percentage of requests with a malformed source.
const MALFORMED_PCT: u32 = 5;
/// Block size of every request.
const BLOCK: u32 = 64;
/// Grid sizes a request picks from.
const GRIDS: [u32; 2] = [4, 8];
/// Argument spec of every request: two 1024-float buffers and `n`.
const ARGS: &str = "f:1024,f:1024,si:1024";

/// One kernel of the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusKernel {
    pub name: String,
    pub source: String,
}

/// `count` distinct kernels drawn from `seed`: each has its own stride
/// (so the lowered programs, and with them the cache keys, differ) and
/// scale.
pub fn corpus(seed: u64, count: usize) -> Vec<CorpusKernel> {
    let mut rng = Rng::seed(seed ^ 0x5E7E_C0DE);
    let mut strides: Vec<u32> = (13..13 + 4 * count as u32).collect();
    for i in (1..strides.len()).rev() {
        strides.swap(i, rng.range_usize(0, i));
    }
    (0..count)
        .map(|i| {
            let name = format!("bk{i}");
            let source = format!(
                "__global__ void {name}(float *a, float *b, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        float acc = 0.0f;
        for (int j = 0; j < 8; j++) {{
            acc += a[(i * 7 + j * {step}) % n] * {scale}.0f;
        }}
        b[i] = acc;
    }}
}}
",
                step = strides[i],
                scale = rng.range_u32(2, 64),
            );
            CorpusKernel { name, source }
        })
        .collect()
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Corpus index.
    pub kernel: usize,
    pub grid: u32,
    /// The malformed source sent instead of the corpus source, if any.
    pub malformed: Option<String>,
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect()
}

/// Splice a stray `@` (always a lexer error) into `src` at a seeded byte.
fn mangle(src: &str, rng: &mut Rng) -> String {
    let at = rng.range_usize(0, src.len());
    let at = (0..=at)
        .rev()
        .find(|&i| src.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}@{}", &src[..at], &src[at..])
}

/// The request stream drawn from `seed`.
pub fn stream(seed: u64, corpus: &[CorpusKernel]) -> Vec<Req> {
    let mut rng = Rng::seed(seed ^ 0x21FF_57EA);
    let cdf = zipf_cdf(corpus.len());
    (0..REQUESTS)
        .map(|_| {
            let u = rng.f64();
            let kernel = cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1);
            let grid = *rng.choose(&GRIDS);
            let malformed = rng
                .bool(f64::from(MALFORMED_PCT) / 100.0)
                .then(|| mangle(&corpus[kernel].source, &mut rng));
            Req {
                kernel,
                grid,
                malformed,
            }
        })
        .collect()
}

/// The daemon settings the benchmark uses: `workers` simulation workers,
/// a queue deeper than the closed loop can fill, and a quota it cannot
/// exhaust, so the workload measures capacity, not the shedding policy.
pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_high_water: 64,
        quota_rate: 1 << 62,
        quota_burst: 1 << 62,
        default_deadline_ms: 30_000,
        breaker_threshold: 5,
        breaker_cooldown_ms: 1_000,
        drain_grace_ms: 5_000,
        quantum: 4 * FUEL_BASE,
    }
}

/// `config` as a JSON object (for the host fingerprint).
pub fn config_json(config: &ServeConfig) -> String {
    format!(
        "{{\"workers\": {}, \"queue_high_water\": {}, \"quota_rate\": {}, \"quota_burst\": {}, \
         \"default_deadline_ms\": {}, \"breaker_threshold\": {}, \"breaker_cooldown_ms\": {}, \
         \"drain_grace_ms\": {}, \"quantum\": {}}}",
        config.workers,
        config.queue_high_water,
        config.quota_rate,
        config.quota_burst,
        config.default_deadline_ms,
        config.breaker_threshold,
        config.breaker_cooldown_ms,
        config.drain_grace_ms,
        config.quantum
    )
}

/// Closed-loop clients (and server workers): one per core, at most two.
pub fn clients() -> usize {
    crate::host::nproc().clamp(1, 2)
}

/// What one client saw for one request.
struct Reply {
    index: usize,
    latency_us: f64,
    submit_us: f64,
    seen: Seen,
}

/// A response reduced to what the checks need, so that no response
/// outlives its request.
enum Seen {
    Result {
        cycles: u64,
        transformed: bool,
        queue_ms: u64,
        total_ms: u64,
        source: &'static str,
    },
    /// A `compile-error`: whether it carried diagnostics, all with spans
    /// inside the submitted source.
    CompileError {
        diagnosed: bool,
    },
    Other(String),
}

fn summarize(response: Option<Response>, sent_len: usize) -> Seen {
    match response {
        Some(Response::Result(r)) => Seen::Result {
            cycles: r.cycles,
            transformed: r.transformed,
            queue_ms: r.queue_ms,
            total_ms: r.total_ms,
            source: r.source,
        },
        Some(Response::Error(e)) if e.kind == ErrorKind::CompileError => Seen::CompileError {
            diagnosed: !e.diagnostics.is_empty()
                && e.diagnostics
                    .iter()
                    .filter_map(|d| d.span)
                    .all(|s| s.in_bounds(sent_len)),
        },
        Some(Response::Error(e)) => Seen::Other(format!("{}: {}", e.kind.token(), e.message)),
        Some(other) => Seen::Other(format!("unexpected reply {}", other.render())),
        None => Seen::Other("no reply within 60 s".to_string()),
    }
}

/// The `serve-zipf` workload.
pub struct ServeZipf {
    corpus: Vec<CorpusKernel>,
    stream: Vec<Req>,
    clients: usize,
}

impl ServeZipf {
    fn build(seed: u64) -> ServeZipf {
        let corpus = corpus(seed, KERNELS);
        let stream = stream(seed, &corpus);
        ServeZipf {
            corpus,
            stream,
            clients: clients(),
        }
    }

    fn start_server(&self) -> Server {
        Server::new(
            serve_config(self.clients),
            Engine::with_workers(self.clients),
        )
    }

    fn request(&self, r: &Req) -> SubmitRequest {
        let k = &self.corpus[r.kernel];
        SubmitRequest {
            tenant: format!("tenant-{}", r.kernel % 4),
            kernel_source: r.malformed.clone().unwrap_or_else(|| k.source.clone()),
            name: if r.malformed.is_some() {
                String::new()
            } else {
                k.name.clone()
            },
            grid: r.grid,
            block: BLOCK,
            args: ARGS.to_string(),
            deadline_ms: Some(30_000),
            weight: 1,
            emit: false,
        }
    }

    /// Check every reply and tally the pass.
    fn check(&self, replies: Vec<Reply>, stats: &Json) -> Pass {
        let mut pass = Pass::default();
        let mut cycles: BTreeMap<(usize, u32), (u64, bool)> = BTreeMap::new();
        let (mut ok, mut diagnosed) = (0u64, 0u64);
        let (mut service_ms, mut submit_us) = (0.0, 0.0);
        let mut sources: BTreeMap<&str, u64> = BTreeMap::new();
        if replies.len() != self.stream.len() {
            pass.outcome.problem(format!(
                "{} replies for {} requests",
                replies.len(),
                self.stream.len()
            ));
        }
        for reply in &replies {
            let req = &self.stream[reply.index];
            pass.outcome.attempted += 1;
            pass.latencies_us.push(reply.latency_us);
            submit_us += reply.submit_us;
            let failure = match (&reply.seen, req.malformed.is_some()) {
                (Seen::CompileError { diagnosed: true }, true) => {
                    diagnosed += 1;
                    None
                }
                (Seen::CompileError { .. }, true) => {
                    Some("compile-error without in-bounds diagnostics".to_string())
                }
                (Seen::CompileError { .. }, false) => {
                    Some("a well-formed source was rejected".to_string())
                }
                (Seen::Result { .. }, true) => Some("a malformed source was accepted".to_string()),
                (
                    Seen::Result {
                        cycles: c,
                        transformed: t,
                        queue_ms: q,
                        total_ms: total,
                        source,
                    },
                    false,
                ) => {
                    ok += 1;
                    service_ms += total.saturating_sub(*q) as f64;
                    *sources.entry(*source).or_default() += 1;
                    let seen = *cycles.entry((req.kernel, req.grid)).or_insert((*c, *t));
                    (seen != (*c, *t)).then(|| {
                        format!(
                            "bk{} grid {}: {c} cycles, earlier {}",
                            req.kernel, req.grid, seen.0
                        )
                    })
                }
                (Seen::Other(msg), _) => Some(msg.clone()),
            };
            if let Some(msg) = failure {
                pass.outcome.failed += 1;
                if pass.outcome.problems.len() < 10 {
                    pass.outcome
                        .problem(format!("request {}: {msg}", reply.index));
                }
            }
        }
        let mut exact = format!("ok={ok} compile_error={diagnosed}\n");
        for ((k, g), (c, t)) in &cycles {
            writeln!(exact, "bk{k} grid={g} cycles={c} transformed={t}")
                .expect("writing to a String cannot fail");
        }
        pass.exact = exact;
        pass.cycles = cycles
            .iter()
            .map(|((k, g), (c, _))| (format!("bk{k}/g{g}"), *c))
            .collect();

        let num = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
        let (hits, misses) = (num("cache_hits"), num("cache_misses"));
        let shed = num("shed_overloaded") + num("shed_quota") + num("shed_breaker");
        if shed > 0 {
            pass.outcome
                .problem(format!("{shed} requests shed by admission control"));
        }
        if sources.get("computed").copied().unwrap_or(0) != misses {
            pass.outcome.problem(format!(
                "{misses} simulations computed, {} replies say computed",
                sources.get("computed").copied().unwrap_or(0)
            ));
        }
        let n = replies.len().max(1) as f64;
        let ok_n = ok.max(1) as f64;
        pass.layers
            .set("serve.submit_us", submit_us / n)
            .set("serve.service_ms", service_ms / ok_n)
            .set(
                "serve.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            )
            .set("serve.computed", misses as f64)
            .set("serve.shed", shed as f64)
            .set("engine.sim_jobs", misses as f64)
            .set("engine.cache_hits", hits as f64)
            .set("engine.coalesced", num("coalesced") as f64);
        pass
    }

    /// Every distinct well-formed kernel × grid the stream requests.
    fn units(&self) -> Vec<(usize, u32, CompileUnit)> {
        let mut keys: Vec<(usize, u32)> = self
            .stream
            .iter()
            .filter(|r| r.malformed.is_none())
            .map(|r| (r.kernel, r.grid))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|(k, g)| {
                let kernel = catt_frontend::parse_module(&self.corpus[k].source)
                    .expect("corpus kernels parse")
                    .kernels
                    .remove(0);
                (
                    k,
                    g,
                    CompileUnit {
                        kernel,
                        launch: LaunchConfig::d1(g, BLOCK),
                    },
                )
            })
            .collect()
    }
}

/// The arguments `catt serve` materializes for [`ARGS`].
fn materialize(mem: &mut GlobalMem) -> Vec<Arg> {
    let buf = |ai: u32, mem: &mut GlobalMem| {
        let data: Vec<f32> = (0..1024u32).map(|v| ((v * 7 + ai) % 13) as f32).collect();
        Arg::Buf(mem.alloc_f32(&data))
    };
    vec![buf(0, mem), buf(1, mem), Arg::I32(1024)]
}

fn direct(
    kernel: &Kernel,
    launch: LaunchConfig,
    config: &GpuConfig,
) -> Result<catt_sim::LaunchStats, String> {
    let mut mem = GlobalMem::new();
    let args = materialize(&mut mem);
    Gpu::new(config.clone())
        .launch(kernel, launch, &args, &mut mem)
        .map_err(|e| e.to_string())
}

impl Workload for ServeZipf {
    fn setup(seed: u64) -> (ServeZipf, Duration) {
        let t0 = Instant::now();
        let w = ServeZipf::build(seed);
        let server = w.start_server();
        let took = t0.elapsed();
        server.drain();
        (w, took)
    }

    fn clients(&self) -> u32 {
        self.clients as u32
    }

    /// Run every request of the stream through a fresh server on
    /// `self.clients` closed-loop client threads.
    fn pass(&self, index: usize, tracer: Option<&Tracer>) -> Pass {
        reset_pass_cache();
        let passes_before = probe::pass_cache_totals();
        let server = self.start_server();
        let replies = Mutex::new(Vec::with_capacity(self.stream.len()));
        let window_start = tracer.map_or(0, Tracer::now_ns);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..self.clients {
                let (server, replies) = (&server, &replies);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (client..self.stream.len()).step_by(self.clients) {
                        let req = self.request(&self.stream[i]);
                        let sent_len = req.kernel_source.len();
                        let thread = client as u32;
                        let t0 = Instant::now();
                        let root = span(tracer, "request", None, i as u64, thread);
                        let (tx, rx) = mpsc::channel();
                        {
                            let _s = span(tracer, "serve.submit", root.id(), i as u64, thread);
                            server.submit(format!("p{index}-r{i}"), req, tx);
                        }
                        let submit_us = t0.elapsed().as_secs_f64() * 1e6;
                        let response = {
                            let _s = span(tracer, "serve.reply", root.id(), i as u64, thread);
                            rx.recv_timeout(Duration::from_secs(60)).ok()
                        };
                        drop(root);
                        mine.push(Reply {
                            index: i,
                            latency_us: t0.elapsed().as_secs_f64() * 1e6,
                            submit_us,
                            seen: summarize(response, sent_len),
                        });
                    }
                    replies
                        .lock()
                        .expect("reply buffer lock poisoned by a panicking client")
                        .extend(mine);
                });
            }
        });
        let wall = start.elapsed();
        let window = (window_start, tracer.map_or(0, Tracer::now_ns));
        let stats = server.stats_json();
        server.drain();
        let mut replies = replies
            .into_inner()
            .expect("reply buffer lock poisoned by a panicking client");
        replies.sort_by_key(|r| r.index);
        let mut pass = self.check(replies, &stats);
        pass.wall = wall;
        pass.window = window;
        probe::pass_cache_hit_ratio(passes_before, &mut pass.layers);
        pass
    }

    fn probe(
        &self,
        _seed: u64,
        served: &BTreeMap<String, u64>,
        layers: &mut Layers,
        outcome: &mut Outcome,
    ) {
        let config = GpuConfig::titan_v_1sm();
        let sources: Vec<&str> = self.corpus.iter().map(|k| k.source.as_str()).collect();
        probe::frontend(&sources, layers, outcome);
        let units = self.units();
        let plain: Vec<CompileUnit> = units
            .iter()
            .map(|(_, _, u)| CompileUnit {
                kernel: u.kernel.clone(),
                launch: u.launch,
            })
            .collect();
        probe::passes(&plain, &config, layers, outcome);
        probe::lower(&plain, layers, outcome);

        // What the server simulates: the CATT-transformed kernel.
        let pipe = Pipeline::new(config.clone());
        let mut jobs = Vec::new();
        let mut sim = SimTotals::default();
        let (mut plain_time, mut profiled_time) = (Duration::ZERO, Duration::ZERO);
        for (k, g, u) in &units {
            let transformed = match pipe.compile_kernel(&u.kernel, u.launch) {
                Ok(ck) => ck.transformed,
                Err(e) => {
                    outcome.problem(format!("bk{k}: {e}"));
                    continue;
                }
            };
            let t0 = Instant::now();
            match direct(&transformed, u.launch, &config) {
                Ok(stats) => {
                    sim.add(&stats, t0.elapsed());
                    plain_time += t0.elapsed();
                    match served.get(&format!("bk{k}/g{g}")) {
                        Some(c) if *c != stats.cycles => outcome.problem(format!(
                            "bk{k} grid {g}: served {c} cycles, direct run {}",
                            stats.cycles
                        )),
                        _ => {}
                    }
                }
                Err(e) => outcome.problem(format!("bk{k} grid {g}: {e}")),
            }
            let mut profiled = config.clone();
            profiled.profile = Some(true);
            catt_sim::profile::set_capture(true);
            let t1 = Instant::now();
            let res = direct(&transformed, u.launch, &profiled);
            profiled_time += t1.elapsed();
            std::hint::black_box(catt_sim::profile::take_captured());
            catt_sim::profile::set_capture(false);
            if let Err(e) = res {
                outcome.problem(format!("bk{k} grid {g} profiled: {e}"));
            }
            jobs.push(EngineJob {
                scope: format!("catt-serve:{ARGS}"),
                kernels: vec![transformed],
                launches: vec![u.launch],
            });
        }
        sim.report(layers);
        layers.set(
            "sim.profile_overhead",
            profiled_time.as_secs_f64() / plain_time.as_secs_f64().max(1e-9),
        );
        probe::engine_hit(&jobs, &config, layers, outcome);

        // Layers this workload does not use, measured on the canary app.
        let eval = catt_workloads::harness::eval_config_max_l1d();
        let mut scratch = Layers::default();
        let canary = [crate::apps::canary_app()];
        crate::apps::direct_runs(&canary, &eval, &BTreeMap::new(), &mut scratch, outcome);
        layers.take_prefixed(&scratch, "workloads.");
        crate::apps::canary_bftt(&eval, layers, outcome);
        crate::apps::canary_tune(&eval, layers, outcome);
    }
}

/// Measure the serve layer on a workload that does not use it: one
/// `serve-zipf` pass, of which only the `serve.*` values are kept.
pub fn canary(seed: u64, layers: &mut Layers, outcome: &mut Outcome) {
    let w = ServeZipf::build(seed);
    let pass = w.pass(0, None);
    for p in &pass.outcome.problems {
        outcome.problem(format!("serve canary: {p}"));
    }
    if pass.outcome.failed > 0 {
        outcome.problem(format!(
            "serve canary: {} requests failed",
            pass.outcome.failed
        ));
    }
    layers.take_prefixed(&pass.layers, "serve.");
}

/// The stream's shape as a JSON object (for the run record).
pub fn stream_json() -> String {
    format!(
        "{{\"kernels\": {}, \"requests\": {}, \"malformed_pct\": {}, \"block\": {BLOCK}, \
         \"grids\": [4, 8], \"args\": {}}}",
        KERNELS,
        REQUESTS,
        MALFORMED_PCT,
        json_string(ARGS)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seed_deterministic_and_distinct() {
        let a = corpus(7, 32);
        assert_eq!(a, corpus(7, 32));
        assert_ne!(a, corpus(8, 32));
        let mut sources: Vec<&str> = a.iter().map(|k| k.source.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 32);
        for k in &a {
            catt_frontend::parse_module(&k.source).expect("corpus kernels parse");
        }
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let c = corpus(3, KERNELS);
        let a = stream(3, &c);
        assert_eq!(a, stream(3, &c));
        assert_ne!(a, stream(4, &c));
        assert_eq!(a.len(), REQUESTS);
    }

    #[test]
    fn stream_is_zipf_skewed_with_a_few_malformed() {
        let c = corpus(11, KERNELS);
        let s = stream(11, &c);
        let top = s.iter().filter(|r| r.kernel == 0).count();
        let tail = s.iter().filter(|r| r.kernel == KERNELS - 1).count();
        assert!(top > 10 * tail.max(1), "top {top} tail {tail}");
        let bad = s.iter().filter(|r| r.malformed.is_some()).count();
        assert!((100..400).contains(&bad), "{bad} malformed of {}", s.len());
        for r in s.iter().filter_map(|r| r.malformed.as_ref()) {
            assert!(catt_frontend::parse_module(r).is_err());
        }
    }
}
