//! The CATT reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-cs|tune-small|serve-zipf> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run sets its workload up several
//! times (the median is `setup_s`), then runs as many whole cold passes
//! of the workload as fit in `--seconds` (at least one). `--trace 0`
//! prints the end-to-end metrics; `--trace 1` alternates untraced and
//! traced passes, then probes each layer through its public functions,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! A run record (host fingerprint, every metric, pass times, latency
//! summary) and, for traced runs, the spans are written under
//! `.bench_out/`.

mod apps;
mod host;
mod metrics;
mod probe;
mod serve;
mod stats;
mod trace;

use metrics::{json_number, json_string, Outcome, END_TO_END, PER_LAYER};
use probe::Layers;
use stats::{geomean, median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["eval-cs", "tune-small", "serve-zipf"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Where run records and spans go, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// From the first request sent to the last reply received.
    pub wall: Duration,
    /// The same interval on the tracer's clock (traced passes only).
    pub window: (u64, u64),
    /// Per-request latency, send to reply, as the client saw it.
    pub latencies_us: Vec<f64>,
    pub outcome: Outcome,
    /// Exact simulated results, rendered canonically: identical for every
    /// pass of a run and every run of the same code.
    pub exact: String,
    /// Cycles the program answered, by app or kernel × grid; the probes
    /// check them against direct simulations.
    pub cycles: BTreeMap<String, u64>,
    /// Baseline/CATT cycle ratios of the apps compared.
    pub catt_speedups: Vec<f64>,
    /// Baseline/tuned cycle ratios from the tune reports.
    pub tuned_speedups: Vec<f64>,
    /// Per-layer values measured during the pass.
    pub layers: Layers,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Build everything the first request needs; returns the workload
    /// and the set-up time.
    fn setup(seed: u64) -> (Self, Duration);
    /// Client threads that issue requests.
    fn clients(&self) -> u32;
    /// One cold pass over the workload's requests.
    fn pass(&self, index: usize, tracer: Option<&Tracer>) -> Pass;
    /// Probe each layer after the traced passes; `served` holds the cycles
    /// the program answered in the first traced pass (see [`Pass::cycles`]).
    fn probe(
        &self,
        seed: u64,
        served: &BTreeMap<String, u64>,
        layers: &mut Layers,
        outcome: &mut Outcome,
    );
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: catt-perfbench --workload <eval-cs|tune-small|serve-zipf> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let number = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::catt_vars(std::env::vars());
    if !set.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: the program reads CATT_* knobs at use time, \
             so they would change what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ directory here)");
        return ExitCode::from(2);
    }
    let line = match args.workload.as_str() {
        "eval-cs" => run::<apps::EvalCs>(&args),
        "tune-small" => run::<apps::TuneSmall>(&args),
        _ => run::<serve::ServeZipf>(&args),
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Everything a run measured, before it is split into the printed line
/// and the run record.
struct Measured {
    outcome: Outcome,
    values: BTreeMap<String, f64>,
    walls: Vec<f64>,
    setups: Vec<f64>,
    latencies_ms: Vec<f64>,
    exact: String,
}

fn run<W: Workload>(args: &Args) -> String {
    let fingerprint = host::Fingerprint::capture(Path::new("."));
    let serve_config = serve::config_json(&serve::serve_config(serve::clients()));
    eprintln!(
        "[perfbench] {} seed {} for {} s, trace {} | {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.json_fields(&serve_config)
    );
    let m = measure::<W>(args);
    let mut outcome = m.outcome;
    check_exact_across_runs(args, &fingerprint.source_digest, &m.exact, &mut outcome);
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let printed: BTreeMap<String, f64> = catalog
        .iter()
        .filter_map(|(n, _)| m.values.get(*n).map(|v| (n.to_string(), *v)))
        .collect();
    let line = metrics::result_line(catalog, &printed, &mut outcome);

    let mut record = format!(
        "{{\n  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n  \
         \"fingerprint\": {{{}}},\n",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        fingerprint.json_fields(&serve_config),
    );
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| json_number(*x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // The latency percentiles are over requests, each at its median
    // across the untraced passes.
    let n = m.latencies_ms.len();
    let tail = tail_percentile(n);
    write!(
        record,
        "  \"serve_stream\": {},\n  \"pass_wall_s\": [{}],\n  \"pass_wall_spread\": {},\n  \
         \"setup_s\": [{}],\n  \
         \"latency\": {{\"requests\": {n}, \"passes\": {}, \"tail_percentile\": {}, \
         \"tail_ms\": {}}},\n",
        if args.workload == "serve-zipf" {
            serve::stream_json()
        } else {
            "null".to_string()
        },
        list(&m.walls),
        stats::relative_spread(&m.walls).map_or("null".to_string(), json_number),
        list(&m.setups),
        m.walls.len(),
        tail.map_or("null".to_string(), json_number),
        tail.and_then(|p| percentile(&m.latencies_ms, p))
            .map_or("null".to_string(), json_number),
    )
    .expect("writing to a String cannot fail");
    let values: Vec<String> = m
        .values
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_string(p)).collect();
    write!(
        record,
        "  \"metrics\": {{{}}},\n  \"exact\": {},\n  \"problems\": [{}],\n  \"result\": {line}\n}}\n",
        values.join(", "),
        json_string(&m.exact),
        problems.join(", "),
    )
    .expect("writing to a String cannot fail");
    write_out(&run_name(args, "run"), &record);
    for p in &outcome.problems {
        eprintln!("[perfbench] problem: {p}");
    }
    line
}

fn run_name(args: &Args, what: &str) -> String {
    format!(
        "{}-seed{}-trace{}-{what}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    )
}

fn write_out(name: &str, text: &str) {
    let path = PathBuf::from(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("[perfbench] warning: cannot write {}: {e}", path.display());
    }
}

/// Set up, run passes for the time budget, and (traced) probe layers.
/// Each pass is reduced to what the metrics need as soon as it ends, so
/// the run's memory does not grow with its pass count.
fn measure<W: Workload>(args: &Args) -> Measured {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        let (w, took) = W::setup(args.seed);
        setups.push(took.as_secs_f64());
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    let tracer = Tracer::new();
    let mut outcome = Outcome::default();
    // The first pass is the reference for exact results and speedups.
    let mut first: Option<Pass> = None;
    let (mut walls, mut rows) = (Vec::new(), Vec::new());
    let (mut traced_walls, mut windows, mut traced_layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut served = None;
    let start = Instant::now();
    let mut index = 0;
    // Run as many whole passes as fit in the budget (at least one; a
    // traced run alternates untraced and traced passes and needs one of
    // each).
    let fits = |done: u32| start.elapsed() + start.elapsed() / done.max(1) <= budget;
    while walls.is_empty() || (args.trace && traced_walls.is_empty()) || fits(index as u32) {
        let traced = args.trace && index % 2 == 1;
        let mut p = w.pass(index, traced.then_some(&tracer));
        index += 1;
        outcome.attempted += p.outcome.attempted;
        outcome.failed += p.outcome.failed;
        for msg in p.outcome.problems.drain(..) {
            if outcome.problems.len() < 20 {
                outcome.problem(msg);
            }
        }
        if let Some(f) = &first {
            if p.exact != f.exact {
                outcome.problem(format!(
                    "exact simulated results differ between two passes of one run: {}",
                    first_difference(&f.exact, &p.exact)
                ));
            }
            if p.catt_speedups != f.catt_speedups || p.tuned_speedups != f.tuned_speedups {
                outcome.problem("speedups differ between two passes of one run");
            }
        }
        if traced {
            traced_walls.push(p.wall.as_secs_f64());
            windows.push(p.window);
            traced_layers.push(std::mem::take(&mut p.layers));
            served.get_or_insert_with(|| std::mem::take(&mut p.cycles));
        } else {
            walls.push(p.wall.as_secs_f64());
            rows.push(std::mem::take(&mut p.latencies_us));
        }
        first.get_or_insert(p);
        eprintln!(
            "[perfbench] pass {index} done at {:.1} s",
            start.elapsed().as_secs_f64()
        );
    }
    let first = first.expect("at least one pass");

    // Every request at its median latency across passes, in ms: a burst
    // of host noise in one pass drops out. Each client issues its requests
    // back to back, so a pass lasts the sum of its latencies over the
    // client count.
    let latencies_ms: Vec<f64> = stats::column_medians(&rows)
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    let wall = latencies_ms.iter().sum::<f64>() / 1e3 / f64::from(w.clients());
    let mut values = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("wall_s", wall);
    put("setup_s", median(&setups).unwrap_or(0.0));
    put("catt_speedup", geomean(&first.catt_speedups));
    put("tuned_speedup", geomean(&first.tuned_speedups));
    put("serve_rps", latencies_ms.len() as f64 / wall.max(1e-9));
    put(
        "serve_p50_ms",
        percentile(&latencies_ms, 50.0).unwrap_or(0.0),
    );
    put(
        "serve_p99_ms",
        percentile(&latencies_ms, 99.0).unwrap_or(0.0),
    );
    put(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    if args.trace {
        // Per-layer values from the traced passes, averaged over them (a
        // median would hide rare events such as a request that queued for
        // a whole millisecond)...
        let mut layers = Layers::default();
        let names: std::collections::BTreeSet<&String> =
            traced_layers.iter().flat_map(|l| l.0.keys()).collect();
        for name in names {
            let xs: Vec<f64> = traced_layers.iter().filter_map(|l| l.get(name)).collect();
            layers.set(name, xs.iter().sum::<f64>() / xs.len() as f64);
        }
        let spans = tracer.spans();
        let coverage: Vec<f64> = windows
            .iter()
            .map(|&(from, to)| trace::coverage(&spans, from, to, w.clients()))
            .collect();
        layers
            .set(
                "trace.overhead",
                median(&traced_walls).unwrap_or(0.0) / median(&walls).unwrap_or(1.0),
            )
            .set("trace.coverage", median(&coverage).unwrap_or(0.0));
        // The first traced pass's spans are written out; the later ones
        // repeat the same calls.
        let (from, to) = windows[0];
        let listed: Vec<trace::Span> = spans
            .into_iter()
            .filter(|s| s.start_ns >= from && s.end_ns <= to)
            .collect();
        write_out(&run_name(args, "spans"), &trace::to_json(&listed));
        // ...then the layer probes, outside every timed window.
        let served = served.unwrap_or_default();
        let probed = catch_unwind(AssertUnwindSafe(|| {
            w.probe(args.seed, &served, &mut layers, &mut outcome)
        }));
        if probed.is_err() {
            outcome.problem("a layer probe panicked");
        }
        values.extend(layers.0);
    }
    values.insert(
        "peak_rss_mb".to_string(),
        host::peak_rss_mb().unwrap_or(0.0),
    );
    Measured {
        outcome,
        values,
        walls,
        setups,
        latencies_ms,
        exact: first.exact,
    }
}

/// Compare this run's exact results with those an earlier run of the same
/// sources recorded (per seed where the workload's inputs depend on it),
/// or record them for later runs.
fn check_exact_across_runs(args: &Args, digest: &str, exact: &str, outcome: &mut Outcome) {
    let seed_part = if args.workload == "serve-zipf" {
        format!("-seed{}", args.seed)
    } else {
        String::new()
    };
    let path = PathBuf::from(OUT_DIR)
        .join("exact")
        .join(format!("{}{seed_part}-{digest}.txt", args.workload));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != exact => outcome.problem(format!(
            "exact simulated results differ from an earlier run ({}): {}",
            path.display(),
            first_difference(&earlier, exact)
        )),
        Ok(_) => {}
        Err(_) => {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, exact));
            if let Err(e) = written {
                eprintln!("[perfbench] warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// The first line where `a` and `b` differ, for a problem report.
fn first_difference(a: &str, b: &str) -> String {
    let mut la = a.lines();
    let mut lb = b.lines();
    loop {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => return format!("`{}` vs `{}`", x.unwrap_or("<end>"), y.unwrap_or("<end>")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_first_differing_line() {
        assert_eq!(first_difference("a\nb\nc", "a\nx\nc"), "`b` vs `x`");
        assert_eq!(first_difference("a", "a\nb"), "`<end>` vs `b`");
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload eval-cs --seed 3 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "eval-cs".to_string(),
                seed: 3,
                seconds: 20,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload eval-cs --seed 3 --seconds 20",
            "--workload nope --seed 3 --seconds 20 --trace 0",
            "--workload eval-cs --seed x --seconds 20 --trace 0",
            "--workload eval-cs --seed 3 --seconds 0 --trace 0",
            "--workload eval-cs --seed 3 --seconds 20 --trace 2",
            "--workload eval-cs --seed 3 --seconds 20 --trace 0 --extra 1",
            "--workload eval-cs --workload eval-cs --seed 3 --seconds 20 --trace 0",
            "--workload eval-cs --seed 3 --seconds 20 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
