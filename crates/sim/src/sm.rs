//! The streaming-multiprocessor execution engine.
//!
//! Each SM owns: warp slots filled by the occupancy-limited thread-block
//! dispatcher, per-scheduler greedy-then-oldest (GTO) warp arbitration, a
//! scoreboard per warp (register-ready cycles), one L1D port that accepts
//! one 128-byte transaction per cycle, an off-chip port modelling per-SM
//! L2/DRAM bandwidth, and the L1D tag store from [`crate::cache`].
//!
//! Timing model summary (per issued warp-instruction):
//! * ALU: result ready after `latencies.alu` (transcendental: `sfu`);
//! * global load: addresses coalesce into 128-byte lines; transactions
//!   serialize on the L1D port; each miss occupies the off-chip port for
//!   `offchip_port` cycles and completes after `offchip` more; the
//!   destination register becomes ready when the slowest transaction
//!   completes;
//! * global store: write-through, consumes L1D + off-chip port bandwidth,
//!   does not block the warp;
//! * shared memory: fixed `shared` latency, one L1D-port cycle
//!   (bank conflicts are not modelled — see DESIGN.md);
//! * `__syncthreads`: the warp parks until every non-finished warp of its
//!   block is parked (arrival-count semantics, so warps that exited early
//!   never deadlock the block).

use crate::alu::{self, Row};
use crate::bytecode::{builtin_reg, FBinOp, FUnOp, Op, Program};
use crate::cache::L1Cache;
use crate::config::GpuConfig;
use crate::error::SimError;
use crate::mem::{Arg, DeviceMem, GlobalMem, ShadowMem, StoreLog};
use crate::metrics::LaunchStats;
use crate::occupancy::max_resident_tbs;
use crate::profile::{LaunchProfile, NullSink, ProfileSink, SmProfile, StallReason};
use crate::sanitize::{SanitizerKind, SanitizerReport, SanitizerState};
use crate::warp::{Frame, Warp, WarpState};
use catt_ir::expr::Builtin;
use catt_ir::LaunchConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execute a full launch: distribute blocks round-robin over SMs and run
/// each SM to completion. SMs interact only through (functional) global
/// memory; timing-wise each has its own L1D and off-chip port, so they are
/// simulated independently and total `cycles` is the maximum over SMs.
///
/// When [`GpuConfig::sm_parallel_enabled`] holds (the default), SMs run on
/// `std::thread::scope` worker threads: each SM reads a shared pre-launch
/// snapshot overlaid with its own [`StoreLog`] and the logs are merged
/// back in ascending SM-id order, so the result is bit-identical across
/// thread budgets and runs (see DESIGN.md "Parallel SM execution"). With
/// the knob off — or a thread budget of 1 — the sequential path runs
/// directly against [`GlobalMem`].
///
/// Every user-reachable failure — bad arguments, unlaunchable geometry,
/// barrier deadlock, cycle-budget exhaustion — returns a structured
/// [`SimError`] instead of panicking, so one bad candidate in a sweep is a
/// recordable outcome, not a dead worker.
pub fn run_launch(
    config: &GpuConfig,
    program: &Program,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
) -> Result<LaunchStats, SimError> {
    if config.profile_enabled() {
        // Profiled launch: the same simulation, monomorphized over the
        // recording sink. The finished profile is delivered to the
        // thread-local capture buffer (see `crate::profile`); on error a
        // partial profile is still delivered, flagged `complete = false`.
        let mut profile = LaunchProfile::new(program.name.clone(), launch, config.l1_config());
        let res = launch_impl::<SmProfile>(config, program, launch, args, mem, Some(&mut profile));
        profile.complete = res.is_ok();
        crate::profile::submit(profile);
        res
    } else {
        launch_impl::<NullSink>(config, program, launch, args, mem, None)
    }
}

/// Everything one parallel-path SM worker hands back for the in-order
/// merge: its result, its private store log, and its profiling shard.
type SmOutcome<S> = (Result<LaunchStats, SimError>, StoreLog, S);

/// How parallel-path workers claim SM simulation tasks. Either way the
/// commit below merges outcomes in ascending SM-id order, so the claim
/// schedule never affects results — only wall-clock.
enum SmDispatcher {
    /// Shared grab counter: workers take SMs in ascending id order
    /// (`CATT_SIM_STEAL=off`).
    Shared(AtomicUsize),
    /// Work-stealing deques, one per worker, seeded round-robin in
    /// descending block-count order so the heaviest SMs start first
    /// instead of queueing behind light ones on the same worker. A worker
    /// pops from the front of its own deque and, when empty, steals from
    /// the *back* of the fullest peer — the classic split that keeps the
    /// owner on its locally-seeded prefix. SM tasks are milliseconds, so
    /// a plain mutex costs nothing measurable per claim.
    Steal(Mutex<Vec<VecDeque<usize>>>),
}

impl SmDispatcher {
    fn new(steal: bool, per_sm: &[(u32, VecDeque<u32>)], workers: usize) -> SmDispatcher {
        if !steal || workers <= 1 {
            return SmDispatcher::Shared(AtomicUsize::new(0));
        }
        let mut order: Vec<usize> = (0..per_sm.len()).collect();
        // Stable sort: equal block counts keep ascending SM-id order.
        order.sort_by_key(|&i| std::cmp::Reverse(per_sm[i].1.len()));
        let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for (k, i) in order.into_iter().enumerate() {
            deques[k % workers].push_back(i);
        }
        SmDispatcher::Steal(Mutex::new(deques))
    }

    /// Claim the next SM task index for `worker`, or `None` when all of
    /// them are claimed.
    fn claim(&self, worker: usize, tasks: usize) -> Option<usize> {
        match self {
            SmDispatcher::Shared(next) => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                (i < tasks).then_some(i)
            }
            SmDispatcher::Steal(deques) => {
                let mut d = deques.lock().unwrap();
                if let Some(i) = d[worker].pop_front() {
                    return Some(i);
                }
                let victim = (0..d.len())
                    .filter(|&v| v != worker)
                    .max_by_key(|&v| d[v].len())?;
                d[victim].pop_back()
            }
        }
    }
}

/// The launch body, generic over the profiling sink. With [`NullSink`]
/// every hook is an empty `#[inline]` default method and every
/// `S::ENABLED` block is compile-time dead, so the unprofiled hot path
/// carries no profiling cost at all.
fn launch_impl<S: ProfileSink>(
    config: &GpuConfig,
    program: &Program,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
    mut profile: Option<&mut LaunchProfile>,
) -> Result<LaunchStats, SimError> {
    if args.len() != program.param_regs.len() {
        return Err(SimError::BadArgument {
            kernel: program.name.clone(),
            message: format!(
                "takes {} argument(s), {} given",
                program.param_regs.len(),
                args.len()
            ),
        });
    }
    // Like the CUDA driver, auto-raise the shared-memory carve-out when
    // the kernel's static shared memory exceeds the configured one.
    let auto_cfg;
    let config = if program.smem_bytes > config.smem_carveout_bytes {
        auto_cfg = config
            .clone()
            .with_smem_for(program.smem_bytes)
            .ok_or_else(|| SimError::BadArgument {
                kernel: program.name.clone(),
                message: format!(
                    "declares {} B of shared memory, above the largest carve-out",
                    program.smem_bytes
                ),
            })?;
        &auto_cfg
    } else {
        config
    };
    if let Some(p) = profile.as_deref_mut() {
        // The carve-out auto-raise above may have shrunk the L1; keep the
        // profile's recorded geometry in sync with what the SMs simulate.
        p.l1 = config.l1_config();
    }
    let occ = max_resident_tbs(
        config,
        program.smem_bytes,
        program.num_regs as u32,
        launch.threads_per_block(),
    );
    let resident = occ.resident_tbs();
    if resident == 0 {
        return Err(SimError::BadArgument {
            kernel: program.name.clone(),
            message: format!(
                "cannot launch: a single block exceeds SM resources \
                 (smem {} B, {} regs/thread, {} threads/block)",
                program.smem_bytes,
                program.num_regs,
                launch.threads_per_block()
            ),
        });
    }

    let num_blocks = launch.num_blocks();
    let mut total = LaunchStats {
        resident_tbs_per_sm: resident,
        ..LaunchStats::default()
    };
    if num_blocks == 0 {
        return Ok(total);
    }

    let fuel = config.fuel_budget(mem.footprint_bytes() as u64);

    // Shared, launch-wide precomputation: decoded scoreboard access sets
    // (consulted on every ready-check) and the dispatch tables (per-warp
    // lane indices, uniform dims, parameter images).
    let access = decode_access(program);
    let tables = DispatchTables::new(program, launch, args);

    // Round-robin distribution of linear block ids over SMs.
    let num_sms = config.num_sms.max(1);
    let per_sm: Vec<(u32, VecDeque<u32>)> = (0..num_sms)
        .map(|sm_id| {
            let blocks: VecDeque<u32> = (0..num_blocks).filter(|b| b % num_sms == sm_id).collect();
            (sm_id, blocks)
        })
        .filter(|(_, blocks)| !blocks.is_empty())
        .collect();

    // Sanitized launches force the sequential path: one launch-wide
    // sanitizer state must observe every block's global accesses to catch
    // races between blocks on different SMs.
    let mut san_state = if config.sanitize_enabled() {
        Some(SanitizerState::new())
    } else {
        None
    };
    let workers = if san_state.is_some() || !config.sm_parallel_enabled() {
        1
    } else {
        config.sm_thread_budget().min(per_sm.len())
    };
    let nwarps = (resident * launch.warps_per_block()) as usize;
    // Resolve the miss-curve opt-in once per launch, not per SM (it may
    // consult the environment); irrelevant for the NullSink path.
    let prof_windows = S::ENABLED && config.profile_windows_enabled();

    if workers <= 1 {
        // Sequential path: every SM mutates global memory directly. One
        // workspace (register files, TB slots) is reused across SMs
        // instead of reallocating per SM.
        let mut ws = SmWorkspace::default();
        for (sm_id, blocks) in per_sm {
            let trace_this_sm = config.trace_requests && sm_id == 0;
            let mut sink = S::for_sm(
                sm_id,
                config.l1_config(),
                nwarps,
                resident as usize,
                prof_windows,
            );
            let res = run_sm(
                config,
                program,
                &access,
                &tables,
                launch,
                mem,
                resident,
                trace_this_sm,
                fuel,
                &mut ws,
                &mut sink,
                san_state.as_mut(),
                blocks,
            );
            // Merge the shard before propagating an error so a failing SM
            // still leaves its partial profile behind.
            if let Some(p) = profile.as_deref_mut() {
                sink.finish_into(p);
            }
            fold_stats(&mut total, res?, trace_this_sm);
        }
        return Ok(total);
    }

    // Parallel path: each SM simulates against a shared read snapshot of
    // pre-launch memory plus its own store log; logs merge back below in
    // ascending SM-id order so the committed memory image is independent
    // of thread scheduling *and* of the claim order the dispatcher
    // produced — stealing on or off.
    let snapshot: &GlobalMem = mem;
    let dispatcher = SmDispatcher::new(config.sm_steal_enabled(), &per_sm, workers);
    let results: Mutex<Vec<Option<SmOutcome<S>>>> =
        Mutex::new((0..per_sm.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        // Shadow the owned values with references so the `move` closures
        // capture `wid` by value but everything shared by borrow.
        let (dispatcher, per_sm, results) = (&dispatcher, &per_sm, &results);
        let (access, tables) = (&access, &tables);
        for wid in 0..workers {
            scope.spawn(move || {
                let mut ws = SmWorkspace::default();
                while let Some(i) = dispatcher.claim(wid, per_sm.len()) {
                    let (sm_id, blocks) = &per_sm[i];
                    let trace_this_sm = config.trace_requests && *sm_id == 0;
                    let mut shadow = ShadowMem::new(snapshot);
                    let mut sink = S::for_sm(
                        *sm_id,
                        config.l1_config(),
                        nwarps,
                        resident as usize,
                        prof_windows,
                    );
                    let res = run_sm(
                        config,
                        program,
                        access,
                        tables,
                        launch,
                        &mut shadow,
                        resident,
                        trace_this_sm,
                        fuel,
                        &mut ws,
                        &mut sink,
                        None,
                        blocks.clone(),
                    );
                    let outcome = (res, shadow.into_log(), sink);
                    results.lock().unwrap()[i] = Some(outcome);
                }
            });
        }
    });
    let collected = results.into_inner().unwrap_or_else(|p| p.into_inner());
    // Deterministic commit: stats fold, store logs apply, and profile
    // shards merge in ascending SM-id order; the first failing SM (by id)
    // reports its error, with lower-id successes already merged — exactly
    // the sequential behaviour, whatever the thread schedule was.
    for (i, outcome) in collected.into_iter().enumerate() {
        let Some((res, log, sink)) = outcome else {
            // Unreachable in practice (the scope joins all workers and
            // run_sm never panics), but a structured error beats a panic.
            return Err(SimError::MalformedProgram {
                kernel: program.name.clone(),
                pc: 0,
                message: "parallel SM worker produced no result".into(),
            });
        };
        let trace_this_sm = config.trace_requests && per_sm[i].0 == 0;
        if let Some(p) = profile.as_deref_mut() {
            sink.finish_into(p);
        }
        let stats = res?;
        fold_stats(&mut total, stats, trace_this_sm);
        log.apply(mem);
    }
    Ok(total)
}

/// Fold one SM's stats into the launch total (`cycles` is the max over
/// SMs — they run concurrently on the device).
fn fold_stats(total: &mut LaunchStats, stats: LaunchStats, take_trace: bool) {
    total.instructions += stats.instructions;
    total.l1_accesses += stats.l1_accesses;
    total.l1_hits += stats.l1_hits;
    total.offchip_requests += stats.offchip_requests;
    total.l2_accesses += stats.l2_accesses;
    total.l2_hits += stats.l2_hits;
    total.l2_evictions += stats.l2_evictions;
    total.tbs += stats.tbs;
    total.warps += stats.warps;
    total.cycles = total.cycles.max(stats.cycles);
    if take_trace {
        total.trace = stats.trace;
    }
}

/// Sanitizer barrier-site identity check at a release point: every parked
/// warp of the block must be at the same `__syncthreads()` site (same pc)
/// with the same dynamic arrival count, and no finished warp may have
/// arrived at fewer barriers than the parked ones (it would have exited
/// past a barrier its siblings are waiting at — on hardware the block
/// deadlocks or desynchronizes; arrival-count release masks it). Returns
/// a report with an empty `kernel` (the caller fills it in).
fn barrier_site_mismatch(ws: &[Warp], block: Option<u32>) -> Option<SanitizerReport> {
    let block = block.unwrap_or(0);
    let mut site: Option<(u32, u32)> = None;
    for w in ws {
        if w.state != WarpState::AtBarrier {
            continue;
        }
        match site {
            None => site = Some((w.bar_pc, w.bar_count)),
            Some((pc, count)) if (pc, count) != (w.bar_pc, w.bar_count) => {
                return Some(SanitizerReport {
                    kind: SanitizerKind::BarrierDivergence,
                    kernel: String::new(),
                    pc: pc.max(w.bar_pc),
                    detail: format!(
                        "warps of block {} parked at different __syncthreads() sites: \
                         pc {} (barrier #{}) vs pc {} (barrier #{})",
                        block, pc, count, w.bar_pc, w.bar_count
                    ),
                });
            }
            Some(_) => {}
        }
    }
    let (pc, count) = site?;
    for w in ws {
        if w.state == WarpState::Done && w.bar_count < count {
            return Some(SanitizerReport {
                kind: SanitizerKind::BarrierDivergence,
                kernel: String::new(),
                pc,
                detail: format!(
                    "a warp of block {} finished after {} barrier(s) while its siblings \
                     are parked at barrier #{} (pc {}): the finished warp never reached \
                     this __syncthreads()",
                    block, w.bar_count, count, pc
                ),
            });
        }
    }
    None
}

/// Run one SM over its block list, borrowing warp/TB storage from `ws`
/// and returning it when done (so the caller reuses the allocations —
/// register files included — for the next SM on this thread).
#[allow(clippy::too_many_arguments)]
fn run_sm<M: DeviceMem, S: ProfileSink>(
    config: &GpuConfig,
    program: &Program,
    access: &[OpAccess],
    tables: &DispatchTables,
    launch: LaunchConfig,
    mem: &mut M,
    resident: u32,
    trace: bool,
    fuel: Option<u64>,
    ws: &mut SmWorkspace,
    sink: &mut S,
    san: Option<&mut SanitizerState>,
    blocks: VecDeque<u32>,
) -> Result<LaunchStats, SimError> {
    ws.prepare(
        program,
        resident,
        launch.warps_per_block(),
        config.schedulers_per_sm as usize,
    );
    let nwarps = ws.warps.len();
    let mut sm = Sm {
        config,
        program,
        access,
        tables,
        launch,
        mem,
        cache: L1Cache::new(config.l1_config()),
        l2: config.l2_slice_config().map(L1Cache::new),
        l1_port_free: 0,
        offchip_free: 0,
        cycle: 0,
        wake: std::mem::take(&mut ws.wake),
        soa_pc: std::mem::take(&mut ws.pc),
        age: std::mem::take(&mut ws.age),
        ready: std::mem::take(&mut ws.ready),
        next_ready: std::mem::take(&mut ws.next_ready),
        num_regs: program.num_regs as usize,
        warps: std::mem::take(&mut ws.warps),
        tbs: std::mem::take(&mut ws.tbs),
        warps_per_tb: launch.warps_per_block(),
        sched_next: vec![0; ws.last_issued.len()],
        last_issued: std::mem::take(&mut ws.last_issued),
        dispatch_age: 0,
        resident_blocks: 0,
        barrier_dirty: false,
        refill_dirty: true,
        active_tb_limit: resident as usize,
        dyncta_window: (0, 0),
        fuel,
        trace,
        stats: LaunchStats::default(),
        sink,
        san,
        prof_load_ready: if S::ENABLED {
            vec![0; nwarps]
        } else {
            Vec::new()
        },
    };
    let result = sm.run(blocks);
    if S::ENABLED && result.is_err() {
        // The success path records final aggregates inside `run`; on error
        // close the shard with whatever the SM reached so partial profiles
        // still carry cycle and instruction totals.
        sm.sink
            .sm_end(sm.cycle, sm.last_issued.len() as u32, sm.stats.instructions);
    }
    ws.wake = std::mem::take(&mut sm.wake);
    ws.pc = std::mem::take(&mut sm.soa_pc);
    ws.age = std::mem::take(&mut sm.age);
    ws.ready = std::mem::take(&mut sm.ready);
    ws.next_ready = std::mem::take(&mut sm.next_ready);
    ws.warps = std::mem::take(&mut sm.warps);
    ws.tbs = std::mem::take(&mut sm.tbs);
    ws.last_issued = std::mem::take(&mut sm.last_issued);
    result
}

struct TbSlot {
    /// Linear block id currently resident, if any.
    block: Option<u32>,
    /// Shared-memory segment for this block.
    smem: Vec<u32>,
}

/// The scoreboard registers and port usage of one op, decoded once per
/// launch by [`decode_access`]. `issue_time` consults this on every
/// ready-check instead of re-deriving reads/writes from the `Op` — the
/// single hottest query in the scheduler.
#[derive(Clone, Copy, Default)]
struct OpAccess {
    /// Source and destination registers (at most 3 reads + 1 write).
    regs: [u16; 4],
    /// How many entries of `regs` are in use.
    n: u8,
    /// Whether the op serializes on the L1D port (global/shared memory).
    uses_l1_port: bool,
}

/// Decode every op's scoreboard access set, indexed by pc.
fn decode_access(program: &Program) -> Vec<OpAccess> {
    program
        .ops
        .iter()
        .map(|op| {
            let mut a = OpAccess::default();
            for r in op.reads().into_iter().flatten() {
                a.regs[a.n as usize] = r;
                a.n += 1;
            }
            if let Some(d) = op.writes() {
                a.regs[a.n as usize] = d;
                a.n += 1;
            }
            a.uses_l1_port = matches!(
                op,
                Op::Ldg { .. } | Op::Stg { .. } | Op::Lds { .. } | Op::Sts { .. }
            );
            a
        })
        .collect()
}

/// Scoreboard readiness of a warp's next op, cached per warp so the
/// ready-check is O(1) (see [`Sm::issue_time`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
struct NextReady {
    /// Max scoreboard cycle over the op's source and destination
    /// registers.
    regs: u64,
    /// Whether the op also waits for the L1D port.
    port: bool,
}

/// Per-warp-in-block initial state shared by every dispatch of the launch.
struct WarpInit {
    /// Valid-lane mask (partial warps when `blockDim % 32 != 0`).
    valid: u32,
    /// Per-lane threadIdx.{x,y,z} register images.
    tidx: [[u32; 32]; 3],
}

/// Everything about a dispatch that does not depend on *which* block is
/// dispatched, computed once per launch: per-warp lane-index tables (the
/// divisions in the old per-lane loop), the warp-uniform block/grid dims,
/// and the parameter register images.
struct DispatchTables {
    warps: Vec<WarpInit>,
    /// (register, value) pairs uniform across lanes and blocks.
    uniforms: [(u16, u32); 6],
    /// (register, image) pairs for the kernel parameters.
    params: Vec<(u16, [u32; 32])>,
}

impl DispatchTables {
    fn new(program: &Program, launch: LaunchConfig, args: &[Arg]) -> DispatchTables {
        let (bx, by) = (launch.block.x.max(1), launch.block.y.max(1));
        let threads = launch.threads_per_block();
        let warps = (0..launch.warps_per_block())
            .map(|wi| {
                let base_lin = wi * 32;
                let mut valid = 0u32;
                let mut tidx = [[0u32; 32]; 3];
                for lane in 0..32u32 {
                    let lin = base_lin + lane;
                    if lin < threads {
                        valid |= 1 << lane;
                    }
                    tidx[0][lane as usize] = lin % bx;
                    tidx[1][lane as usize] = (lin / bx) % by;
                    tidx[2][lane as usize] = lin / (bx * by);
                }
                WarpInit { valid, tidx }
            })
            .collect();
        let uniforms = [
            (builtin_reg(Builtin::BlockDimX), launch.block.x),
            (builtin_reg(Builtin::BlockDimY), launch.block.y),
            (builtin_reg(Builtin::BlockDimZ), launch.block.z),
            (builtin_reg(Builtin::GridDimX), launch.grid.x),
            (builtin_reg(Builtin::GridDimY), launch.grid.y),
            (builtin_reg(Builtin::GridDimZ), launch.grid.z),
        ];
        let params = program
            .param_regs
            .iter()
            .zip(args)
            .map(|(p, arg)| (*p, [arg.register_image(); 32]))
            .collect();
        DispatchTables {
            warps,
            uniforms,
            params,
        }
    }
}

/// Reusable per-thread SM storage: warp slots (register files included)
/// and TB slots survive from one SM to the next instead of being
/// reallocated per SM — the dominant allocation cost of a multi-SM launch.
///
/// The scheduler-hot per-warp state lives here struct-of-arrays, not in
/// [`Warp`]: `wake` (next candidate issue cycle, `u64::MAX` for warps
/// that are not Ready), `pc` (mirror of `Warp::pc`), `age` (dispatch age
/// for GTO arbitration), `ready` (the register scoreboard, flattened
/// to `nwarps × num_regs`) and `next_ready` (the scoreboard reduced to
/// each warp's next op). The per-cycle ready-scan and skip-ahead
/// min-reduction touch only these contiguous arrays; the heap-heavy
/// `Warp` structs are consulted only at issue time.
#[derive(Default)]
struct SmWorkspace {
    warps: Vec<Warp>,
    /// Next cycle warp `i` could possibly issue; `u64::MAX` when not
    /// Ready. This is the event queue of the scheduler: the idle-cycle
    /// skip-ahead jumps straight to its minimum.
    wake: Vec<u64>,
    /// SoA mirror of `Warp::pc`, synced after every issue — the scan
    /// reads the next op's access set without touching the warp.
    pc: Vec<u32>,
    /// Dispatch age (smaller = older) for greedy-then-oldest arbitration.
    age: Vec<u64>,
    /// Flattened scoreboard: `ready[i * num_regs + r]` is the cycle at
    /// which warp `i`'s register `r` becomes available.
    ready: Vec<u64>,
    /// `next_ready[i]`: warp `i`'s scoreboard row reduced over the
    /// registers of the op at its pc. Row `i` is written only by warp
    /// `i`'s own issue and by dispatch, and both refresh this entry, so
    /// it never goes stale.
    next_ready: Vec<NextReady>,
    tbs: Vec<TbSlot>,
    last_issued: Vec<Option<usize>>,
}

impl SmWorkspace {
    /// Shape the workspace for one SM of this launch and reset all
    /// per-SM state. Storage is reused whenever the geometry matches;
    /// warp register files are *not* cleared here — `Warp::reset` zeroes
    /// them at dispatch, exactly as the per-SM allocation path did.
    fn prepare(&mut self, program: &Program, resident: u32, warps_per_tb: u32, nsched: usize) {
        let nwarps = (resident * warps_per_tb) as usize;
        let num_regs = program.num_regs as usize;
        if self.warps.len() != nwarps
            || self.warps.first().is_some_and(|w| w.regs.len() != num_regs)
        {
            self.warps = (0..nwarps).map(|_| Warp::idle(num_regs)).collect();
        } else {
            for w in &mut self.warps {
                w.state = WarpState::Idle;
            }
        }
        self.wake.clear();
        self.wake.resize(nwarps, u64::MAX);
        self.pc.clear();
        self.pc.resize(nwarps, 0);
        self.age.clear();
        self.age.resize(nwarps, 0);
        self.ready.clear();
        self.ready.resize(nwarps * num_regs, 0);
        self.next_ready.clear();
        self.next_ready.resize(nwarps, NextReady::default());
        let smem_words = (program.smem_bytes as usize).div_ceil(4);
        if self.tbs.len() != resident as usize
            || self.tbs.first().is_some_and(|t| t.smem.len() != smem_words)
        {
            self.tbs = (0..resident)
                .map(|_| TbSlot {
                    block: None,
                    smem: vec![0; smem_words],
                })
                .collect();
        } else {
            for t in &mut self.tbs {
                t.block = None;
            }
        }
        self.last_issued.clear();
        self.last_issued.resize(nsched, None);
    }
}

struct Sm<'a, M: DeviceMem, S: ProfileSink> {
    config: &'a GpuConfig,
    program: &'a Program,
    /// Memoized per-op scoreboard access sets, indexed by pc.
    access: &'a [OpAccess],
    /// Launch-wide dispatch precomputation.
    tables: &'a DispatchTables,
    launch: LaunchConfig,
    mem: &'a mut M,
    cache: L1Cache,
    /// This SM's slice of the shared L2 (`None` when the L2 is
    /// disabled, see [`GpuConfig::l2_slice_config`]). Probed only by
    /// L1D load misses; stores bypass it (write-through, no-allocate
    /// at both levels). Keeping the slice per-SM — no timing state
    /// shared across SMs — is what preserves the parallel/sequential
    /// bit-identity guarantee.
    l2: Option<L1Cache>,
    /// Next cycle the L1D port is free (1 transaction / cycle).
    l1_port_free: u64,
    /// Next cycle the off-chip port is free.
    offchip_free: u64,
    cycle: u64,
    warps: Vec<Warp>,
    tbs: Vec<TbSlot>,
    warps_per_tb: u32,
    /// Per-warp wake time (see [`SmWorkspace::wake`]): a lower bound on
    /// the warp's next issue cycle, or `u64::MAX` while it is not Ready.
    /// Invariant: `wake[i] < u64::MAX` ⟺ `warps[i].state == Ready`, so
    /// the scheduler scan and the skip-ahead min-reduction run over this
    /// contiguous array alone.
    wake: Vec<u64>,
    /// SoA mirror of `Warp::pc`, synced after every issue.
    soa_pc: Vec<u32>,
    /// SoA dispatch age for GTO arbitration (smaller = older).
    age: Vec<u64>,
    /// Flattened scoreboard: `ready[i * num_regs + r]`.
    ready: Vec<u64>,
    /// Per-warp scoreboard readiness of the next op (see
    /// [`SmWorkspace::next_ready`]).
    next_ready: Vec<NextReady>,
    num_regs: usize,
    /// Per-scheduler last-issued warp (greedy part of GTO).
    last_issued: Vec<Option<usize>>,
    /// Per-scheduler lower bound on the next cycle its partition can
    /// issue. A failed `pick` scan leaves every partition warp's `wake`
    /// at its exact next issue time, so the min it saw is that bound;
    /// until then `pick` returns `None` in O(1) instead of re-scanning.
    /// Any event that can make a warp issuable earlier (block dispatch,
    /// barrier release) resets the bounds to 0, forcing a fresh scan.
    sched_next: Vec<u64>,
    dispatch_age: u64,
    /// Resident blocks currently holding a TB slot — the O(1) form of
    /// "any `tbs[..].block` is Some".
    resident_blocks: usize,
    /// Set when a warp parked at a barrier or finished since the last
    /// `release_barriers` pass: those are the only transitions that can
    /// newly satisfy a block's arrival condition, so the per-slot release
    /// scan is skipped entirely on all other cycles.
    barrier_dirty: bool,
    /// Set when a warp finished since the last `retire_and_refill` pass
    /// (a block can only retire once its last warp is Done) — and at SM
    /// start, to seed the initial dispatch.
    refill_dirty: bool,
    /// DYNCTA: number of resident-TB slots currently allowed to issue
    /// (slots at or beyond the limit are paused). Always `tbs.len()` when
    /// dynamic throttling is off.
    active_tb_limit: usize,
    /// DYNCTA sampling-window state: (window start cycle, busy cycles).
    dyncta_window: (u64, u64),
    /// Cycle-fuel budget for this launch (`None` = unlimited). Checked at
    /// the top of the run loop, so skip-ahead jumps are charged too.
    fuel: Option<u64>,
    trace: bool,
    stats: LaunchStats,
    /// Profiling sink — [`NullSink`] when profiling is off, in which case
    /// every hook call below compiles to nothing.
    sink: &'a mut S,
    /// Launch-wide sanitizer state (`None` when sanitize mode is off).
    /// Shared by every SM of the launch — sanitized launches run
    /// sequentially — so inter-block races across SMs are observed.
    san: Option<&'a mut SanitizerState>,
    /// Per-warp completion cycle of the latest global load issued
    /// (profiling only, empty otherwise): lets [`Sm::classify_stall`] tell
    /// long (memory) scoreboard waits from short (ALU-dependency) ones.
    prof_load_ready: Vec<u64>,
}

impl<M: DeviceMem, S: ProfileSink> Sm<'_, M, S> {
    /// Warps currently parked at a `__syncthreads()` barrier.
    fn parked_warps(&self) -> usize {
        self.warps
            .iter()
            .filter(|w| w.state == WarpState::AtBarrier)
            .count()
    }

    /// The fuel ran out: classify the failure. Warps still parked at a
    /// barrier mean a peer never arrived (e.g. a spinning sibling warp) —
    /// report that as the deadlock it is; otherwise it is a plain runaway.
    fn out_of_fuel(&self) -> SimError {
        let parked = self.parked_warps();
        if parked > 0 {
            SimError::BarrierDeadlock {
                kernel: self.program.name.clone(),
                parked_warps: parked,
            }
        } else {
            SimError::FuelExhausted {
                kernel: self.program.name.clone(),
                cycles: self.cycle,
            }
        }
    }

    /// DYNCTA-style dynamic adjustment (paper §2.2): at each sampling
    /// window boundary, compare the fraction of issue slots lost to
    /// stalls against the thresholds and pause/resume one resident block.
    /// This is the reactive baseline — it pays a warm-up window before
    /// reacting and re-converges after every phase change, which is
    /// exactly the lag CATT's compile-time decisions avoid.
    fn dyncta_tick(&mut self, issued: bool) {
        let Some(cfg) = self.config.dyncta else {
            return;
        };
        if issued {
            self.dyncta_window.1 += 1;
        }
        let elapsed = self.cycle - self.dyncta_window.0;
        if elapsed < cfg.window {
            return;
        }
        let busy = self.dyncta_window.1 as f64 / elapsed as f64;
        let stall = 1.0 - busy;
        if stall > cfg.t_high && self.active_tb_limit > 1 {
            self.active_tb_limit -= 1;
        } else if stall < cfg.t_low && self.active_tb_limit < self.tbs.len() {
            self.active_tb_limit += 1;
        }
        self.dyncta_window = (self.cycle, 0);
    }

    fn run(&mut self, mut pending: VecDeque<u32>) -> Result<LaunchStats, SimError> {
        loop {
            // Cancellation poll: one pointer test when no token is set
            // (the default everywhere outside `catt serve`). Sits next to
            // the fuel check so both launch bounds share one exit point;
            // the event-driven loop makes iterations proportional to
            // issued work, so a relaxed load per iteration is noise.
            if let Some(tok) = &self.config.cancel {
                if tok.is_cancelled() {
                    return Err(SimError::Cancelled {
                        kernel: self.program.name.clone(),
                        cycles: self.cycle,
                    });
                }
            }
            if let Some(fuel) = self.fuel {
                if self.cycle >= fuel {
                    if S::ENABLED {
                        // Fuel cut the launch short: charge the cut-off
                        // slot to its own reason so fuel-bounded shards
                        // are identifiable in the breakdown.
                        self.sink
                            .stall(StallReason::Fuel, self.last_issued.len() as u64);
                    }
                    return Err(self.out_of_fuel());
                }
            }
            // Barrier release and TB retire/refill can only become
            // possible after a warp parks or finishes — both transitions
            // happen exclusively in `issue`, which raises the matching
            // dirty flag. All other cycles skip the per-slot scans
            // entirely (they would be no-ops).
            if self.barrier_dirty {
                self.barrier_dirty = false;
                self.release_barriers()?;
            }
            if self.refill_dirty {
                self.refill_dirty = false;
                self.retire_and_refill(&mut pending);
            }
            if pending.is_empty() && self.resident_blocks == 0 {
                break;
            }
            let mut issued = false;
            for sched in 0..self.last_issued.len() {
                if let Some(w) = self.pick(sched) {
                    self.issue(w)?;
                    self.sync_after_issue(w);
                    self.last_issued[sched] = Some(w);
                    issued = true;
                } else if S::ENABLED {
                    // Unused issue slot: classify and charge exactly one
                    // stall cycle, so per-SM slots always reconcile:
                    //   instructions + Σ stall_cycles = cycles × schedulers.
                    let reason = self.classify_stall(sched);
                    self.sink.stall(reason, 1);
                }
            }
            self.cycle += 1;
            self.dyncta_tick(issued);
            if !issued {
                match self.earliest_wakeup() {
                    Some(t) => {
                        // Clamp the jump to the fuel limit: a skip landing
                        // past `fuel` would report an exhaustion cycle
                        // count (and charge profiled stall slots) beyond
                        // the configured budget.
                        let t = match self.fuel {
                            Some(f) => t.min(f),
                            None => t,
                        };
                        if S::ENABLED && t > self.cycle {
                            // Skip-ahead: nothing can issue before `t`, so
                            // every scheduler loses the jumped-over cycles
                            // to the same reason it just stalled for (no
                            // state can change while nothing issues).
                            let delta = t - self.cycle;
                            for sched in 0..self.last_issued.len() {
                                let reason = self.classify_stall(sched);
                                self.sink.stall(reason, delta);
                            }
                        }
                        self.cycle = self.cycle.max(t);
                    }
                    None => {
                        if self.active_tb_limit < self.tbs.len() {
                            // Everything schedulable is done but paused
                            // blocks remain: resume them.
                            self.active_tb_limit = self.tbs.len();
                            continue;
                        }
                        // No Ready warp can ever issue. Barriers release at
                        // the top of the loop; reaching here with parked
                        // warps means a real deadlock — a peer that will
                        // never arrive.
                        let parked = self.parked_warps();
                        if parked > 0 {
                            return Err(SimError::BarrierDeadlock {
                                kernel: self.program.name.clone(),
                                parked_warps: parked,
                            });
                        }
                    }
                }
            }
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.cycle;
        stats.l1_accesses = self.cache.accesses;
        stats.l1_hits = self.cache.hits + self.cache.mshr_merges;
        stats.offchip_requests = self.cache.offchip_requests;
        if let Some(l2) = &self.l2 {
            stats.l2_accesses = l2.accesses;
            stats.l2_hits = l2.hits + l2.mshr_merges;
            stats.l2_evictions = l2.evictions;
        }
        if S::ENABLED {
            self.sink.sm_end(
                stats.cycles,
                self.last_issued.len() as u32,
                stats.instructions,
            );
        }
        Ok(stats)
    }

    /// Attribute a scheduler's unused issue slot to a [`StallReason`] by
    /// inspecting its warp partition (profiling only; pure observation,
    /// never perturbs scheduling). The earliest-waking Ready warp decides
    /// between `Memory` (L1-port serialization or an outstanding load's
    /// data) and `Scoreboard` (short ALU dependency — heuristic: a wait
    /// that ends at or before the warp's latest load completion counts as
    /// memory); with no Ready warp, parked warps mean `Barrier`,
    /// throttle-paused ones `Throttled`, and an empty or finished
    /// partition `Idle`.
    fn classify_stall(&self, sched: usize) -> StallReason {
        let nsched = self.last_issued.len();
        let mut best: Option<(u64, StallReason)> = None;
        let mut any_barrier = false;
        let mut any_throttled = false;
        for i in (sched..self.warps.len()).step_by(nsched) {
            let w = &self.warps[i];
            match w.state {
                WarpState::AtBarrier => any_barrier = true,
                WarpState::Ready => {
                    if (w.tb_slot as usize) >= self.active_tb_limit {
                        any_throttled = true;
                        continue;
                    }
                    let next = self.next_ready[i];
                    let reg_t = self.cycle.max(next.regs);
                    let port_t = if next.port { self.l1_port_free } else { 0 };
                    let t = reg_t.max(port_t);
                    // Memory if the wait is on the L1 port, or if it ends at or
                    // before the warp's latest outstanding-load completion (a
                    // register dependency on load data); otherwise scoreboard.
                    let memory = (next.port && port_t >= reg_t && port_t > self.cycle)
                        || t <= self.prof_load_ready[i];
                    let reason = if memory {
                        StallReason::Memory
                    } else {
                        StallReason::Scoreboard
                    };
                    match best {
                        Some((bt, _)) if bt <= t => {}
                        _ => best = Some((t, reason)),
                    }
                }
                _ => {}
            }
        }
        match best {
            Some((_, reason)) => reason,
            None if any_barrier => StallReason::Barrier,
            None if any_throttled => StallReason::Throttled,
            None => StallReason::Idle,
        }
    }

    // ----- dispatch ------------------------------------------------------

    fn retire_and_refill(&mut self, pending: &mut VecDeque<u32>) {
        for slot in 0..self.tbs.len() {
            if self.tbs[slot].block.is_some() {
                let lo = slot * self.warps_per_tb as usize;
                let hi = lo + self.warps_per_tb as usize;
                if self.warps[lo..hi]
                    .iter()
                    .all(|w| w.state == WarpState::Done)
                {
                    if S::ENABLED {
                        if let Some(b) = self.tbs[slot].block {
                            self.sink.tb_end(slot, b, self.cycle);
                        }
                    }
                    self.tbs[slot].block = None;
                    self.resident_blocks -= 1;
                    for w in &mut self.warps[lo..hi] {
                        w.state = WarpState::Idle;
                    }
                }
            }
            if self.tbs[slot].block.is_none() {
                if let Some(block) = pending.pop_front() {
                    self.dispatch(slot, block);
                }
            }
        }
    }

    fn dispatch(&mut self, slot: usize, block: u32) {
        self.tbs[slot].block = Some(block);
        self.tbs[slot].smem.fill(0);
        self.resident_blocks += 1;
        self.stats.tbs += 1;
        if S::ENABLED {
            self.sink.tb_start(slot, block, self.cycle);
        }
        let (gx, gy) = (self.launch.grid.x, self.launch.grid.y);
        // Warp-uniform values: the block indices vary per dispatch, the
        // dims/params come from the launch-wide tables. All are written
        // as one `[v; 32]` store per register instead of 32 scalar writes
        // per lane; the per-lane threadIdx divisions were precomputed
        // once in `DispatchTables::new`.
        let block_idx = [
            (builtin_reg(Builtin::BlockIdxX), block % gx),
            (builtin_reg(Builtin::BlockIdxY), (block / gx) % gy),
            (builtin_reg(Builtin::BlockIdxZ), block / (gx * gy)),
        ];
        let tables = self.tables;
        let lo = slot * self.warps_per_tb as usize;
        for (wi, init) in tables.warps.iter().enumerate() {
            let w = &mut self.warps[lo + wi];
            self.dispatch_age += 1;
            w.reset(init.valid, slot as u32);
            self.wake[lo + wi] = 0;
            self.soa_pc[lo + wi] = 0;
            self.age[lo + wi] = self.dispatch_age;
            let base = (lo + wi) * self.num_regs;
            self.ready[base..base + self.num_regs].fill(0);
            self.stats.warps += 1;
            if S::ENABLED {
                self.sink.warp_begin(lo + wi, block, self.cycle);
                self.prof_load_ready[lo + wi] = 0;
            }
            w.regs[builtin_reg(Builtin::ThreadIdxX) as usize] = init.tidx[0];
            w.regs[builtin_reg(Builtin::ThreadIdxY) as usize] = init.tidx[1];
            w.regs[builtin_reg(Builtin::ThreadIdxZ) as usize] = init.tidx[2];
            for &(r, v) in &block_idx {
                w.regs[r as usize] = [v; 32];
            }
            for &(r, v) in &tables.uniforms {
                w.regs[r as usize] = [v; 32];
            }
            for (r, image) in &tables.params {
                w.regs[*r as usize] = *image;
            }
            self.refresh_next_ready(lo + wi);
        }
        // The fresh warps are issuable now: drop every scheduler's
        // cached next-issue bound.
        self.sched_next.fill(0);
    }

    /// Release barriers by arrival count: once every non-finished warp of
    /// a block is parked, all parked warps resume. Done warps count as
    /// arrived, so partial blocks never deadlock — a forgiving semantics
    /// that masks divergent barriers; under sanitize mode, the release
    /// point additionally checks barrier-*site* identity (every parked
    /// warp at the same pc with the same dynamic arrival count, no
    /// finished warp short of that count) and reports
    /// [`SanitizerKind::BarrierDivergence`] when it fails.
    fn release_barriers(&mut self) -> Result<(), SimError> {
        for slot in 0..self.tbs.len() {
            if self.tbs[slot].block.is_none() {
                continue;
            }
            let lo = slot * self.warps_per_tb as usize;
            let hi = lo + self.warps_per_tb as usize;
            let ws = &mut self.warps[lo..hi];
            let any_parked = ws.iter().any(|w| w.state == WarpState::AtBarrier);
            let all_arrived = ws
                .iter()
                .all(|w| matches!(w.state, WarpState::AtBarrier | WarpState::Done));
            if any_parked && all_arrived {
                if self.san.is_some() {
                    if let Some(report) = barrier_site_mismatch(ws, self.tbs[slot].block) {
                        return Err(SimError::Sanitizer(SanitizerReport {
                            kernel: self.program.name.clone(),
                            ..report
                        }));
                    }
                }
                for (off, w) in ws.iter_mut().enumerate() {
                    if w.state == WarpState::AtBarrier {
                        w.state = WarpState::Ready;
                        self.wake[lo + off] = 0;
                        if S::ENABLED {
                            self.sink.warp_release(lo + off, self.cycle);
                        }
                    }
                }
                // Released warps are issuable now: drop the cached
                // next-issue bounds.
                self.sched_next.fill(0);
            }
        }
        Ok(())
    }

    // ----- scheduling ----------------------------------------------------

    /// Re-establish the SoA invariants for warp `w` after it issued: sync
    /// the pc mirror and the next op's readiness, reset its wake time
    /// (still schedulable this cycle if Ready, `u64::MAX` otherwise), and
    /// raise the dirty flags for the state transitions that can unlock
    /// other warps or TB slots.
    #[inline]
    fn sync_after_issue(&mut self, w: usize) {
        self.soa_pc[w] = self.warps[w].pc;
        self.refresh_next_ready(w);
        match self.warps[w].state {
            WarpState::Ready => self.wake[w] = self.cycle,
            WarpState::AtBarrier => {
                self.wake[w] = u64::MAX;
                // Parking may complete its block's arrival condition.
                self.barrier_dirty = true;
            }
            WarpState::Done => {
                self.wake[w] = u64::MAX;
                // Finishing counts as "arrived" for sibling barriers and
                // may retire the block.
                self.barrier_dirty = true;
                self.refill_dirty = true;
            }
            // An issued warp is never Idle; park it defensively (a parked
            // warp can only under-schedule, never corrupt results).
            WarpState::Idle => self.wake[w] = u64::MAX,
        }
    }

    /// Refresh `next_ready[w]`. Called after every write to warp `w`'s
    /// scoreboard row — the warp's own issue and its dispatch.
    #[inline]
    fn refresh_next_ready(&mut self, w: usize) {
        self.next_ready[w] = self.scoreboard_next_ready(w);
    }

    /// Warp `w`'s scoreboard row reduced over the registers of the op at
    /// its pc (memoized [`OpAccess`]): what `next_ready[w]` caches.
    #[inline]
    fn scoreboard_next_ready(&self, w: usize) -> NextReady {
        let a = &self.access[self.soa_pc[w] as usize];
        let base = w * self.num_regs;
        let mut regs = 0;
        for &r in &a.regs[..a.n as usize] {
            regs = regs.max(self.ready[base + r as usize]);
        }
        NextReady {
            regs,
            port: a.uses_l1_port,
        }
    }

    /// Earliest cycle at which Ready warp `i` could issue its next
    /// instruction: O(1) over the cached [`NextReady`] and the L1D port.
    /// This runs on every ready-check of every scheduler and must not
    /// touch `Warp`.
    #[inline]
    fn issue_time(&self, i: usize) -> u64 {
        debug_assert_eq!(self.warps[i].state, WarpState::Ready);
        let next = self.next_ready[i];
        debug_assert_eq!(
            next,
            self.scoreboard_next_ready(i),
            "next_ready[{i}] is stale: a scoreboard write skipped refresh_next_ready"
        );
        let t = self.cycle.max(next.regs);
        if next.port {
            t.max(self.l1_port_free)
        } else {
            t
        }
    }

    /// GTO pick for one scheduler: keep issuing the last warp while it is
    /// ready; otherwise the oldest ready warp. `wake` filters out warps
    /// whose last computed stall has not elapsed (and, at `u64::MAX`,
    /// everything not Ready), so the costlier scoreboard check in
    /// `issue_time` runs once per stall instead of every cycle — and the
    /// updated bounds it leaves behind are exactly what the skip-ahead
    /// min-reduction jumps to.
    fn pick(&mut self, sched: usize) -> Option<usize> {
        let cycle = self.cycle;
        // O(1) fast path: a previous failed scan proved nothing in this
        // partition can issue before `sched_next[sched]`.
        if cycle < self.sched_next[sched] {
            return None;
        }
        let nsched = self.last_issued.len();
        // The throttle filter dereferences `warps[i].tb_slot`; hoist the
        // "is anything throttled at all" test so the common (untrottled)
        // scan never touches the warp structs.
        let throttling = self.active_tb_limit < self.tbs.len();
        if let Some(last) = self.last_issued[sched] {
            if self.wake[last] <= cycle
                && (!throttling || (self.warps[last].tb_slot as usize) < self.active_tb_limit)
            {
                let t = self.issue_time(last);
                if t <= cycle {
                    return Some(last);
                }
                self.wake[last] = t;
            }
        }
        let mut best: Option<(u64, usize)> = None;
        // Min wake over the whole partition, throttled warps included (a
        // paused warp's stale-low wake keeps the bound conservative, so a
        // resume never needs to invalidate it).
        let mut next = u64::MAX;
        let mut i = sched;
        while i < self.wake.len() {
            let wk = self.wake[i];
            if wk <= cycle {
                if throttling && (self.warps[i].tb_slot as usize) >= self.active_tb_limit {
                    next = next.min(wk);
                    i += nsched;
                    continue; // paused by the dynamic throttler
                }
                let t = self.issue_time(i);
                if t <= cycle {
                    let age = self.age[i];
                    match best {
                        Some((ba, _)) if ba <= age => {}
                        _ => best = Some((age, i)),
                    }
                } else {
                    self.wake[i] = t;
                    next = next.min(t);
                }
            } else {
                next = next.min(wk); // u64::MAX stays u64::MAX
            }
            i += nsched;
        }
        if best.is_none() {
            self.sched_next[sched] = next;
        }
        best.map(|(_, i)| i)
    }

    /// Minimum future issue time over all Ready warps (for idle-cycle
    /// skip-ahead), or `None` when nothing is Ready. `wake` entries are
    /// exact here: `pick` just recomputed every Ready warp that had
    /// reached its previous bound, and everything else holds `u64::MAX`.
    fn earliest_wakeup(&self) -> Option<u64> {
        let t = if self.active_tb_limit < self.tbs.len() {
            // Dynamic throttling active: paused-slot warps must not drive
            // the jump (they cannot issue until resumed).
            self.wake
                .iter()
                .enumerate()
                .filter(|&(i, &t)| {
                    t != u64::MAX && (self.warps[i].tb_slot as usize) < self.active_tb_limit
                })
                .map(|(_, &t)| t)
                .min()
        } else {
            // Unthrottled: every scheduler's pick this cycle either
            // scanned (recomputing its bound) or fast-pathed on a bound
            // that is still the exact partition min — so the global min
            // is the min over the per-scheduler bounds, O(schedulers)
            // instead of O(warps).
            self.sched_next
                .iter()
                .copied()
                .min()
                .filter(|&t| t != u64::MAX)
        };
        t.map(|t| t.max(self.cycle))
    }

    // ----- execution -----------------------------------------------------

    /// A divergence-stack mismatch is a lowering bug; surfacing it as
    /// [`SimError::MalformedProgram`] keeps one bad program from killing a
    /// whole evaluation worker.
    fn malformed(&self, pc: usize, message: &str) -> SimError {
        SimError::MalformedProgram {
            kernel: self.program.name.clone(),
            pc: pc as u32,
            message: message.to_string(),
        }
    }

    fn issue(&mut self, wi: usize) -> Result<(), SimError> {
        self.stats.instructions += 1;
        let pc = self.warps[wi].pc as usize;
        let op = self.program.ops[pc];
        // Each ALU op reads its source registers once as whole rows and
        // runs one lane-vector kernel from `crate::alu` (opcode dispatch
        // outside the lane loop); `write_alu` applies the active mask.
        macro_rules! alu {
            ($dst:expr, $sfu:expr, |$r:ident| $vals:expr) => {{
                let $r = &self.warps[wi].regs;
                let vals: Row = $vals;
                self.write_alu(wi, $dst, $sfu, &vals);
            }};
        }
        match op {
            Op::MovImm { dst, imm } => alu!(dst, false, |_r| [imm; 32]),
            Op::Mov { dst, src } => alu!(dst, false, |r| r[src as usize]),
            Op::IBin { op, dst, a, b } => {
                alu!(dst, false, |r| alu::ibin_lanes(
                    op,
                    &r[a as usize],
                    &r[b as usize]
                ))
            }
            Op::FBin { op, dst, a, b } => {
                alu!(dst, op == FBinOp::Pow, |r| alu::fbin_lanes(
                    op,
                    &r[a as usize],
                    &r[b as usize]
                ))
            }
            Op::FUn { op, dst, a } => {
                alu!(dst, op != FUnOp::Neg && op != FUnOp::Abs, |r| {
                    alu::fun_lanes(op, &r[a as usize])
                })
            }
            Op::INeg { dst, a } => alu!(dst, false, |r| alu::map1(&r[a as usize], alu::ineg)),
            Op::IAbs { dst, a } => alu!(dst, false, |r| alu::map1(&r[a as usize], alu::iabs)),
            Op::Not { dst, a } => alu!(dst, false, |r| alu::map1(&r[a as usize], alu::not)),
            Op::Cmp {
                op,
                float,
                dst,
                a,
                b,
            } => alu!(dst, false, |r| alu::cmp_lanes(
                op,
                float,
                &r[a as usize],
                &r[b as usize]
            )),
            Op::Sel { dst, c, a, b } => alu!(dst, false, |r| alu::sel_lanes(
                &r[c as usize],
                &r[a as usize],
                &r[b as usize]
            )),
            Op::CvtIF { dst, a } => alu!(dst, false, |r| alu::map1(&r[a as usize], alu::cvt_if)),
            Op::CvtFI { dst, a } => alu!(dst, false, |r| alu::map1(&r[a as usize], alu::cvt_fi)),
            Op::Ldg { dst, addr } => self.exec_ldg(wi, dst, addr)?,
            Op::Stg { src, addr } => self.exec_stg(wi, src, addr)?,
            Op::Lds { dst, addr } => {
                let slot = self.warps[wi].tb_slot as usize;
                let w = &mut self.warps[wi];
                let addrs = w.regs[addr as usize];
                let active = w.active;
                let smem = &self.tbs[slot].smem;
                if self.san.is_some() {
                    if let Some((lane, a)) = shared_oob_lane(&addrs, active, smem.len()) {
                        return Err(SimError::Sanitizer(SanitizerReport {
                            kind: SanitizerKind::SharedOutOfBounds,
                            kernel: self.program.name.clone(),
                            pc: pc as u32,
                            detail: format!(
                                "lane {lane} loads shared byte address {a} past the {} B \
                                 of declared __shared__ storage",
                                smem.len() * 4
                            ),
                        }));
                    }
                }
                // Branchless like the ALU ops: load every lane (a clamped
                // read is total), mask at the write.
                let vals = alu::map1(&addrs, |a| smem.get(a as usize / 4).copied().unwrap_or(0));
                alu::write_masked(&mut w.regs[dst as usize], &vals, active);
                self.ready[wi * self.num_regs + dst as usize] =
                    self.cycle + self.config.latencies.shared;
                self.l1_port_free = self.l1_port_free.max(self.cycle) + 1;
                w.pc += 1;
            }
            Op::Sts { src, addr } => {
                let slot = self.warps[wi].tb_slot as usize;
                let w = &mut self.warps[wi];
                let addrs = w.regs[addr as usize];
                let vals = w.regs[src as usize];
                let active = w.active;
                let smem = &mut self.tbs[slot].smem;
                if self.san.is_some() {
                    if let Some((lane, a)) = shared_oob_lane(&addrs, active, smem.len()) {
                        return Err(SimError::Sanitizer(SanitizerReport {
                            kind: SanitizerKind::SharedOutOfBounds,
                            kernel: self.program.name.clone(),
                            pc: pc as u32,
                            detail: format!(
                                "lane {lane} stores to shared byte address {a} past the \
                                 {} B of declared __shared__ storage",
                                smem.len() * 4
                            ),
                        }));
                    }
                }
                for l in 0..32 {
                    if active & (1 << l) != 0 {
                        if let Some(word) = smem.get_mut(addrs[l] as usize / 4) {
                            *word = vals[l];
                        }
                    }
                }
                self.l1_port_free = self.l1_port_free.max(self.cycle) + 1;
                w.pc += 1;
            }
            Op::Bar => {
                let w = &mut self.warps[wi];
                if self.san.is_some() {
                    // `__syncthreads()` must be reached by every lane of
                    // the warp that has not returned; a partial mask means
                    // the barrier sits under thread-divergent control flow
                    // (undefined behaviour on hardware).
                    let expected = w.valid & !w.exited;
                    if w.active != expected {
                        return Err(SimError::Sanitizer(SanitizerReport {
                            kind: SanitizerKind::BarrierDivergence,
                            kernel: self.program.name.clone(),
                            pc: pc as u32,
                            detail: format!(
                                "__syncthreads() under intra-warp divergence: active lane \
                                 mask {:#010x}, but all non-exited lanes {:#010x} must \
                                 arrive together",
                                w.active, expected
                            ),
                        }));
                    }
                }
                w.bar_pc = pc as u32;
                w.bar_count += 1;
                w.state = WarpState::AtBarrier;
                w.pc += 1;
                if S::ENABLED {
                    self.sink.warp_barrier(wi, self.cycle);
                }
            }
            Op::If { cond, else_pc, .. } => {
                let w = &mut self.warps[wi];
                let cond_lanes = w.predicate_mask(cond);
                let taken = w.active & cond_lanes;
                let fallthru = w.active & !cond_lanes;
                if taken != 0 {
                    w.stack.push(Frame::If {
                        restore: w.active,
                        else_mask: fallthru,
                    });
                    w.active = taken;
                    w.pc += 1;
                } else {
                    // No lane takes the then-branch: go straight to the
                    // else branch (or EndIf) with the else mask consumed.
                    w.stack.push(Frame::If {
                        restore: w.active,
                        else_mask: 0,
                    });
                    w.active = fallthru;
                    w.pc = else_pc;
                }
            }
            Op::Else { end_pc } => {
                let w = &mut self.warps[wi];
                let Some(Frame::If { else_mask, .. }) = w.stack.last_mut() else {
                    return Err(self.malformed(pc, "Else without If frame"));
                };
                let em = *else_mask;
                if em != 0 {
                    *else_mask = 0;
                    w.active = em & !w.exited;
                    w.pc += 1;
                } else {
                    w.pc = end_pc;
                }
            }
            Op::EndIf => {
                let w = &mut self.warps[wi];
                let Some(Frame::If { restore, .. }) = w.stack.pop() else {
                    return Err(self.malformed(pc, "EndIf without If frame"));
                };
                w.active = restore & !w.exited & w.innermost_loop_live();
                w.pc += 1;
            }
            Op::LoopBegin { end_pc } => {
                let w = &mut self.warps[wi];
                w.stack.push(Frame::Loop {
                    restore: w.active,
                    live: w.active,
                    end_pc,
                });
                w.pc += 1;
            }
            Op::LoopTest { cond } => {
                let w = &mut self.warps[wi];
                let cond_lanes = w.predicate_mask(cond);
                let exited = w.exited;
                let Some(Frame::Loop {
                    live,
                    end_pc,
                    restore,
                }) = w.stack.last_mut()
                else {
                    return Err(self.malformed(pc, "LoopTest without Loop frame"));
                };
                *live &= cond_lanes & !exited;
                if *live == 0 {
                    let (end_pc, restore) = (*end_pc, *restore);
                    w.stack.pop();
                    w.active = restore & !w.exited & w.innermost_loop_live();
                    w.pc = end_pc;
                } else {
                    w.active = *live;
                    w.pc += 1;
                }
            }
            Op::LoopJump { cond_pc } => {
                let w = &mut self.warps[wi];
                let Some(Frame::Loop { live, .. }) = w.stack.last() else {
                    return Err(self.malformed(pc, "LoopJump without Loop frame"));
                };
                w.active = *live;
                w.pc = cond_pc;
            }
            Op::Break => {
                let w = &mut self.warps[wi];
                let breaking = w.active;
                let mut found = false;
                for f in w.stack.iter_mut().rev() {
                    if let Frame::Loop { live, .. } = f {
                        *live &= !breaking;
                        found = true;
                        break;
                    }
                }
                if !found {
                    return Err(self.malformed(pc, "Break outside loop"));
                }
                w.active = 0;
                w.pc += 1;
            }
            Op::Ret => {
                let w = &mut self.warps[wi];
                w.exited |= w.active;
                w.active = 0;
                w.pc += 1;
            }
            Op::Exit => {
                let w = &mut self.warps[wi];
                w.state = WarpState::Done;
                if S::ENABLED {
                    self.sink.warp_done(wi, self.cycle);
                }
            }
        }
        Ok(())
    }

    /// Commit an ALU result row: masked register write, scoreboard entry
    /// (`sfu` selects the transcendental latency), pc advance.
    #[inline]
    fn write_alu(&mut self, wi: usize, dst: u16, sfu: bool, vals: &Row) {
        let w = &mut self.warps[wi];
        alu::write_masked(&mut w.regs[dst as usize], vals, w.active);
        let lat = if sfu {
            self.config.latencies.sfu
        } else {
            self.config.latencies.alu
        };
        self.ready[wi * self.num_regs + dst as usize] = self.cycle + lat;
        self.warps[wi].pc += 1;
    }

    /// Unique line addresses touched by the active lanes, in lane order
    /// (see [`crate::cache::coalesce`]).
    fn coalesce(&self, wi: usize, addr_reg: u16) -> ([u32; 32], usize) {
        let w = &self.warps[wi];
        crate::cache::coalesce(&w.regs[addr_reg as usize], w.active, self.cache.line_map())
    }

    /// Sanitize one warp's global access (sanitize mode only): every
    /// active lane's load must fall inside an allocation, and every lane's
    /// access is fed to the launch-wide inter-block race detector. Wild
    /// *stores* are not flagged — [`GlobalMem::store`] drops them, so they
    /// cannot corrupt state — but they are recorded for race detection.
    fn sanitize_global(&mut self, wi: usize, addr: u16, is_store: bool) -> Result<(), SimError> {
        let w = &self.warps[wi];
        let addrs = w.regs[addr as usize];
        let active = w.active;
        let pc = w.pc;
        let block = self.tbs[w.tb_slot as usize].block.unwrap_or(0);
        for (l, &a) in addrs.iter().enumerate() {
            if active & (1 << l) == 0 {
                continue;
            }
            if !is_store && !self.mem.is_allocated(a) {
                return Err(SimError::Sanitizer(SanitizerReport {
                    kind: SanitizerKind::UninitializedRead,
                    kernel: self.program.name.clone(),
                    pc,
                    detail: format!(
                        "lane {l} loads byte address {a:#x}, which no allocation covers \
                         (the simulator reads 0; hardware reads garbage or faults)"
                    ),
                }));
            }
            if let Some(san) = self.san.as_deref_mut() {
                let race = if is_store {
                    san.record_global_store(a, block)
                } else {
                    san.record_global_load(a, block)
                };
                if let Some(detail) = race {
                    return Err(SimError::Sanitizer(SanitizerReport {
                        kind: SanitizerKind::GlobalRace,
                        kernel: self.program.name.clone(),
                        pc,
                        detail: format!("lane {l}: {detail}"),
                    }));
                }
            }
        }
        Ok(())
    }

    fn exec_ldg(&mut self, wi: usize, dst: u16, addr: u16) -> Result<(), SimError> {
        if self.san.is_some() {
            self.sanitize_global(wi, addr, false)?;
        }
        // Functional load now; timing below.
        {
            let w = &mut self.warps[wi];
            let addrs = w.regs[addr as usize];
            let active = w.active;
            let d = &mut w.regs[dst as usize];
            for l in 0..32 {
                if active & (1 << l) != 0 {
                    d[l] = self.mem.load(addrs[l]);
                }
            }
        }
        let (lines, n) = self.coalesce(wi, addr);
        if self.trace {
            self.stats.trace.record(n as u32);
        }
        let lat = self.config.latencies;
        let start = self.l1_port_free.max(self.cycle);
        self.l1_port_free = start + n.max(1) as u64;
        let mut data_ready = self.cycle + lat.l1_hit;
        let line_bytes = self.config.l1_line_bytes;
        for (k, la) in lines[..n].iter().enumerate() {
            let t = start + k as u64;
            let offchip_free = &mut self.offchip_free;
            let l2 = &mut self.l2;
            let mut l2_probe = None;
            let res = self.cache.access_load(la * line_bytes, t, lat.l1_hit, || {
                // Off-chip port first: L2 hits and misses both cross the
                // SM's off-chip interface, so the bandwidth limit — the
                // contention effect CATT exploits — is independent of the
                // L2-hit/DRAM latency split below.
                *offchip_free = (*offchip_free).max(t) + lat.offchip_port;
                let issue = *offchip_free;
                match l2 {
                    Some(l2) => {
                        let r = l2.access_load(la * line_bytes, issue, lat.l2_hit, || {
                            issue + lat.offchip
                        });
                        l2_probe = Some((r.hit, r.evicted));
                        r.data_ready
                    }
                    None => issue + lat.offchip,
                }
            });
            if S::ENABLED {
                self.sink.l1_load(res.set, *la, res.hit, res.evicted);
                if let Some((hit, evicted)) = l2_probe {
                    self.sink.l2_load(hit, evicted);
                }
            }
            data_ready = data_ready.max(res.data_ready);
        }
        if S::ENABLED {
            self.prof_load_ready[wi] = self.prof_load_ready[wi].max(data_ready);
        }
        self.ready[wi * self.num_regs + dst as usize] = data_ready;
        self.warps[wi].pc += 1;
        Ok(())
    }

    fn exec_stg(&mut self, wi: usize, src: u16, addr: u16) -> Result<(), SimError> {
        if self.san.is_some() {
            self.sanitize_global(wi, addr, true)?;
        }
        {
            let w = &self.warps[wi];
            let addrs = w.regs[addr as usize];
            let vals = w.regs[src as usize];
            let active = w.active;
            for l in 0..32 {
                if active & (1 << l) != 0 {
                    self.mem.store(addrs[l], vals[l]);
                }
            }
        }
        let (lines, n) = self.coalesce(wi, addr);
        if self.trace {
            self.stats.trace.record(n as u32);
        }
        let lat = self.config.latencies;
        let start = self.l1_port_free.max(self.cycle);
        self.l1_port_free = start + n.max(1) as u64;
        let line_bytes = self.config.l1_line_bytes;
        for (k, la) in lines[..n].iter().enumerate() {
            let t = start + k as u64;
            let set = self.cache.access_store(la * line_bytes);
            if S::ENABLED {
                self.sink.l1_store(set, *la);
            }
            self.offchip_free = self.offchip_free.max(t) + lat.offchip_port;
        }
        let w = &mut self.warps[wi];
        w.pc += 1;
        Ok(())
    }
}

/// First active lane whose shared-memory access falls past the declared
/// `__shared__` storage (`smem_words` words), if any. The simulator
/// clamps such accesses (loads 0, drops stores); under sanitize mode they
/// are reported instead.
fn shared_oob_lane(addrs: &[u32; 32], active: u32, smem_words: usize) -> Option<(usize, u32)> {
    for (l, &a) in addrs.iter().enumerate() {
        if active & (1 << l) != 0 && a as usize / 4 >= smem_words {
            return Some((l, a));
        }
    }
    None
}
