//! The o1mem simulator's benchmark: end-to-end and per-layer host cost
//! of four workloads, each driven from one host thread through the
//! simulator's public APIs. See `simbench/README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload tenant_fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. The process
//! exits with 1 if any output check failed and with 2 on bad arguments.

mod digests;
mod kernels;
mod layers;
mod meter;
mod refloop;
mod report;
mod rng;

use std::time::Instant;

use o1_hw::Machine;

use kernels::{Churn, Fleet, Kernels, Resident};
use layers::Layers;
use meter::{Fail, Meter, Pool, Sys, Timed, Tracer, MAX_ROUNDS};

/// One system, built and pre-populated, ready for its timed phase.
pub trait Rig {
    fn machine(&self) -> &Machine;
    fn machine_mut(&mut self) -> &mut Machine;
    /// Step `i`; returns its simulated latency in ns.
    fn step(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, Fail>;
    /// Tear down and check that every frame came back.
    fn finish(&mut self) -> Result<(), Fail>;
}

/// A workload: generated inputs and the systems they run on.
pub trait Workload {
    fn systems(&self) -> &'static [Sys];
    /// Steps per system per round.
    fn steps(&self) -> usize;
    /// Steps per measurement slice.
    fn per_slice(&self) -> usize;
    /// Build and pre-populate `sys` (the timed set-up).
    fn setup(&mut self, sys: Sys, fastforward: bool) -> Result<Box<dyn Rig + '_>, Fail>;
}

pub const WORKLOADS: [&str; 4] = [
    "tenant_fleet",
    "resident_access",
    "region_churn",
    "layer_ops",
];

fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "tenant_fleet" => Box::new(Kernels {
            plan: Fleet::new(seed),
            systems: &[Sys::Baseline, Sys::FomPt, Sys::FomSharedPt, Sys::FomRanges],
            steps: kernels::FLEET_TENANTS,
            per_slice: 256,
        }),
        "resident_access" => Box::new(Kernels {
            plan: Resident::new(seed),
            systems: &[Sys::Baseline, Sys::FomPt, Sys::FomRanges],
            steps: kernels::RESIDENT_STEPS,
            per_slice: 16,
        }),
        "region_churn" => Box::new(Kernels {
            plan: Churn::new(seed),
            systems: &[Sys::Baseline, Sys::FomPt, Sys::FomRanges],
            steps: kernels::CHURN_STEPS,
            per_slice: 64,
        }),
        "layer_ops" => Box::new(Layers::new(seed)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: simbench --workload <tenant_fleet|resident_access|region_churn|layer_ops> \
[--seed <n>] [--seconds <1..=60>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: digests::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|&&w| w == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(format!("--seconds must be 1..=60, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One system's share of one round.
pub struct SysRound {
    pub sys: Sys,
    pub steps: u64,
    pub setup_ns: u64,
    pub timed: Timed,
    /// Peak live host heap in the timed phase above the level before
    /// set-up: the system's whole footprint at its largest.
    pub host_peak: u64,
    /// Simulated ns of the timed phase.
    pub sim_ns: u64,
    /// Counter deltas of the timed phase.
    pub perf: o1_hw::PerfCounters,
    /// Fast-forwarded accesses in the timed phase.
    pub ffwd: u64,
    /// Clock and counters at the end of the timed phase.
    pub digest: u64,
}

/// Rounds of one kind (untraced or traced), pooled.
pub struct Rounds {
    pub pool: Pool,
    /// Per round, per system in workload order.
    pub rounds: Vec<Vec<SysRound>>,
}

impl Rounds {
    fn new(slices_per_round: usize) -> Rounds {
        Rounds {
            pool: Pool::new(slices_per_round),
            rounds: Vec::with_capacity(MAX_ROUNDS),
        }
    }
}

/// Steps attempted and failed, with the first few failures.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Outcome {
    /// Count `steps` more failed steps; a step that fails several
    /// checks still counts once against `attempted`.
    fn fail(&mut self, steps: u64, what: String) {
        self.failed = (self.failed + steps).min(self.attempted);
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }
}

/// Fold `(now, counters)` into a 64-bit FNV-1a digest.
fn digest(m: &Machine) -> u64 {
    format!("{:?} {:?}", m.now(), m.perf)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Set up, time and tear down every system of `wl` once.
fn run_round(
    wl: &mut dyn Workload,
    meter: &mut Meter,
    rounds: &mut Rounds,
    out: &mut Outcome,
) -> Vec<SysRound> {
    let (steps, per_slice) = (wl.steps(), wl.per_slice());
    let mut result = Vec::with_capacity(wl.systems().len());
    for &sys in wl.systems() {
        out.attempted += steps as u64;
        let heap_base = o1_obs::hostmem::snapshot().live_bytes;
        let t0 = Instant::now();
        let mut rig = match wl.setup(sys, true) {
            Ok(rig) => rig,
            Err(e) => {
                out.fail(steps as u64, format!("{}: set-up: {e}", sys.name()));
                continue;
            }
        };
        let setup_ns = t0.elapsed().as_nanos() as u64;
        rig.machine_mut().set_phase("timed");
        let (clock0, perf0, ffwd0) = {
            let m = rig.machine();
            (m.now(), m.perf, m.ffwd_accesses)
        };
        let timed = meter.timed(sys, steps, per_slice, &mut rounds.pool, |i, tr| {
            rig.step(i, tr)
        });
        let m = rig.machine();
        let (sim_ns, perf, ffwd, dig) = (
            m.now().since(clock0),
            m.perf - perf0,
            m.ffwd_accesses - ffwd0,
            digest(m),
        );
        if let Some(e) = &timed.first_failure {
            out.fail(timed.failed, format!("{}: step: {e}", sys.name()));
        }
        if let Err(e) = rig.finish() {
            out.fail(steps as u64, format!("{}: teardown: {e}", sys.name()));
        }
        result.push(SysRound {
            sys,
            steps: steps as u64,
            setup_ns,
            host_peak: timed.host.peak_live.saturating_sub(heap_base),
            timed,
            sim_ns,
            perf,
            ffwd,
            digest: dig,
        });
    }
    result
}

/// Digest of `sys` after set-up and the first `steps` steps.
fn prefix_digest(
    wl: &mut dyn Workload,
    sys: Sys,
    steps: usize,
    fastforward: bool,
    tr: &mut Tracer,
) -> Result<u64, Fail> {
    let mut rig = wl.setup(sys, fastforward)?;
    for i in 0..steps {
        rig.step(i, tr)?;
    }
    let d = digest(rig.machine());
    rig.finish()?;
    Ok(d)
}

/// Steps replayed with and without fast-forwarding.
const PREFIX_STEPS: usize = 64;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("simbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_start = Instant::now();
    let gen_start = Instant::now();
    let mut wl = make_workload(args.workload, args.seed);
    let gen_ns = gen_start.elapsed().as_nanos() as u64;
    let steps = wl.steps();
    let slices_per_round = steps.div_ceil(wl.per_slice()) * wl.systems().len();
    let mut meter = Meter::new(steps);
    let mut out = Outcome::default();
    let mut plain = Rounds::new(slices_per_round);
    let mut traced = Rounds::new(slices_per_round);
    let mut sim_shares = None;

    // Untraced rounds, alternating with traced ones under --trace 1,
    // until the time is up.
    const MIN_ROUNDS: usize = 3;
    loop {
        let trace_this = args.trace && plain.rounds.len() > traced.rounds.len();
        if trace_this {
            meter.tracer.set(true, traced.rounds.is_empty());
            o1_obs::install_collector();
            let r = run_round(&mut *wl, &mut meter, &mut traced, &mut out);
            let reports = o1_obs::take_collector();
            meter.tracer.set(false, false);
            sim_shares.get_or_insert_with(|| report::timed_shares(reports));
            traced.rounds.push(r);
        } else {
            let r = run_round(&mut *wl, &mut meter, &mut plain, &mut out);
            plain.rounds.push(r);
        }
        let done = run_start.elapsed().as_secs() >= args.seconds
            && plain.rounds.len() >= MIN_ROUNDS
            && (!args.trace || !traced.rounds.is_empty());
        if done || plain.rounds.len() + traced.rounds.len() >= MAX_ROUNDS {
            break;
        }
    }

    // Every round must reproduce the first one's simulated digests,
    // and at the default seed the digests recorded for this workload.
    let first: Vec<(Sys, u64)> = plain.rounds[0].iter().map(|s| (s.sys, s.digest)).collect();
    for r in plain.rounds.iter().chain(&traced.rounds) {
        for (s, &(sys, d)) in r.iter().zip(&first) {
            if s.digest != d {
                out.fail(
                    steps as u64,
                    format!("{}: digest differs between rounds", sys.name()),
                );
            }
        }
    }
    if args.seed == digests::DEFAULT_SEED {
        for &(sys, d) in &first {
            match digests::recorded(args.workload, sys) {
                Some(want) if want == d => {}
                want => out.fail(
                    steps as u64,
                    format!(
                        "{}: digest {d:#018x} at the default seed, recorded {}",
                        sys.name(),
                        want.map_or("none".into(), |w| format!("{w:#018x}"))
                    ),
                ),
            }
        }
    }

    // Replaying a prefix with fast-forwarding off must reproduce the
    // fast-forwarded digest.
    for &sys in wl.systems() {
        let n = PREFIX_STEPS.min(steps);
        out.attempted += 2 * n as u64;
        let on = prefix_digest(&mut *wl, sys, n, true, &mut meter.tracer);
        let off = prefix_digest(&mut *wl, sys, n, false, &mut meter.tracer);
        match (on, off) {
            (Ok(a), Ok(b)) if a == b => {}
            (on, off) => out.fail(
                2 * n as u64,
                format!(
                    "{}: prefix replay: fast-forward {on:?}, interpreted {off:?}",
                    sys.name()
                ),
            ),
        }
    }

    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "simbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = meter.tracer.write_spans(&path) {
            eprintln!("simbench: writing {}: {e}", path.display());
        } else {
            eprintln!(
                "simbench: spans of the first traced round in {}",
                path.display()
            );
        }
    }

    let wall_ns = run_start.elapsed().as_nanos() as u64;
    let metrics = if args.trace {
        report::per_layer(
            &plain,
            &traced,
            &meter.tracer,
            sim_shares.as_deref().unwrap_or(&[]),
            gen_ns,
            wall_ns,
        )
    } else {
        report::end_to_end(&plain)
    };
    for m in &out.messages {
        eprintln!("simbench: FAILED {m}");
    }
    let correct = out.failed == 0;
    report::print(&args, &plain, &traced, &out, &metrics, correct);
    if !correct {
        std::process::exit(1);
    }
}
