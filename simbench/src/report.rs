//! Metrics from pooled rounds, and the result line.

use o1_obs::{FigureTrace, MachineReport, Subsystem};

use crate::meter::{Op, Sys, Tracer};
use crate::{Args, Outcome, Rounds, SysRound};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Measurements the value summarises.
    pub samples: u64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    crate::meter::percentile(&mut v, 500)
}

/// Geometric mean of at most a handful of positive values (one per
/// system), so their product cannot overflow.
fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (product, n) = v.fold((1.0, 0u32), |(p, n), x| (p * x, n + 1));
    product.powf(1.0 / f64::from(n.max(1)))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host time per step in reference iterations: per system the median
/// slice ratio, weighted by the system's share of the steps.
fn rel_time(r: &Rounds) -> f64 {
    let first = &r.rounds[0];
    let total: u64 = first.iter().map(|s| s.steps).sum();
    first
        .iter()
        .map(|s| median(&r.pool.ratios[s.sys.index()]) * s.steps as f64 / total as f64)
        .sum()
}

/// Per system, the median over rounds of `f`; then their geometric mean.
fn typical(r: &Rounds, f: impl Fn(&SysRound) -> f64) -> f64 {
    let systems = r.rounds[0].len();
    geomean((0..systems).map(|j| {
        let per_round: Vec<f64> = r.rounds.iter().map(|round| f(&round[j])).collect();
        median(&per_round)
    }))
}

/// End-to-end metrics, from untraced rounds. Host counts and simulated
/// metrics are exact, so they come from the first round.
pub fn end_to_end(r: &Rounds) -> Vec<Metric> {
    let first = &r.rounds[0];
    let rounds = r.rounds.len() as u64;
    let steps: u64 = first.iter().map(|s| s.steps).sum();
    let sum = |f: &dyn Fn(&SysRound) -> u64| first.iter().map(f).sum::<u64>();
    let setups: Vec<f64> = r
        .rounds
        .iter()
        .map(|round| round.iter().map(|s| s.setup_ns).sum::<u64>() as f64 / 1e9)
        .collect();
    let slices: u64 = r.pool.ratios.iter().map(|v| v.len() as u64).sum();
    vec![
        metric("setup_s", "s", median(&setups), rounds * first.len() as u64),
        metric("rel_time", "ratio", rel_time(r), slices),
        metric(
            "step_p50_ref",
            "ref",
            typical(r, |s| s.timed.p50_ref),
            rounds * steps,
        ),
        metric(
            "host_allocs_per_step",
            "count",
            ratio(sum(&|s| s.timed.host.allocs), steps),
            steps,
        ),
        metric(
            "host_bytes_per_step",
            "bytes",
            ratio(sum(&|s| s.timed.host.bytes), steps),
            steps,
        ),
        metric(
            "host_peak_kib",
            "KiB",
            sum(&|s| s.host_peak) as f64 / 1024.0,
            first.len() as u64,
        ),
        metric(
            "sim_ns_per_step",
            "sim_ns",
            ratio(sum(&|s| s.sim_ns), steps),
            steps,
        ),
        metric(
            "sim_step_p50_ns",
            "sim_ns",
            typical(r, |s| s.timed.sim_p50 as f64),
            steps,
        ),
        metric(
            "sim_step_p99_ns",
            "sim_ns",
            typical(r, |s| s.timed.sim_p99 as f64),
            steps,
        ),
    ]
}

/// The subsystems reported as `sim_share.<name>`.
const SHARES: [(Subsystem, &str); 7] = [
    (Subsystem::Cpu, "cpu"),
    (Subsystem::Mem, "mem"),
    (Subsystem::Translation, "translation"),
    (Subsystem::PageTable, "page_table"),
    (Subsystem::Alloc, "alloc"),
    (Subsystem::Vm, "vm"),
    (Subsystem::Fs, "fs"),
];

/// Each subsystem's share of the simulated ns charged in timed phases,
/// from the ledgers of one traced round.
pub fn timed_shares(mut machines: Vec<MachineReport>) -> Vec<(&'static str, f64)> {
    for m in &mut machines {
        m.rows.retain(|row| row.phase == "timed");
    }
    let a = o1_obs::attribute(&FigureTrace {
        id: "simbench".into(),
        machines,
    });
    let total: u64 = a.by_subsystem.iter().map(|&(_, _, ns)| ns).sum();
    SHARES
        .iter()
        .map(|&(sub, name)| {
            let ns = a
                .by_subsystem
                .iter()
                .find(|&&(s, _, _)| s == sub)
                .map_or(0, |&(_, _, ns)| ns);
            (name, ratio(ns, total))
        })
        .collect()
}

/// Per-layer metrics of a traced run. Every name is reported on every
/// workload; a layer the workload does not exercise reads 0.
pub fn per_layer(
    plain: &Rounds,
    traced: &Rounds,
    tracer: &Tracer,
    shares: &[(&'static str, f64)],
    gen_ns: u64,
    wall_ns: u64,
) -> Vec<Metric> {
    let first = &plain.rounds[0];
    let steps: u64 = first.iter().map(|s| s.steps).sum();
    let ref_ns = median(&traced.pool.ref_ns);
    let mut out = Vec::new();

    let mut call_metrics = |prefix: &str, sys: Sys, op: Op, allocs: bool| {
        let a = tracer.agg[sys.index()][op as usize];
        let per_call_ns = ratio(a.ns, a.calls);
        out.push(metric(
            format!("{prefix}.{}.ref_per_call", op.name()),
            "ref",
            if ref_ns > 0.0 {
                per_call_ns / ref_ns
            } else {
                0.0
            },
            a.calls,
        ));
        if allocs {
            out.push(metric(
                format!("{prefix}.{}.allocs_per_call", op.name()),
                "count",
                ratio(a.allocs, a.calls),
                a.calls,
            ));
        }
    };
    for (layer, sys) in [
        ("vm", Sys::Baseline),
        ("core", Sys::FomPt),
        ("core", Sys::FomSharedPt),
        ("core", Sys::FomRanges),
    ] {
        for op in Op::KERNEL {
            call_metrics(&format!("{layer}.{}", sys.name()), sys, op, true);
        }
    }
    for op in [
        Op::PtMap,
        Op::PtUnmap,
        Op::TlbLookup,
        Op::TlbInsert,
        Op::PtWalk,
        Op::MachineCharge,
        Op::Asid,
    ] {
        call_metrics("hw", Sys::Layers, op, false);
    }
    for op in [Op::Buddy, Op::Extent, Op::Bitmap, Op::Slab] {
        call_metrics("palloc", Sys::Layers, op, false);
    }
    for op in [Op::PmfsFile, Op::TmpfsFile] {
        call_metrics("memfs", Sys::Layers, op, false);
    }

    let per_step = |f: &dyn Fn(&o1_hw::PerfCounters) -> u64| {
        ratio(first.iter().map(|s| f(&s.perf)).sum(), steps)
    };
    for (name, value) in [
        ("hw.pt_nodes_per_step", per_step(&|p| p.pt_nodes_alloced)),
        ("hw.pte_writes_per_step", per_step(&|p| p.pte_writes)),
        ("hw.page_walks_per_step", per_step(&|p| p.page_walks)),
        ("hw.shootdowns_per_step", per_step(&|p| p.tlb_shootdowns)),
        ("palloc.frames_per_step", per_step(&|p| p.frames_alloced)),
        ("palloc.alloc_calls_per_step", per_step(&|p| p.alloc_calls)),
        (
            "memfs.journal_records_per_step",
            per_step(&|p| p.journal_records),
        ),
        (
            "vm.page_meta_updates_per_step",
            per_step(&|p| p.page_meta_updates),
        ),
    ] {
        out.push(metric(name, "count", value, steps));
    }
    let (hits, misses) = first.iter().fold((0, 0), |(h, m), s| {
        (h + s.perf.tlb_hits, m + s.perf.tlb_misses)
    });
    out.push(metric(
        "hw.tlb_miss_ratio",
        "ratio",
        ratio(misses, hits + misses),
        hits + misses,
    ));
    for sys in [Sys::Baseline, Sys::FomPt, Sys::FomSharedPt, Sys::FomRanges] {
        let (ffwd, accesses) = first
            .iter()
            .find(|s| s.sys == sys)
            .map_or((0, 0), |s| (s.ffwd, s.perf.loads + s.perf.stores));
        out.push(metric(
            format!("hw.ffwd_accept_ratio.{}", sys.name()),
            "ratio",
            ratio(ffwd, accesses),
            accesses,
        ));
    }
    for &(name, share) in shares {
        out.push(metric(format!("sim_share.{name}"), "ratio", share, 1));
    }

    let plain_rounds = plain.rounds.len() as u64;
    let plain_rel = rel_time(plain);
    out.push(metric(
        "obs.trace_overhead",
        "ratio",
        if plain_rel > 0.0 {
            rel_time(traced) / plain_rel
        } else {
            0.0
        },
        traced.rounds.len() as u64,
    ));
    out.push(metric(
        "workloads.gen_share",
        "ratio",
        ratio(gen_ns, wall_ns),
        1,
    ));
    out.push(metric(
        "bench.ref_ns_per_iter",
        "ns",
        median(&plain.pool.ref_ns),
        plain.pool.ref_ns.len() as u64,
    ));
    let walls: Vec<f64> = plain
        .rounds
        .iter()
        .map(|round| round.iter().map(|s| s.timed.work_ns).sum::<u64>() as f64 / 1e9)
        .collect();
    out.push(metric("bench.wall_s", "s", median(&walls), plain_rounds));
    out.push(metric(
        "bench.step_p99_ref",
        "ref",
        typical(plain, |s| s.timed.p99_ref),
        plain_rounds * steps,
    ));
    out
}

/// Print a readable summary, then the result as the last line.
pub fn print(
    args: &Args,
    plain: &Rounds,
    traced: &Rounds,
    out: &Outcome,
    metrics: &[Metric],
    correct: bool,
) {
    let systems: Vec<&str> = plain.rounds[0].iter().map(|s| s.sys.name()).collect();
    println!(
        "# {} seed {}: {} untraced and {} traced rounds of {} × {} steps; \
         error_rate {} ({} of {} steps failed)",
        args.workload,
        args.seed,
        plain.rounds.len(),
        traced.rounds.len(),
        systems.join(", "),
        plain.rounds[0].first().map_or(0, |s| s.steps),
        ratio(out.failed, out.attempted),
        out.failed,
        out.attempted
    );
    for m in metrics {
        println!(
            "# {:<44} {:>16.6} {:<6} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let mut name = String::new();
            o1_obs::json_escape(&mut name, &m.name);
            format!("{name}: {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}
