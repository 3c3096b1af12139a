//! Measurement: timed phases cut into slices that each start with the
//! reference loop, and the tracer that wraps every call the benchmark
//! makes into the simulator when a run is traced.
//!
//! Every buffer is allocated when the meter is built, so the counting
//! allocator sees only the simulator's own allocations while a phase
//! is timed.

use std::io::Write;
use std::time::Instant;

use o1_obs::hostmem;
use o1_vm::VmError;

use crate::refloop::RefLoop;

/// Reference-loop iterations at the head of every slice.
pub const REF_ITERS: u32 = 4000;

/// Rounds a run may make; the pooled buffers are sized for this many.
pub const MAX_ROUNDS: usize = 200;

/// Spans kept for the span file (per run); calls beyond it are still
/// aggregated.
const SPAN_CAPACITY: usize = 1 << 16;

/// The systems a workload runs, one after another.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sys {
    Baseline,
    FomPt,
    FomSharedPt,
    FomRanges,
    /// The layer rig of `layer_ops`: hardware, allocator and file-system
    /// objects driven directly.
    Layers,
}

impl Sys {
    pub const COUNT: usize = 5;

    pub fn name(self) -> &'static str {
        match self {
            Sys::Baseline => "baseline",
            Sys::FomPt => "fom-pt",
            Sys::FomSharedPt => "fom-sharedpt",
            Sys::FomRanges => "fom-ranges",
            Sys::Layers => "layers",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Calls the benchmark makes into the simulator, one span name each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    CreateProcess,
    Alloc,
    AccessRuns,
    Load,
    Release,
    DestroyProcess,
    TlbLookup,
    TlbInsert,
    PtMap,
    PtUnmap,
    PtWalk,
    MachineCharge,
    Asid,
    Buddy,
    Extent,
    Bitmap,
    Slab,
    PmfsFile,
    TmpfsFile,
    /// One workload step, the parent of the calls it makes.
    Step,
}

impl Op {
    pub const COUNT: usize = 20;

    /// The `MemSys` operations, reported per kernel.
    pub const KERNEL: [Op; 6] = [
        Op::CreateProcess,
        Op::Alloc,
        Op::AccessRuns,
        Op::Load,
        Op::Release,
        Op::DestroyProcess,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::CreateProcess => "create_process",
            Op::Alloc => "alloc",
            Op::AccessRuns => "access_runs",
            Op::Load => "load",
            Op::Release => "release",
            Op::DestroyProcess => "destroy_process",
            Op::TlbLookup => "tlb_lookup",
            Op::TlbInsert => "tlb_insert",
            Op::PtMap => "pt_map",
            Op::PtUnmap => "pt_unmap",
            Op::PtWalk => "pt_walk",
            Op::MachineCharge => "machine_charge",
            Op::Asid => "asid",
            Op::Buddy => "buddy",
            Op::Extent => "extent",
            Op::Bitmap => "bitmap",
            Op::Slab => "slab",
            Op::PmfsFile => "pmfs_file",
            Op::TmpfsFile => "tmpfs_file",
            Op::Step => "step",
        }
    }
}

/// Why a step or a check failed.
#[derive(Debug)]
pub enum Fail {
    /// A kernel call returned an error.
    Vm(Op, VmError),
    /// A load returned something other than the last value stored.
    Oracle { page: u64, expect: u64, got: u64 },
    /// Any other broken expectation.
    Check(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Vm(op, e) => write!(f, "{} returned {e:?}", op.name()),
            Fail::Oracle { page, expect, got } => {
                write!(
                    f,
                    "load of page {page} returned {got}, oracle says {expect}"
                )
            }
            Fail::Check(msg) => f.write_str(msg),
        }
    }
}

/// Totals of one `(system, op)` pair over the traced rounds.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

#[derive(Clone, Copy)]
struct Span {
    start_ns: u64,
    dur_ns: u64,
    parent: u32,
    allocs: u32,
    sys: Sys,
    op: Op,
}

const NO_PARENT: u32 = u32::MAX;

/// Spans around the benchmark's calls into the simulator. Off, a call
/// costs one predictable branch.
pub struct Tracer {
    on: bool,
    keep: bool,
    epoch: Instant,
    sys: Sys,
    step: u32,
    step_allocs: u64,
    spans: Vec<Span>,
    pub agg: [[Agg; Op::COUNT]; Sys::COUNT],
}

impl Tracer {
    /// A tracer that stays off and holds no span storage, for calls
    /// made outside timed phases.
    pub fn off() -> Tracer {
        Tracer::with_capacity(0)
    }

    fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            on: false,
            keep: false,
            epoch: Instant::now(),
            sys: Sys::Baseline,
            step: NO_PARENT,
            step_allocs: 0,
            spans: Vec::with_capacity(spans),
            agg: [[Agg::default(); Op::COUNT]; Sys::COUNT],
        }
    }

    /// Trace (or stop tracing) the following phases; `keep` also keeps
    /// their spans for the span file.
    pub fn set(&mut self, on: bool, keep: bool) {
        self.on = on;
        self.keep = on && keep;
    }

    /// Run one call into the simulator as `op`.
    #[inline(always)]
    pub fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = hostmem::snapshot().alloc_calls;
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let allocs = hostmem::snapshot().alloc_calls - a0;
        self.record(op, t0, t1, allocs, self.step);
        r
    }

    /// [`call`](Self::call) for a kernel operation, naming the op in
    /// its error.
    #[inline(always)]
    pub fn vm<T>(&mut self, op: Op, f: impl FnOnce() -> Result<T, VmError>) -> Result<T, Fail> {
        self.call(op, f).map_err(|e| Fail::Vm(op, e))
    }

    fn record(&mut self, op: Op, t0: Instant, t1: Instant, allocs: u64, parent: u32) {
        let ns = (t1 - t0).as_nanos() as u64;
        let a = &mut self.agg[self.sys.index()][op as usize];
        a.calls += 1;
        a.ns += ns;
        a.allocs += allocs;
        if self.keep && self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                dur_ns: ns,
                parent,
                allocs: allocs.min(u64::from(u32::MAX)) as u32,
                sys: self.sys,
                op,
            });
        }
    }

    fn begin_step(&mut self) {
        if !self.on {
            return;
        }
        self.step_allocs = hostmem::snapshot().alloc_calls;
        self.step = if self.keep && self.spans.len() < self.spans.capacity() {
            // The step's own span is filled in when it ends; reserving
            // its slot now gives its calls a parent id.
            self.spans.push(Span {
                start_ns: 0,
                dur_ns: 0,
                parent: NO_PARENT,
                allocs: 0,
                sys: self.sys,
                op: Op::Step,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
    }

    fn end_step(&mut self, t0: Instant, t1: Instant) {
        if !self.on {
            return;
        }
        let allocs = hostmem::snapshot().alloc_calls - self.step_allocs;
        let ns = (t1 - t0).as_nanos() as u64;
        let a = &mut self.agg[self.sys.index()][Op::Step as usize];
        a.calls += 1;
        a.ns += ns;
        a.allocs += allocs;
        if let Some(s) = self.spans.get_mut(self.step as usize) {
            s.start_ns = (t0 - self.epoch).as_nanos() as u64;
            s.dur_ns = ns;
            s.allocs = allocs.min(u64::from(u32::MAX)) as u32;
        }
        self.step = NO_PARENT;
    }

    /// Write the kept spans as JSON lines: one object per span, with
    /// its id, the id of the step that caused it, and host ns since the
    /// run started.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"sys\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"allocs\":{}}}",
                s.sys.name(),
                s.op.name(),
                s.start_ns,
                s.dur_ns,
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// Slice measurements pooled over the rounds of one run.
pub struct Pool {
    /// Per system: host time per step over reference time per
    /// iteration, one value per slice.
    pub ratios: [Vec<f64>; Sys::COUNT],
    /// Reference-loop ns per iteration, one value per slice.
    pub ref_ns: Vec<f64>,
}

impl Pool {
    pub fn new(slices_per_round: usize) -> Pool {
        let cap = slices_per_round * MAX_ROUNDS;
        Pool {
            ratios: std::array::from_fn(|_| Vec::with_capacity(cap)),
            ref_ns: Vec::with_capacity(cap * Sys::COUNT),
        }
    }
}

/// Host-heap activity of one timed phase.
#[derive(Clone, Copy, Default)]
pub struct HostDelta {
    pub allocs: u64,
    pub bytes: u64,
    /// Highest live heap during the phase, in bytes.
    pub peak_live: u64,
}

/// One system's timed phase.
pub struct Timed {
    pub failed: u64,
    pub first_failure: Option<Fail>,
    pub host: HostDelta,
    /// Host latency per step in reference iterations: p50 and p99.
    pub p50_ref: f64,
    pub p99_ref: f64,
    /// Simulated latency per step (ns): p50 and p99.
    pub sim_p50: u64,
    pub sim_p99: u64,
    /// Host ns spent in steps (reference loops excluded).
    pub work_ns: u64,
}

pub struct Meter {
    refl: RefLoop,
    pub tracer: Tracer,
    step_ref: Vec<f64>,
    sim_lat: Vec<u64>,
}

impl Meter {
    pub fn new(max_steps: usize) -> Meter {
        let mut m = Meter {
            refl: RefLoop::new(),
            tracer: Tracer::with_capacity(SPAN_CAPACITY),
            step_ref: vec![0.0; max_steps],
            sim_lat: vec![0; max_steps],
        };
        // Warm the reference table before its first timed use.
        m.refl.run(REF_ITERS);
        m
    }

    /// Run `steps` steps of one system as its timed phase, in slices of
    /// `per_slice` steps each led by the reference loop. `step`
    /// returns the step's simulated latency in ns.
    pub fn timed(
        &mut self,
        sys: Sys,
        steps: usize,
        per_slice: usize,
        pool: &mut Pool,
        mut step: impl FnMut(usize, &mut Tracer) -> Result<u64, Fail>,
    ) -> Timed {
        let mut failed = 0;
        let mut first_failure = None;
        let mut work_ns = 0u64;
        self.tracer.sys = sys;
        hostmem::reset_peak();
        let h0 = hostmem::snapshot();
        let mut start = 0;
        while start < steps {
            let end = (start + per_slice).min(steps);
            let r0 = Instant::now();
            self.refl.run(REF_ITERS);
            let r1 = Instant::now();
            let ref_ns = (r1 - r0).as_nanos() as f64 / f64::from(REF_ITERS);
            let mut t = r1;
            for i in start..end {
                self.tracer.begin_step();
                let res = step(i, &mut self.tracer);
                let t2 = Instant::now();
                self.tracer.end_step(t, t2);
                self.step_ref[i] = (t2 - t).as_nanos() as f64 / ref_ns;
                t = t2;
                match res {
                    Ok(ns) => self.sim_lat[i] = ns,
                    Err(e) => {
                        self.sim_lat[i] = 0;
                        failed += 1;
                        first_failure.get_or_insert(e);
                    }
                }
            }
            let slice_ns = (t - r1).as_nanos() as f64;
            work_ns += slice_ns as u64;
            pool.ratios[sys.index()].push(slice_ns / (end - start) as f64 / ref_ns);
            pool.ref_ns.push(ref_ns);
            start = end;
        }
        let h1 = hostmem::snapshot();
        let step_ref = &mut self.step_ref[..steps];
        let sim_lat = &mut self.sim_lat[..steps];
        Timed {
            failed,
            first_failure,
            host: HostDelta {
                allocs: h1.alloc_calls - h0.alloc_calls,
                bytes: h1.total_bytes - h0.total_bytes,
                peak_live: h1.peak_bytes,
            },
            p50_ref: percentile(step_ref, 500),
            p99_ref: percentile(step_ref, 990),
            sim_p50: percentile(sim_lat, 500),
            sim_p99: percentile(sim_lat, 990),
            work_ns,
        }
    }
}

/// The `per_mille`-th percentile of `v` (reorders `v`; no allocation).
pub fn percentile<T: Copy + PartialOrd>(v: &mut [T], per_mille: usize) -> T {
    let k = (v.len() - 1) * per_mille / 1000;
    *v.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("no NaN"))
        .1
}
