//! The three workloads that drive whole kernels through
//! `o1_vm::MemSys`: `tenant_fleet`, `resident_access` and
//! `region_churn`. Each is a plan of generated inputs plus the step
//! that feeds them to a kernel; [`Kernels`] builds every system the
//! workload names and hands the plan to it.

use std::collections::VecDeque;

use o1_core::{FomKernel, MapMech};
use o1_hw::{CpuId, Machine, VirtAddr, PAGE_SIZE};
use o1_vm::{AccessRun, BaselineConfig, BaselineKernel, MemSys, Pid, ReclaimPolicy, ThpMode};

use crate::meter::{Fail, Op, Sys, Tracer};
use crate::rng::{Rng, Zipf};
use crate::{Rig, Workload};

/// Kernel state the checks need beyond [`MemSys`].
pub trait Kernel: MemSys {
    fn free_frames(&self) -> u64;
}

impl Kernel for BaselineKernel {
    fn free_frames(&self) -> u64 {
        BaselineKernel::free_frames(self)
    }
}

impl Kernel for FomKernel {
    fn free_frames(&self) -> u64 {
        FomKernel::free_frames(self)
    }
}

/// A workload's inputs and the step that applies them to a kernel.
pub trait Plan {
    /// Simulated CPUs every system boots with.
    const CPUS: u32;
    /// Baseline DRAM size.
    const DRAM_BYTES: u64;
    /// File-only NVM size.
    const NVM_BYTES: u64 = 256 << 20;

    /// Set-up after boot, before the timed phase (timed as set-up).
    fn prepare<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail>;

    /// Step `i`; returns its simulated latency in ns.
    fn step<K: Kernel>(&mut self, k: &mut K, i: usize, tr: &mut Tracer) -> Result<u64, Fail>;

    /// Release everything the steps left alive.
    fn drain<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail>;
}

/// A [`Plan`] run on each of `systems`.
pub struct Kernels<P> {
    pub plan: P,
    pub systems: &'static [Sys],
    pub steps: usize,
    pub per_slice: usize,
}

impl<P: Plan> Workload for Kernels<P> {
    fn systems(&self) -> &'static [Sys] {
        self.systems
    }

    fn steps(&self) -> usize {
        self.steps
    }

    fn per_slice(&self) -> usize {
        self.per_slice
    }

    fn setup(&mut self, sys: Sys, fastforward: bool) -> Result<Box<dyn Rig + '_>, Fail> {
        let fom = |mech| {
            FomKernel::builder()
                .mech(mech)
                .nvm(P::NVM_BYTES)
                .cpus(P::CPUS)
                .build()
        };
        match sys {
            Sys::Baseline => {
                let k = BaselineKernel::builder()
                    .config(BaselineConfig {
                        dram_bytes: P::DRAM_BYTES,
                        reclaim: ReclaimPolicy::Clock,
                        low_watermark_frames: 0,
                        swap_enabled: false,
                        thp: ThpMode::Never,
                        fault_around: 1,
                    })
                    .cpus(P::CPUS)
                    .build();
                self.rig(k, fastforward)
            }
            Sys::FomPt => self.rig(fom(MapMech::PageTables), fastforward),
            Sys::FomSharedPt => self.rig(fom(MapMech::SharedPt), fastforward),
            Sys::FomRanges => self.rig(fom(MapMech::Ranges), fastforward),
            Sys::Layers => unreachable!("layers run only in layer_ops"),
        }
    }
}

impl<P: Plan> Kernels<P> {
    fn rig<K: Kernel + 'static>(
        &mut self,
        mut k: K,
        fastforward: bool,
    ) -> Result<Box<dyn Rig + '_>, Fail> {
        k.machine_mut().set_fastforward(fastforward);
        let boot_free = k.free_frames();
        k.phase("setup");
        self.plan.prepare(&mut k)?;
        Ok(Box::new(KernelRig {
            k,
            plan: &mut self.plan,
            boot_free,
        }))
    }
}

struct KernelRig<'a, K, P> {
    k: K,
    plan: &'a mut P,
    boot_free: u64,
}

impl<K: Kernel, P: Plan> Rig for KernelRig<'_, K, P> {
    fn machine(&self) -> &Machine {
        self.k.machine()
    }

    fn machine_mut(&mut self) -> &mut Machine {
        self.k.machine_mut()
    }

    fn step(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        self.plan.step(&mut self.k, i, tr)
    }

    fn finish(&mut self) -> Result<(), Fail> {
        self.k.phase("teardown");
        self.plan.drain(&mut self.k)?;
        let free = self.k.free_frames();
        if free != self.boot_free {
            return Err(Fail::Check(format!(
                "{} free frames after teardown, {} at boot",
                free, self.boot_free
            )));
        }
        Ok(())
    }
}

/// Load back every page of a region whose page `p` was just written
/// with `first + p`, and compare with that expected value.
fn load_back<K: Kernel>(
    k: &mut K,
    tr: &mut Tracer,
    pid: Pid,
    va: VirtAddr,
    pages: u64,
    first: u64,
) -> Result<(), Fail> {
    for p in 0..pages {
        let got = tr.vm(Op::Load, || k.load(pid, va + p * PAGE_SIZE))?;
        if got != first + p {
            return Err(Fail::Oracle {
                page: p,
                expect: first + p,
                got,
            });
        }
    }
    Ok(())
}

/// `tenant_fleet`: `fig_service`'s serverless tenant lifecycle. Set-up
/// launches the first [`FLEET_LIVE`] tenants, so every timed step
/// retires the oldest tenant and launches a new one.
pub struct Fleet {
    /// Working-set pages of each tenant, set-up tenants first.
    pages: Vec<u8>,
    live: VecDeque<Pid>,
}

pub const FLEET_TENANTS: usize = 16_384;
const FLEET_LIVE: usize = 256;
const FLEET_APPS: usize = 4096;
const FLEET_THETA: f64 = 0.9;

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        let zipf = Zipf::new(FLEET_APPS, FLEET_THETA);
        let mut rng = Rng::new(seed, 1);
        Fleet {
            // fig_service's app → working-set rule: 2, 4, 6 or 8 pages.
            pages: (0..FLEET_LIVE + FLEET_TENANTS)
                .map(|_| 2 + (zipf.sample(&mut rng) & 3) as u8 * 2)
                .collect(),
            live: VecDeque::with_capacity(FLEET_LIVE),
        }
    }
}

impl Plan for Fleet {
    const CPUS: u32 = 4;
    const DRAM_BYTES: u64 = 64 << 20;

    fn prepare<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail> {
        self.live.clear();
        for t in 0..FLEET_LIVE {
            self.launch(k, t, &mut Tracer::off())?;
        }
        Ok(())
    }

    fn step<K: Kernel>(&mut self, k: &mut K, i: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        self.launch(k, FLEET_LIVE + i, tr)
    }

    fn drain<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail> {
        for (j, pid) in self.live.drain(..).enumerate() {
            k.set_cpu(CpuId((j % Self::CPUS as usize) as u32));
            k.destroy_process(pid)
                .map_err(|e| Fail::Vm(Op::DestroyProcess, e))?;
        }
        Ok(())
    }
}

impl Fleet {
    /// Tenant `t`: retire the oldest tenant if the live set is full,
    /// then create, map, first-touch and load back. Returns the launch
    /// latency (create to last first-touch store) in simulated ns.
    fn launch<K: Kernel>(&mut self, k: &mut K, t: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        k.set_cpu(CpuId((t % Self::CPUS as usize) as u32));
        if self.live.len() == FLEET_LIVE {
            let victim = self.live.pop_front().expect("live set is full");
            tr.vm(Op::DestroyProcess, || k.destroy_process(victim))?;
        }
        let pages = u64::from(self.pages[t]);
        let first = (t as u64) << 8;
        let t0 = k.machine().now();
        let pid = tr.vm(Op::CreateProcess, || k.create_process())?;
        self.live.push_back(pid);
        let va = tr.vm(Op::Alloc, || k.alloc(pid, pages * PAGE_SIZE, false))?;
        let touch = [AccessRun {
            start_page: 0,
            stride: 1,
            len: pages,
        }];
        tr.vm(Op::AccessRuns, || {
            k.access_runs(pid, va, &touch, true, first)
        })?;
        let launch_ns = k.machine().now().since(t0);
        load_back(k, tr, pid, va, pages, first)?;
        Ok(launch_ns)
    }
}

/// `resident_access`: translation over a populated 16 MiB region.
pub struct Resident {
    /// First page of each step's sequential read.
    seq: Vec<u32>,
    /// Pages of each step's random reads.
    reads: Vec<u32>,
    /// Each step's random writes, one single-page run each.
    writes: Vec<AccessRun>,
    /// Last value stored to each page.
    oracle: Vec<u64>,
    region: Option<(Pid, VirtAddr)>,
}

pub const RESIDENT_STEPS: usize = 1024;
/// 16 MiB: 8× the reach of the default 512-entry TLB, small enough that
/// the simulator's own state for it stays mostly in the host's L2.
const RESIDENT_PAGES: u64 = 4096;
const SEQ_PAGES: u64 = 512;
const RANDOM_OPS: usize = 256;

impl Resident {
    pub fn new(seed: u64) -> Resident {
        let mut rng = Rng::new(seed, 2);
        let seq = (0..RESIDENT_STEPS)
            .map(|_| rng.below(RESIDENT_PAGES - SEQ_PAGES + 1) as u32)
            .collect();
        let reads = (0..RESIDENT_STEPS * RANDOM_OPS)
            .map(|_| rng.below(RESIDENT_PAGES) as u32)
            .collect();
        let writes = (0..RESIDENT_STEPS * RANDOM_OPS)
            .map(|_| AccessRun {
                start_page: rng.below(RESIDENT_PAGES),
                stride: 1,
                len: 1,
            })
            .collect();
        Resident {
            seq,
            reads,
            writes,
            oracle: vec![0; RESIDENT_PAGES as usize],
            region: None,
        }
    }
}

impl Plan for Resident {
    const CPUS: u32 = 1;
    const DRAM_BYTES: u64 = 64 << 20;

    fn prepare<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail> {
        self.oracle.fill(0);
        let pid = k
            .create_process()
            .map_err(|e| Fail::Vm(Op::CreateProcess, e))?;
        let va = k
            .alloc(pid, RESIDENT_PAGES * PAGE_SIZE, true)
            .map_err(|e| Fail::Vm(Op::Alloc, e))?;
        self.region = Some((pid, va));
        Ok(())
    }

    fn step<K: Kernel>(&mut self, k: &mut K, i: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        let (pid, va) = self.region.expect("prepared");
        let t0 = k.machine().now();
        let sweep = [AccessRun {
            start_page: u64::from(self.seq[i]),
            stride: 1,
            len: SEQ_PAGES,
        }];
        tr.vm(Op::AccessRuns, || k.access_runs(pid, va, &sweep, false, 0))?;
        for &p in &self.reads[i * RANDOM_OPS..(i + 1) * RANDOM_OPS] {
            let p = u64::from(p);
            let got = tr.vm(Op::Load, || k.load(pid, va + p * PAGE_SIZE))?;
            let expect = self.oracle[p as usize];
            if got != expect {
                return Err(Fail::Oracle {
                    page: p,
                    expect,
                    got,
                });
            }
        }
        let runs = &self.writes[i * RANDOM_OPS..(i + 1) * RANDOM_OPS];
        let first = 1 + (i * RANDOM_OPS) as u64;
        tr.vm(Op::AccessRuns, || k.access_runs(pid, va, runs, true, first))?;
        for (j, r) in runs.iter().enumerate() {
            self.oracle[r.start_page as usize] = first + j as u64;
        }
        Ok(k.machine().now().since(t0))
    }

    fn drain<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail> {
        if let Some((pid, va)) = self.region.take() {
            k.release(pid, va, RESIDENT_PAGES * PAGE_SIZE)
                .map_err(|e| Fail::Vm(Op::Release, e))?;
            k.destroy_process(pid)
                .map_err(|e| Fail::Vm(Op::DestroyProcess, e))?;
        }
        Ok(())
    }
}

/// `region_churn`: one long-lived process allocating and releasing
/// regions of 2^k pages on two CPUs. Set-up creates the process and
/// its first [`CHURN_LIVE`] regions, so every timed step releases one.
pub struct Churn {
    /// log2 of each region's size in pages, set-up regions first.
    order: Vec<u8>,
    /// Live regions, oldest first.
    live: VecDeque<(VirtAddr, u64)>,
    pid: Option<Pid>,
}

pub const CHURN_STEPS: usize = 8192;
const CHURN_LIVE: usize = 64;
const CHURN_MAX_ORDER: u64 = 6;

impl Churn {
    pub fn new(seed: u64) -> Churn {
        // Each run of seven regions holds every size once, in a seeded
        // order: the live set always holds about the same bytes, so the
        // host peak does not hinge on a seed's unlucky streak.
        let mut rng = Rng::new(seed, 3);
        let mut order: Vec<u8> = (0..CHURN_LIVE + CHURN_STEPS)
            .map(|r| (r % (CHURN_MAX_ORDER as usize + 1)) as u8)
            .collect();
        for block in order.chunks_mut(CHURN_MAX_ORDER as usize + 1) {
            for j in (1..block.len()).rev() {
                block.swap(j, rng.below(j as u64 + 1) as usize);
            }
        }
        Churn {
            order,
            live: VecDeque::with_capacity(CHURN_LIVE),
            pid: None,
        }
    }

    /// Region `r`: release the oldest region if the live set is full,
    /// then allocate, touch and load back a new one.
    fn cycle<K: Kernel>(&mut self, k: &mut K, r: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        let pid = self.pid.expect("prepared");
        // Alternate CPUs so a release invalidates translations the
        // other CPU may hold.
        k.set_cpu(CpuId((r % Self::CPUS as usize) as u32));
        let t0 = k.machine().now();
        if self.live.len() == CHURN_LIVE {
            let (va, pages) = self.live.pop_front().expect("live set is full");
            tr.vm(Op::Release, || k.release(pid, va, pages * PAGE_SIZE))?;
        }
        let pages = 1u64 << self.order[r];
        let first = (r as u64) << 8;
        let va = tr.vm(Op::Alloc, || k.alloc(pid, pages * PAGE_SIZE, false))?;
        self.live.push_back((va, pages));
        let touch = [AccessRun {
            start_page: 0,
            stride: 1,
            len: pages,
        }];
        tr.vm(Op::AccessRuns, || {
            k.access_runs(pid, va, &touch, true, first)
        })?;
        load_back(k, tr, pid, va, pages, first)?;
        Ok(k.machine().now().since(t0))
    }
}

impl Plan for Churn {
    const CPUS: u32 = 2;
    const DRAM_BYTES: u64 = 64 << 20;

    fn prepare<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail> {
        self.live.clear();
        self.pid = Some(
            k.create_process()
                .map_err(|e| Fail::Vm(Op::CreateProcess, e))?,
        );
        for r in 0..CHURN_LIVE {
            self.cycle(k, r, &mut Tracer::off())?;
        }
        Ok(())
    }

    fn step<K: Kernel>(&mut self, k: &mut K, i: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        self.cycle(k, CHURN_LIVE + i, tr)
    }

    fn drain<K: Kernel>(&mut self, k: &mut K) -> Result<(), Fail> {
        let Some(pid) = self.pid.take() else {
            return Ok(());
        };
        for (va, pages) in self.live.drain(..) {
            k.release(pid, va, pages * PAGE_SIZE)
                .map_err(|e| Fail::Vm(Op::Release, e))?;
        }
        k.destroy_process(pid)
            .map_err(|e| Fail::Vm(Op::DestroyProcess, e))
    }
}
