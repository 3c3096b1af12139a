//! `layer_ops`: a fixed mix of direct calls into the hardware,
//! physical-allocator and file-system layers, so their host time can be
//! measured from outside without a kernel in front of them.

use o1_hw::{
    Asid, AsidAllocator, CostKind, CostModel, FrameNo, Machine, PageSize, PageTables, PtNodeId,
    PteFlags, Tlb, VirtAddr, PAGE_SIZE,
};
use o1_memfs::{FileClass, Pmfs, Tmpfs};
use o1_palloc::{
    BitmapAllocator, BuddyAllocator, ExtentAllocator, FrameSource, PhysExtent, SizeClassAllocator,
};

use crate::meter::{Fail, Op, Sys, Tracer};
use crate::rng::Rng;
use crate::{Rig, Workload};

pub const LAYER_STEPS: usize = 8192;
/// Page-table and TLB entries touched per step.
const PT_OPS: usize = 16;
/// Alloc/free pairs per allocator per step.
const ALLOC_OPS: usize = 4;
/// Allocations each allocator keeps live, freed oldest-first.
const HELD: usize = 8;
/// Machine charges per step.
const CHARGES: [CostKind; 8] = [
    CostKind::Syscall,
    CostKind::TlbHit,
    CostKind::PtwLevelRef,
    CostKind::PteWrite,
    CostKind::BuddyAlloc,
    CostKind::VmaFind,
    CostKind::MemReadDram,
    CostKind::FsLookup,
];
/// Frames each allocator manages.
const SPAN_FRAMES: u64 = 1 << 16;
/// Page-table test VAs: 2^18 pages (1 GiB) from here.
const PT_BASE: u64 = 0x10_0000_0000;
const PT_PAGES: u64 = 1 << 18;
const FILE: &str = "/bench/layer_ops";
/// Pages mapped at set-up in a second 1 GiB region, so walks, maps and
/// unmaps run against populated upper levels.
const BG_PAGES: u64 = 8192;
const BG_BASE: u64 = PT_BASE + PT_PAGES * PAGE_SIZE;
/// Files created at set-up in each file system and kept until teardown.
const BG_FILES: usize = 256;

/// One step's inputs.
struct LayerStep {
    /// Distinct page-table pages mapped, walked and unmapped.
    pt_pages: [u32; PT_OPS],
    /// Pages inserted into the TLB, then looked up.
    tlb_pages: [u32; PT_OPS],
    /// Pages looked up that were not inserted this step.
    miss_pages: [u32; PT_OPS],
    buddy_orders: [u8; ALLOC_OPS],
    extent_frames: [u8; ALLOC_OPS],
    bitmap_frames: [u8; ALLOC_OPS],
    slab_frames: [u8; ALLOC_OPS],
    pmfs_pages: u8,
    tmpfs_pages: u8,
}

pub struct Layers {
    plan: Vec<LayerStep>,
    /// Set-up page-table population: distinct pages of the second region.
    bg_pages: Vec<u32>,
    /// Set-up files: name and size in pages.
    bg_files: Vec<(String, u8)>,
}

impl Layers {
    pub fn new(seed: u64) -> Layers {
        let mut rng = Rng::new(seed, 4);
        let plan = (0..LAYER_STEPS)
            .map(|_| {
                let mut pt_pages = [0u32; PT_OPS];
                for j in 0..PT_OPS {
                    // Distinct within a step: mapping a page twice fails.
                    pt_pages[j] = loop {
                        let p = rng.below(PT_PAGES) as u32;
                        if !pt_pages[..j].contains(&p) {
                            break p;
                        }
                    };
                }
                let mut pages = || std::array::from_fn(|_| rng.below(PT_PAGES) as u32);
                let tlb_pages = pages();
                let miss_pages = pages();
                let mut small =
                    |n: u64, min: u64| std::array::from_fn(|_| (min + rng.below(n)) as u8);
                LayerStep {
                    pt_pages,
                    tlb_pages,
                    miss_pages,
                    buddy_orders: small(5, 0),
                    extent_frames: small(64, 1),
                    bitmap_frames: small(64, 1),
                    slab_frames: small(64, 1),
                    pmfs_pages: (1 + rng.below(64)) as u8,
                    tmpfs_pages: (1 + rng.below(16)) as u8,
                }
            })
            .collect();
        // An odd multiplier permutes the region's pages, so these are
        // distinct.
        let (mul, off) = (rng.below(PT_PAGES) | 1, rng.below(PT_PAGES));
        let bg_pages = (0..BG_PAGES)
            .map(|j| ((j * mul + off) % PT_PAGES) as u32)
            .collect();
        let bg_files = (0..BG_FILES)
            .map(|j| (format!("/bench/bg/{j}"), (1 + rng.below(16)) as u8))
            .collect();
        Layers {
            plan,
            bg_pages,
            bg_files,
        }
    }
}

impl Workload for Layers {
    fn systems(&self) -> &'static [Sys] {
        &[Sys::Layers]
    }

    fn steps(&self) -> usize {
        LAYER_STEPS
    }

    fn per_slice(&self) -> usize {
        128
    }

    fn setup(&mut self, _sys: Sys, fastforward: bool) -> Result<Box<dyn Rig + '_>, Fail> {
        let span = |k: u64| PhysExtent::new(FrameNo(k * SPAN_FRAMES), SPAN_FRAMES);
        let mut m = Machine::new(8 * SPAN_FRAMES * PAGE_SIZE, 0, CostModel::tmpfs_dram());
        m.set_fastforward(fastforward);
        m.set_phase("setup");
        let mut pt = PageTables::new();
        let root = pt.create_root(&mut m);
        let mut rig = LayerRig {
            plan: &self.plan,
            bg_pages: &self.bg_pages,
            bg_files: &self.bg_files,
            tlb: Tlb::default(),
            pt,
            root,
            asids: AsidAllocator::new(),
            buddy: BuddyAllocator::new(span(1)),
            extent: ExtentAllocator::new(span(2)),
            bitmap: BitmapAllocator::new(span(3)),
            slab: SizeClassAllocator::new(ExtentAllocator::new(span(4)), 6),
            pmfs: Pmfs::format(span(5)),
            tmpfs: Tmpfs::new(),
            tmpfs_frames: BuddyAllocator::new(span(6)),
            held: [[None; HELD]; 4],
            boot_free: [0; 5],
            m,
        };
        rig.boot_free = rig.free_frames();
        rig.populate()?;
        Ok(Box::new(rig))
    }
}

struct LayerRig<'a> {
    plan: &'a [LayerStep],
    bg_pages: &'a [u32],
    bg_files: &'a [(String, u8)],
    m: Machine,
    tlb: Tlb,
    pt: PageTables,
    root: PtNodeId,
    asids: AsidAllocator,
    buddy: BuddyAllocator,
    extent: ExtentAllocator,
    bitmap: BitmapAllocator,
    slab: SizeClassAllocator<ExtentAllocator>,
    pmfs: Pmfs,
    tmpfs: Tmpfs,
    tmpfs_frames: BuddyAllocator,
    /// Live allocations of buddy, extent, bitmap and slab.
    held: [[Option<PhysExtent>; HELD]; 4],
    /// Free frames of buddy, extent, bitmap, tmpfs frames and pmfs at
    /// boot.
    boot_free: [u64; 5],
}

fn pt_va(page: u32) -> VirtAddr {
    VirtAddr(PT_BASE + u64::from(page) * PAGE_SIZE)
}

fn layer_fail(op: Op, e: impl std::fmt::Debug) -> Fail {
    Fail::Check(format!("{} failed: {e:?}", op.name()))
}

impl LayerRig<'_> {
    /// Set-up: map the background pages, fill every allocator's held
    /// slots and create the background files.
    fn populate(&mut self) -> Result<(), Fail> {
        let m = &mut self.m;
        for (j, &p) in self.bg_pages.iter().enumerate() {
            let va = VirtAddr(BG_BASE + u64::from(p) * PAGE_SIZE);
            self.pt
                .map(
                    m,
                    self.root,
                    va,
                    FrameNo(j as u64),
                    PageSize::Base,
                    PteFlags::user_rw(),
                )
                .map_err(|e| layer_fail(Op::PtMap, e))?;
        }
        let tr = &mut Tracer::off();
        for slot in 0..HELD {
            for which in 0..4 {
                self.cycle(which, slot, 1 + slot as u64, tr)?;
            }
        }
        let m = &mut self.m;
        for (name, pages) in self.bg_files {
            let bytes = u64::from(*pages) * PAGE_SIZE;
            let id = self
                .pmfs
                .create(m, name, FileClass::Persistent)
                .map_err(|e| layer_fail(Op::PmfsFile, e))?;
            self.pmfs
                .allocate(m, id, bytes)
                .map_err(|e| layer_fail(Op::PmfsFile, e))?;
            let id = self
                .tmpfs
                .create(m, name)
                .map_err(|e| layer_fail(Op::TmpfsFile, e))?;
            self.tmpfs
                .allocate_range(m, &mut self.tmpfs_frames, id, 0, bytes)
                .map_err(|e| layer_fail(Op::TmpfsFile, e))?;
        }
        Ok(())
    }

    fn free_frames(&self) -> [u64; 5] {
        [
            self.buddy.free_frames(),
            self.extent.free_frames(),
            self.bitmap.free_frames(),
            self.tmpfs_frames.free_frames(),
            self.pmfs.free_frames(),
        ]
    }

    /// Free the allocation held in `slot` (if any) and allocate anew.
    fn cycle(
        &mut self,
        which: usize,
        slot: usize,
        frames: u64,
        tr: &mut Tracer,
    ) -> Result<(), Fail> {
        let m = &mut self.m;
        let held = &mut self.held[which][slot];
        let (op, src): (Op, &mut dyn FrameSource) = match which {
            0 => (Op::Buddy, &mut self.buddy),
            1 => (Op::Extent, &mut self.extent),
            2 => (Op::Bitmap, &mut self.bitmap),
            _ => (Op::Slab, &mut self.slab),
        };
        let got = tr.call(op, || {
            if let Some(old) = held.take() {
                src.free(m, old);
            }
            src.alloc(m, frames)
        });
        *held = Some(got.map_err(|e| layer_fail(op, e))?);
        Ok(())
    }
}

impl Rig for LayerRig<'_> {
    fn machine(&self) -> &Machine {
        &self.m
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn step(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, Fail> {
        let s = &self.plan[i];
        let t0 = self.m.now();
        let (m, pt, root) = (&mut self.m, &mut self.pt, self.root);

        // Page tables: map, walk and unmap distinct pages.
        for (j, &p) in s.pt_pages.iter().enumerate() {
            let frame = FrameNo(j as u64 + 1);
            tr.call(Op::PtMap, || {
                pt.map(
                    m,
                    root,
                    pt_va(p),
                    frame,
                    PageSize::Base,
                    PteFlags::user_rw(),
                )
            })
            .map_err(|e| layer_fail(Op::PtMap, e))?;
        }
        for (j, &p) in s.pt_pages.iter().enumerate() {
            let t = tr.call(Op::PtWalk, || pt.walk(m, root, pt_va(p)));
            if t.map(|t| t.pa.0) != Some((j as u64 + 1) * PAGE_SIZE) {
                return Err(Fail::Check(format!("walk of page {p} after map: {t:?}")));
            }
        }
        for (j, &p) in s.pt_pages.iter().enumerate() {
            let gone = tr.call(Op::PtUnmap, || pt.unmap(m, root, pt_va(p)));
            if gone.map(|g| g.0) != Some(FrameNo(j as u64 + 1)) {
                return Err(Fail::Check(format!("unmap of page {p}: {gone:?}")));
            }
        }

        // TLB: insert, look the inserted pages up, then look up others.
        // Counting hits and misses is the caller's job (the MMU's in
        // the kernels), so the rig counts them.
        let asid = Asid(1 + (i % 4) as u16);
        for (j, &p) in s.tlb_pages.iter().enumerate() {
            let frame = FrameNo(j as u64 + 1);
            let tlb = &mut self.tlb;
            tr.call(Op::TlbInsert, || {
                tlb.insert(asid, pt_va(p), frame, PageSize::Base, PteFlags::user_rw())
            });
        }
        for (j, &p) in s.tlb_pages.iter().chain(&s.miss_pages).enumerate() {
            let tlb = &mut self.tlb;
            match tr.call(Op::TlbLookup, || tlb.lookup(asid, pt_va(p))) {
                Some((frame, _, _)) => {
                    // A page inserted this step must translate to the
                    // frame it was inserted with, unless a later insert
                    // of the same page replaced it.
                    let last = s.tlb_pages.iter().rposition(|&q| q == p);
                    if j < PT_OPS && last.is_some_and(|k| FrameNo(k as u64 + 1) != frame) {
                        return Err(Fail::Check(format!("tlb returned {frame:?} for page {p}")));
                    }
                    self.m.perf.tlb_hits += 1;
                }
                None => self.m.perf.tlb_misses += 1,
            }
        }

        for j in 0..CHARGES.len() {
            let (m, kind) = (&mut self.m, CHARGES[(i + j) % CHARGES.len()]);
            tr.call(Op::MachineCharge, || m.charge_kind(kind));
        }

        for _ in 0..ALLOC_OPS {
            let asids = &mut self.asids;
            let ok = tr.call(Op::Asid, || match asids.alloc() {
                Some(g) => {
                    asids.free(g.asid);
                    true
                }
                None => false,
            });
            if !ok {
                return Err(Fail::Check("asid allocator exhausted".into()));
            }
        }

        for j in 0..ALLOC_OPS {
            let slot = (i * ALLOC_OPS + j) % HELD;
            self.cycle(0, slot, 1 << s.buddy_orders[j], tr)?;
            self.cycle(1, slot, u64::from(s.extent_frames[j]), tr)?;
            self.cycle(2, slot, u64::from(s.bitmap_frames[j]), tr)?;
            self.cycle(3, slot, u64::from(s.slab_frames[j]), tr)?;
        }

        let (m, pmfs) = (&mut self.m, &mut self.pmfs);
        let bytes = u64::from(s.pmfs_pages) * PAGE_SIZE;
        tr.call(Op::PmfsFile, || {
            let id = pmfs.create(m, FILE, FileClass::Persistent)?;
            pmfs.allocate(m, id, bytes)?;
            pmfs.unlink(m, FILE)
        })
        .map_err(|e| layer_fail(Op::PmfsFile, e))?;

        let (m, tmpfs, frames) = (&mut self.m, &mut self.tmpfs, &mut self.tmpfs_frames);
        let bytes = u64::from(s.tmpfs_pages) * PAGE_SIZE;
        tr.call(Op::TmpfsFile, || {
            let id = tmpfs.create(m, FILE)?;
            tmpfs.allocate_range(m, frames, id, 0, bytes)?;
            tmpfs.unlink(m, frames, FILE)
        })
        .map_err(|e| layer_fail(Op::TmpfsFile, e))?;

        Ok(self.m.now().since(t0))
    }

    fn finish(&mut self) -> Result<(), Fail> {
        self.m.set_phase("teardown");
        let m = &mut self.m;
        for &p in self.bg_pages {
            let va = VirtAddr(BG_BASE + u64::from(p) * PAGE_SIZE);
            if self.pt.unmap(m, self.root, va).is_none() {
                return Err(Fail::Check(format!("background page {p} was not mapped")));
            }
        }
        for (name, _) in self.bg_files {
            self.pmfs
                .unlink(m, name)
                .map_err(|e| layer_fail(Op::PmfsFile, e))?;
            self.tmpfs
                .unlink(m, &mut self.tmpfs_frames, name)
                .map_err(|e| layer_fail(Op::TmpfsFile, e))?;
        }
        let mut srcs: [&mut dyn FrameSource; 4] = [
            &mut self.buddy,
            &mut self.extent,
            &mut self.bitmap,
            &mut self.slab,
        ];
        for (src, held) in srcs.iter_mut().zip(&mut self.held) {
            for e in held.iter_mut().filter_map(Option::take) {
                src.free(m, e);
            }
        }
        let free = self.free_frames();
        if free != self.boot_free {
            return Err(Fail::Check(format!(
                "free frames of buddy, extent, bitmap, tmpfs, pmfs: {free:?} after teardown, {:?} at boot",
                self.boot_free
            )));
        }
        if self.pt.node_count() != 1 || self.asids.live() != 0 {
            return Err(Fail::Check(format!(
                "{} page-table nodes and {} asids live after teardown",
                self.pt.node_count(),
                self.asids.live()
            )));
        }
        Ok(())
    }
}
