//! Set-associative translation lookaside buffer.
//!
//! Models a unified, ASID-tagged TLB. Capacity pressure is what makes
//! the paper's in-text observation reproducible: *"it was faster to
//! make a `read()` system call to read 16KB than to access data already
//! mapped into a process if it would cause TLB misses"* (§3.2/§4.3).

use crate::addr::{FrameNo, PageNo, PageSize, VirtAddr};
use crate::pagetable::PteFlags;

/// Address-space identifier tagging TLB entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Asid(pub u16);

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    asid: Asid,
    /// Virtual page of the mapping base (for huge pages, the first
    /// base page of the huge region).
    vpn: PageNo,
    frame: FrameNo,
    size: PageSize,
    flags: PteFlags,
    /// LRU timestamp.
    stamp: u64,
}

impl TlbEntry {
    #[inline]
    fn is(&self, asid: Asid, vpn: PageNo, size: PageSize) -> bool {
        self.vpn == vpn && self.asid == asid && self.size == size
    }
}

/// Probe order of a unified TLB: each supported page size in turn
/// (real hardware splits structures; the effect is the same).
const PROBE_SIZES: [PageSize; 3] = [PageSize::Base, PageSize::Huge2M, PageSize::Huge1G];

/// A set-associative TLB.
///
/// Every operation scans the ≤ `assoc` ways of the set it addresses.
/// The per-set `Vec` order is the model: LRU eviction replaces the
/// *first* minimum-stamp way, so insertion order breaks ties. A set's
/// storage is allocated on its first insert, so an idle TLB costs the
/// host no more than its set headers. `huge` counts resident 2M/1G
/// entries; while it is zero, probes skip the huge-page sizes, which
/// could only miss.
#[derive(Debug)]
pub struct Tlb {
    sets: Vec<Vec<TlbEntry>>,
    assoc: usize,
    tick: u64,
    huge: usize,
}

/// Default number of TLB entries (64 sets × 8 ways = 512, in the range
/// of a Skylake-class second-level TLB combined with the first level).
pub const DEFAULT_SETS: usize = 64;
/// Default associativity.
pub const DEFAULT_ASSOC: usize = 8;

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(DEFAULT_SETS, DEFAULT_ASSOC)
    }
}

impl Tlb {
    /// Create a TLB with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    /// Panics unless `sets` is a nonzero power of two and `assoc > 0`.
    pub fn new(sets: usize, assoc: usize) -> Tlb {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(assoc > 0, "associativity must be nonzero");
        Tlb {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            assoc,
            tick: 0,
            huge: 0,
        }
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.assoc
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Every resident entry as `(set, asid, vpn, size)`, set by set
    /// (test/diagnostic support for the model's structural invariants).
    pub fn entries(&self) -> impl Iterator<Item = (usize, Asid, PageNo, PageSize)> + '_ {
        (self.sets.iter().enumerate())
            .flat_map(|(set, ways)| ways.iter().map(move |e| (set, e.asid, e.vpn, e.size)))
    }

    /// The resident-huge-entry count the probes trust; zero also
    /// tells the fast-forward engine that no two base-page-apart
    /// accesses can share an entry ([`crate::Mmu::run_can_share`]).
    #[inline]
    pub fn huge_entries(&self) -> usize {
        self.huge
    }

    #[inline]
    fn set_index(&self, vpn: PageNo) -> usize {
        (vpn.0 as usize) & (self.sets.len() - 1)
    }

    /// Base virtual page of the mapping region containing `va` for a
    /// given page size.
    #[inline]
    fn region_vpn(va: VirtAddr, size: PageSize) -> PageNo {
        va.align_down(size.bytes()).page()
    }

    /// Page sizes worth probing: all three while a huge entry is
    /// resident, otherwise only the base size.
    #[inline]
    fn probe_sizes(&self) -> &'static [PageSize] {
        &PROBE_SIZES[..if self.huge == 0 { 1 } else { 3 }]
    }

    /// Position `(set, way)` of the entry covering `va` in `asid`,
    /// probing sizes in order.
    #[inline]
    fn find(&self, asid: Asid, va: VirtAddr) -> Option<(usize, usize)> {
        self.probe_sizes().iter().find_map(|&size| {
            let vpn = Self::region_vpn(va, size);
            let set = self.set_index(vpn);
            let way = self.sets[set].iter().position(|e| e.is(asid, vpn, size))?;
            Some((set, way))
        })
    }

    /// Look up `va` for `asid`. On a hit, returns the mapping and
    /// refreshes its LRU stamp. The *caller* (the MMU) charges costs
    /// and counts hits/misses.
    #[inline]
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<(FrameNo, PageSize, PteFlags)> {
        self.tick += 1;
        let (set, way) = self.find(asid, va)?;
        let e = &mut self.sets[set][way];
        e.stamp = self.tick;
        Some((e.frame, e.size, e.flags))
    }

    /// Non-mutating probe: would [`lookup`](Self::lookup) hit, and
    /// with what? Probes the same size order but refreshes no LRU
    /// stamp, so the uniformity check of a fast-forwarded run is free
    /// of side effects.
    pub fn peek(&self, asid: Asid, va: VirtAddr) -> Option<(FrameNo, PageSize, PteFlags)> {
        let (set, way) = self.find(asid, va)?;
        let e = &self.sets[set][way];
        Some((e.frame, e.size, e.flags))
    }

    /// Advance the LRU clock by `n` ticks without touching any entry.
    ///
    /// [`lookup`](Self::lookup) ages the whole TLB even when it
    /// misses, so a fast-forwarded fault run — which proves its
    /// lookups would miss and skips them — must replay those ticks
    /// before each [`insert`](Self::insert) to leave stamps (and
    /// therefore future eviction victims) exactly where the
    /// interpreted run would have left them.
    pub fn advance_ticks(&mut self, n: u64) {
        self.tick += n;
    }

    /// Insert a translation, evicting the LRU way of the set if full.
    pub fn insert(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        frame: FrameNo,
        size: PageSize,
        flags: PteFlags,
    ) {
        self.tick += 1;
        let vpn = Self::region_vpn(va, size);
        let set = self.set_index(vpn);
        let entry = TlbEntry {
            asid,
            vpn,
            frame,
            size,
            flags,
            stamp: self.tick,
        };
        let assoc = self.assoc;
        let ways = &mut self.sets[set];
        if let Some(e) = ways.iter_mut().find(|e| e.is(asid, vpn, size)) {
            *e = entry;
            return;
        }
        self.huge += usize::from(size != PageSize::Base);
        if ways.len() < assoc {
            if ways.capacity() == 0 {
                ways.reserve_exact(assoc);
            }
            ways.push(entry);
            return;
        }
        // First minimum stamp wins, as in a front-to-back linear scan.
        // Selects rather than branches: which way is older is
        // unpredictable, so a branchy scan mispredicts.
        let (mut lru, mut oldest) = (0, ways[0].stamp);
        for (i, e) in ways.iter().enumerate().skip(1) {
            let older = e.stamp < oldest;
            lru = if older { i } else { lru };
            oldest = if older { e.stamp } else { oldest };
        }
        self.huge -= usize::from(ways[lru].size != PageSize::Base);
        ways[lru] = entry;
    }

    /// Invalidate the entry covering `va` in `asid` (INVLPG).
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr) {
        for &size in self.probe_sizes() {
            let vpn = Self::region_vpn(va, size);
            let set = self.set_index(vpn);
            if let Some(way) = self.sets[set].iter().position(|e| e.is(asid, vpn, size)) {
                self.sets[set].remove(way);
                self.huge -= usize::from(size != PageSize::Base);
            }
        }
    }

    /// Invalidate every entry belonging to `asid`.
    pub fn flush_asid(&mut self, asid: Asid) {
        let mut huge = 0;
        for set in &mut self.sets {
            set.retain(|e| e.asid != asid);
            huge += set.iter().filter(|e| e.size != PageSize::Base).count();
        }
        self.huge = huge;
    }

    /// Invalidate everything.
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.huge = 0;
    }
}

/// Outcome of one [`AsidAllocator::alloc`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsidGrant {
    /// The granted identifier.
    pub asid: Asid,
    /// True when the ASID was recycled from an earlier generation —
    /// PCID-style, the caller must flush every CPU's translation
    /// state for it before reuse, because entries tagged with the
    /// previous owner may still be resident.
    pub needs_flush: bool,
}

/// Generational ASID/PCID allocator.
///
/// ASIDs are handed out sequentially first (`1, 2, 3, …` — ASID 0 is
/// reserved, as hardware reserves PCID 0 for the kernel), so a fresh
/// machine reproduces the exact sequence the old one-shot allocator
/// produced. Only once the 16-bit namespace is exhausted does the
/// allocator *roll over* into the next generation and start recycling
/// freed ASIDs; every recycled grant is marked [`AsidGrant::needs_flush`]
/// so stale translations from the previous owner are shot down before
/// reuse. Allocation fails only when every non-reserved ASID is live
/// at once.
#[derive(Debug, Default, Clone)]
pub struct AsidAllocator {
    /// Next never-granted ASID; `u16::MAX as u32 + 1` = frontier spent.
    next: u32,
    /// ASIDs returned by [`free`](Self::free), recycled LIFO once the
    /// frontier is spent.
    free: Vec<Asid>,
    /// 0 while the never-used frontier lasts; 1 once recycling began.
    generation: u64,
    /// Currently-live grants.
    live: u32,
}

impl AsidAllocator {
    /// Every ASID unallocated, frontier at 1.
    pub fn new() -> AsidAllocator {
        AsidAllocator {
            next: 1,
            free: Vec::new(),
            generation: 0,
            live: 0,
        }
    }

    /// Grant an ASID, or `None` when all 65535 assignable ASIDs are
    /// live simultaneously.
    pub fn alloc(&mut self) -> Option<AsidGrant> {
        if self.next <= u32::from(u16::MAX) {
            let asid = Asid(self.next as u16);
            self.next += 1;
            self.live += 1;
            return Some(AsidGrant {
                asid,
                needs_flush: false,
            });
        }
        let asid = self.free.pop()?;
        if self.generation == 0 {
            self.generation = 1; // first rollover: recycling begins
        }
        self.live += 1;
        Some(AsidGrant {
            asid,
            needs_flush: true,
        })
    }

    /// Return `asid` to the pool. It becomes eligible for recycling
    /// at the next rollover, never before.
    pub fn free(&mut self, asid: Asid) {
        debug_assert!(self.live > 0, "free without a live grant");
        self.live = self.live.saturating_sub(1);
        self.free.push(asid);
    }

    /// Currently-live grants.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// 0 while grants still come from the never-used frontier; 1 once
    /// the namespace rolled over and recycling began.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HUGE_2M, PAGE_SIZE};

    const A: Asid = Asid(1);
    const B: Asid = Asid(2);

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x1000);
        assert!(tlb.lookup(A, va).is_none());
        tlb.insert(A, va, FrameNo(9), PageSize::Base, PteFlags::user_rw());
        let (f, s, _) = tlb.lookup(A, va).unwrap();
        assert_eq!(f, FrameNo(9));
        assert_eq!(s, PageSize::Base);
        // Different offset in the same page still hits.
        assert!(tlb.lookup(A, va + 123).is_some());
        // Different page misses.
        assert!(tlb.lookup(A, va + PAGE_SIZE).is_none());
    }

    #[test]
    fn asids_are_isolated() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x1000);
        tlb.insert(A, va, FrameNo(9), PageSize::Base, PteFlags::user_rw());
        assert!(tlb.lookup(B, va).is_none());
        tlb.flush_asid(A);
        assert!(tlb.lookup(A, va).is_none());
    }

    #[test]
    fn huge_entry_covers_whole_region() {
        let mut tlb = Tlb::default();
        let base = VirtAddr(HUGE_2M);
        tlb.insert(
            A,
            base + 0x1234,
            FrameNo(512),
            PageSize::Huge2M,
            PteFlags::user_ro(),
        );
        // Any address in the 2 MiB region hits the single entry.
        assert!(tlb.lookup(A, base).is_some());
        assert!(tlb.lookup(A, base + (HUGE_2M - 1)).is_some());
        assert!(tlb.lookup(A, base + HUGE_2M).is_none());
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways: third distinct page evicts the least recent.
        let mut tlb = Tlb::new(1, 2);
        let va = |i: u64| VirtAddr(i * PAGE_SIZE);
        tlb.insert(A, va(1), FrameNo(1), PageSize::Base, PteFlags::user_rw());
        tlb.insert(A, va(2), FrameNo(2), PageSize::Base, PteFlags::user_rw());
        // Touch page 1 so page 2 is LRU.
        assert!(tlb.lookup(A, va(1)).is_some());
        tlb.insert(A, va(3), FrameNo(3), PageSize::Base, PteFlags::user_rw());
        assert!(tlb.lookup(A, va(1)).is_some());
        assert!(tlb.lookup(A, va(2)).is_none(), "LRU way evicted");
        assert!(tlb.lookup(A, va(3)).is_some());
    }

    #[test]
    fn capacity_thrashing_misses() {
        // Working set larger than the TLB must keep missing.
        let mut tlb = Tlb::new(4, 2); // 8 entries
        let pages = 64u64;
        for i in 0..pages {
            tlb.insert(
                A,
                VirtAddr(i * PAGE_SIZE),
                FrameNo(i),
                PageSize::Base,
                PteFlags::user_rw(),
            );
        }
        let hits = (0..pages)
            .filter(|i| tlb.lookup(A, VirtAddr(i * PAGE_SIZE)).is_some())
            .count();
        assert!(hits <= 8, "only the resident tail can hit, got {hits}");
    }

    #[test]
    fn invalidate_single_page() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x3000);
        tlb.insert(A, va, FrameNo(5), PageSize::Base, PteFlags::user_rw());
        tlb.insert(
            A,
            va + PAGE_SIZE,
            FrameNo(6),
            PageSize::Base,
            PteFlags::user_rw(),
        );
        tlb.invalidate_page(A, va);
        assert!(tlb.lookup(A, va).is_none());
        assert!(tlb.lookup(A, va + PAGE_SIZE).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::default();
        let va = VirtAddr(0x1000);
        tlb.insert(A, va, FrameNo(1), PageSize::Base, PteFlags::user_ro());
        tlb.insert(A, va, FrameNo(1), PageSize::Base, PteFlags::user_rw());
        assert_eq!(tlb.occupancy(), 1);
        let (_, _, flags) = tlb.lookup(A, va).unwrap();
        assert!(flags.contains(PteFlags::WRITE));
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::default();
        for i in 0..32u64 {
            tlb.insert(
                A,
                VirtAddr(i * PAGE_SIZE),
                FrameNo(i),
                PageSize::Base,
                PteFlags::user_rw(),
            );
        }
        assert!(tlb.occupancy() > 0);
        tlb.flush_all();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn asid_allocation_is_sequential_first() {
        let mut a = AsidAllocator::new();
        for want in 1..=64u16 {
            let g = a.alloc().unwrap();
            assert_eq!(g.asid, Asid(want));
            assert!(!g.needs_flush, "frontier grants never need a flush");
        }
        assert_eq!(a.live(), 64);
        // Freeing does not change the sequence before rollover.
        a.free(Asid(3));
        a.free(Asid(7));
        assert_eq!(a.alloc().unwrap().asid, Asid(65));
        assert_eq!(a.generation(), 0);
    }

    #[test]
    fn asid_rollover_recycles_with_flush() {
        let mut a = AsidAllocator::new();
        for _ in 1..=u16::MAX {
            a.alloc().unwrap();
        }
        assert!(a.alloc().is_none(), "namespace fully live");
        a.free(Asid(100));
        a.free(Asid(200));
        let g = a.alloc().unwrap();
        assert_eq!(g.asid, Asid(200), "recycled LIFO");
        assert!(g.needs_flush, "recycled ASIDs must be flushed");
        assert_eq!(a.generation(), 1);
        let g = a.alloc().unwrap();
        assert_eq!(g.asid, Asid(100));
        assert!(g.needs_flush);
        assert!(a.alloc().is_none(), "live again at capacity");
        assert_eq!(a.live(), u32::from(u16::MAX));
    }
}
