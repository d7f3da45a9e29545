//! A modelled process address space with cost-accounted `mmap`/`mprotect`/
//! `munmap`/`madvise`.
//!
//! This is the substrate under every lifecycle experiment in the paper:
//! guard-page reservations (§2), `mprotect`-based heap growth (§6.1),
//! `madvise(MADV_DONTNEED)` teardown and its batching (§5.1, §6.3.1), and
//! address-space exhaustion (§6.3.2). Every operation advances a simulated
//! nanosecond clock according to [`OsCosts`] and updates VMA-level state so
//! that costs depend on real structure (number of mappings, resident pages,
//! reserved guard ranges) rather than being constants.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::costs::{pages, OsCosts, PAGE_SIZE};

/// Page protection bits for a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Prot {
    /// `PROT_NONE`: reserved address space with no access (guard regions).
    pub const NONE: Prot = Prot {
        read: false,
        write: false,
    };
    /// `PROT_READ | PROT_WRITE`.
    pub const READ_WRITE: Prot = Prot {
        read: true,
        write: true,
    };
    /// `PROT_READ`.
    pub const READ: Prot = Prot {
        read: true,
        write: false,
    };
}

/// A failed address-space operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// Not enough contiguous free virtual address space (`ENOMEM`).
    OutOfAddressSpace,
    /// The range is not page aligned (`EINVAL`).
    Unaligned,
    /// The range does not correspond to existing mappings (`ENOMEM`).
    NotMapped,
    /// An explicit placement collided with an existing mapping (`EEXIST`).
    Overlap,
    /// A zero-length range was supplied (`EINVAL`).
    ZeroLength,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfAddressSpace => f.write_str("out of virtual address space"),
            MemError::Unaligned => f.write_str("range not page aligned"),
            MemError::NotMapped => f.write_str("range not mapped"),
            MemError::Overlap => f.write_str("requested range overlaps existing mapping"),
            MemError::ZeroLength => f.write_str("zero-length range"),
        }
    }
}

impl Error for MemError {}

/// One virtual memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Vma {
    len: u64,
    prot: Prot,
    /// Pages actually faulted in (resident). `madvise(DONTNEED)` resets
    /// this to zero without touching the mapping itself.
    resident_pages: u64,
}

/// Running counters for the modelled OS layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OsStats {
    /// Number of syscalls issued (mmap + mprotect + munmap + madvise).
    pub syscalls: u64,
    /// mmap calls.
    pub mmaps: u64,
    /// mprotect calls.
    pub mprotects: u64,
    /// munmap calls.
    pub munmaps: u64,
    /// madvise calls.
    pub madvises: u64,
    /// TLB shootdowns performed.
    pub tlb_shootdowns: u64,
    /// Pages discarded by madvise/munmap.
    pub pages_discarded: u64,
}

/// A modelled process address space.
///
/// # Examples
///
/// ```
/// use hfi_mem::{AddressSpace, Prot};
///
/// let mut space = AddressSpace::new(47); // 128 TiB of user VA
/// // Reserve an 8 GiB Wasm slot (4 GiB heap + 4 GiB guard), no access:
/// let slot = space.mmap(8 << 30, Prot::NONE)?;
/// // Commit the first 64 KiB of heap:
/// space.mprotect(slot, 64 << 10, Prot::READ_WRITE)?;
/// assert!(space.elapsed_ns() > 0.0);
/// # Ok::<(), hfi_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    va_bits: u32,
    /// Start address → VMA.
    vmas: BTreeMap<u64, Vma>,
    costs: OsCosts,
    clock_ns: f64,
    stats: OsStats,
    /// Threads sharing this address space; >1 makes unmapping require TLB
    /// shootdowns.
    threads: u32,
    /// Lowest address handed out (we skip the canonical null/low region).
    floor: u64,
    /// Smallest length for which a complete first-fit search failed
    /// since the last `munmap` (`u64::MAX`: none). Inserts and splits
    /// only shrink or divide gaps, so every request at least this long
    /// still fails until a VMA is removed.
    no_gap_from: u64,
}

impl AddressSpace {
    /// Creates an address space with `va_bits` of user virtual addresses
    /// (47 for standard x86-64, 48/57 for large configurations) and default
    /// costs.
    pub fn new(va_bits: u32) -> Self {
        Self::with_costs(va_bits, OsCosts::default())
    }

    /// Creates an address space with explicit cost parameters.
    pub fn with_costs(va_bits: u32, costs: OsCosts) -> Self {
        assert!(
            (30..=57).contains(&va_bits),
            "va_bits out of modelled range"
        );
        Self {
            va_bits,
            vmas: BTreeMap::new(),
            costs,
            clock_ns: 0.0,
            stats: OsStats::default(),
            threads: 1,
            floor: 0x1_0000,
            no_gap_from: u64::MAX,
        }
    }

    /// Total user virtual address space in bytes.
    pub fn va_size(&self) -> u64 {
        1u64 << self.va_bits
    }

    /// Simulated time consumed by OS operations so far, in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Resets the simulated clock (for per-phase measurements).
    pub fn reset_clock(&mut self) {
        self.clock_ns = 0.0;
    }

    /// Operation counters.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Number of live VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Bytes of virtual address space currently reserved (all mappings).
    pub fn reserved_bytes(&self) -> u64 {
        self.vmas.values().map(|vma| vma.len).sum()
    }

    /// Resident (faulted-in) pages across all mappings.
    pub fn resident_pages(&self) -> u64 {
        self.vmas.values().map(|vma| vma.resident_pages).sum()
    }

    /// Sets the number of threads sharing the space (affects shootdowns).
    pub fn set_threads(&mut self, threads: u32) {
        self.threads = threads.max(1);
    }

    fn charge(&mut self, ns: f64) {
        self.clock_ns += ns;
    }

    fn charge_syscall(&mut self) {
        self.stats.syscalls += 1;
        self.charge(self.costs.syscall_base_ns);
    }

    /// VMA maintenance cost: a split/merge plus rb-tree work that grows
    /// with the mapping count (log factor).
    fn vma_maintenance_ns(&self) -> f64 {
        let n = self.vmas.len().max(2) as f64;
        self.costs.vma_op_ns * n.log2()
    }

    fn maybe_shootdown(&mut self) {
        if self.threads > 1 {
            self.stats.tlb_shootdowns += 1;
            self.charge(self.costs.tlb_shootdown_ns * (self.threads - 1) as f64);
        }
    }

    /// Finds a free gap of `len` bytes. Fast path: bump-allocate past the
    /// highest live mapping (O(log n)), so filling a fresh space costs
    /// O(n log n). Only when the top of the address space is exhausted
    /// does it fall back to a first-fit scan of the gaps left by
    /// unmapping, O(n) per call. A scan that fails is remembered: until
    /// an `munmap` frees space, any request at least that long is refused
    /// in O(1), so a full space answers the repeated same-size requests
    /// of a serving loop at capacity (§6.3.2) without rescanning. A
    /// failure at a new, smaller size, or the first after an `munmap`,
    /// scans again.
    fn find_gap(&mut self, len: u64) -> Option<u64> {
        if len >= self.no_gap_from {
            return None;
        }
        let gap = self.first_fit(len);
        if gap.is_none() {
            self.no_gap_from = len;
        }
        gap
    }

    /// The full search behind [`find_gap`](Self::find_gap): bump past
    /// the top mapping, else the lowest gap that fits.
    fn first_fit(&self, len: u64) -> Option<u64> {
        let top = self
            .vmas
            .iter()
            .next_back()
            .map(|(&start, vma)| start + vma.len)
            .unwrap_or(self.floor)
            .max(self.floor);
        if self.va_size() > top && self.va_size() - top >= len {
            return Some(top);
        }
        let mut cursor = self.floor;
        for (&start, vma) in &self.vmas {
            if start >= cursor && start - cursor >= len {
                return Some(cursor);
            }
            cursor = cursor.max(start + vma.len);
        }
        if self.va_size() > cursor && self.va_size() - cursor >= len {
            Some(cursor)
        } else {
            None
        }
    }

    fn overlaps(&self, addr: u64, len: u64) -> bool {
        // Any VMA starting before addr+len whose end exceeds addr.
        self.vmas
            .range(..addr + len)
            .next_back()
            .is_some_and(|(&start, vma)| start + vma.len > addr)
    }

    /// `mmap(NULL, len, prot, MAP_ANONYMOUS, ...)`: reserves `len` bytes at
    /// a kernel-chosen address and returns it.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfAddressSpace`] when no gap fits, reproducing the
    /// exhaustion arithmetic of §2/§6.3.2; [`MemError::ZeroLength`] or
    /// [`MemError::Unaligned`] for invalid arguments.
    pub fn mmap(&mut self, len: u64, prot: Prot) -> Result<u64, MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        self.charge_syscall();
        self.stats.mmaps += 1;
        let addr = self.find_gap(len).ok_or(MemError::OutOfAddressSpace)?;
        self.charge(self.vma_maintenance_ns());
        self.vmas.insert(
            addr,
            Vma {
                len,
                prot,
                resident_pages: 0,
            },
        );
        Ok(addr)
    }

    /// `mmap(addr, ..., MAP_FIXED_NOREPLACE)`: reserves at a caller-chosen
    /// address.
    ///
    /// # Errors
    ///
    /// [`MemError::Overlap`] if the range collides with a live mapping,
    /// plus the argument errors of [`mmap`](Self::mmap).
    pub fn mmap_fixed(&mut self, addr: u64, len: u64, prot: Prot) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !len.is_multiple_of(PAGE_SIZE) || !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        if addr + len > self.va_size() {
            return Err(MemError::OutOfAddressSpace);
        }
        self.charge_syscall();
        self.stats.mmaps += 1;
        if self.overlaps(addr, len) {
            return Err(MemError::Overlap);
        }
        self.charge(self.vma_maintenance_ns());
        self.vmas.insert(
            addr,
            Vma {
                len,
                prot,
                resident_pages: 0,
            },
        );
        Ok(())
    }

    /// Splits VMAs so that `addr` and `addr + len` fall on VMA edges.
    /// Returns an error if any part of the range is unmapped.
    fn split_at(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        // Split the VMA containing addr.
        if let Some((&start, &vma)) = self.vmas.range(..=addr).next_back() {
            if start < addr && start + vma.len > addr {
                let head_len = addr - start;
                self.vmas.insert(
                    start,
                    Vma {
                        len: head_len,
                        prot: vma.prot,
                        resident_pages: vma.resident_pages.min(pages(head_len)),
                    },
                );
                self.vmas.insert(
                    addr,
                    Vma {
                        len: vma.len - head_len,
                        prot: vma.prot,
                        resident_pages: vma.resident_pages.saturating_sub(pages(head_len)),
                    },
                );
            }
        }
        let end = addr + len;
        if let Some((&start, &vma)) = self.vmas.range(..end).next_back() {
            if start < end && start + vma.len > end {
                let head_len = end - start;
                self.vmas.insert(
                    start,
                    Vma {
                        len: head_len,
                        prot: vma.prot,
                        resident_pages: vma.resident_pages.min(pages(head_len)),
                    },
                );
                self.vmas.insert(
                    end,
                    Vma {
                        len: vma.len - head_len,
                        prot: vma.prot,
                        resident_pages: vma.resident_pages.saturating_sub(pages(head_len)),
                    },
                );
            }
        }
        // Verify full coverage.
        let mut cursor = addr;
        for (&start, vma) in self.vmas.range(addr..end) {
            if start != cursor {
                return Err(MemError::NotMapped);
            }
            cursor = start + vma.len;
        }
        if cursor < end {
            return Err(MemError::NotMapped);
        }
        Ok(())
    }

    /// `mprotect(addr, len, prot)`: changes permissions; used by Wasm
    /// runtimes to grow heaps inside a guard reservation (§2, §6.1).
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if the range is not fully mapped, or the
    /// argument errors of [`mmap`](Self::mmap).
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !len.is_multiple_of(PAGE_SIZE) || !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        self.charge_syscall();
        self.stats.mprotects += 1;
        self.split_at(addr, len)?;
        self.charge(self.vma_maintenance_ns());
        let end = addr + len;
        let mut reducing = false;
        let starts: Vec<u64> = self.vmas.range(addr..end).map(|(&s, _)| s).collect();
        for start in starts {
            let vma = self.vmas.get_mut(&start).expect("split ensured presence");
            if (vma.prot.write && !prot.write) || (vma.prot.read && !prot.read) {
                reducing = true;
            }
            vma.prot = prot;
        }
        self.charge(self.costs.page_protect_ns * pages(len) as f64);
        if reducing {
            // Dropping permissions requires remote TLB invalidation.
            self.maybe_shootdown();
        }
        Ok(())
    }

    /// `madvise(addr, len, MADV_DONTNEED)`: discards resident pages but
    /// keeps the mapping. Walking reserved (guard) ranges is charged at
    /// [`OsCosts::reserved_walk_ns_per_gib`] — the cost HFI's guard elision
    /// removes from batched teardown (§5.1, §6.3.1).
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if the range is not fully mapped, or the
    /// argument errors of [`mmap`](Self::mmap).
    pub fn madvise_dontneed(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !len.is_multiple_of(PAGE_SIZE) || !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        self.charge_syscall();
        self.stats.madvises += 1;
        self.split_at(addr, len)?;
        let end = addr + len;
        let mut discarded = 0u64;
        let mut reserved_bytes = 0u64;
        let starts: Vec<u64> = self.vmas.range(addr..end).map(|(&s, _)| s).collect();
        for start in starts {
            let vma = self.vmas.get_mut(&start).expect("split ensured presence");
            if vma.prot == Prot::NONE {
                reserved_bytes += vma.len;
            }
            discarded += vma.resident_pages;
            vma.resident_pages = 0;
        }
        self.stats.pages_discarded += discarded;
        self.charge(self.costs.page_discard_ns * discarded as f64);
        self.charge(
            self.costs.reserved_walk_ns_per_gib * reserved_bytes as f64 / (1u64 << 30) as f64,
        );
        if discarded > 0 {
            self.maybe_shootdown();
        }
        Ok(())
    }

    /// `munmap(addr, len)`: removes mappings.
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if the range is not fully mapped, or the
    /// argument errors of [`mmap`](Self::mmap).
    pub fn munmap(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !len.is_multiple_of(PAGE_SIZE) || !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        self.charge_syscall();
        self.stats.munmaps += 1;
        self.split_at(addr, len)?;
        self.no_gap_from = u64::MAX;
        self.charge(self.vma_maintenance_ns());
        let end = addr + len;
        let starts: Vec<u64> = self.vmas.range(addr..end).map(|(&s, _)| s).collect();
        let mut discarded = 0;
        for start in starts {
            let vma = self.vmas.remove(&start).expect("split ensured presence");
            discarded += vma.resident_pages;
        }
        self.stats.pages_discarded += discarded;
        self.charge(self.costs.page_discard_ns * discarded as f64);
        self.maybe_shootdown();
        Ok(())
    }

    /// Simulates the application touching (faulting in) `len` bytes at
    /// `addr`: demand-paging cost, resident-page accounting.
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if the range is not fully mapped with access.
    pub fn touch(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let first_page = addr / PAGE_SIZE * PAGE_SIZE;
        let span = addr + len - first_page;
        self.split_at(first_page, pages(span) * PAGE_SIZE)?;
        let end = first_page + pages(span) * PAGE_SIZE;
        let starts: Vec<u64> = self.vmas.range(first_page..end).map(|(&s, _)| s).collect();
        let mut faulted = 0u64;
        for start in starts {
            let vma = self.vmas.get_mut(&start).expect("split ensured presence");
            if !vma.prot.read && !vma.prot.write {
                return Err(MemError::NotMapped);
            }
            let vma_pages = pages(vma.len);
            let newly = vma_pages.saturating_sub(vma.resident_pages);
            faulted += newly;
            vma.resident_pages = vma_pages;
        }
        self.charge(self.costs.page_fault_ns * faulted as f64);
        Ok(())
    }

    /// Protection of the page containing `addr`, if mapped.
    pub fn prot_at(&self, addr: u64) -> Option<Prot> {
        let (&start, vma) = self.vmas.range(..=addr).next_back()?;
        if start + vma.len > addr {
            Some(vma.prot)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn mmap_returns_disjoint_ranges() {
        let mut space = AddressSpace::new(40);
        let a = space.mmap(8 * GIB, Prot::NONE).unwrap();
        let b = space.mmap(8 * GIB, Prot::NONE).unwrap();
        assert!(a + 8 * GIB <= b || b + 8 * GIB <= a);
    }

    #[test]
    fn address_space_exhaustion() {
        // 2^40 = 1 TiB space: 128 reservations of 8 GiB fill it.
        let mut space = AddressSpace::new(40);
        let mut count = 0;
        while space.mmap(8 * GIB, Prot::NONE).is_ok() {
            count += 1;
        }
        // The floor steals a little below 64 KiB, so 127 full slots fit.
        assert!(count == 127 || count == 128, "count={count}");
    }

    #[test]
    fn mprotect_splits_vmas() {
        let mut space = AddressSpace::new(40);
        let base = space.mmap(8 * GIB, Prot::NONE).unwrap();
        space.mprotect(base, 64 << 10, Prot::READ_WRITE).unwrap();
        assert_eq!(space.vma_count(), 2);
        assert_eq!(space.prot_at(base), Some(Prot::READ_WRITE));
        assert_eq!(space.prot_at(base + (64 << 10)), Some(Prot::NONE));
    }

    #[test]
    fn mprotect_unmapped_fails() {
        let mut space = AddressSpace::new(40);
        assert_eq!(
            space.mprotect(0x10_0000, PAGE_SIZE, Prot::READ),
            Err(MemError::NotMapped)
        );
    }

    #[test]
    fn munmap_subrange() {
        let mut space = AddressSpace::new(40);
        let base = space.mmap(16 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        space.munmap(base + 4 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        assert_eq!(space.prot_at(base), Some(Prot::READ_WRITE));
        assert_eq!(space.prot_at(base + 5 * PAGE_SIZE), None);
        assert_eq!(space.prot_at(base + 8 * PAGE_SIZE), Some(Prot::READ_WRITE));
    }

    #[test]
    fn touch_and_discard_accounting() {
        let mut space = AddressSpace::new(40);
        let base = space.mmap(GIB, Prot::READ_WRITE).unwrap();
        space.touch(base, 1 << 20).unwrap();
        assert_eq!(space.resident_pages(), 256);
        space.madvise_dontneed(base, GIB).unwrap();
        assert_eq!(space.resident_pages(), 0);
        assert_eq!(space.stats().pages_discarded, 256);
    }

    #[test]
    fn touch_protnone_fails() {
        let mut space = AddressSpace::new(40);
        let base = space.mmap(1 << 20, Prot::NONE).unwrap();
        assert_eq!(space.touch(base, 8), Err(MemError::NotMapped));
    }

    #[test]
    fn madvise_over_guards_costs_more_than_heap_only() {
        // The §6.3.1 effect in miniature: discarding across guard
        // reservations is strictly slower than the same discard without.
        let costs = OsCosts::default();
        let mut with_guards = AddressSpace::with_costs(44, costs);
        let heap = with_guards.mmap(2 << 20, Prot::READ_WRITE).unwrap();
        let _guard = with_guards.mmap(8 * GIB, Prot::NONE).unwrap();
        with_guards.touch(heap, 2 << 20).unwrap();
        with_guards.reset_clock();
        with_guards.madvise_dontneed(heap, 2 << 20).unwrap();
        let heap_only = with_guards.elapsed_ns();
        with_guards.touch(heap, 2 << 20).unwrap();
        with_guards.reset_clock();
        // One batched call across heap + guard.
        with_guards
            .madvise_dontneed(heap, (2 << 20) + 8 * GIB)
            .unwrap();
        let with_guard_walk = with_guards.elapsed_ns();
        assert!(with_guard_walk > heap_only);
    }

    #[test]
    fn shootdowns_only_with_threads() {
        let mut space = AddressSpace::new(40);
        let base = space.mmap(1 << 20, Prot::READ_WRITE).unwrap();
        space.munmap(base, 1 << 20).unwrap();
        assert_eq!(space.stats().tlb_shootdowns, 0);

        let mut threaded = AddressSpace::new(40);
        threaded.set_threads(4);
        let base = threaded.mmap(1 << 20, Prot::READ_WRITE).unwrap();
        threaded.munmap(base, 1 << 20).unwrap();
        assert_eq!(threaded.stats().tlb_shootdowns, 1);
    }

    #[test]
    fn mmap_fixed_detects_overlap() {
        let mut space = AddressSpace::new(40);
        space
            .mmap_fixed(0x100_0000, 1 << 20, Prot::READ_WRITE)
            .unwrap();
        assert_eq!(
            space.mmap_fixed(0x100_0000 + (1 << 19), 1 << 20, Prot::NONE),
            Err(MemError::Overlap)
        );
    }

    /// The first-fit search as it stood before the failed-gap memo,
    /// verbatim: the reference the memoized `find_gap` must agree with.
    fn reference_gap(space: &AddressSpace, len: u64) -> Option<u64> {
        let top = space
            .vmas
            .iter()
            .next_back()
            .map(|(&start, vma)| start + vma.len)
            .unwrap_or(space.floor)
            .max(space.floor);
        if space.va_size() > top && space.va_size() - top >= len {
            return Some(top);
        }
        let mut cursor = space.floor;
        for (&start, vma) in &space.vmas {
            if start >= cursor && start - cursor >= len {
                return Some(cursor);
            }
            cursor = cursor.max(start + vma.len);
        }
        if space.va_size() > cursor && space.va_size() - cursor >= len {
            Some(cursor)
        } else {
            None
        }
    }

    #[test]
    fn gap_memo_agrees_with_a_full_scan_on_random_op_sequences() {
        // A 1 GiB space and reservations of 4 KiB to 64 MiB: the space
        // fills again and again, so failures at many sizes mix with
        // frees, partial unmaps, fixed placements and splits.
        // `scanning` runs the same ops with its memo cleared before each
        // one, so every mmap there is a complete first-fit search.
        let mut remembered = 0;
        for seed in 0..24 {
            let mut rng = hfi_util::Rng::new(seed);
            let mut space = AddressSpace::new(30);
            let mut scanning = AddressSpace::new(30);
            let mut reservations: Vec<(u64, u64)> = Vec::new();
            let mut refused = 0;
            for step in 0..1500 {
                // Log-uniform page counts: failures at many distinct
                // sizes, including sizes one page apart.
                let magnitude = 1 << rng.below(15);
                let len = (magnitude - rng.below(magnitude.max(2) / 2)) * PAGE_SIZE;
                scanning.no_gap_from = u64::MAX;
                let picked = (!reservations.is_empty())
                    .then(|| rng.below(reservations.len() as u64) as usize);
                match (rng.below(8), picked) {
                    (0..=3, _) | (_, None) => {
                        let expected =
                            reference_gap(&space, len).ok_or(MemError::OutOfAddressSpace);
                        if len >= space.no_gap_from {
                            remembered += 1;
                        }
                        assert_eq!(
                            space.mmap(len, Prot::NONE),
                            expected,
                            "seed {seed} step {step}"
                        );
                        assert_eq!(scanning.mmap(len, Prot::NONE), expected);
                        match expected {
                            Ok(addr) => reservations.push((addr, len)),
                            Err(_) => refused += 1,
                        }
                    }
                    (4, _) => {
                        let addr = rng.below(space.va_size() / PAGE_SIZE) * PAGE_SIZE;
                        let got = space.mmap_fixed(addr, len, Prot::READ_WRITE);
                        assert_eq!(scanning.mmap_fixed(addr, len, Prot::READ_WRITE), got);
                        if got.is_ok() {
                            reservations.push((addr, len));
                        }
                    }
                    (5, Some(i)) => {
                        let (base, len) = reservations[i];
                        let off = rng.below(len / PAGE_SIZE) * PAGE_SIZE;
                        let sub = (1 + rng.below((len - off) / PAGE_SIZE)) * PAGE_SIZE;
                        let prot = *rng.pick(&[Prot::NONE, Prot::READ, Prot::READ_WRITE]);
                        let got = space.mprotect(base + off, sub, prot);
                        assert_eq!(scanning.mprotect(base + off, sub, prot), got);
                    }
                    (_, Some(i)) => {
                        // Half the time free the whole reservation, else
                        // punch a hole (later ops on it may see NotMapped).
                        let (base, len) = reservations[i];
                        let (off, sub) = if rng.bool() {
                            reservations.swap_remove(i);
                            (0, len)
                        } else {
                            let off = rng.below(len / PAGE_SIZE) * PAGE_SIZE;
                            (off, (1 + rng.below((len - off) / PAGE_SIZE)) * PAGE_SIZE)
                        };
                        let got = space.munmap(base + off, sub);
                        assert_eq!(scanning.munmap(base + off, sub), got);
                    }
                }
                assert_eq!(space.vmas, scanning.vmas, "seed {seed} step {step}");
                assert_eq!(space.stats(), scanning.stats(), "seed {seed} step {step}");
                assert_eq!(
                    space.elapsed_ns().to_bits(),
                    scanning.elapsed_ns().to_bits(),
                    "seed {seed} step {step}"
                );
            }
            assert!(refused > 0, "seed {seed}: the space never filled");
        }
        assert!(
            remembered > 100,
            "the memo answered only {remembered} mmaps"
        );
    }

    #[test]
    fn a_full_space_refuses_until_munmap_frees_an_interior_gap() {
        let slot = 64 << 20;
        let mut space = AddressSpace::new(30);
        let mut bases = Vec::new();
        while let Ok(base) = space.mmap(slot, Prot::NONE) {
            bases.push(base);
        }
        assert!(bases.len() >= 3, "{bases:?}");

        // A remembered failure still costs its syscall and counts.
        let (stats, clock) = (space.stats(), space.elapsed_ns());
        assert_eq!(
            space.mmap(slot, Prot::NONE),
            Err(MemError::OutOfAddressSpace)
        );
        assert_eq!(space.stats().mmaps, stats.mmaps + 1);
        assert_eq!(space.stats().syscalls, stats.syscalls + 1);
        assert_eq!(space.elapsed_ns(), clock + space.costs.syscall_base_ns);

        let freed = bases[bases.len() / 2];
        space.munmap(freed, slot).unwrap();
        assert_eq!(
            space.mmap(2 * slot, Prot::NONE),
            Err(MemError::OutOfAddressSpace)
        );
        assert_eq!(space.mmap(slot, Prot::NONE), Ok(freed));
        assert_eq!(
            space.mmap(slot, Prot::NONE),
            Err(MemError::OutOfAddressSpace)
        );

        // A gap one page short of a remembered failure still serves a
        // request that fits it.
        space.munmap(freed + PAGE_SIZE, slot - PAGE_SIZE).unwrap();
        assert_eq!(
            space.mmap(slot, Prot::NONE),
            Err(MemError::OutOfAddressSpace)
        );
        assert_eq!(
            space.mmap(slot - PAGE_SIZE, Prot::NONE),
            Ok(freed + PAGE_SIZE)
        );
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut space = AddressSpace::new(40);
        let t0 = space.elapsed_ns();
        let base = space.mmap(1 << 20, Prot::READ_WRITE).unwrap();
        let t1 = space.elapsed_ns();
        assert!(t1 > t0);
        space.mprotect(base, PAGE_SIZE, Prot::READ).unwrap();
        assert!(space.elapsed_ns() > t1);
    }
}
