//! The Wasm sandbox runtime: lifecycle operations over the modelled
//! address space.
//!
//! This is the `hfi-mem`-backed half of the reproduction — where guard
//! reservations, `mprotect` heap growth, and `madvise` teardown live, and
//! where HFI's lifecycle optimizations (§5.1, §6.1, §6.3) are implemented:
//!
//! * **Growth**: guard-page and bounds-check sandboxes grow with
//!   `mprotect` (a syscall whose cost balloons as the reservation
//!   fragments); HFI grows by updating a region register — a few cycles.
//! * **Teardown**: stock runtimes `madvise(MADV_DONTNEED)` each sandbox;
//!   HFI lets the runtime *elide guard pages*, so adjacent heaps can be
//!   discarded with one batched call (§5.1), and the address space holds
//!   vastly more sandboxes (§6.3.2).

use hfi_core::region::ExplicitDataRegion;
use hfi_core::{CostModel, HfiContext, Region, RegionError};
use hfi_mem::{AddressSpace, MemError, Prot};

use crate::compiler::Isolation;

/// A Wasm page is 64 KiB (heap growth granularity; also HFI's large-region
/// grain — not a coincidence, per paper §3.2).
pub const WASM_PAGE: u64 = 64 << 10;

/// The 4 GiB + 4 GiB guard reservation stock Wasm uses per memory (§2).
pub const GUARD_RESERVATION: u64 = 8 << 30;

/// CPU frequency used to convert cycle costs into simulated nanoseconds.
pub const CPU_GHZ: f64 = 3.3;

/// Identifier of a live sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SandboxId(pub usize);

/// Why a runtime operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The address space could not satisfy a reservation.
    Mem(MemError),
    /// A region constraint was violated (HFI backend).
    Region(RegionError),
    /// The sandbox id is unknown or already destroyed.
    NoSuchSandbox,
    /// Growth would exceed the sandbox's maximum heap.
    HeapLimit,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Mem(e) => write!(f, "address space: {e}"),
            RuntimeError::Region(e) => write!(f, "region: {e}"),
            RuntimeError::NoSuchSandbox => f.write_str("no such sandbox"),
            RuntimeError::HeapLimit => f.write_str("heap limit exceeded"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<MemError> for RuntimeError {
    fn from(e: MemError) -> Self {
        RuntimeError::Mem(e)
    }
}

impl From<RegionError> for RuntimeError {
    fn from(e: RegionError) -> Self {
        RuntimeError::Region(e)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    base: u64,
    reserved: u64,
    pages: u64,
    max_pages: u64,
    live: bool,
    /// Pages at teardown time, for deferred (batched) discards.
    pending_discard: bool,
}

/// A multi-sandbox Wasm runtime over one process address space.
#[derive(Debug)]
pub struct SandboxRuntime {
    isolation: Isolation,
    space: AddressSpace,
    slots: Vec<Slot>,
    /// Slots with `live` set, kept at create and teardown so residency
    /// queries never walk `slots`.
    live: usize,
    costs: CostModel,
    /// HFI register state used for region updates (one active sandbox at
    /// a time, multiplexed — HFI keeps on-chip state constant, §3).
    hfi: HfiContext,
    /// Extra simulated nanoseconds from HFI instruction costs.
    hfi_ns: f64,
    max_pages_default: u64,
}

/// Runtime bookkeeping per `memory_grow` regardless of backend: the call
/// into the runtime, limit checks, instance-table updates. Wasmtime's
/// measured HFI-side grow cost (370 ms / 65,535 grows ≈ 5.6 µs, §6.1) is
/// almost entirely this.
const GROW_BOOKKEEPING_NS: f64 = 5_600.0;

impl SandboxRuntime {
    /// A runtime with `va_bits` of address space under `isolation`.
    pub fn new(isolation: Isolation, va_bits: u32) -> Self {
        Self {
            isolation,
            space: AddressSpace::new(va_bits),
            slots: Vec::new(),
            live: 0,
            costs: CostModel::default(),
            hfi: HfiContext::new(),
            hfi_ns: 0.0,
            max_pages_default: (4u64 << 30) / WASM_PAGE,
        }
    }

    /// Caps every new sandbox's maximum heap (in bytes).
    pub fn set_max_heap(&mut self, bytes: u64) {
        self.max_pages_default = bytes / WASM_PAGE;
    }

    /// The backing address space (for inspection).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Simulated time consumed so far (OS + HFI), nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.space.elapsed_ns() + self.hfi_ns
    }

    /// Resets the simulated clock.
    pub fn reset_clock(&mut self) {
        self.space.reset_clock();
        self.hfi_ns = 0.0;
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.hfi_ns += cycles as f64 / CPU_GHZ;
    }

    /// Creates a sandbox with `initial_pages` of heap.
    ///
    /// Reservation size depends on the backend: guard pages reserve
    /// 8 GiB; bounds checks reserve the 4 GiB max heap (no guard); HFI
    /// reserves only the maximum heap, mapped read-write up front —
    /// access control comes from the region registers, not the MMU.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Mem`] when the address space is exhausted — the
    /// §6.3.2 scaling limit.
    pub fn create_sandbox(&mut self, initial_pages: u64) -> Result<SandboxId, RuntimeError> {
        let max_pages = self.max_pages_default;
        let max_bytes = max_pages * WASM_PAGE;
        let (base, reserved) = match self.isolation {
            Isolation::GuardPages => {
                let base = self.space.mmap(GUARD_RESERVATION, Prot::NONE)?;
                self.space
                    .mprotect(base, initial_pages * WASM_PAGE, Prot::READ_WRITE)?;
                (base, GUARD_RESERVATION)
            }
            Isolation::BoundsChecks | Isolation::None => {
                let base = self.space.mmap(max_bytes, Prot::NONE)?;
                self.space
                    .mprotect(base, initial_pages * WASM_PAGE, Prot::READ_WRITE)?;
                (base, max_bytes)
            }
            Isolation::Hfi => {
                let base = self.space.mmap(max_bytes, Prot::READ_WRITE)?;
                // Install the heap region: a few cycles of hfi_set_region.
                let region =
                    ExplicitDataRegion::large(base, initial_pages.max(1) * WASM_PAGE, true, true)?;
                self.hfi
                    .set_region(6, Region::Explicit(region))
                    .expect("runtime is outside any native sandbox");
                self.charge_cycles(self.costs.set_region_cycles);
                (base, max_bytes)
            }
        };
        let id = SandboxId(self.slots.len());
        self.slots.push(Slot {
            base,
            reserved,
            pages: initial_pages,
            max_pages,
            live: true,
            pending_discard: false,
        });
        self.live += 1;
        Ok(id)
    }

    fn slot(&self, id: SandboxId) -> Result<&Slot, RuntimeError> {
        match self.slots.get(id.0) {
            Some(slot) if slot.live => Ok(slot),
            _ => Err(RuntimeError::NoSuchSandbox),
        }
    }

    /// Heap base address of a sandbox.
    pub fn heap_base(&self, id: SandboxId) -> Result<u64, RuntimeError> {
        Ok(self.slot(id)?.base)
    }

    /// Current heap size in Wasm pages.
    pub fn heap_pages(&self, id: SandboxId) -> Result<u64, RuntimeError> {
        Ok(self.slot(id)?.pages)
    }

    /// `memory_grow`: extends the heap by `delta_pages` (§6.1's contrast:
    /// `mprotect` vs. a region-register update).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::HeapLimit`] past the maximum heap, or address-space
    /// errors from the backing `mprotect`.
    pub fn grow(&mut self, id: SandboxId, delta_pages: u64) -> Result<u64, RuntimeError> {
        self.hfi_ns += GROW_BOOKKEEPING_NS;
        let slot = self.slot(id)?.clone();
        let new_pages = slot.pages + delta_pages;
        if new_pages > slot.max_pages {
            return Err(RuntimeError::HeapLimit);
        }
        match self.isolation {
            Isolation::GuardPages | Isolation::BoundsChecks | Isolation::None => {
                self.space.mprotect(
                    slot.base + slot.pages * WASM_PAGE,
                    delta_pages * WASM_PAGE,
                    Prot::READ_WRITE,
                )?;
            }
            Isolation::Hfi => {
                let region =
                    ExplicitDataRegion::large(slot.base, new_pages * WASM_PAGE, true, true)?;
                self.hfi
                    .set_region(6, Region::Explicit(region))
                    .expect("runtime is outside any native sandbox");
                self.charge_cycles(self.costs.set_region_cycles);
            }
        }
        self.slots[id.0].pages = new_pages;
        Ok(slot.pages)
    }

    /// Simulates the guest touching its heap (demand paging).
    ///
    /// # Errors
    ///
    /// Propagates address-space errors (e.g. touching unmapped memory).
    pub fn touch_heap(&mut self, id: SandboxId, bytes: u64) -> Result<(), RuntimeError> {
        let slot = self.slot(id)?.clone();
        self.space
            .touch(slot.base, bytes.min(slot.pages * WASM_PAGE))?;
        Ok(())
    }

    /// Stock teardown: one `madvise(MADV_DONTNEED)` per sandbox. Because
    /// the runtime knows each sandbox's accessible heap, the per-sandbox
    /// call covers only the heap — guards are skipped. (Batching loses
    /// exactly this precision unless HFI has elided the guards, §5.1.)
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchSandbox`] for a dead id.
    pub fn teardown(&mut self, id: SandboxId) -> Result<(), RuntimeError> {
        let slot = self.slot(id)?.clone();
        self.space
            .madvise_dontneed(slot.base, (slot.pages * WASM_PAGE).max(WASM_PAGE))?;
        self.slots[id.0].live = false;
        self.live -= 1;
        Ok(())
    }

    /// Marks a sandbox dead without discarding memory yet (the batched
    /// policy of §5.1: defer, then discard many at once).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchSandbox`] for a dead id.
    pub fn teardown_deferred(&mut self, id: SandboxId) -> Result<(), RuntimeError> {
        self.slot(id)?;
        self.slots[id.0].live = false;
        self.slots[id.0].pending_discard = true;
        self.live -= 1;
        Ok(())
    }

    /// Discards all pending sandboxes with the fewest possible `madvise`
    /// calls: *contiguous* pending reservations coalesce into one call.
    /// With guard pages the coalesced spans include the (useless) guard
    /// regions — the cost §6.3.1's "batching without HFI" pays; with HFI
    /// the heaps are adjacent and the span is pure heap.
    ///
    /// Returns the number of `madvise` calls issued.
    ///
    /// # Errors
    ///
    /// Propagates address-space errors.
    pub fn flush_teardowns(&mut self) -> Result<usize, RuntimeError> {
        let mut pending: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|slot| slot.pending_discard)
            .map(|slot| (slot.base, slot.reserved))
            .collect();
        pending.sort_unstable();
        let mut calls = 0;
        let mut run: Option<(u64, u64)> = None;
        for (base, len) in pending {
            match run {
                Some((start, end)) if end == base => run = Some((start, base + len)),
                Some((start, end)) => {
                    self.space.madvise_dontneed(start, end - start)?;
                    calls += 1;
                    run = Some((base, base + len));
                    let _ = start;
                }
                None => run = Some((base, base + len)),
            }
        }
        if let Some((start, end)) = run {
            self.space.madvise_dontneed(start, end - start)?;
            calls += 1;
        }
        for slot in &mut self.slots {
            slot.pending_discard = false;
        }
        Ok(calls)
    }

    /// Number of live sandboxes.
    pub fn live_count(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hfi_growth_is_orders_of_magnitude_cheaper() {
        // §6.1: growing 1 page → 4 GiB in 64 KiB steps: mprotect 10.92 s
        // vs. HFI 370 ms (~30×). Check the shape at a smaller scale.
        let grow_all = |isolation: Isolation| -> f64 {
            let mut rt = SandboxRuntime::new(isolation, 47);
            let id = rt.create_sandbox(1).expect("create");
            rt.reset_clock();
            for _ in 0..1024 {
                rt.grow(id, 1).expect("grow");
            }
            rt.elapsed_ns()
        };
        let mprotect_ns = grow_all(Isolation::GuardPages);
        let hfi_ns = grow_all(Isolation::Hfi);
        let ratio = mprotect_ns / hfi_ns;
        assert!(ratio > 10.0, "expected ≫10x, got {ratio:.1}x");
    }

    #[test]
    fn guard_pages_exhaust_address_space_first() {
        // §2: a 47-bit space fits at most 16K 8 GiB reservations.
        let mut guard = SandboxRuntime::new(Isolation::GuardPages, 40); // small space for test speed
        let mut count = 0;
        while guard.create_sandbox(1).is_ok() {
            count += 1;
        }
        // 2^40 / 8 GiB = 128.
        assert!((126..=128).contains(&count), "guard count {count}");

        let mut hfi = SandboxRuntime::new(Isolation::Hfi, 40);
        hfi.set_max_heap(1 << 30);
        let mut hfi_count = 0;
        while hfi.create_sandbox(1).is_ok() {
            hfi_count += 1;
        }
        // 2^40 / 1 GiB = 1024 — 8x more sandboxes.
        assert!(hfi_count >= 1020, "hfi count {hfi_count}");
    }

    #[test]
    fn batched_teardown_coalesces_adjacent_heaps() {
        let mut rt = SandboxRuntime::new(Isolation::Hfi, 44);
        rt.set_max_heap(1 << 20);
        let ids: Vec<_> = (0..32)
            .map(|_| rt.create_sandbox(16).expect("create"))
            .collect();
        for &id in &ids {
            rt.touch_heap(id, 64 << 10).expect("touch");
            rt.teardown_deferred(id).expect("defer");
        }
        let calls = rt.flush_teardowns().expect("flush");
        assert_eq!(
            calls, 1,
            "adjacent HFI heaps must coalesce into one madvise"
        );
        assert_eq!(rt.live_count(), 0);
    }

    #[test]
    fn teardown_per_sandbox_costs_more_syscalls() {
        let run = |batched: bool| {
            let mut rt = SandboxRuntime::new(Isolation::Hfi, 44);
            rt.set_max_heap(1 << 20);
            let ids: Vec<_> = (0..64)
                .map(|_| rt.create_sandbox(16).expect("create"))
                .collect();
            for &id in &ids {
                rt.touch_heap(id, 64 << 10).expect("touch");
            }
            rt.reset_clock();
            if batched {
                for &id in &ids {
                    rt.teardown_deferred(id).expect("defer");
                }
                rt.flush_teardowns().expect("flush");
            } else {
                for &id in &ids {
                    rt.teardown(id).expect("teardown");
                }
            }
            rt.elapsed_ns()
        };
        let per_sandbox = run(false);
        let batched = run(true);
        assert!(
            batched < per_sandbox,
            "batched {batched} !< per-sandbox {per_sandbox}"
        );
    }

    #[test]
    fn grow_past_max_fails() {
        let mut rt = SandboxRuntime::new(Isolation::Hfi, 44);
        rt.set_max_heap(2 * WASM_PAGE);
        let id = rt.create_sandbox(1).expect("create");
        assert!(rt.grow(id, 1).is_ok());
        assert_eq!(rt.grow(id, 1), Err(RuntimeError::HeapLimit));
    }

    #[test]
    fn live_count_matches_a_recount_of_live_slots() {
        // A 36-bit space holds eight guard reservations, so creates
        // fail once the space fills (reservations are never returned);
        // a failed create must not count, and both teardown paths must.
        let mut rng = hfi_util::Rng::new(0x11fe);
        for isolation in [Isolation::GuardPages, Isolation::Hfi] {
            let mut rt = SandboxRuntime::new(isolation, 36);
            rt.set_max_heap(4 << 30);
            let mut ids = Vec::new();
            for _ in 0..400 {
                match rng.below(4) {
                    0 | 1 => {
                        if let Ok(id) = rt.create_sandbox(1 + rng.below(4)) {
                            ids.push(id);
                        }
                    }
                    choice => {
                        if ids.is_empty() {
                            continue;
                        }
                        let id = ids[rng.below(ids.len() as u64) as usize];
                        // A dead id is refused and must not count twice.
                        let _ = if choice == 2 {
                            rt.teardown(id)
                        } else {
                            rt.teardown_deferred(id)
                        };
                    }
                }
                let recount = rt.slots.iter().filter(|slot| slot.live).count();
                assert_eq!(rt.live_count(), recount, "{isolation:?}");
            }
            rt.flush_teardowns().expect("flush");
            let recount = rt.slots.iter().filter(|slot| slot.live).count();
            assert_eq!(rt.live_count(), recount, "{isolation:?}");
        }
    }

    #[test]
    fn dead_sandbox_rejected() {
        let mut rt = SandboxRuntime::new(Isolation::GuardPages, 44);
        let id = rt.create_sandbox(1).expect("create");
        rt.teardown(id).expect("teardown");
        assert_eq!(rt.grow(id, 1), Err(RuntimeError::NoSuchSandbox));
        assert_eq!(rt.teardown(id), Err(RuntimeError::NoSuchSandbox));
    }
}
