//! HFI regions: the mechanism that controls all memory access in HFI mode.
//!
//! HFI offers two region flavours (paper §3.2):
//!
//! * **Implicit regions** apply to *every* ordinary load/store (data
//!   regions) or instruction fetch (code regions) on a first-match basis.
//!   They are prefix-checked — power-of-two sized and aligned — so the
//!   hardware check is one AND plus one equality compare per region.
//! * **Explicit regions** are handles accessed through `hmov{0-3}`.
//!   *Large* regions address up to 256 TiB at 64 KiB granularity; *small*
//!   regions address up to 4 GiB at byte granularity but may not span a
//!   4 GiB boundary. These constraints let the hardware bounds-check with a
//!   single 32-bit comparator (paper §4.2).

use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;

use crate::fault::Access;

/// 64 KiB: the grain of large explicit regions and of Wasm heap growth.
pub const LARGE_REGION_ALIGN: u64 = 1 << 16;
/// Large explicit regions can address up to 256 TiB (2^48).
pub const LARGE_REGION_MAX: u64 = 1 << 48;
/// Small explicit regions can address up to 4 GiB (2^32).
pub const SMALL_REGION_MAX: u64 = 1 << 32;

/// An invalid region description, rejected at construction (C-VALIDATE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionError {
    /// The low-bits mask of an implicit region was not of the form `2^k - 1`.
    NonContiguousMask,
    /// The base prefix of an implicit region had bits set inside the mask,
    /// i.e. the region was not aligned to its own size.
    MisalignedPrefix,
    /// A large explicit region's base or bound was not a 64 KiB multiple.
    Unaligned64K,
    /// An explicit region's bound exceeded the maximum for its size class.
    BoundTooLarge,
    /// A small explicit region spanned a 4 GiB boundary.
    Spans4GiB,
    /// A region's bound was zero.
    EmptyRegion,
    /// Base + bound overflowed the 64-bit address space.
    AddressOverflow,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::NonContiguousMask => f.write_str("lsb mask is not contiguous"),
            RegionError::MisalignedPrefix => f.write_str("base prefix not aligned to mask"),
            RegionError::Unaligned64K => f.write_str("large region not 64 KiB aligned"),
            RegionError::BoundTooLarge => f.write_str("bound exceeds region size class"),
            RegionError::Spans4GiB => f.write_str("small region spans a 4 GiB boundary"),
            RegionError::EmptyRegion => f.write_str("region bound is zero"),
            RegionError::AddressOverflow => f.write_str("base + bound overflows"),
        }
    }
}

impl Error for RegionError {}

/// An implicit code region: prefix-checked, grants instruction fetch.
///
/// # Examples
///
/// ```
/// use hfi_core::region::ImplicitCodeRegion;
///
/// // A 64 KiB code region at 0x40_0000.
/// let region = ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true)?;
/// assert!(region.contains(0x40_1234));
/// assert!(!region.contains(0x41_0000));
/// # Ok::<(), hfi_core::region::RegionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImplicitCodeRegion {
    base_prefix: u64,
    lsb_mask: u64,
    exec: bool,
}

/// An implicit data region: prefix-checked, grants read and/or write.
///
/// Implicit data regions are the "safety net" a hybrid-sandbox runtime uses
/// to constrain even its own (speculative) accesses (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImplicitDataRegion {
    base_prefix: u64,
    lsb_mask: u64,
    read: bool,
    write: bool,
}

fn validate_prefix(base_prefix: u64, lsb_mask: u64) -> Result<(), RegionError> {
    // A valid mask is 2^k - 1: adding one must yield a power of two (or zero
    // for the degenerate all-ones mask, which we reject as it would cover
    // the whole address space with alignment 2^64).
    if lsb_mask != 0 && !(lsb_mask.wrapping_add(1)).is_power_of_two() {
        return Err(RegionError::NonContiguousMask);
    }
    if lsb_mask == u64::MAX {
        return Err(RegionError::NonContiguousMask);
    }
    if base_prefix & lsb_mask != 0 {
        return Err(RegionError::MisalignedPrefix);
    }
    Ok(())
}

/// Shared prefix-match logic for the two implicit region kinds: the
/// hardware ANDs away the masked low bits and compares the remaining
/// prefix for equality (paper §4.1).
fn prefix_contains(base_prefix: u64, lsb_mask: u64, addr: u64) -> bool {
    (addr & !lsb_mask) == base_prefix
}

impl ImplicitCodeRegion {
    /// Creates a code region covering `[base_prefix, base_prefix + lsb_mask]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lsb_mask` is not of the form `2^k - 1` or if
    /// `base_prefix` is not aligned to the region size.
    pub fn new(base_prefix: u64, lsb_mask: u64, exec: bool) -> Result<Self, RegionError> {
        validate_prefix(base_prefix, lsb_mask)?;
        Ok(Self {
            base_prefix,
            lsb_mask,
            exec,
        })
    }

    /// The region's base address prefix.
    pub fn base_prefix(&self) -> u64 {
        self.base_prefix
    }

    /// The low-bits mask (`size - 1`).
    pub fn lsb_mask(&self) -> u64 {
        self.lsb_mask
    }

    /// Whether the region grants instruction fetch.
    pub fn exec(&self) -> bool {
        self.exec
    }

    /// Returns `true` if `addr` falls inside the region's range (regardless
    /// of permission).
    pub fn contains(&self, addr: u64) -> bool {
        prefix_contains(self.base_prefix, self.lsb_mask, addr)
    }

    /// The region size in bytes.
    pub fn len(&self) -> u64 {
        self.lsb_mask + 1
    }

    /// Regions are never empty; present for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The contiguous byte range [`contains`](Self::contains) matches, or
    /// `None` when the region is malformed (a non-contiguous mask or a
    /// misaligned prefix, which only fault injection can produce).
    pub(crate) fn range(&self) -> Option<RangeInclusive<u64>> {
        validate_prefix(self.base_prefix, self.lsb_mask).ok()?;
        Some(self.base_prefix..=self.base_prefix | self.lsb_mask)
    }
}

impl ImplicitDataRegion {
    /// Creates a data region covering `[base_prefix, base_prefix + lsb_mask]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lsb_mask` is not of the form `2^k - 1` or if
    /// `base_prefix` is not aligned to the region size.
    pub fn new(
        base_prefix: u64,
        lsb_mask: u64,
        read: bool,
        write: bool,
    ) -> Result<Self, RegionError> {
        validate_prefix(base_prefix, lsb_mask)?;
        Ok(Self {
            base_prefix,
            lsb_mask,
            read,
            write,
        })
    }

    /// The region's base address prefix.
    pub fn base_prefix(&self) -> u64 {
        self.base_prefix
    }

    /// The low-bits mask (`size - 1`).
    pub fn lsb_mask(&self) -> u64 {
        self.lsb_mask
    }

    /// Whether the region grants reads.
    pub fn read(&self) -> bool {
        self.read
    }

    /// Whether the region grants writes.
    pub fn write(&self) -> bool {
        self.write
    }

    /// Returns `true` if `addr` falls inside the region's range (regardless
    /// of permission).
    pub fn contains(&self, addr: u64) -> bool {
        prefix_contains(self.base_prefix, self.lsb_mask, addr)
    }

    /// Returns `true` if the region grants `access` (for `addr` already
    /// known to be contained).
    pub fn permits(&self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Fetch => false,
        }
    }

    /// The region size in bytes.
    pub fn len(&self) -> u64 {
        self.lsb_mask + 1
    }

    /// Regions are never empty; present for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The size class of an explicit region (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplicitSize {
    /// Up to 256 TiB, base and bound 64 KiB-aligned.
    Large,
    /// Up to 4 GiB, byte granular, must not span a 4 GiB boundary.
    Small,
}

/// An explicit data region: a handle addressed *relatively* through `hmov`.
///
/// All `hmov` addressing is relative to [`base`](Self::base); an access at
/// offset `x` touches `base + x` and is legal iff `x + size <= bound`.
///
/// # Examples
///
/// ```
/// use hfi_core::region::{ExplicitDataRegion, ExplicitSize};
///
/// // A Wasm heap: 128 MiB, 64 KiB aligned, read+write.
/// let heap = ExplicitDataRegion::new(
///     0x2000_0000,
///     128 << 20,
///     true,
///     true,
///     ExplicitSize::Large,
/// )?;
/// assert_eq!(heap.bound(), 128 << 20);
/// # Ok::<(), hfi_core::region::RegionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExplicitDataRegion {
    base: u64,
    bound: u64,
    read: bool,
    write: bool,
    size_class: ExplicitSize,
}

impl ExplicitDataRegion {
    /// Creates an explicit region `[base, base + bound)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the base/bound violate the constraints of the
    /// chosen size class: large regions must be 64 KiB aligned in both base
    /// and bound and no larger than 256 TiB; small regions must be no larger
    /// than 4 GiB and must not span a 4 GiB boundary.
    pub fn new(
        base: u64,
        bound: u64,
        read: bool,
        write: bool,
        size_class: ExplicitSize,
    ) -> Result<Self, RegionError> {
        if bound == 0 {
            return Err(RegionError::EmptyRegion);
        }
        let end = base
            .checked_add(bound)
            .ok_or(RegionError::AddressOverflow)?;
        match size_class {
            ExplicitSize::Large => {
                if !base.is_multiple_of(LARGE_REGION_ALIGN)
                    || !bound.is_multiple_of(LARGE_REGION_ALIGN)
                {
                    return Err(RegionError::Unaligned64K);
                }
                if bound > LARGE_REGION_MAX {
                    return Err(RegionError::BoundTooLarge);
                }
            }
            ExplicitSize::Small => {
                if bound > SMALL_REGION_MAX {
                    return Err(RegionError::BoundTooLarge);
                }
                // The region [base, end) may not cross a 4 GiB line; a
                // region ending exactly on the line is allowed.
                if (base >> 32) != ((end - 1) >> 32) {
                    return Err(RegionError::Spans4GiB);
                }
            }
        }
        Ok(Self {
            base,
            bound,
            read,
            write,
            size_class,
        })
    }

    /// Convenience constructor for a large (64 KiB-grain) region.
    ///
    /// # Errors
    ///
    /// See [`ExplicitDataRegion::new`].
    pub fn large(base: u64, bound: u64, read: bool, write: bool) -> Result<Self, RegionError> {
        Self::new(base, bound, read, write, ExplicitSize::Large)
    }

    /// Convenience constructor for a small (byte-grain) region.
    ///
    /// # Errors
    ///
    /// See [`ExplicitDataRegion::new`].
    pub fn small(base: u64, bound: u64, read: bool, write: bool) -> Result<Self, RegionError> {
        Self::new(base, bound, read, write, ExplicitSize::Small)
    }

    /// The region base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The region length in bytes.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Whether reads are permitted.
    pub fn read(&self) -> bool {
        self.read
    }

    /// Whether writes are permitted.
    pub fn write(&self) -> bool {
        self.write
    }

    /// The region's size class.
    pub fn size_class(&self) -> ExplicitSize {
        self.size_class
    }

    /// Returns `true` if the region grants `access`.
    pub fn permits(&self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Fetch => false,
        }
    }

    /// Architectural (exact) bounds check: is the `size`-byte access at
    /// relative offset `offset` entirely inside the region?
    pub fn offset_in_bounds(&self, offset: u64, size: u64) -> bool {
        match offset.checked_add(size) {
            Some(end) => end <= self.bound,
            None => false,
        }
    }

    /// Microarchitectural bounds check, mirroring the single 32-bit
    /// comparator of paper §4.2.
    ///
    /// For **large** regions the hardware compares effective-address bits
    /// `[47:16]` against the stored upper bound `(base + bound) >> 16`; the
    /// 64 KiB alignment of base and bound makes the low 16 bits irrelevant.
    /// For **small** regions it compares the low 32 bits of the effective
    /// address (plus the carry out of the 32-bit add) against
    /// `(base & 0xFFFF_FFFF) + bound`, a 33-bit quantity; the no-4 GiB-span
    /// rule makes the high 32 bits irrelevant.
    ///
    /// The caller must already have established `offset >= 0` (sign-bit
    /// checks) and that `base + offset` did not overflow — the other two
    /// "trivial bit checks" of §4.2. Given those preconditions this check
    /// returns exactly the same verdict as [`offset_in_bounds`] for a
    /// one-byte access; a property test in this module verifies the
    /// equivalence.
    ///
    /// [`offset_in_bounds`]: Self::offset_in_bounds
    pub fn hardware_check(&self, effective_address: u64, size: u64) -> bool {
        let access_end = match effective_address.checked_add(size) {
            Some(end) => end,
            None => return false,
        };
        match self.size_class {
            ExplicitSize::Large => {
                // Compare bits [63:16]: because base + bound is 64 KiB
                // aligned, "prefix of the last byte < prefix of the end"
                // is exact.
                let upper = (self.base + self.bound) >> 16;
                ((access_end - 1) >> 16) < upper
            }
            ExplicitSize::Small => {
                // 33-bit compare of low halves (the carry bit is kept).
                let base_low = self.base & 0xFFFF_FFFF;
                let upper = base_low + self.bound; // <= 2^33, no overflow
                let ea_low = (access_end - 1) & 0xFFFF_FFFF;
                let carry = ((access_end - 1) >> 32) != (self.base >> 32);
                let ea_33 = ea_low + if carry { 1 << 32 } else { 0 };
                ea_33 < upper
            }
        }
    }
}

/// Any of the three region kinds, as stored in an HFI region register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// An implicit code region (slots 0–1).
    Code(ImplicitCodeRegion),
    /// An implicit data region (slots 2–5).
    Data(ImplicitDataRegion),
    /// An explicit data region (slots 6–9).
    Explicit(ExplicitDataRegion),
}

impl Region {
    /// The lowest address the region covers, uniformly across kinds
    /// (prefix base for implicit regions, base for explicit ones).
    pub fn base(&self) -> u64 {
        match self {
            Region::Code(r) => r.base_prefix(),
            Region::Data(r) => r.base_prefix(),
            Region::Explicit(r) => r.base(),
        }
    }

    /// The region length in bytes (`lsb_mask + 1` for implicit regions,
    /// the bound for explicit ones).
    pub fn len(&self) -> u64 {
        match self {
            Region::Code(r) => r.len(),
            Region::Data(r) => r.len(),
            Region::Explicit(r) => r.bound(),
        }
    }

    /// Regions are never empty; present for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the region grants `access`. Code regions grant fetch iff
    /// executable; data regions never grant fetch.
    pub fn permits(&self, access: Access) -> bool {
        match self {
            Region::Code(r) => access == Access::Fetch && r.exec(),
            Region::Data(r) => r.permits(access),
            Region::Explicit(r) => r.permits(access),
        }
    }

    /// The explicit-region payload, when this is an explicit region.
    pub fn as_explicit(&self) -> Option<&ExplicitDataRegion> {
        match self {
            Region::Explicit(r) => Some(r),
            _ => None,
        }
    }

    /// Fault-injection support (the `hfi-chaos` crate): a copy of this
    /// region with `base_xor` XORed into the stored base bits and
    /// `len_xor` XORed into the stored length bits (`lsb_mask` for
    /// implicit regions, `bound` for explicit ones), **bypassing every
    /// construction-time validity check** — exactly what a bit flip in
    /// the physical region register file would produce. The result may
    /// violate the C-VALIDATE invariants (misaligned prefix, mask that
    /// is not `2^k - 1`, unaligned or oversized bound); the enforcement
    /// checks must still fail closed on it, which is what the chaos
    /// campaign exercises.
    pub fn with_injected_bitflip(&self, base_xor: u64, len_xor: u64) -> Region {
        match *self {
            Region::Code(r) => Region::Code(ImplicitCodeRegion {
                base_prefix: r.base_prefix ^ base_xor,
                lsb_mask: r.lsb_mask ^ len_xor,
                exec: r.exec,
            }),
            Region::Data(r) => Region::Data(ImplicitDataRegion {
                base_prefix: r.base_prefix ^ base_xor,
                lsb_mask: r.lsb_mask ^ len_xor,
                read: r.read,
                write: r.write,
            }),
            Region::Explicit(r) => Region::Explicit(ExplicitDataRegion {
                base: r.base ^ base_xor,
                bound: r.bound ^ len_xor,
                read: r.read,
                write: r.write,
                size_class: r.size_class,
            }),
        }
    }

    /// Fault-injection support: a copy of this region with the
    /// permission bit for `access` toggled, or `None` when the region
    /// has no such bit (code regions carry only `exec`, data regions
    /// only `read`/`write`).
    pub fn with_toggled_permission(&self, access: Access) -> Option<Region> {
        match (*self, access) {
            (Region::Code(r), Access::Fetch) => {
                Some(Region::Code(ImplicitCodeRegion { exec: !r.exec, ..r }))
            }
            (Region::Data(r), Access::Read) => {
                Some(Region::Data(ImplicitDataRegion { read: !r.read, ..r }))
            }
            (Region::Data(r), Access::Write) => Some(Region::Data(ImplicitDataRegion {
                write: !r.write,
                ..r
            })),
            (Region::Explicit(r), Access::Read) => {
                Some(Region::Explicit(ExplicitDataRegion { read: !r.read, ..r }))
            }
            (Region::Explicit(r), Access::Write) => Some(Region::Explicit(ExplicitDataRegion {
                write: !r.write,
                ..r
            })),
            _ => None,
        }
    }
}

impl From<ImplicitCodeRegion> for Region {
    fn from(region: ImplicitCodeRegion) -> Self {
        Region::Code(region)
    }
}

impl From<ImplicitDataRegion> for Region {
    fn from(region: ImplicitDataRegion) -> Self {
        Region::Data(region)
    }
}

impl From<ExplicitDataRegion> for Region {
    fn from(region: ExplicitDataRegion) -> Self {
        Region::Explicit(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_mask_must_be_contiguous() {
        assert_eq!(
            ImplicitDataRegion::new(0, 0b1010, true, true),
            Err(RegionError::NonContiguousMask)
        );
        assert!(ImplicitDataRegion::new(0, 0b1111, true, true).is_ok());
    }

    #[test]
    fn implicit_prefix_must_be_aligned() {
        assert_eq!(
            ImplicitDataRegion::new(0x1234, 0xFFFF, true, true),
            Err(RegionError::MisalignedPrefix)
        );
        assert!(ImplicitDataRegion::new(0x1_0000, 0xFFFF, true, true).is_ok());
    }

    #[test]
    fn implicit_containment_matches_range() {
        let region = ImplicitDataRegion::new(0x40_0000, 0x3_FFFF, true, false).unwrap();
        assert!(region.contains(0x40_0000));
        assert!(region.contains(0x43_FFFF));
        assert!(!region.contains(0x44_0000));
        assert!(!region.contains(0x3F_FFFF));
        assert_eq!(region.len(), 0x4_0000);
    }

    #[test]
    fn implicit_data_permissions() {
        let readonly = ImplicitDataRegion::new(0, 0xFFF, true, false).unwrap();
        assert!(readonly.permits(Access::Read));
        assert!(!readonly.permits(Access::Write));
        assert!(!readonly.permits(Access::Fetch));
    }

    #[test]
    fn code_region_never_permits_data() {
        let code = ImplicitCodeRegion::new(0x1000, 0xFFF, true).unwrap();
        assert!(code.exec());
        assert!(code.contains(0x1800));
    }

    #[test]
    fn large_region_requires_64k_alignment() {
        assert_eq!(
            ExplicitDataRegion::large(0x1234, 0x1_0000, true, true),
            Err(RegionError::Unaligned64K)
        );
        assert_eq!(
            ExplicitDataRegion::large(0x1_0000, 0x1234, true, true),
            Err(RegionError::Unaligned64K)
        );
        assert!(ExplicitDataRegion::large(0x1_0000, 0x1_0000, true, true).is_ok());
    }

    #[test]
    fn small_region_may_not_span_4gib() {
        // Region straddling the 4 GiB line is rejected.
        assert_eq!(
            ExplicitDataRegion::small((1 << 32) - 0x100, 0x200, true, true),
            Err(RegionError::Spans4GiB)
        );
        // Ending exactly on the line is fine.
        assert!(ExplicitDataRegion::small((1 << 32) - 0x100, 0x100, true, true).is_ok());
    }

    #[test]
    fn small_region_bound_capped_at_4gib() {
        assert_eq!(
            ExplicitDataRegion::small(0, (1 << 32) + 1, true, true),
            Err(RegionError::BoundTooLarge)
        );
        assert!(ExplicitDataRegion::small(0, 1 << 32, true, true).is_ok());
    }

    #[test]
    fn large_region_bound_capped_at_256tib() {
        assert_eq!(
            ExplicitDataRegion::large(0, (1 << 48) + (1 << 16), true, true),
            Err(RegionError::BoundTooLarge)
        );
    }

    #[test]
    fn zero_bound_rejected() {
        assert_eq!(
            ExplicitDataRegion::small(0x1000, 0, true, true),
            Err(RegionError::EmptyRegion)
        );
    }

    #[test]
    fn exact_bounds_check() {
        let region = ExplicitDataRegion::small(0x1000, 0x100, true, true).unwrap();
        assert!(region.offset_in_bounds(0, 1));
        assert!(region.offset_in_bounds(0xFF, 1));
        assert!(region.offset_in_bounds(0xF8, 8));
        assert!(!region.offset_in_bounds(0x100, 1));
        assert!(!region.offset_in_bounds(0xF9, 8));
        assert!(!region.offset_in_bounds(u64::MAX, 8));
    }

    #[test]
    fn hardware_check_large_region() {
        let region = ExplicitDataRegion::large(0x10_0000, 0x2_0000, true, true).unwrap();
        assert!(region.hardware_check(0x10_0000, 1));
        assert!(region.hardware_check(0x11_FFFF, 1));
        assert!(!region.hardware_check(0x12_0000, 1));
    }

    #[test]
    fn unified_region_accessors() {
        let code = Region::from(ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true).unwrap());
        let data = Region::from(ImplicitDataRegion::new(0x10_0000, 0xFFF, true, false).unwrap());
        let heap =
            Region::from(ExplicitDataRegion::large(0x1000_0000, 1 << 20, true, true).unwrap());
        assert_eq!(code.base(), 0x40_0000);
        assert_eq!(code.len(), 0x1_0000);
        assert_eq!(data.base(), 0x10_0000);
        assert_eq!(data.len(), 0x1000);
        assert_eq!(heap.base(), 0x1000_0000);
        assert_eq!(heap.len(), 1 << 20);
        assert!(code.permits(Access::Fetch) && !code.permits(Access::Read));
        assert!(data.permits(Access::Read) && !data.permits(Access::Write));
        assert!(heap.permits(Access::Write) && !heap.permits(Access::Fetch));
        assert!(heap.as_explicit().is_some());
        assert!(code.as_explicit().is_none() && data.as_explicit().is_none());
    }

    #[test]
    fn hardware_check_small_region_with_carry() {
        // Region hugging the top of a 4 GiB window: the 33rd bit (carry)
        // must participate in the compare.
        let base = (7u64 << 32) + 0xFFFF_F000;
        let region = ExplicitDataRegion::small(base, 0x1000, true, true).unwrap();
        assert!(region.hardware_check(base, 1));
        assert!(region.hardware_check(base + 0xFFF, 1));
        assert!(!region.hardware_check(base + 0x1000, 1));
    }
}
