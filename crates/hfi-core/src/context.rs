//! The per-core HFI register state and instruction semantics.
//!
//! [`HfiContext`] models everything HFI adds to a CPU core: ten region
//! registers, the exit-handler register, the configuration (flags) register,
//! the exit-reason MSR, and — when the switch-on-exit extension is in use —
//! a shadow copy of the trusted runtime's registers (paper §4.5).
//!
//! Each public method corresponds to one HFI instruction from the interface
//! in Appendix A.1, or to one hardware check performed implicitly during
//! execution (data access, instruction fetch, syscall decode).

use std::ops::RangeInclusive;

use crate::fault::{Access, ExitReason, HfiFault, HmovViolation, SyscallKind};
use crate::region::{ExplicitDataRegion, Region};

/// Number of implicit code region registers (slots `0..2`).
pub const NUM_CODE_REGIONS: usize = 2;
/// Number of implicit data region registers (slots `2..6`).
pub const NUM_IMPLICIT_DATA_REGIONS: usize = 4;
/// Number of explicit data region registers (slots `6..10`).
///
/// Appendix A.1 numbers explicit slots `6-10`, but §3.2 and the `hmov{0-3}`
/// instruction set fix the count at four; we follow the body text.
pub const NUM_EXPLICIT_REGIONS: usize = 4;
/// Total number of region registers.
pub const NUM_REGIONS: usize = NUM_CODE_REGIONS + NUM_IMPLICIT_DATA_REGIONS + NUM_EXPLICIT_REGIONS;

/// First explicit slot index.
pub const FIRST_EXPLICIT_SLOT: usize = NUM_CODE_REGIONS + NUM_IMPLICIT_DATA_REGIONS;

/// The trust model of a sandbox (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SandboxKind {
    /// Untrusted code: region registers lock at entry, system calls and
    /// `hfi_exit` redirect to the exit handler.
    #[default]
    Native,
    /// Trusted (verified/compiled-by-trusted-compiler) code such as a Wasm
    /// runtime: region updates and direct system calls remain allowed.
    Hybrid,
}

/// Parameters to `hfi_enter` (the `sandbox_t` structure of Appendix A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SandboxConfig {
    /// Native or hybrid trust model.
    pub kind: SandboxKind,
    /// Serialize the pipeline on entry and exit (Spectre hardening, §3.4).
    pub serialize: bool,
    /// Use the switch-on-exit extension: exits atomically restore the
    /// parent sandbox instead of disabling HFI (§3.4, §4.5).
    pub switch_on_exit: bool,
    /// Where control lands on `hfi_exit` / interposed syscalls, if set.
    pub exit_handler: Option<u64>,
}

impl SandboxConfig {
    /// A native (untrusted-code) sandbox with the given exit handler.
    pub fn native(exit_handler: u64) -> Self {
        Self {
            kind: SandboxKind::Native,
            serialize: true,
            switch_on_exit: false,
            exit_handler: Some(exit_handler),
        }
    }

    /// A hybrid (trusted-runtime) sandbox with no exit handler: `hfi_exit`
    /// falls through to the code placed directly after it (§3.3.2).
    pub fn hybrid() -> Self {
        Self {
            kind: SandboxKind::Hybrid,
            serialize: false,
            switch_on_exit: false,
            exit_handler: None,
        }
    }

    /// Enables entry/exit serialization.
    pub fn serialized(mut self) -> Self {
        self.serialize = true;
        self
    }

    /// Enables the switch-on-exit extension for this entry.
    pub fn with_switch_on_exit(mut self) -> Self {
        self.switch_on_exit = true;
        self
    }
}

/// Where control flow goes after `hfi_exit` or an interposed syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitDisposition {
    /// HFI disabled; execution continues at the instruction after
    /// `hfi_exit` in trusted code.
    FallThrough,
    /// HFI disabled; control jumps to the configured exit handler.
    JumpToHandler(u64),
    /// Switch-on-exit: HFI stays enabled, the parent sandbox's registers
    /// were atomically restored, and execution continues after the parent's
    /// `hfi_enter`.
    SwitchedToParent,
}

/// What the decoder should do with a system-call instruction (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallDisposition {
    /// HFI disabled, or a hybrid sandbox: the syscall proceeds to the OS.
    Allow,
    /// Native sandbox: the syscall is converted into a jump to the exit
    /// handler; HFI is disabled and the MSR records the call.
    Redirect(u64),
    /// Native sandbox with no exit handler installed: architectural fault.
    Fault,
}

/// A serialization event the pipeline must honour (drain in-flight state).
///
/// Returned by operations whose cost depends on whether serialization was
/// required, so simulators can charge the 30–60 cycle drain (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerializationEffect {
    /// No pipeline drain required.
    None,
    /// The pipeline must drain before proceeding.
    Serialize,
}

/// A snapshot of the HFI register file, as saved by `xsave` with the
/// save-hfi-regs flag (paper §3.3.3) or by the switch-on-exit shadow copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HfiSaveArea {
    regions: [Option<Region>; NUM_REGIONS],
    config: SandboxConfig,
    enabled: bool,
}

/// Misuse of the HFI interface detected architecturally (these raise faults
/// in hardware; we surface them as `HfiFault` via [`HfiContext`] methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKindError {
    /// The slot index is out of range (`>= NUM_REGIONS`).
    BadSlot,
    /// The region kind does not match the slot range (e.g. a code region in
    /// an explicit slot).
    KindMismatch,
}

impl std::fmt::Display for SlotKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotKindError::BadSlot => f.write_str("region slot out of range"),
            SlotKindError::KindMismatch => f.write_str("region kind does not match slot"),
        }
    }
}

impl std::error::Error for SlotKindError {}

/// Architectural slot-kind rule (Appendix A.1): code regions go in slots
/// `0..NUM_CODE_REGIONS`, implicit data regions in the middle band, and
/// explicit regions in slots `FIRST_EXPLICIT_SLOT..NUM_REGIONS`. Exposed
/// so static tools (the `hfi-verify` checker) can apply exactly the rule
/// the hardware model enforces.
pub fn slot_accepts(slot: usize, region: &Region) -> Result<(), SlotKindError> {
    if slot >= NUM_REGIONS {
        return Err(SlotKindError::BadSlot);
    }
    let ok = match region {
        Region::Code(_) => slot < NUM_CODE_REGIONS,
        Region::Data(_) => (NUM_CODE_REGIONS..FIRST_EXPLICIT_SLOT).contains(&slot),
        Region::Explicit(_) => slot >= FIRST_EXPLICIT_SLOT,
    };
    if ok {
        Ok(())
    } else {
        Err(SlotKindError::KindMismatch)
    }
}

/// The complete HFI state of one CPU core.
///
/// # Examples
///
/// ```
/// use hfi_core::context::{HfiContext, SandboxConfig};
/// use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion};
/// use hfi_core::Region;
///
/// let mut hfi = HfiContext::new();
/// // Map code and a heap before entering.
/// let code = ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true)?;
/// let heap = ExplicitDataRegion::large(0x200_0000, 1 << 20, true, true)?;
/// hfi.set_region(0, Region::Code(code)).unwrap();
/// hfi.set_region(6, Region::Explicit(heap)).unwrap();
/// hfi.enter(SandboxConfig::hybrid()).unwrap();
/// assert!(hfi.enabled());
///
/// // hmov0 access at offset 0x100 resolves relative to the heap base.
/// let ea = hfi.hmov_check(0, 0x100, 1, 0, 8).unwrap();
/// assert_eq!(ea, 0x200_0100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HfiContext {
    regions: [Option<Region>; NUM_REGIONS],
    config: SandboxConfig,
    enabled: bool,
    exit_reason: Option<ExitReason>,
    /// Shadow register set holding the parent (trusted-runtime) sandbox
    /// while a switch-on-exit child runs (paper §4.5 doubles the metadata
    /// registers for exactly this).
    shadow: Option<Box<HfiSaveArea>>,
    /// Configuration of the most recently exited sandbox, for `hfi_reenter`.
    last_exited: Option<(SandboxConfig, [Option<Region>; NUM_REGIONS])>,
}

impl HfiContext {
    /// Creates a core with HFI disabled and all region registers clear.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether HFI mode (sandboxing) is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The active sandbox configuration (meaningful while enabled).
    pub fn config(&self) -> SandboxConfig {
        self.config
    }

    /// Reads the exit-reason MSR.
    pub fn exit_reason(&self) -> Option<ExitReason> {
        self.exit_reason
    }

    /// True if a switch-on-exit parent context is currently shadowed.
    pub fn has_shadow(&self) -> bool {
        self.shadow.is_some()
    }

    /// `hfi_set_region`: stores `region` into register `slot`.
    ///
    /// Returns whether the pipeline must serialize: region updates while
    /// HFI is *disabled* do not serialize (they are always followed by an
    /// `hfi_enter`); updates from inside a hybrid sandbox serialize to keep
    /// in-flight memory operations correct (paper §4.3).
    ///
    /// # Errors
    ///
    /// * [`HfiFault::PrivilegedInstruction`] if executed inside a native
    ///   sandbox (registers are locked from `hfi_enter` to exit, §3.3.1).
    /// * [`HfiFault::PrivilegedInstruction`] if the slot/kind pairing is
    ///   invalid (modelled as an architectural fault).
    pub fn set_region(
        &mut self,
        slot: usize,
        region: Region,
    ) -> Result<SerializationEffect, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        if slot_accepts(slot, &region).is_err() {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.regions[slot] = Some(region);
        if self.enabled {
            Ok(SerializationEffect::Serialize)
        } else {
            Ok(SerializationEffect::None)
        }
    }

    /// `hfi_get_region`: reads back register `slot`.
    ///
    /// # Errors
    ///
    /// Faults in a native sandbox, like all region-register operations.
    pub fn region(&self, slot: usize) -> Result<Option<Region>, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        if slot >= NUM_REGIONS {
            return Err(HfiFault::PrivilegedInstruction);
        }
        Ok(self.regions[slot])
    }

    /// `hfi_clear_region`: clears register `slot`.
    ///
    /// # Errors
    ///
    /// Faults in a native sandbox or for an out-of-range slot.
    pub fn clear_region(&mut self, slot: usize) -> Result<SerializationEffect, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        if slot >= NUM_REGIONS {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.regions[slot] = None;
        if self.enabled {
            Ok(SerializationEffect::Serialize)
        } else {
            Ok(SerializationEffect::None)
        }
    }

    /// `hfi_clear_all_regions`: clears every region register.
    ///
    /// # Errors
    ///
    /// Faults in a native sandbox.
    pub fn clear_all_regions(&mut self) -> Result<SerializationEffect, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.regions = [None; NUM_REGIONS];
        if self.enabled {
            Ok(SerializationEffect::Serialize)
        } else {
            Ok(SerializationEffect::None)
        }
    }

    /// `hfi_enter`: enables HFI mode with `config`.
    ///
    /// For a switch-on-exit entry use [`enter_child`](Self::enter_child),
    /// which takes the child's register file. The returned effect says
    /// whether the pipeline serializes (`is-serialized` flag).
    ///
    /// # Errors
    ///
    /// Faults if executed inside a native sandbox, or if `switch_on_exit`
    /// is set (that flag requires the child metadata of `enter_child`).
    pub fn enter(&mut self, config: SandboxConfig) -> Result<SerializationEffect, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        if config.switch_on_exit {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.config = config;
        self.enabled = true;
        self.exit_reason = None;
        if config.serialize {
            Ok(SerializationEffect::Serialize)
        } else {
            Ok(SerializationEffect::None)
        }
    }

    /// `hfi_enter` with the switch-on-exit flag: preserves the trusted
    /// runtime's metadata (the live registers) in the shadow set, then
    /// atomically loads the child sandbox's region file (paper §4.5).
    ///
    /// The child's `hfi_exit` (or any fault/syscall exit) switches back to
    /// the shadowed parent instead of disabling HFI, so neither edge needs
    /// serialization — that happened once, when the parent's own serialized
    /// sandbox was entered (paper §3.4).
    ///
    /// # Errors
    ///
    /// Faults if executed inside a native sandbox.
    pub fn enter_child(
        &mut self,
        config: SandboxConfig,
        child_regions: [Option<Region>; NUM_REGIONS],
    ) -> Result<SerializationEffect, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.shadow = Some(Box::new(HfiSaveArea {
            regions: self.regions,
            config: self.config,
            enabled: self.enabled,
        }));
        self.regions = child_regions;
        let mut config = config;
        config.switch_on_exit = true;
        self.config = config;
        self.enabled = true;
        self.exit_reason = None;
        if config.serialize {
            Ok(SerializationEffect::Serialize)
        } else {
            Ok(SerializationEffect::None)
        }
    }

    /// A copy of the current region register file, e.g. to assemble a
    /// child register set for [`enter_child`](Self::enter_child).
    ///
    /// # Errors
    ///
    /// Faults in a native sandbox, like all region-register reads.
    pub fn regions_snapshot(&self) -> Result<[Option<Region>; NUM_REGIONS], HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        Ok(self.regions)
    }

    /// `hfi_exit`: leaves the current sandbox.
    ///
    /// Records [`ExitReason::Exit`] in the MSR. Under switch-on-exit the
    /// parent's registers are restored atomically and HFI *stays enabled*;
    /// otherwise HFI is disabled and control either falls through (hybrid
    /// with no handler) or jumps to the exit handler.
    ///
    /// # Errors
    ///
    /// Faults if HFI is not enabled (stray `hfi_exit` in trusted code).
    pub fn exit(&mut self) -> Result<(ExitDisposition, SerializationEffect), HfiFault> {
        if !self.enabled {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.exit_reason = Some(ExitReason::Exit);
        self.leave(ExitReason::Exit)
    }

    /// Common exit path for `hfi_exit`, interposed syscalls, and faults.
    fn leave(
        &mut self,
        reason: ExitReason,
    ) -> Result<(ExitDisposition, SerializationEffect), HfiFault> {
        self.exit_reason = Some(reason);
        let serialize = if self.config.serialize {
            SerializationEffect::Serialize
        } else {
            SerializationEffect::None
        };
        if self.config.switch_on_exit {
            let parent = self.shadow.take().ok_or(HfiFault::PrivilegedInstruction)?;
            self.last_exited = Some((self.config, self.regions));
            self.regions = parent.regions;
            self.config = parent.config;
            self.enabled = parent.enabled;
            // Exits from the switch-on-exit set are deliberately
            // unserialized; serialization happens when the trusted
            // runtime's own (serialized) sandbox exits (paper §3.4).
            return Ok((ExitDisposition::SwitchedToParent, SerializationEffect::None));
        }
        self.last_exited = Some((self.config, self.regions));
        self.enabled = false;
        let disposition = match self.config.exit_handler {
            Some(handler) => ExitDisposition::JumpToHandler(handler),
            None => ExitDisposition::FallThrough,
        };
        Ok((disposition, serialize))
    }

    /// `hfi_reenter`: re-enters the sandbox that was most recently exited,
    /// restoring its configuration and region registers.
    ///
    /// # Errors
    ///
    /// Faults if executed inside a native sandbox or if no sandbox has been
    /// exited since the last reset.
    pub fn reenter(&mut self) -> Result<SerializationEffect, HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        let (config, regions) = self.last_exited.ok_or(HfiFault::PrivilegedInstruction)?;
        if config.switch_on_exit {
            return self.enter_child(config, regions);
        }
        self.regions = regions;
        self.enter(config)
    }

    /// The implicit data-region check applied to every ordinary load/store
    /// while HFI is enabled (paper §4.1): first-match over slots 2–5, then a
    /// permission check. Runs in parallel with the dTLB lookup in hardware,
    /// so it contributes *zero latency*; simulators must not charge cycles.
    ///
    /// Accesses performed while HFI is disabled always succeed.
    ///
    /// # Errors
    ///
    /// [`HfiFault::DataBounds`] if no region matches or the first match
    /// lacks the required permission.
    pub fn check_data(&self, addr: u64, size: u64, access: Access) -> Result<(), HfiFault> {
        if !self.enabled {
            return Ok(());
        }
        let fault = HfiFault::DataBounds { addr, access };
        let last = addr.checked_add(size.max(1) - 1).ok_or(fault)?;
        for slot in NUM_CODE_REGIONS..FIRST_EXPLICIT_SLOT {
            if let Some(Region::Data(region)) = &self.regions[slot] {
                if region.contains(addr) {
                    // First match wins; the whole access must stay inside
                    // it and it must grant the permission.
                    if region.contains(last) && region.permits(access) {
                        return Ok(());
                    }
                    return Err(fault);
                }
            }
        }
        Err(fault)
    }

    /// The implicit code-region check applied at decode to every fetched
    /// instruction (paper §4.1). A failed check turns the decoded micro-ops
    /// into a faulting NOP, so out-of-bounds instructions never execute —
    /// not even speculatively.
    ///
    /// # Errors
    ///
    /// [`HfiFault::CodeBounds`] if no code region with execute permission
    /// covers `[pc, pc + len)`.
    pub fn check_fetch(&self, pc: u64, len: u64) -> Result<(), HfiFault> {
        if !self.enabled {
            return Ok(());
        }
        let fault = HfiFault::CodeBounds { pc };
        let last = pc.checked_add(len.max(1) - 1).ok_or(fault)?;
        for slot in 0..NUM_CODE_REGIONS {
            if let Some(Region::Code(region)) = &self.regions[slot] {
                if region.contains(pc) {
                    if region.contains(last) && region.exec() {
                        return Ok(());
                    }
                    return Err(fault);
                }
            }
        }
        Err(fault)
    }

    /// A byte range inside which every fetch passes
    /// [`check_fetch`](Self::check_fetch): by its first-match rule, the
    /// range of the first code slot that holds a code region, when that
    /// region is well formed and executable, and an empty range
    /// otherwise. A fetch outside the window may still pass.
    ///
    /// Computed on demand from the region registers, so it is never
    /// stale: an interpreter running code in which no op can change the
    /// context may check each block against it once instead of checking
    /// every fetch.
    pub fn fetch_window(&self) -> RangeInclusive<u64> {
        #[allow(clippy::reversed_empty_ranges)]
        const EMPTY: RangeInclusive<u64> = 1..=0;
        let first_code = self.regions[..NUM_CODE_REGIONS]
            .iter()
            .find_map(|slot| match slot {
                Some(Region::Code(region)) => Some(region),
                _ => None,
            });
        match first_code {
            Some(region) if region.exec() => region.range().unwrap_or(EMPTY),
            _ => EMPTY,
        }
    }

    /// The `hmov{N}` effective-address computation and bounds check
    /// (paper §3.2, §4.2).
    ///
    /// `region` selects one of the four explicit regions (0–3, i.e. slot
    /// `6 + region`). The x86 base operand is ignored and replaced by the
    /// region base; `index * scale + disp` forms the relative offset. The
    /// returned value is the absolute effective address.
    ///
    /// Checks, in hardware order: sign bits of `index` and `disp` clear;
    /// no overflow in the effective-address add; 32-bit comparator bounds
    /// check; permission.
    ///
    /// # Errors
    ///
    /// [`HfiFault::Hmov`] describing the exact violation.
    pub fn hmov_check(
        &self,
        region: u8,
        index: i64,
        scale: u64,
        disp: i64,
        size: u64,
    ) -> Result<u64, HfiFault> {
        self.hmov_check_access(region, index, scale, disp, size, Access::Read)
    }

    /// Like [`hmov_check`](Self::hmov_check) but for a specific access kind
    /// (loads check read permission, stores check write permission).
    ///
    /// # Errors
    ///
    /// [`HfiFault::Hmov`] describing the exact violation.
    pub fn hmov_check_access(
        &self,
        region: u8,
        index: i64,
        scale: u64,
        disp: i64,
        size: u64,
        access: Access,
    ) -> Result<u64, HfiFault> {
        let fault = |violation| HfiFault::Hmov { region, violation };
        let slot = FIRST_EXPLICIT_SLOT + region as usize;
        if region as usize >= NUM_EXPLICIT_REGIONS {
            return Err(fault(HmovViolation::RegionNotConfigured));
        }
        let explicit: &ExplicitDataRegion = match &self.regions[slot] {
            Some(Region::Explicit(explicit)) => explicit,
            _ => return Err(fault(HmovViolation::RegionNotConfigured)),
        };
        // (2) hmov traps on negative operands (sign-bit checks).
        if index < 0 || disp < 0 {
            return Err(fault(HmovViolation::NegativeOperand));
        }
        // (3) hmov traps if the effective-address computation overflows.
        let scaled = (index as u64)
            .checked_mul(scale)
            .ok_or(fault(HmovViolation::Overflow))?;
        let offset = scaled
            .checked_add(disp as u64)
            .ok_or(fault(HmovViolation::Overflow))?;
        let ea = explicit
            .base()
            .checked_add(offset)
            .ok_or(fault(HmovViolation::Overflow))?;
        if !explicit.offset_in_bounds(offset, size.max(1)) {
            return Err(fault(HmovViolation::OutOfBounds));
        }
        if !explicit.permits(access) {
            return Err(fault(HmovViolation::PermissionDenied));
        }
        Ok(ea)
    }

    /// The microcode check added to the decode of `syscall`/`sysenter`/
    /// `int 0x80` (paper §4.4). In a native sandbox the call is converted
    /// into a jump to the exit handler: HFI records the reason and leaves
    /// the sandbox exactly as `hfi_exit` with a handler would.
    pub fn syscall(&mut self, number: u64, kind: SyscallKind) -> SyscallDisposition {
        if !self.enabled || self.config.kind == SandboxKind::Hybrid {
            return SyscallDisposition::Allow;
        }
        match self.config.exit_handler {
            Some(handler) => {
                let reason = ExitReason::Syscall { number, kind };
                // leave() cannot fail here: we are enabled.
                let _ = self.leave(reason);
                SyscallDisposition::Redirect(handler)
            }
            None => SyscallDisposition::Fault,
        }
    }

    /// Delivers a fault from sandboxed execution: disables the sandbox,
    /// records the cause in the MSR, and (in hardware) raises a trap the OS
    /// turns into a signal for the trusted runtime (paper §3.3.2).
    pub fn deliver_fault(&mut self, fault: HfiFault) -> ExitDisposition {
        if !self.enabled {
            self.exit_reason = Some(ExitReason::Fault(fault));
            return ExitDisposition::FallThrough;
        }
        match self.leave(ExitReason::Fault(fault)) {
            Ok((disposition, _)) => disposition,
            Err(_) => ExitDisposition::FallThrough,
        }
    }

    /// Fault-injection support (the `hfi-chaos` crate): XOR-corrupts the
    /// metadata stored in region register `slot` — `base_xor` into the
    /// base bits, `len_xor` into the length bits — **bypassing the
    /// slot-kind rule and every construction-time validity check**,
    /// exactly what a bit flip in the physical register file between two
    /// instructions would do. No privilege check applies: this models
    /// hardware corruption, not an instruction. Returns `false` (and
    /// changes nothing) if the slot is out of range or empty.
    ///
    /// The enforcement checks ([`check_data`](Self::check_data),
    /// [`check_fetch`](Self::check_fetch),
    /// [`hmov_check_access`](Self::hmov_check_access)) must fail closed
    /// on the corrupted state; the chaos campaign's shadow monitor
    /// verifies that they do.
    pub fn inject_region_bitflip(&mut self, slot: usize, base_xor: u64, len_xor: u64) -> bool {
        if slot >= NUM_REGIONS {
            return false;
        }
        match &mut self.regions[slot] {
            Some(region) => {
                *region = region.with_injected_bitflip(base_xor, len_xor);
                true
            }
            None => false,
        }
    }

    /// Fault-injection support: toggles the permission bit for `access`
    /// in region register `slot` (no privilege check — this models
    /// hardware corruption, not an instruction). Returns `false` (and
    /// changes nothing) if the slot is out of range, empty, or its
    /// region kind has no such permission bit.
    pub fn inject_region_perm_flip(&mut self, slot: usize, access: Access) -> bool {
        if slot >= NUM_REGIONS {
            return false;
        }
        match &mut self.regions[slot] {
            Some(region) => match region.with_toggled_permission(access) {
                Some(toggled) => {
                    *region = toggled;
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Fault-injection support: the raw `hmov` effective address with
    /// every §4.2 check bypassed — what the address-generation unit would
    /// produce if the guard micro-op were dropped from the pipeline. All
    /// arithmetic wraps, mirroring an unchecked AGU. Returns `None` only
    /// when the explicit region is not configured (there is no base to
    /// add, so not even a broken pipeline could form an address).
    pub fn hmov_unchecked_ea(&self, region: u8, index: i64, scale: u64, disp: i64) -> Option<u64> {
        let slot = FIRST_EXPLICIT_SLOT + region as usize;
        if region as usize >= NUM_EXPLICIT_REGIONS {
            return None;
        }
        let explicit: &ExplicitDataRegion = match &self.regions[slot] {
            Some(Region::Explicit(explicit)) => explicit,
            _ => return None,
        };
        Some(
            explicit
                .base()
                .wrapping_add((index as u64).wrapping_mul(scale))
                .wrapping_add(disp as u64),
        )
    }

    /// `xsave` with the save-hfi-regs flag: snapshots HFI state for an OS
    /// process context switch (paper §3.3.3).
    pub fn save_area(&self) -> HfiSaveArea {
        HfiSaveArea {
            regions: self.regions,
            config: self.config,
            enabled: self.enabled,
        }
    }

    /// `xrstor` with the save-hfi-regs flag.
    ///
    /// # Errors
    ///
    /// Faults in a *native* sandbox: letting untrusted code rewrite the HFI
    /// registers would break sandboxing (paper §3.3.3).
    pub fn restore_area(&mut self, area: &HfiSaveArea) -> Result<(), HfiFault> {
        if self.enabled && self.config.kind == SandboxKind::Native {
            return Err(HfiFault::PrivilegedInstruction);
        }
        self.regions = area.regions;
        self.config = area.config;
        self.enabled = area.enabled;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};

    fn code_region(base: u64, mask: u64) -> Region {
        Region::Code(ImplicitCodeRegion::new(base, mask, true).unwrap())
    }

    fn data_region(base: u64, mask: u64, read: bool, write: bool) -> Region {
        Region::Data(ImplicitDataRegion::new(base, mask, read, write).unwrap())
    }

    fn ctx_with_heap() -> HfiContext {
        let mut hfi = HfiContext::new();
        hfi.set_region(0, code_region(0x40_0000, 0xFFFF)).unwrap();
        let heap = ExplicitDataRegion::large(0x200_0000, 1 << 20, true, true).unwrap();
        hfi.set_region(6, Region::Explicit(heap)).unwrap();
        hfi
    }

    #[test]
    fn default_deny_everything() {
        let mut hfi = HfiContext::new();
        hfi.set_region(0, code_region(0, 0xFFF)).unwrap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        // No data regions mapped: all data access faults.
        assert!(hfi.check_data(0x1000, 8, Access::Read).is_err());
        // Fetch outside the code region faults.
        assert!(hfi.check_fetch(0x10_0000, 4).is_err());
        // Fetch inside succeeds.
        assert!(hfi.check_fetch(0x800, 4).is_ok());
    }

    #[test]
    fn fetch_window_follows_the_first_code_slot() {
        let mut hfi = HfiContext::new();
        assert!(hfi.fetch_window().is_empty(), "no code region");
        hfi.set_region(1, code_region(0x8000, 0xFFF)).unwrap();
        assert_eq!(
            hfi.fetch_window(),
            0x8000..=0x8FFF,
            "slot 1 when slot 0 is empty"
        );
        hfi.set_region(0, code_region(0x1000, 0xFFF)).unwrap();
        assert_eq!(hfi.fetch_window(), 0x1000..=0x1FFF, "slot 0 matches first");
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        // Every fetch inside the window passes; one outside it can pass
        // too, as slot 1's code does.
        for (pc, len) in [(0x1000, 1), (0x1FF0, 16), (0x1800, 8)] {
            assert!(hfi.check_fetch(pc, len).is_ok(), "{pc:#x}+{len}");
        }
        assert!(hfi.check_fetch(0x8000, 4).is_ok());
        assert!(hfi.check_fetch(0x1FF8, 16).is_err(), "runs off the window");

        // A non-executable first match grants nothing.
        let mut hfi = HfiContext::new();
        let no_exec = ImplicitCodeRegion::new(0x1000, 0xFFF, false).unwrap();
        hfi.set_region(0, Region::Code(no_exec)).unwrap();
        hfi.set_region(1, code_region(0x1000, 0xFFF)).unwrap();
        assert!(hfi.fetch_window().is_empty());
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        assert!(hfi.check_fetch(0x1000, 4).is_err());
    }

    #[test]
    fn fetch_window_is_empty_for_a_malformed_region() {
        for (base_xor, len_xor) in [(0, 0x10), (0x800, 0), (0, 1 << 40)] {
            let mut hfi = HfiContext::new();
            hfi.set_region(0, code_region(0x1000, 0xFFF)).unwrap();
            assert!(hfi.inject_region_bitflip(0, base_xor, len_xor));
            assert!(
                hfi.fetch_window().is_empty(),
                "flip {base_xor:#x}/{len_xor:#x}"
            );
        }
    }

    #[test]
    fn disabled_hfi_checks_nothing() {
        let hfi = HfiContext::new();
        assert!(hfi.check_data(0xDEAD_BEEF, 8, Access::Write).is_ok());
        assert!(hfi.check_fetch(0xDEAD_BEEF, 4).is_ok());
    }

    #[test]
    fn first_match_semantics() {
        let mut hfi = HfiContext::new();
        hfi.set_region(0, code_region(0, 0xFFF)).unwrap();
        // Slot 2: read-only view of [0x1000, 0x2000).
        hfi.set_region(2, data_region(0x1000, 0xFFF, true, false))
            .unwrap();
        // Slot 3: read-write covering the same range — shadowed by slot 2.
        hfi.set_region(3, data_region(0x1000, 0xFFF, true, true))
            .unwrap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        assert!(hfi.check_data(0x1800, 8, Access::Read).is_ok());
        // First match (read-only) wins even though a later region permits.
        assert!(hfi.check_data(0x1800, 8, Access::Write).is_err());
    }

    #[test]
    fn access_may_not_straddle_region_edge() {
        let mut hfi = HfiContext::new();
        hfi.set_region(0, code_region(0, 0xFFF)).unwrap();
        hfi.set_region(2, data_region(0x1000, 0xFFF, true, true))
            .unwrap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        assert!(hfi.check_data(0x1FF8, 8, Access::Read).is_ok());
        assert!(hfi.check_data(0x1FF9, 8, Access::Read).is_err());
    }

    #[test]
    fn hmov_relative_addressing() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        let ea = hfi.hmov_check(0, 2, 8, 0x10, 8).unwrap();
        assert_eq!(ea, 0x200_0000 + 2 * 8 + 0x10);
    }

    #[test]
    fn hmov_rejects_negative_operands() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        let err = hfi.hmov_check(0, -1, 1, 0, 1).unwrap_err();
        assert_eq!(
            err,
            HfiFault::Hmov {
                region: 0,
                violation: HmovViolation::NegativeOperand
            }
        );
        let err = hfi.hmov_check(0, 0, 1, -8, 1).unwrap_err();
        assert_eq!(
            err,
            HfiFault::Hmov {
                region: 0,
                violation: HmovViolation::NegativeOperand
            }
        );
    }

    #[test]
    fn hmov_rejects_overflow() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        let err = hfi.hmov_check(0, i64::MAX, 8, 0, 1).unwrap_err();
        assert_eq!(
            err,
            HfiFault::Hmov {
                region: 0,
                violation: HmovViolation::Overflow
            }
        );
    }

    #[test]
    fn hmov_bounds() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        // Last in-bounds byte.
        assert!(hfi.hmov_check(0, 0, 1, (1 << 20) - 1, 1).is_ok());
        assert_eq!(
            hfi.hmov_check(0, 0, 1, 1 << 20, 1).unwrap_err(),
            HfiFault::Hmov {
                region: 0,
                violation: HmovViolation::OutOfBounds
            }
        );
    }

    #[test]
    fn hmov_unconfigured_region_faults() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        assert_eq!(
            hfi.hmov_check(3, 0, 1, 0, 1).unwrap_err(),
            HfiFault::Hmov {
                region: 3,
                violation: HmovViolation::RegionNotConfigured
            }
        );
    }

    #[test]
    fn hmov_write_to_readonly_region_faults() {
        let mut hfi = HfiContext::new();
        let shared = ExplicitDataRegion::small(0x5000_0000, 0x100, true, false).unwrap();
        hfi.set_region(7, Region::Explicit(shared)).unwrap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        assert!(hfi.hmov_check_access(1, 0, 1, 0, 8, Access::Read).is_ok());
        assert_eq!(
            hfi.hmov_check_access(1, 0, 1, 0, 8, Access::Write)
                .unwrap_err(),
            HfiFault::Hmov {
                region: 1,
                violation: HmovViolation::PermissionDenied
            }
        );
    }

    #[test]
    fn native_sandbox_locks_region_registers() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::native(0x7000)).unwrap();
        let heap = ExplicitDataRegion::large(0, 1 << 16, true, true).unwrap();
        assert_eq!(
            hfi.set_region(6, Region::Explicit(heap)).unwrap_err(),
            HfiFault::PrivilegedInstruction
        );
        assert!(hfi.clear_all_regions().is_err());
        assert!(hfi.region(6).is_err());
        assert!(hfi.enter(SandboxConfig::hybrid()).is_err());
    }

    #[test]
    fn hybrid_sandbox_may_update_regions_with_serialization() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        let heap = ExplicitDataRegion::large(0x300_0000, 1 << 16, true, true).unwrap();
        assert_eq!(
            hfi.set_region(6, Region::Explicit(heap)).unwrap(),
            SerializationEffect::Serialize
        );
    }

    #[test]
    fn set_region_outside_sandbox_does_not_serialize() {
        let mut hfi = HfiContext::new();
        assert_eq!(
            hfi.set_region(0, code_region(0, 0xFFF)).unwrap(),
            SerializationEffect::None
        );
    }

    #[test]
    fn native_syscall_redirects_and_records_msr() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::native(0x7000)).unwrap();
        let disposition = hfi.syscall(2, SyscallKind::Syscall);
        assert_eq!(disposition, SyscallDisposition::Redirect(0x7000));
        assert!(!hfi.enabled());
        assert_eq!(
            hfi.exit_reason(),
            Some(ExitReason::Syscall {
                number: 2,
                kind: SyscallKind::Syscall
            })
        );
    }

    #[test]
    fn hybrid_syscall_allowed() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        assert_eq!(
            hfi.syscall(1, SyscallKind::Syscall),
            SyscallDisposition::Allow
        );
        assert!(hfi.enabled());
    }

    #[test]
    fn exit_falls_through_without_handler() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        let (disposition, _) = hfi.exit().unwrap();
        assert_eq!(disposition, ExitDisposition::FallThrough);
        assert!(!hfi.enabled());
        assert_eq!(hfi.exit_reason(), Some(ExitReason::Exit));
    }

    #[test]
    fn exit_jumps_to_handler() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::native(0xBEEF)).unwrap();
        let (disposition, effect) = hfi.exit().unwrap();
        assert_eq!(disposition, ExitDisposition::JumpToHandler(0xBEEF));
        assert_eq!(effect, SerializationEffect::Serialize);
    }

    #[test]
    fn switch_on_exit_restores_parent() {
        let mut hfi = HfiContext::new();
        // The trusted runtime runs in its own serialized hybrid sandbox.
        hfi.set_region(0, code_region(0x40_0000, 0xFFFF)).unwrap();
        hfi.set_region(2, data_region(0x10_0000, 0xFFFF, true, true))
            .unwrap();
        hfi.enter(SandboxConfig::hybrid().serialized()).unwrap();
        let parent_region = hfi.region(2).unwrap();

        // It assembles the child's region file and enters with
        // switch-on-exit; the entry itself is unserialized.
        let mut child_regions = hfi.regions_snapshot().unwrap();
        child_regions[2] = Some(data_region(0x20_0000, 0xFFFF, true, true));
        let effect = hfi
            .enter_child(
                SandboxConfig {
                    kind: SandboxKind::Hybrid,
                    ..SandboxConfig::hybrid()
                },
                child_regions,
            )
            .unwrap();
        assert_eq!(effect, SerializationEffect::None);
        assert!(hfi.has_shadow());

        // Child exits: atomically back to the parent sandbox, HFI still on.
        let (disposition, effect) = hfi.exit().unwrap();
        assert_eq!(disposition, ExitDisposition::SwitchedToParent);
        assert_eq!(effect, SerializationEffect::None);
        assert!(hfi.enabled());
        assert_eq!(hfi.region(2).unwrap(), parent_region);
    }

    #[test]
    fn reenter_restores_last_sandbox() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        hfi.exit().unwrap();
        assert!(!hfi.enabled());
        hfi.reenter().unwrap();
        assert!(hfi.enabled());
        assert!(hfi.hmov_check(0, 0, 1, 0, 1).is_ok());
    }

    #[test]
    fn fault_disables_sandbox_and_records_reason() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::native(0x9000)).unwrap();
        let fault = HfiFault::DataBounds {
            addr: 0xBAD,
            access: Access::Write,
        };
        let disposition = hfi.deliver_fault(fault);
        assert_eq!(disposition, ExitDisposition::JumpToHandler(0x9000));
        assert!(!hfi.enabled());
        assert_eq!(hfi.exit_reason(), Some(ExitReason::Fault(fault)));
    }

    #[test]
    fn xrstor_in_native_sandbox_faults() {
        let mut hfi = ctx_with_heap();
        let saved = hfi.save_area();
        hfi.enter(SandboxConfig::native(0x1)).unwrap();
        assert_eq!(
            hfi.restore_area(&saved).unwrap_err(),
            HfiFault::PrivilegedInstruction
        );
    }

    #[test]
    fn xsave_xrstor_roundtrip() {
        let mut hfi = ctx_with_heap();
        hfi.enter(SandboxConfig::hybrid()).unwrap();
        let saved = hfi.save_area();
        let mut other = HfiContext::new();
        other.restore_area(&saved).unwrap();
        assert_eq!(other, hfi);
    }

    #[test]
    fn slot_kind_validation() {
        let mut hfi = HfiContext::new();
        // Code region in a data slot faults.
        assert!(hfi.set_region(2, code_region(0, 0xFFF)).is_err());
        // Data region in an explicit slot faults.
        assert!(hfi
            .set_region(6, data_region(0, 0xFFF, true, true))
            .is_err());
        // Explicit region in a code slot faults.
        let explicit = ExplicitDataRegion::small(0, 0x100, true, true).unwrap();
        assert!(hfi.set_region(0, Region::Explicit(explicit)).is_err());
        // Out-of-range slot faults.
        assert!(hfi.set_region(10, code_region(0, 0xFFF)).is_err());
    }
}
