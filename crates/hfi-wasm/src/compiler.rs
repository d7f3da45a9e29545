//! The IR → simulated-machine compiler, with one backend per isolation
//! strategy.
//!
//! This is where the paper's Fig. 3 differences come from, *organically*:
//!
//! * **Guard pages** — each linear-memory access is a single
//!   `[heap_base + addr + off]` operation, but `heap_base` permanently
//!   occupies a register (register pressure), and the runtime must
//!   reserve 8 GiB of address space and `mprotect` on growth.
//! * **Bounds checks** — each access adds an explicit compare-and-branch
//!   against a bound register (and an add when the static offset is
//!   non-zero): two reserved registers and ~1–2 extra instructions per
//!   access.
//! * **HFI** — each access is a single `hmov` with *no* reserved
//!   registers and no extra instructions; the only cost is a one-byte
//!   longer encoding (i-cache footprint, the 445.gobmk effect).
//!
//! Virtual registers are mapped by a linear-scan allocator onto whatever
//! architectural registers the strategy leaves available; spills become
//! real loads/stores in the generated code, so reserving base/bound
//! registers has a measurable, workload-dependent cost (paper §6.1's
//! register-pressure experiment).

use std::collections::HashMap;

use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};
use hfi_core::{Region, SandboxConfig, StackSwitch, TransitionContract, TransitionScheme};
use hfi_sim::asm::{Label, ProgramBuilder};
use hfi_sim::isa::{AluOp, Cond, HmovOperand, MemOperand, Program, Reg};

use crate::ir::{IrFunction, IrInst, VReg};

/// How linear memory is isolated (the Fig. 3 comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isolation {
    /// No isolation: raw `[heap_base + addr]` accesses (native baseline).
    None,
    /// MMU-implicit isolation via an 8 GiB guard reservation (stock Wasm).
    GuardPages,
    /// Explicit compare-and-branch before every access (classic SFI).
    BoundsChecks,
    /// HFI explicit region 0, accessed with `hmov0`.
    Hfi,
}

impl Isolation {
    /// All strategies, in the order Fig. 3 reports them.
    pub const ALL: [Isolation; 4] = [
        Isolation::None,
        Isolation::GuardPages,
        Isolation::BoundsChecks,
        Isolation::Hfi,
    ];

    /// Registers this strategy permanently reserves (heap base / bound).
    pub fn reserved_regs(self) -> u8 {
        match self {
            Isolation::None | Isolation::GuardPages => 1,
            Isolation::BoundsChecks => 2,
            Isolation::Hfi => 0,
        }
    }
}

impl std::fmt::Display for Isolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Isolation::None => f.write_str("native"),
            Isolation::GuardPages => f.write_str("guard-pages"),
            Isolation::BoundsChecks => f.write_str("bounds-checks"),
            Isolation::Hfi => f.write_str("hfi"),
        }
    }
}

/// Compilation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Isolation strategy for linear memory.
    pub isolation: Isolation,
    /// Byte address the code is linked at.
    pub code_base: u64,
    /// Heap base address (64 KiB aligned for HFI large regions).
    pub heap_base: u64,
    /// Heap size in bytes (64 KiB multiple).
    pub heap_size: u64,
    /// Base address of the spill area (the "stack"; paper §5.1 leaves the
    /// Wasm stack outside hmov regions, covered by an implicit region).
    pub spill_base: u64,
    /// Extra registers withheld from the allocator (the §6.1
    /// register-pressure experiment).
    pub extra_reserved_regs: u8,
    /// Wrap the kernel in `hfi_set_region* + hfi_enter … hfi_exit`. Only
    /// meaningful with [`Isolation::Hfi`].
    pub sandboxed: bool,
    /// Transition scheme for the sandbox prologue/epilogue. Only
    /// meaningful with [`Isolation::Hfi`] and `sandboxed`; the default
    /// ([`TransitionScheme::HfiUnserialized`]) emits the bare
    /// `hfi_set_region* + hfi_enter` stream.
    pub scheme: TransitionScheme,
}

impl CompileOptions {
    /// Sensible defaults for standalone kernel runs: 16 MiB heap at
    /// 256 MiB, code at 4 MiB, spills at 1.75 GiB.
    pub fn new(isolation: Isolation) -> Self {
        Self {
            isolation,
            code_base: 0x40_0000,
            heap_base: 0x1000_0000,
            heap_size: 16 << 20,
            spill_base: 0x7000_0000,
            extra_reserved_regs: 0,
            sandboxed: isolation == Isolation::Hfi,
            scheme: TransitionScheme::default(),
        }
    }

    /// `new(Isolation::Hfi)` with the given transition scheme.
    pub fn hfi_with_scheme(scheme: TransitionScheme) -> Self {
        Self {
            scheme,
            ..Self::new(Isolation::Hfi)
        }
    }
}

/// Registers the springboard-zeroing schemes clear before `hfi_enter`:
/// the allocatable pool plus the scratch set — everything except the
/// pinned ABI registers (r9 stack, r10 VM context) and the base/bound
/// registers HFI leaves free anyway (r11, r15), which the trusted caller
/// owns.
pub const SPRINGBOARD_ZEROED: [u8; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14];

/// Bit mask over [`SPRINGBOARD_ZEROED`] for [`TransitionContract::zeroed`].
pub const SPRINGBOARD_ZEROED_MASK: u16 = {
    let mut mask = 0u16;
    let mut i = 0;
    while i < SPRINGBOARD_ZEROED.len() {
        mask |= 1 << SPRINGBOARD_ZEROED[i];
        i += 1;
    }
    mask
};

/// The register the full springboard switches to a fresh sandbox stack
/// (the pinned ABI stack pointer).
pub const SPRINGBOARD_STACK: Reg = Reg(10);

/// Where the old stack pointer is saved across the sandbox call (the
/// pinned VM-context register; dead while the sandbox runs).
pub const SPRINGBOARD_SAVE: Reg = Reg(9);

/// Top-of-stack value the full springboard installs: 16 bytes below the
/// end of the 64 MiB spill window, so the first frame's stores stay in
/// bounds.
pub fn springboard_stack_top(opts: &CompileOptions) -> u64 {
    opts.spill_base + 0x3FF_FFF0
}

/// The springboard entry contract a sandboxed HFI kernel compiled under
/// `opts` declares (and that both the executors' entry assertion and the
/// static verifier re-check). `None` when the scheme pays no
/// register-visible tax.
pub fn transition_contract_for(opts: &CompileOptions) -> Option<TransitionContract> {
    if !(opts.sandboxed && opts.isolation == Isolation::Hfi) {
        return None;
    }
    let scheme = opts.scheme;
    let contract = TransitionContract {
        zeroed: if scheme.zeroes_registers() {
            SPRINGBOARD_ZEROED_MASK
        } else {
            0
        },
        stack: if scheme.switches_stack() {
            Some(StackSwitch {
                reg: SPRINGBOARD_STACK.0,
                top: springboard_stack_top(opts),
                save: SPRINGBOARD_SAVE.0,
            })
        } else {
            None
        },
    };
    (!contract.is_empty()).then_some(contract)
}

/// Facts about a compilation, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Virtual registers spilled to memory.
    pub spilled_vregs: usize,
    /// Architectural registers the allocator could use.
    pub allocatable_regs: usize,
    /// Generated code bytes (i-cache footprint).
    pub code_bytes: u64,
    /// Linear-memory operations in the source.
    pub mem_ops: usize,
    /// Total generated instructions.
    pub inst_count: usize,
}

/// Verdict of the static sandbox-safety verifier over a compiled
/// kernel: the proof itself when it went through, not just a boolean —
/// the proof's digest is what `hfi-serve` admission and `RunRecord`
/// provenance consume downstream.
#[derive(Debug, Clone, Default)]
pub enum VerifyVerdict {
    /// The strategy has no statically checkable contract
    /// ([`crate::verify::sandbox_spec`] returned `None`).
    #[default]
    Unchecked,
    /// Proven safe: the verifier's [`Proof`], shared (compile caching
    /// and warm pools clone kernels freely).
    Proven(std::sync::Arc<hfi_verify::Proof>),
    /// Rejected, with the full violation list (a compiler bug, or a
    /// legitimate negative elision verdict under the zero-cost scheme).
    Rejected(Vec<hfi_verify::Violation>),
}

impl VerifyVerdict {
    /// The legacy tri-state view: `Some(true)` proven, `Some(false)`
    /// rejected, `None` unchecked.
    pub fn verified(&self) -> Option<bool> {
        match self {
            VerifyVerdict::Unchecked => None,
            VerifyVerdict::Proven(_) => Some(true),
            VerifyVerdict::Rejected(_) => Some(false),
        }
    }

    /// The proof, when the kernel is proven.
    pub fn proof(&self) -> Option<&std::sync::Arc<hfi_verify::Proof>> {
        match self {
            VerifyVerdict::Proven(proof) => Some(proof),
            _ => None,
        }
    }
}

/// A compiled kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The runnable program (shared so executors can hold it without
    /// duplicating code or data).
    pub program: std::sync::Arc<Program>,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// The options used.
    pub options: CompileOptions,
    /// The static verifier's verdict against this strategy's published
    /// [`crate::verify::sandbox_spec`], carrying the proof on success.
    pub verdict: VerifyVerdict,
}

impl CompiledKernel {
    /// The legacy tri-state verifier view (see
    /// [`VerifyVerdict::verified`]).
    pub fn verified(&self) -> Option<bool> {
        self.verdict.verified()
    }

    /// The safety proof, when this kernel is proven.
    pub fn proof(&self) -> Option<&std::sync::Arc<hfi_verify::Proof>> {
        self.verdict.proof()
    }

    /// The proof's digest word for provenance stamping (0 when
    /// unproven).
    pub fn proof_digest_word(&self) -> u64 {
        self.proof().map(|p| p.digest.word()).unwrap_or(0)
    }
}

// Fixed-role architectural registers.
/// Registers no strategy may allocate: the stack pointer and the Wasm
/// runtime's pinned VM-context register (every production Wasm ABI pins
/// at least these two on x86-64).
const ABI_RESERVED: [Reg; 2] = [Reg(9), Reg(10)];
const SCRATCH_A: Reg = Reg(12);
const SCRATCH_B: Reg = Reg(13);
const SCRATCH_MEM: Reg = Reg(14);
const HEAP_BASE: Reg = Reg(15);
const HEAP_BOUND: Reg = Reg(11);
/// The result register of a kernel (`Return` lowers to a move into r0).
pub const RESULT_REG: Reg = Reg(0);

/// Live interval of a vreg over instruction positions.
#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VReg,
    start: usize,
    end: usize,
}

/// Where a vreg lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    Reg(Reg),
    /// Index into the spill area.
    Spill(usize),
}

/// Computes conservative live intervals: [first occurrence, last
/// occurrence], extended to cover any loop (backward branch span) they
/// overlap, to fixpoint.
fn intervals(func: &IrFunction) -> Vec<Interval> {
    let mut range: HashMap<VReg, (usize, usize)> = HashMap::new();
    let mut label_pos: HashMap<usize, usize> = HashMap::new();
    for (pos, inst) in func.insts.iter().enumerate() {
        if let IrInst::Label(l) = inst {
            label_pos.insert(l.0, pos);
        }
    }
    for (pos, inst) in func.insts.iter().enumerate() {
        let (uses, def) = IrFunction::uses_def(inst);
        for v in uses.into_iter().chain(def) {
            let entry = range.entry(v).or_insert((pos, pos));
            entry.0 = entry.0.min(pos);
            entry.1 = entry.1.max(pos);
        }
    }
    // Backward-branch spans.
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for (pos, inst) in func.insts.iter().enumerate() {
        let target = match inst {
            IrInst::Br { target } => Some(target),
            IrInst::BrIf { target, .. } => Some(target),
            IrInst::BrIfI { target, .. } => Some(target),
            _ => None,
        };
        if let Some(t) = target {
            if let Some(&tpos) = label_pos.get(&t.0) {
                if tpos < pos {
                    loops.push((tpos, pos));
                }
            }
        }
    }
    // Extend any interval overlapping a loop to cover it, to fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for &(lo, hi) in &loops {
            for (_, (start, end)) in range.iter_mut() {
                if *start < hi && *end > lo && (*start > lo || *end < hi) {
                    *start = (*start).min(lo);
                    *end = (*end).max(hi);
                    changed = true;
                }
            }
        }
    }
    let mut out: Vec<Interval> = range
        .into_iter()
        .map(|(vreg, (start, end))| Interval { vreg, start, end })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.vreg));
    out
}

/// Linear-scan allocation onto `pool`. Returns homes and the spill count.
///
/// Spill choice is use-count weighted: when the pool is exhausted, the
/// candidate touched the fewest times (statically) loses its register —
/// the cheap approximation of hotness real baseline compilers use, which
/// keeps loop-carried induction variables in registers and pushes
/// rarely-touched accumulators to the stack.
fn allocate(func: &IrFunction, pool: &[Reg]) -> (HashMap<VReg, Home>, usize) {
    let ivs = intervals(func);
    // Loop-depth-weighted use counts as a hotness proxy: a use at loop
    // depth d counts 8^d.
    let mut label_pos: HashMap<usize, usize> = HashMap::new();
    for (pos, inst) in func.insts.iter().enumerate() {
        if let IrInst::Label(l) = inst {
            label_pos.insert(l.0, pos);
        }
    }
    let mut loop_spans: Vec<(usize, usize)> = Vec::new();
    for (pos, inst) in func.insts.iter().enumerate() {
        let target = match inst {
            IrInst::Br { target } => Some(target),
            IrInst::BrIf { target, .. } => Some(target),
            IrInst::BrIfI { target, .. } => Some(target),
            _ => None,
        };
        if let Some(t) = target {
            if let Some(&tpos) = label_pos.get(&t.0) {
                if tpos < pos {
                    loop_spans.push((tpos, pos));
                }
            }
        }
    }
    let depth_of = |pos: usize| -> u32 {
        loop_spans
            .iter()
            .filter(|(lo, hi)| (*lo..=*hi).contains(&pos))
            .count() as u32
    };
    let mut uses: HashMap<VReg, usize> = HashMap::new();
    for (pos, inst) in func.insts.iter().enumerate() {
        let (u, d) = IrFunction::uses_def(inst);
        let weight = 8usize.pow(depth_of(pos).min(5));
        for v in u.into_iter().chain(d) {
            *uses.entry(v).or_insert(0) += weight;
        }
    }
    let mut homes: HashMap<VReg, Home> = HashMap::new();
    let mut active: Vec<Interval> = Vec::new();
    let mut free: Vec<Reg> = pool.to_vec();
    let mut next_slot = 0usize;
    for iv in ivs {
        // Expire.
        active.retain(|a| {
            if a.end < iv.start {
                if let Some(Home::Reg(r)) = homes.get(&a.vreg) {
                    free.push(*r);
                }
                false
            } else {
                true
            }
        });
        if let Some(reg) = free.pop() {
            homes.insert(iv.vreg, Home::Reg(reg));
            active.push(iv);
            continue;
        }
        // Pool exhausted: spill the coldest candidate (lowest use count;
        // ties broken toward the furthest end).
        let coldest_active = active
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| (uses.get(&a.vreg).copied().unwrap_or(0), usize::MAX - a.end))
            .map(|(idx, a)| (idx, *a));
        match coldest_active {
            Some((idx, victim))
                if uses.get(&victim.vreg).copied().unwrap_or(0)
                    < uses.get(&iv.vreg).copied().unwrap_or(0) =>
            {
                let reg = match homes.get(&victim.vreg) {
                    Some(Home::Reg(r)) => *r,
                    _ => unreachable!("active interval has a register"),
                };
                homes.insert(victim.vreg, Home::Spill(next_slot));
                next_slot += 1;
                homes.insert(iv.vreg, Home::Reg(reg));
                active.remove(idx);
                active.push(iv);
            }
            _ => {
                homes.insert(iv.vreg, Home::Spill(next_slot));
                next_slot += 1;
            }
        }
    }
    (homes, next_slot)
}

struct Lowerer<'a> {
    asm: ProgramBuilder,
    homes: &'a HashMap<VReg, Home>,
    opts: &'a CompileOptions,
    labels: HashMap<usize, Label>,
    trap: Label,
    epilogue: Label,
}

impl<'a> Lowerer<'a> {
    fn label_for(&mut self, ir_label: usize) -> Label {
        if let Some(l) = self.labels.get(&ir_label) {
            return *l;
        }
        let l = self.asm.label();
        self.labels.insert(ir_label, l);
        l
    }

    fn spill_addr(&self, slot: usize) -> MemOperand {
        MemOperand::absolute((self.opts.spill_base + slot as u64 * 8) as i64)
    }

    /// Materializes a vreg's value into a register (loading from its
    /// spill slot into `scratch` if spilled).
    fn read(&mut self, vreg: VReg, scratch: Reg) -> Reg {
        match self.homes[&vreg] {
            Home::Reg(r) => r,
            Home::Spill(slot) => {
                let mem = self.spill_addr(slot);
                self.asm.load(scratch, mem, 8);
                scratch
            }
        }
    }

    /// Register a def should be computed into; [`Self::write_back`] then
    /// stores it if the vreg is spilled.
    fn def_reg(&self, vreg: VReg) -> Reg {
        match self.homes[&vreg] {
            Home::Reg(r) => r,
            Home::Spill(_) => SCRATCH_A,
        }
    }

    fn write_back(&mut self, vreg: VReg) {
        if let Home::Spill(slot) = self.homes[&vreg] {
            let mem = self.spill_addr(slot);
            self.asm.store(SCRATCH_A, mem, 8);
        }
    }

    /// Lowers one linear-memory access. `addr_reg` holds the heap offset.
    fn lower_mem(&mut self, is_load: bool, value_reg: Reg, addr_reg: Reg, offset: u32, width: u8) {
        match self.opts.isolation {
            Isolation::None | Isolation::GuardPages => {
                let mem = MemOperand::full(HEAP_BASE, addr_reg, 1, offset as i64);
                if is_load {
                    self.asm.load(value_reg, mem, width);
                } else {
                    self.asm.store(value_reg, mem, width);
                }
            }
            Isolation::BoundsChecks => {
                // The full SFI sequence real compilers emit: materialize
                // the effective linear address into a fresh register
                // (the source must stay live), compare, branch to the
                // trap, then access through the checked register. The
                // extra add also sits on the load's address-generation
                // critical path.
                self.asm
                    .alu_ri(AluOp::Add, SCRATCH_MEM, addr_reg, offset as i64);
                let idx = SCRATCH_MEM;
                let trap = self.trap;
                self.asm.branch(Cond::GeU, idx, HEAP_BOUND, trap);
                let mem = MemOperand::full(HEAP_BASE, idx, 1, 0);
                if is_load {
                    self.asm.load(value_reg, mem, width);
                } else {
                    self.asm.store(value_reg, mem, width);
                }
            }
            Isolation::Hfi => {
                let mem = HmovOperand::indexed(addr_reg, 1, offset as i64);
                if is_load {
                    self.asm.hmov_load(0, value_reg, mem, width);
                } else {
                    self.asm.hmov_store(0, value_reg, mem, width);
                }
            }
        }
    }
}

/// Compiles `func` under `opts`.
///
/// # Panics
///
/// Panics if the IR references unplaced labels (a builder bug in the
/// kernel definition).
pub fn compile(func: &IrFunction, opts: &CompileOptions) -> CompiledKernel {
    // Build the allocatable pool for this strategy.
    let mut pool: Vec<Reg> = Vec::new();
    for i in 0..16u8 {
        let reg = Reg(i);
        if reg == SCRATCH_A || reg == SCRATCH_B || reg == SCRATCH_MEM || reg == RESULT_REG {
            continue;
        }
        if ABI_RESERVED.contains(&reg) {
            continue;
        }
        match opts.isolation {
            Isolation::None | Isolation::GuardPages => {
                if reg == HEAP_BASE {
                    continue;
                }
            }
            Isolation::BoundsChecks => {
                if reg == HEAP_BASE || reg == HEAP_BOUND {
                    continue;
                }
            }
            Isolation::Hfi => {}
        }
        pool.push(reg);
    }
    for _ in 0..opts.extra_reserved_regs {
        pool.pop();
    }
    let allocatable = pool.len();
    let (homes, spills) = allocate(func, &pool);

    let mut asm = ProgramBuilder::new(opts.code_base);
    let trap = asm.label();
    let epilogue = asm.label();

    // Prologue: the transition scheme decides how much springboard tax
    // (register zeroing, stack switch, serialization) is paid on the way
    // into the sandbox — executed as real instructions so the cost
    // emerges from the executors rather than from a modeled constant.
    if opts.sandboxed && opts.isolation == Isolation::Hfi {
        let code = ImplicitCodeRegion::new(opts.code_base, 0xF_FFFF, true)
            .expect("1 MiB-aligned code base");
        // Spill/stack area: 64 MiB implicit region (paper §5.1: the Wasm
        // stack stays under an implicit region, not hmov).
        let stack = ImplicitDataRegion::new(opts.spill_base, 0x3FF_FFFF, true, true)
            .expect("aligned spill base");
        let heap = ExplicitDataRegion::large(opts.heap_base, opts.heap_size, true, true)
            .expect("64 KiB-aligned heap");
        let scheme = opts.scheme;
        let contract = transition_contract_for(opts);
        if scheme.zeroes_registers() {
            // Scrub every register the untrusted code can observe, so
            // trusted-caller state cannot leak into the sandbox.
            for &r in &SPRINGBOARD_ZEROED {
                asm.movi(Reg(r), 0);
                asm.mark_last_transition();
            }
        }
        let stack_switch = contract.as_ref().and_then(|c| c.stack);
        if let Some(sw) = stack_switch {
            // Register-only stack switch: save the host stack pointer in
            // the (sandbox-dead) VM-context register and install a fresh
            // top-of-stack inside the spill window. No pre-enter memory
            // traffic — the verifier checks plain stores at every depth.
            asm.mov(Reg(sw.save), Reg(sw.reg));
            asm.mark_last_transition();
            asm.movi(Reg(sw.reg), sw.top as i64);
            asm.mark_last_transition();
            // The springboard's entry flush: a true serializing
            // instruction (the pipeline-drain tax a software springboard
            // pays even without HFI's is-serialized).
            asm.cpuid();
            asm.mark_last_transition();
        }
        let mut config = SandboxConfig::hybrid();
        config.serialize = opts.scheme.serialized();
        if scheme == TransitionScheme::SwitchOnExit {
            // One atomic region-file swap (paper §4.5) instead of three
            // `hfi_set_region`s plus a plain enter; `hfi_exit` restores
            // the shadowed parent without serialization.
            let mut regions: [Option<Region>; hfi_core::NUM_REGIONS] =
                [None; hfi_core::NUM_REGIONS];
            regions[0] = Some(Region::Code(code));
            regions[2] = Some(Region::Data(stack));
            regions[6] = Some(Region::Explicit(heap));
            asm.hfi_enter_child(config, regions);
        } else {
            asm.hfi_set_region(0, Region::Code(code));
            asm.hfi_set_region(2, Region::Data(stack));
            asm.hfi_set_region(6, Region::Explicit(heap));
            asm.hfi_enter(config);
        }
        if stack_switch.is_some() {
            // First use of the switched stack pointer, inside the sandbox:
            // a canary store that faces the implicit stack-region check,
            // so a corrupted switch is caught at the first frame touch.
            asm.store(SCRATCH_MEM, MemOperand::base_disp(SPRINGBOARD_STACK, 0), 8);
            asm.mark_last_transition();
        }
        if let Some(contract) = contract {
            asm.set_contract(contract);
        }
    }
    match opts.isolation {
        Isolation::None | Isolation::GuardPages => {
            asm.movi(HEAP_BASE, opts.heap_base as i64);
        }
        Isolation::BoundsChecks => {
            asm.movi(HEAP_BASE, opts.heap_base as i64);
            asm.movi(HEAP_BOUND, (opts.heap_size - 8) as i64);
        }
        Isolation::Hfi => {}
    }

    let mut lower = Lowerer {
        asm,
        homes: &homes,
        opts,
        labels: HashMap::new(),
        trap,
        epilogue,
    };

    for inst in &func.insts {
        match inst {
            IrInst::Label(l) => {
                let label = lower.label_for(l.0);
                lower.asm.place(label);
            }
            IrInst::Const { dst, imm } => {
                let d = lower.def_reg(*dst);
                lower.asm.movi(d, *imm);
                lower.write_back(*dst);
            }
            IrInst::Bin { op, dst, a, b } => {
                let ra = lower.read(*a, SCRATCH_A);
                let rb = lower.read(*b, SCRATCH_B);
                let d = lower.def_reg(*dst);
                lower.asm.alu(*op, d, ra, rb);
                lower.write_back(*dst);
            }
            IrInst::BinI { op, dst, a, imm } => {
                let ra = lower.read(*a, SCRATCH_B);
                let d = lower.def_reg(*dst);
                lower.asm.alu_ri(*op, d, ra, *imm);
                lower.write_back(*dst);
            }
            IrInst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let ra = lower.read(*addr, SCRATCH_B);
                let d = lower.def_reg(*dst);
                lower.lower_mem(true, d, ra, *offset, *width);
                lower.write_back(*dst);
            }
            IrInst::Store {
                src,
                addr,
                offset,
                width,
            } => {
                let rs = lower.read(*src, SCRATCH_A);
                let ra = lower.read(*addr, SCRATCH_B);
                lower.lower_mem(false, rs, ra, *offset, *width);
            }
            IrInst::Br { target } => {
                let l = lower.label_for(target.0);
                lower.asm.jump(l);
            }
            IrInst::BrIf { cond, a, b, target } => {
                let ra = lower.read(*a, SCRATCH_A);
                let rb = lower.read(*b, SCRATCH_B);
                let l = lower.label_for(target.0);
                lower.asm.branch(*cond, ra, rb, l);
            }
            IrInst::BrIfI {
                cond,
                a,
                imm,
                target,
            } => {
                let ra = lower.read(*a, SCRATCH_A);
                let l = lower.label_for(target.0);
                lower.asm.branch_i(*cond, ra, *imm, l);
            }
            IrInst::MemoryGrow => {
                match lower.opts.isolation {
                    Isolation::Hfi => {
                        // Heap growth is a region-register update; the
                        // region installed at entry already describes the
                        // grown heap, so re-setting it is cost-faithful
                        // and semantics-preserving.
                        let heap = ExplicitDataRegion::large(
                            lower.opts.heap_base,
                            lower.opts.heap_size,
                            true,
                            true,
                        )
                        .expect("options validated at prologue");
                        lower.asm.hfi_set_region(6, Region::Explicit(heap));
                    }
                    _ => {
                        // mprotect(..., PROT_READ|PROT_WRITE) on the next
                        // 64 KiB of the reservation: a real syscall.
                        lower.asm.movi(RESULT_REG, 9);
                        lower.asm.syscall();
                    }
                }
            }
            IrInst::Return { src } => {
                let rs = lower.read(*src, SCRATCH_A);
                lower.asm.mov(RESULT_REG, rs);
                let epi = lower.epilogue;
                lower.asm.jump(epi);
            }
        }
    }

    // Fall off the end == return 0.
    lower.asm.movi(RESULT_REG, 0);
    let epi = lower.epilogue;
    lower.asm.jump(epi);

    // Trap path: distinctive result marker, then stop.
    let trap = lower.trap;
    lower.asm.place(trap);
    lower.asm.movi(RESULT_REG, TRAP_MARKER as i64);
    lower.asm.place(epi);
    if lower.opts.sandboxed && lower.opts.isolation == Isolation::Hfi {
        lower.asm.hfi_exit();
        if lower.opts.scheme.switches_stack() {
            // The springboard's serializing exit flush, then hand the
            // host its stack pointer back from the save register.
            lower.asm.cpuid();
            lower.asm.mark_last_transition();
            lower.asm.mov(SPRINGBOARD_STACK, SPRINGBOARD_SAVE);
            lower.asm.mark_last_transition();
        }
    }
    lower.asm.halt();

    let program = lower.asm.finish();
    let stats = CompileStats {
        spilled_vregs: spills,
        allocatable_regs: allocatable,
        code_bytes: program.code_len(),
        mem_ops: func.mem_op_count(),
        inst_count: program.len(),
    };
    let mut kernel = CompiledKernel {
        program: program.into(),
        stats,
        options: *opts,
        verdict: VerifyVerdict::Unchecked,
    };
    // Verify-after-compile: check the output against the strategy's
    // published contract, through the incremental proof cache (this is
    // what makes verification cheap enough to be always-on — recompiles
    // of an already-proven plan hit the cache). A rejection here is a
    // compiler bug — except under a scheme that must *prove* the
    // springboard tax elidable, where "the proof does not go through
    // for this kernel" is a legitimate negative verdict scheme
    // selection relies on to fall back to a taxed scheme. Surface real
    // bugs immediately in debug builds instead of letting an unsafe
    // program reach an experiment.
    kernel.verdict = match crate::verify::verify_kernel(&kernel) {
        None => VerifyVerdict::Unchecked,
        Some(Ok(proof)) => VerifyVerdict::Proven(proof),
        Some(Err(violations)) => VerifyVerdict::Rejected(violations),
    };
    #[cfg(debug_assertions)]
    if let VerifyVerdict::Rejected(violations) = &kernel.verdict {
        let expected_elision_failure = opts.scheme.requires_elision_proof()
            && violations.iter().all(|v| {
                matches!(
                    v.reason,
                    hfi_verify::Reason::ElisionUnproven { .. }
                        | hfi_verify::Reason::SerializationRequired
                )
            });
        assert!(
            expected_elision_failure,
            "compiler emitted a program its own spec rejects: {violations:?}"
        );
    }
    kernel
}

/// The value left in [`RESULT_REG`] by an explicit bounds-check trap.
pub const TRAP_MARKER: u64 = 0x0DEA_D7A9;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrBuilder;
    use hfi_sim::{Machine, Stop};

    /// A kernel: writes i*3 to heap[i*8] for i in 0..N, then sums back.
    fn sum_kernel(n: i64) -> IrFunction {
        let mut b = IrBuilder::new("sum");
        let i = b.vreg();
        let val = b.vreg();
        let addr = b.vreg();
        let acc = b.vreg();
        b.constant(i, 0);
        let w = b.label_here();
        b.bin_i(AluOp::Mul, val, i, 3);
        b.bin_i(AluOp::Mul, addr, i, 8);
        b.store(val, addr, 0, 8);
        b.bin_i(AluOp::Add, i, i, 1);
        b.br_if_i(Cond::LtU, i, n, w);
        b.constant(acc, 0);
        b.constant(i, 0);
        let r = b.label_here();
        b.bin_i(AluOp::Mul, addr, i, 8);
        b.load(val, addr, 0, 8);
        b.bin(AluOp::Add, acc, acc, val);
        b.bin_i(AluOp::Add, i, i, 1);
        b.br_if_i(Cond::LtU, i, n, r);
        b.ret(acc);
        b.finish()
    }

    fn run(kernel: &IrFunction, isolation: Isolation) -> (u64, Stop) {
        let opts = CompileOptions::new(isolation);
        let compiled = compile(kernel, &opts);
        let mut machine = Machine::new(compiled.program);
        let result = machine.run(10_000_000);
        (result.regs[RESULT_REG.0 as usize], result.stop)
    }

    #[test]
    fn all_strategies_compute_the_same_result() {
        let kernel = sum_kernel(50);
        let expected: u64 = (0..50).map(|i| i * 3).sum();
        for isolation in Isolation::ALL {
            let (result, stop) = run(&kernel, isolation);
            assert_eq!(stop, Stop::Halted, "{isolation} did not halt");
            assert_eq!(result, expected, "{isolation} computed wrong result");
        }
    }

    #[test]
    fn bounds_checks_trap_on_oob() {
        let mut b = IrBuilder::new("oob");
        let addr = b.vreg();
        let val = b.vreg();
        b.constant(addr, (64 << 20) as i64); // past the 16 MiB heap
        b.load(val, addr, 0, 8);
        b.ret(val);
        let kernel = b.finish();
        let (result, stop) = run(&kernel, Isolation::BoundsChecks);
        assert_eq!(stop, Stop::Halted);
        assert_eq!(result, TRAP_MARKER);
    }

    #[test]
    fn hfi_traps_on_oob() {
        let mut b = IrBuilder::new("oob");
        let addr = b.vreg();
        let val = b.vreg();
        b.constant(addr, (64 << 20) as i64);
        b.load(val, addr, 0, 8);
        b.ret(val);
        let kernel = b.finish();
        let opts = CompileOptions::new(Isolation::Hfi);
        let compiled = compile(&kernel, &opts);
        let mut machine = Machine::new(compiled.program);
        let result = machine.run(10_000_000);
        assert!(
            matches!(result.stop, Stop::Fault(hfi_core::HfiFault::Hmov { .. })),
            "expected precise hmov trap, got {:?}",
            result.stop
        );
    }

    #[test]
    fn bounds_checks_generate_more_instructions_than_hfi() {
        let kernel = sum_kernel(10);
        let bounds = compile(&kernel, &CompileOptions::new(Isolation::BoundsChecks));
        let hfi = compile(&kernel, &CompileOptions::new(Isolation::Hfi));
        let guard = compile(&kernel, &CompileOptions::new(Isolation::GuardPages));
        assert!(bounds.stats.inst_count > guard.stats.inst_count);
        // HFI adds the sandbox prologue (4 insts) but no per-access code.
        assert!(hfi.stats.inst_count <= guard.stats.inst_count + 5);
        // HFI leaves more registers allocatable.
        assert!(hfi.stats.allocatable_regs > bounds.stats.allocatable_regs);
    }

    #[test]
    fn reserving_registers_increases_spills() {
        // A kernel with many simultaneously-live vregs.
        let mut b = IrBuilder::new("pressure");
        let vars: Vec<_> = (0..14).map(|_| b.vreg()).collect();
        for (k, &v) in vars.iter().enumerate() {
            b.constant(v, k as i64 + 1);
        }
        let acc = b.vreg();
        b.constant(acc, 0);
        let iter = b.vreg();
        b.constant(iter, 0);
        let top = b.label_here();
        for &v in &vars {
            b.bin(AluOp::Add, acc, acc, v);
        }
        b.bin_i(AluOp::Add, iter, iter, 1);
        b.br_if_i(Cond::LtU, iter, 10, top);
        b.ret(acc);
        let kernel = b.finish();

        let mut opts = CompileOptions::new(Isolation::Hfi);
        let baseline = compile(&kernel, &opts);
        opts.extra_reserved_regs = 3;
        let squeezed = compile(&kernel, &opts);
        assert!(squeezed.stats.spilled_vregs > baseline.stats.spilled_vregs);

        // And both still compute the right answer.
        let expected = (1..=14u64).sum::<u64>() * 10;
        for compiled in [baseline, squeezed] {
            let mut machine = Machine::new(compiled.program);
            let result = machine.run(10_000_000);
            assert_eq!(result.regs[0], expected);
        }
    }

    #[test]
    fn hmov_code_is_larger_per_access() {
        let kernel = sum_kernel(10);
        let guard = compile(&kernel, &CompileOptions::new(Isolation::GuardPages));
        let mut hfi_opts = CompileOptions::new(Isolation::Hfi);
        hfi_opts.sandboxed = false; // compare bodies only
        let hfi = compile(&kernel, &hfi_opts);
        // Same instruction count (minus the movi heap_base prologue), but
        // each of the 2 memory ops costs one extra byte.
        assert_eq!(guard.stats.mem_ops, hfi.stats.mem_ops);
        assert!(hfi.stats.code_bytes >= guard.stats.code_bytes - 5 + 2);
    }
}
