//! The out-of-order core model — this repository's gem5 substitute.
//!
//! A ROB-based speculative pipeline with the structure of the paper's
//! baseline (Table 2): wide fetch/decode, register renaming, out-of-order
//! issue, L1/L2 caches, a dTLB, PHT/BTB prediction, and squash-on-
//! mispredict. Three properties matter for reproducing the paper and are
//! modelled faithfully:
//!
//! 1. **Speculative loads touch the data cache.** A load executes as soon
//!    as its operands are ready, even under an unresolved branch; its cache
//!    fill survives the squash. This is the Spectre channel of Fig. 7.
//! 2. **HFI checks cost zero latency and gate the cache.** Implicit-region
//!    and `hmov` checks happen "in parallel with the dTLB lookup" (Fig. 1):
//!    they add no cycles, and a *failing* check prevents the cache access
//!    entirely — speculatively or not — which is HFI's Spectre defence.
//! 3. **Code-region checks happen at decode.** An out-of-bounds fetch
//!    decodes to a faulting NOP; the bad instruction never enters the
//!    pipeline, even speculatively (paper §4.1).
//!
//! Serialization (`cpuid`, `is-serialized` enter/exit, in-sandbox region
//! updates) drains the ROB at decode and charges the §3.4 pipeline cost.

use std::collections::VecDeque;
use std::sync::Arc;

use hfi_core::{
    Access, CostModel, ExitDisposition, ExitReason, HfiContext, HfiFault, SyscallDisposition,
    SyscallKind,
};

use crate::cache::CacheHierarchy;
use crate::chaos::{ArchEvent, ChaosHook};
use crate::isa::{effective_address, Inst, Program, Reg};
use crate::mem::{zero_extend, SparseMemory};
use crate::plan::{plan_of, DecodedProgram, MicroOp, OpClass, SerializeClass, NO_REG, NO_TARGET};
use crate::predictor::{BranchTargetBuffer, PatternHistoryTable};

/// Structural parameters of the modelled core (paper Table 2).
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Micro-ops decoded (and dispatched) per cycle.
    pub decode_width: usize,
    /// Micro-ops committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Loads+stores issued per cycle.
    pub mem_ports: usize,
    /// Simple-ALU operations issued per cycle.
    pub alu_ports: usize,
    /// Front-end redirect penalty after a mispredict, in cycles.
    pub redirect_penalty: u64,
    /// Cycles charged for OS signal delivery (HFI faults reach the runtime
    /// as signals; §3.3.2).
    pub signal_delivery: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            decode_width: 5,
            commit_width: 8,
            rob_size: 224,
            mem_ports: 2,
            alu_ports: 4,
            redirect_penalty: 10,
            signal_delivery: 3000,
        }
    }
}

/// Why the machine stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum Stop {
    /// A `Halt` instruction committed.
    Halted,
    /// An unhandled fault (no signal handler installed).
    Fault(HfiFault),
    /// The cycle budget ran out.
    CycleLimit,
    /// The OS model requested exit (syscall 0 / `exit`).
    Exited {
        /// The value in `r1` at exit (exit code by convention).
        code: u64,
    },
}

/// Counters collected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed instructions.
    pub committed: u64,
    /// Squashed (wrong-path) instructions.
    pub squashed: u64,
    /// Committed branches (conditional and indirect).
    pub branches: u64,
    /// Conditional-branch mispredictions.
    pub mispredicts: u64,
    /// Cycles the front end could not decode because the ROB was full.
    pub rob_stall_cycles: u64,
    /// HFI checks performed (fetch, implicit-data, and `hmov` checks
    /// evaluated while a sandbox was active). A stalled `hmov` load
    /// counts one check per dispatch attempt: once in every cycle the
    /// issue stage reaches it with a memory port free, not once per
    /// instruction.
    pub hfi_checks: u64,
    /// Pipeline drains for serialization.
    pub serializations: u64,
    /// Loads that executed speculatively and were later squashed — the
    /// population that can leak through the cache.
    pub squashed_loads_executed: u64,
    /// Faults delivered (HFI or hardware).
    pub faults: u64,
    /// Syscalls redirected by HFI's native-sandbox interposition.
    pub syscalls_redirected: u64,
    /// Syscalls that reached the OS model.
    pub syscalls_to_os: u64,
}

/// The result of [`Machine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Why the run stopped.
    pub stop: Stop,
    /// Counters.
    pub stats: CoreStats,
    /// Final architectural register values.
    pub regs: [u64; 16],
    /// Final exit-reason MSR contents.
    pub exit_reason: Option<ExitReason>,
}

impl RunResult {
    /// Instructions-per-cycle of the run.
    pub fn ipc(&self) -> f64 {
        self.stats.committed as f64 / self.cycles.max(1) as f64
    }
}

/// Outcome of one modelled OS syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallOutcome {
    /// Return value (written to `r0`).
    pub ret: u64,
    /// Extra cycles beyond the kernel round-trip base.
    pub extra_cycles: u64,
    /// Terminate the machine.
    pub exit: bool,
}

/// The OS model invoked for syscalls that are *not* interposed by HFI.
///
/// `Send` is a supertrait so executors holding a boxed model stay
/// `Send` — the serving scheduler (`hfi-serve`) migrates prepared
/// executors across shard workers.
pub trait OsModel: Send {
    /// Handles syscall `number` with access to registers and memory.
    fn syscall(
        &mut self,
        number: u64,
        regs: &mut [u64; 16],
        mem: &mut SparseMemory,
    ) -> SyscallOutcome;
}

/// The default OS: syscall 0 exits (code in `r1`); a per-syscall filter
/// cost can model Seccomp-bpf (§6.4.1); everything else returns 0.
#[derive(Debug, Default, Clone)]
pub struct DefaultOs {
    /// Extra cycles charged per syscall (e.g. a Seccomp-bpf filter).
    pub filter_cycles: u64,
    /// Number of syscalls serviced.
    pub serviced: u64,
}

impl OsModel for DefaultOs {
    fn syscall(
        &mut self,
        number: u64,
        regs: &mut [u64; 16],
        _mem: &mut SparseMemory,
    ) -> SyscallOutcome {
        self.serviced += 1;
        if number == 0 {
            return SyscallOutcome {
                ret: 0,
                extra_cycles: 0,
                exit: true,
            };
        }
        // Model open/read/close-style calls: VFS walk + page-cache read
        // is on the order of a microsecond (~3300 cycles at 3.3 GHz)
        // beyond the bare kernel entry/exit.
        let _ = regs;
        SyscallOutcome {
            ret: 0,
            extra_cycles: self.filter_cycles + 3300,
            exit: false,
        }
    }
}

/// The OS model an executor services syscalls with: the default model
/// held inline, so a reset restores it without allocating, or one
/// installed with `set_os`.
pub(crate) enum Os {
    Default(DefaultOs),
    Installed(Box<dyn OsModel>),
}

impl Default for Os {
    fn default() -> Self {
        Os::Default(DefaultOs::default())
    }
}

impl OsModel for Os {
    fn syscall(
        &mut self,
        number: u64,
        regs: &mut [u64; 16],
        mem: &mut SparseMemory,
    ) -> SyscallOutcome {
        match self {
            Os::Default(os) => os.syscall(number, regs, mem),
            Os::Installed(os) => os.syscall(number, regs, mem),
        }
    }
}

/// Operand-source tags for the compact [`Src`] slot.
const SRC_NONE: u8 = 0;
const SRC_READY: u8 = 1;
const SRC_WAIT: u8 = 2;

/// One renamed operand slot, 16 bytes flat. `payload` is the value when
/// `tag == SRC_READY` or the producer's sequence number when
/// `tag == SRC_WAIT`; if that producer has already committed, the
/// architectural register `reg` holds its value (the producer was the
/// youngest writer at decode, so no later writer can have committed
/// before this consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Src {
    payload: u64,
    reg: u8,
    tag: u8,
}

impl Src {
    const NONE: Src = Src {
        payload: 0,
        reg: 0,
        tag: SRC_NONE,
    };

    #[inline(always)]
    fn ready(value: u64) -> Src {
        Src {
            payload: value,
            reg: 0,
            tag: SRC_READY,
        }
    }

    #[inline(always)]
    fn wait(seq: u64, reg: u8) -> Src {
        Src {
            payload: seq,
            reg,
            tag: SRC_WAIT,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum EntryState {
    Waiting,
    /// In flight; the wakeup time lives in `Machine::in_flight`, not here.
    Executing,
    Done,
}

/// Sentinel for `RobEntry::hfi_gen_before`: entry does not mutate HFI
/// state.
const NO_GEN: u32 = u32::MAX;

/// A reorder-buffer entry: *dynamic* state only. Every static fact
/// (operand shape, opcode class, latency class, branch target…) lives in
/// the shared [`DecodedProgram`] and is reached through `inst_idx` — the
/// entry carries what this *dynamic instance* learned: renamed operands,
/// the resolved address, the speculative value, the prediction made for
/// it, and the HFI generation it decoded under.
///
/// The entry's sequence number is implicit: the entry with sequence
/// number `seq` lives in ring slot `seq & Machine::rob_mask`.
#[derive(Debug, Clone)]
struct RobEntry {
    value: u64,
    srcs: [Src; 3],
    /// For loads/stores: resolved effective address (`mem_size > 0`).
    /// For a stalled `hmov` load it doubles as the memoized checked EA
    /// (`EF_EA_KNOWN`): the check reads only the entry's own generation
    /// snapshot, so its result cannot change between retries.
    mem_addr: u64,
    /// For stores: the value to write at commit (`EF_HAS_STORE_VALUE`).
    /// For a load stalled behind an older store: that store's seq, which
    /// the load parks on — loads never forward data out of this field,
    /// so the reuse cannot be observed.
    store_value: u64,
    /// Fault detected at decode or execute, delivered at commit.
    fault: Option<HfiFault>,
    inst_idx: u32,
    /// Branch prediction made at decode (predicted next inst index);
    /// `NO_TARGET` when the entry is not a predicted branch.
    predicted_next: u32,
    /// HFI-state generation current when this entry decoded: memory
    /// operations are checked against the state *their* program-order
    /// position sees, so a younger `hfi_exit` cannot lift checks from an
    /// older in-flight load (and a wrong-path exit still exposes the
    /// younger wrong-path loads that follow it — the §3.4 hazard).
    hfi_gen: u32,
    /// For HFI-state-mutating entries: the generation before the change
    /// (`NO_GEN` otherwise). The squash undo is `hfi_history[gen_before]`
    /// — the generation journal doubles as the speculation-undo record,
    /// so no per-entry context snapshot is taken.
    hfi_gen_before: u32,
    /// Destination register, [`NO_REG`] when none.
    dst: u8,
    /// Memory access size in bytes; 0 while the address is unresolved.
    mem_size: u8,
    state: EntryState,
    flags: u8,
}

/// `RobEntry::flags` bits.
const EF_LOAD: u8 = 1 << 0;
const EF_STORE: u8 = 1 << 1;
/// The load already performed its (speculative) cache access.
const EF_CACHE_ACCESSED: u8 = 1 << 2;
const EF_HAS_STORE_VALUE: u8 = 1 << 3;
/// `mem_addr` holds this hmov load's already-checked effective address,
/// so retries skip `hmov_check_access` (pure per generation snapshot).
const EF_EA_KNOWN: u8 = 1 << 4;

impl RobEntry {
    fn blank(inst_idx: usize) -> Self {
        RobEntry {
            value: 0,
            srcs: [Src::NONE; 3],
            mem_addr: 0,
            store_value: 0,
            fault: None,
            inst_idx: inst_idx as u32,
            predicted_next: NO_TARGET,
            hfi_gen: 0,
            hfi_gen_before: NO_GEN,
            dst: NO_REG,
            mem_size: 0,
            state: EntryState::Waiting,
            flags: 0,
        }
    }

    #[inline(always)]
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// Entries parked off the issue queue, chained per ROB slot of the entry
/// they wait on. The live window never holds more than `rob_size`
/// entries, so `seq & mask` (over the next power of two) names one slot
/// per in-flight entry. A parked entry waits on one blocker at a time,
/// so its own slot can hold its link in that blocker's chain.
#[derive(Debug)]
struct WaitLists {
    /// Latest waiter parked on each slot's entry, `NONE` when none.
    head: Vec<u64>,
    /// The next waiter in the same chain, by the waiter's own slot.
    next: Vec<u64>,
    mask: u64,
    /// Slots with waiters, so squash and fault delivery touch only
    /// those; `at[slot]` is the slot's index in `busy`.
    busy: Vec<usize>,
    at: Vec<usize>,
}

impl WaitLists {
    const NONE: u64 = u64::MAX;

    fn new(rob_size: usize) -> Self {
        let slots = rob_size.max(1).next_power_of_two();
        WaitLists {
            head: vec![Self::NONE; slots],
            next: vec![Self::NONE; slots],
            mask: slots as u64 - 1,
            busy: Vec::new(),
            at: vec![0; slots],
        }
    }

    #[inline(always)]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Parks `seq` until `blocker` wakes it.
    fn park(&mut self, blocker: u64, seq: u64) {
        let b = self.slot(blocker);
        if self.head[b] == Self::NONE {
            self.at[b] = self.busy.len();
            self.busy.push(b);
        }
        let s = self.slot(seq);
        self.next[s] = self.head[b];
        self.head[b] = seq;
    }

    #[inline(always)]
    fn has_waiters(&self, blocker: u64) -> bool {
        self.head[self.slot(blocker)] != Self::NONE
    }

    /// Moves the entries parked on `blocker` to `out`.
    fn wake(&mut self, blocker: u64, out: &mut Vec<u64>) {
        let b = self.slot(blocker);
        let mut s = std::mem::replace(&mut self.head[b], Self::NONE);
        if s == Self::NONE {
            return;
        }
        while s != Self::NONE {
            out.push(s);
            s = self.next[self.slot(s)];
        }
        self.unlist(b);
    }

    fn unlist(&mut self, slot: usize) {
        let k = self.at[slot];
        self.busy.swap_remove(k);
        if let Some(&moved) = self.busy.get(k) {
            self.at[moved] = k;
        }
    }

    /// Drops every parked entry younger than `seq`. A waiter is younger
    /// than its blocker, so this also empties every squashed slot.
    fn prune_after(&mut self, seq: u64) {
        let mut k = 0;
        while k < self.busy.len() {
            let b = self.busy[k];
            let mut s = std::mem::replace(&mut self.head[b], Self::NONE);
            let mut kept = Self::NONE;
            while s != Self::NONE {
                let after = self.next[self.slot(s)];
                if s <= seq {
                    // Relink the survivors, keeping their order.
                    if kept == Self::NONE {
                        self.head[b] = s;
                    } else {
                        let link = self.slot(kept);
                        self.next[link] = s;
                    }
                    kept = s;
                }
                s = after;
            }
            if kept == Self::NONE {
                self.unlist(b);
            } else {
                let last = self.slot(kept);
                self.next[last] = Self::NONE;
                k += 1;
            }
        }
    }

    fn clear(&mut self) {
        for &b in &self.busy {
            self.head[b] = Self::NONE;
        }
        self.busy.clear();
    }

    /// Returns every list to its just-built state, keeping the buffers.
    fn reset(&mut self) {
        let Self {
            head,
            next,
            mask: _,
            busy,
            at,
        } = self;
        head.fill(Self::NONE);
        next.fill(Self::NONE);
        busy.clear();
        at.fill(0);
    }

    /// Whether every parked entry's seq lies in `[lo, hi)`.
    fn all_within(&self, lo: u64, hi: u64) -> bool {
        self.busy.iter().all(|&b| {
            let mut s = self.head[b];
            while s != Self::NONE {
                if !(lo..hi).contains(&s) {
                    return false;
                }
                s = self.next[self.slot(s)];
            }
            true
        })
    }
}

/// Merges the ascending `extra` into the ascending `into`, from the back,
/// so only the tail that has to move is touched.
fn merge_sorted(into: &mut Vec<u64>, extra: &[u64]) {
    let mut a = into.len();
    let mut b = extra.len();
    into.resize(a + b, 0);
    while b > 0 {
        if a > 0 && into[a - 1] > extra[b - 1] {
            a -= 1;
            into[a + b] = into[a];
        } else {
            b -= 1;
            into[a + b] = extra[b];
        }
    }
}

/// The complete simulated machine: program, memory, caches, predictors,
/// HFI state, and the out-of-order pipeline.
pub struct Machine {
    program: Arc<Program>,
    /// The shared static plan: pre-decoded micro-ops and block table.
    plan: Arc<DecodedProgram>,
    /// Data memory.
    pub mem: SparseMemory,
    /// Cache hierarchy and dTLB.
    pub caches: CacheHierarchy,
    /// HFI register state.
    pub hfi: HfiContext,
    /// Cost parameters.
    pub costs: CostModel,
    config: CoreConfig,
    pht: PatternHistoryTable,
    btb: BranchTargetBuffer,
    os: Os,
    /// Runtime fault-injection hook (see [`crate::chaos`]); `None` in
    /// normal operation, where every hook site is one predictable branch.
    chaos: Option<Box<dyn ChaosHook>>,
    /// Byte PC of the runtime's signal handler for HFI faults, if any.
    pub signal_handler: Option<u64>,

    // Pipeline state.
    regs: [u64; 16],
    /// Speculative-HFI-state history, indexed by generation; in-flight
    /// memory operations consult the generation at their decode, and a
    /// squash restores the oldest squashed entry's `hfi_gen_before`.
    hfi_history: Vec<HfiContext>,
    hfi_gen: usize,
    /// The reorder buffer: a ring of `rob_size.next_power_of_two()`
    /// slots. The live window is the seqs `[head_seq, next_seq)`, at most
    /// `rob_size` of them, and the entry with seq `seq` sits in slot
    /// `seq & rob_mask`. Decode writes slot `next_seq`, commit advances
    /// `head_seq`, and a squash moves `next_seq` back; no entry moves.
    rob: Box<[RobEntry]>,
    rob_mask: u64,
    /// Sequence number of the ROB head (equal to `next_seq` when empty).
    head_seq: u64,
    /// Seqs of the `Waiting` entries the issue stage visits, in age
    /// order. An entry blocked on an in-flight producer, or a load
    /// stalled behind an older store, leaves the queue and parks in
    /// `waits` until that blocker completes, resolves or commits.
    issue_queue: Vec<u64>,
    /// Parked entries, listed under the entry they wait on.
    waits: WaitLists,
    /// Entries woken by the finish or commit stage, merged into
    /// `issue_queue` before the next scan.
    woken: Vec<u64>,
    /// Seqs of `hmov` loads parked on a store since an earlier cycle,
    /// ascending; `parked_hmov_now` holds those parked this cycle. Each
    /// counts one HFI check per cycle in which the issue stage would
    /// have re-dispatched it (see `execute`).
    parked_hmov: Vec<u64>,
    parked_hmov_now: Vec<u64>,
    /// `(seq, done_at)` of `Executing` entries — the finish stage wakes
    /// only these.
    in_flight: Vec<(u64, u64)>,
    /// Rename table: sequence number of the youngest in-flight producer
    /// of each architectural register (O(1) operand lookup; rebuilt on
    /// the rare squash).
    reg_writer: [Option<u64>; 16],
    /// Sequence numbers of in-flight stores, oldest first — the
    /// load/store dependence scan walks only these instead of the whole
    /// ROB.
    store_seqs: VecDeque<u64>,
    next_seq: u64,
    cycle: u64,
    fetch_index: usize,
    fetch_stall_until: u64,
    /// Decode-time (speculative-path) call stack of return inst indices.
    call_stack: Vec<usize>,
    /// Delta journal of decode-time call-stack mutations, oldest first:
    /// a squash replays the inverse deltas newest-first instead of
    /// restoring a full-stack snapshot.
    call_journal: VecDeque<(u64, CallDelta)>,
    halted: Option<Stop>,
    stats: CoreStats,
    mem_ops_this_cycle: usize,
    alu_ops_this_cycle: usize,
}

/// One reversible decode-time call-stack mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallDelta {
    /// A `Call` pushed a return index (undo: pop it).
    Pushed,
    /// A `Ret` popped this return index (undo: push it back).
    Popped(usize),
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("fetch_index", &self.fetch_index)
            .field("rob_len", &self.rob_len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine executing `program` from its first instruction.
    ///
    /// Accepts a [`Program`] by value or an [`Arc<Program>`]; harnesses
    /// that run one compiled kernel on many machines share the `Arc`
    /// instead of cloning instruction vectors per cell.
    pub fn new(program: impl Into<Arc<Program>>) -> Self {
        Self::with_config(program, CoreConfig::default())
    }

    /// Creates a machine with explicit structural parameters.
    pub fn with_config(program: impl Into<Arc<Program>>, config: CoreConfig) -> Self {
        let program: Arc<Program> = program.into();
        let plan = plan_of(&program);
        let slots = config.rob_size.max(1).next_power_of_two();
        Self {
            program,
            plan,
            mem: SparseMemory::new(),
            caches: CacheHierarchy::new(),
            hfi: HfiContext::new(),
            costs: CostModel::default(),
            config,
            pht: PatternHistoryTable::new(4096),
            btb: BranchTargetBuffer::new(512),
            os: Os::default(),
            chaos: None,
            signal_handler: None,
            regs: [0; 16],
            hfi_history: vec![HfiContext::new()],
            hfi_gen: 0,
            rob: vec![RobEntry::blank(0); slots].into_boxed_slice(),
            rob_mask: slots as u64 - 1,
            head_seq: 0,
            issue_queue: Vec::new(),
            waits: WaitLists::new(config.rob_size),
            woken: Vec::new(),
            parked_hmov: Vec::new(),
            parked_hmov_now: Vec::new(),
            in_flight: Vec::new(),
            reg_writer: [None; 16],
            store_seqs: VecDeque::new(),
            next_seq: 0,
            cycle: 0,
            fetch_index: 0,
            fetch_stall_until: 0,
            call_stack: Vec::new(),
            call_journal: VecDeque::new(),
            halted: None,
            stats: CoreStats::default(),
            mem_ops_this_cycle: 0,
            alu_ops_this_cycle: 0,
        }
    }

    /// Resets all per-tenant state, keeping the program, its plan, the
    /// structural configuration and every buffer: afterwards the machine
    /// behaves exactly as a new one over the same program. Memory (its
    /// page buffers kept, see [`SparseMemory::clear`]), the caches and
    /// dTLB (lines, counters and latencies), the predictors, the HFI
    /// state and its speculation history, the cost model, the OS model,
    /// the chaos hook, the signal handler, the registers and the whole
    /// pipeline return to their just-constructed values. A warm pool
    /// runs this between leases instead of building a new machine.
    pub fn reset(&mut self) {
        // Every field is named, so a field added later must be placed
        // here: reset, or kept on purpose.
        let Self {
            program: _,
            plan: _,
            mem,
            caches,
            hfi,
            costs,
            config: _,
            pht,
            btb,
            os,
            chaos,
            signal_handler,
            regs,
            hfi_history,
            hfi_gen,
            rob,
            rob_mask: _,
            head_seq,
            issue_queue,
            waits,
            woken,
            parked_hmov,
            parked_hmov_now,
            in_flight,
            reg_writer,
            store_seqs,
            next_seq,
            cycle,
            fetch_index,
            fetch_stall_until,
            call_stack,
            call_journal,
            halted,
            stats,
            mem_ops_this_cycle,
            alu_ops_this_cycle,
        } = self;
        mem.clear();
        caches.reset();
        *hfi = HfiContext::new();
        *costs = CostModel::default();
        pht.reset();
        btb.reset();
        *os = Os::default();
        *chaos = None;
        *signal_handler = None;
        *regs = [0; 16];
        hfi_history.clear();
        hfi_history.push(HfiContext::new());
        *hfi_gen = 0;
        rob.fill(RobEntry::blank(0));
        *head_seq = 0;
        issue_queue.clear();
        waits.reset();
        woken.clear();
        parked_hmov.clear();
        parked_hmov_now.clear();
        in_flight.clear();
        *reg_writer = [None; 16];
        store_seqs.clear();
        *next_seq = 0;
        *cycle = 0;
        *fetch_index = 0;
        *fetch_stall_until = 0;
        call_stack.clear();
        call_journal.clear();
        *halted = None;
        *stats = CoreStats::default();
        *mem_ops_this_cycle = 0;
        *alu_ops_this_cycle = 0;
    }

    /// Points this machine at another program and resets it: afterwards
    /// it behaves exactly as `Machine::with_config(program, config)`
    /// with its own configuration, but keeps its buffers. A warm pool
    /// repurposing one tenant's idle instance for another takes this
    /// instead of building a new machine.
    pub fn retarget(&mut self, program: &Arc<Program>) {
        if !Arc::ptr_eq(&self.program, program) {
            self.plan = plan_of(program);
            self.program = Arc::clone(program);
        }
        self.reset();
    }

    /// Replaces the OS model.
    pub fn set_os(&mut self, os: Box<dyn OsModel>) {
        self.os = Os::Installed(os);
    }

    /// Installs a runtime fault-injection hook (see [`crate::chaos`]).
    /// A hooked run takes the same pipeline path as an unhooked one: a
    /// load stalled behind an older store parks off the issue queue and
    /// offers its address to the hook again only when it is dispatched
    /// again, once the store has resolved or committed.
    pub fn set_chaos(&mut self, hook: Box<dyn ChaosHook>) {
        self.chaos = Some(hook);
    }

    /// Removes and returns the installed chaos hook, if any, so callers
    /// can inspect the engine/monitor state after a run.
    pub fn take_chaos(&mut self) -> Option<Box<dyn ChaosHook>> {
        self.chaos.take()
    }

    /// Sets an architectural register (before running).
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.regs[reg.0 as usize] = value;
    }

    /// Reads an architectural register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Counters so far.
    pub fn core_stats(&self) -> CoreStats {
        self.stats
    }

    /// Snapshot of the architectural register file.
    pub fn regs(&self) -> [u64; 16] {
        self.regs
    }

    /// The program under execution.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The pre-decoded plan the pipeline runs from.
    pub fn plan(&self) -> &Arc<DecodedProgram> {
        &self.plan
    }

    /// Ring slot of the entry with sequence number `seq`.
    #[inline(always)]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// Entries in the live window.
    #[inline(always)]
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    #[inline(always)]
    fn rob_is_empty(&self) -> bool {
        self.head_seq == self.next_seq
    }

    /// Whether every seq the scheduling lists hold lies in the live
    /// window, and the window fits the ROB.
    fn lists_within_window(&self) -> bool {
        let window = self.head_seq..self.next_seq;
        let sorted_within = |list: &[u64]| {
            list.first().is_none_or(|s| window.contains(s))
                && list.last().is_none_or(|s| window.contains(s))
        };
        self.rob_len() <= self.config.rob_size
            && sorted_within(&self.issue_queue)
            && sorted_within(&self.parked_hmov)
            && self.in_flight.iter().all(|(s, _)| window.contains(s))
            && self.waits.all_within(self.head_seq, self.next_seq)
    }

    fn read_operand(&self, reg: u8) -> Src {
        // Youngest in-flight producer wins — the rename table tracks it.
        match self.reg_writer[reg as usize] {
            Some(seq) => {
                debug_assert!(seq >= self.head_seq, "rename table in sync");
                let entry = &self.rob[self.slot(seq)];
                match entry.state {
                    EntryState::Done => Src::ready(entry.value),
                    _ => Src::wait(seq, reg),
                }
            }
            None => Src::ready(self.regs[reg as usize]),
        }
    }

    /// The value of a `SRC_WAIT` operand: the producer's speculative
    /// value once done, the architectural register if it already
    /// committed, `None` while still in flight.
    #[inline]
    fn wait_value(&self, seq: u64, reg: u8) -> Option<u64> {
        if seq < self.head_seq {
            // Producer already committed: its value is architectural.
            return Some(self.regs[reg as usize]);
        }
        let entry = &self.rob[self.slot(seq)];
        match entry.state {
            EntryState::Done => Some(entry.value),
            _ => None,
        }
    }

    /// Rebuilds the rename table from the surviving ROB entries (squash
    /// path only — pushes and commits maintain it incrementally).
    fn rebuild_reg_writer(&mut self) {
        self.reg_writer = [None; 16];
        for seq in self.head_seq..self.next_seq {
            let dst = self.rob[self.slot(seq)].dst;
            if dst != NO_REG {
                self.reg_writer[dst as usize] = Some(seq);
            }
        }
    }

    // ------------------------------------------------------------------
    // Front end: fetch + decode + rename + dispatch.
    // ------------------------------------------------------------------

    fn frontend(&mut self, plan: &DecodedProgram) {
        if self.cycle < self.fetch_stall_until {
            return;
        }
        if self.rob_len() >= self.config.rob_size {
            self.stats.rob_stall_cycles += 1;
            return;
        }
        // Fetch reads the shared pre-decoded plan: every static fact is a
        // flat-array load, no `Inst` match and no clone.
        for _ in 0..self.config.decode_width {
            if self.rob_len() >= self.config.rob_size {
                break;
            }
            if self.fetch_index >= plan.len() {
                break;
            }
            let inst_idx = self.fetch_index;
            let pc = plan.pc(inst_idx);
            let uop = plan.op(inst_idx);

            // I-cache access for this fetch group; a miss stalls the
            // front end.
            let fetch_lat = self.caches.fetch_access(pc, self.cycle);
            if fetch_lat > 0 {
                self.fetch_stall_until = self.cycle + fetch_lat;
                return;
            }

            // HFI code-region check, in parallel with decode (§4.1). On
            // failure the micro-op becomes a faulting NOP.
            if self.hfi.enabled() {
                self.stats.hfi_checks += 1;
            }
            if let Err(fault) = self.hfi.check_fetch(pc, uop.len as u64) {
                let mut entry = RobEntry::blank(inst_idx);
                entry.state = EntryState::Executing;
                entry.fault = Some(fault);
                let seq = self.push_entry(entry);
                self.in_flight.push((seq, self.cycle + 1));
                // Fetch cannot meaningfully continue past an OOB PC; stall
                // until the fault commits and redirects.
                self.fetch_index = plan.len();
                return;
            }

            // Serializing instructions drain the ROB before decoding.
            if self.decode_serializes(uop) {
                if !self.rob_is_empty() {
                    return; // retry next cycle until drained
                }
                self.stats.serializations += 1;
                self.fetch_stall_until = self.cycle + self.serialize_cost(uop);
            }

            if !self.decode_one(inst_idx, pc, uop) {
                return;
            }
            if uop.class == OpClass::Syscall || self.fetch_index != inst_idx + 1 {
                // Control flow redirected fetch (or entered the kernel);
                // end the fetch group.
                return;
            }
        }
    }

    /// Whether decoding this micro-op drains the pipeline. The class is
    /// static (precomputed in the plan); only the sandbox-dependent
    /// classes consult live HFI state.
    fn decode_serializes(&self, uop: &MicroOp) -> bool {
        match uop.serialize {
            SerializeClass::No => false,
            SerializeClass::Always => true,
            // Region updates serialize only inside a (hybrid) sandbox
            // (§4.3).
            SerializeClass::IfEnabled => self.hfi.enabled(),
            // Exit of a serialized sandbox serializes; switch-on-exit does
            // not (§4.5).
            SerializeClass::ExitDynamic => {
                self.hfi.enabled()
                    && self.hfi.config().serialize
                    && !self.hfi.config().switch_on_exit
            }
        }
    }

    fn serialize_cost(&self, uop: &MicroOp) -> u64 {
        match uop.class {
            OpClass::Fence => 2,
            OpClass::Syscall => 4, // drain only; kernel cost charged at handling
            _ => self.costs.serialize_cycles,
        }
    }

    /// Decodes one pre-decoded micro-op into the ROB. Everything static
    /// was resolved at plan-build time; this stage contributes only the
    /// *dynamic* work — renamed operand reads, branch prediction, call
    /// stack, and speculative HFI-state mutation. Returns false if the
    /// front end must stop (e.g. waiting on syscall handling).
    fn decode_one(&mut self, inst_idx: usize, pc: u64, uop: &MicroOp) -> bool {
        if uop.class == OpClass::Syscall {
            // ROB is drained (decode_serializes). Handle immediately
            // with architectural state.
            return self.handle_syscall(inst_idx);
        }

        let mut entry = RobEntry::blank(inst_idx);
        entry.dst = uop.dst;
        entry.flags = uop.flags & (MicroOp::IS_LOAD | MicroOp::IS_STORE);
        debug_assert_eq!(MicroOp::IS_LOAD, EF_LOAD);
        debug_assert_eq!(MicroOp::IS_STORE, EF_STORE);
        // Rename: the plan names the registers each slot reads; unset
        // slots stay SRC_NONE.
        for (k, reg) in uop.srcs.iter().enumerate() {
            if *reg != NO_REG {
                entry.srcs[k] = self.read_operand(*reg);
            }
        }
        let mut next = inst_idx + 1;

        match uop.class {
            OpClass::Branch | OpClass::BranchI => {
                let mut taken = self.pht.predict(pc);
                if let Some(hook) = self.chaos.as_deref_mut() {
                    // Forced misprediction: the wrong path issues and
                    // runs until the branch resolves at execute.
                    taken ^= hook.flip_prediction(pc);
                }
                next = if taken {
                    uop.target as usize
                } else {
                    inst_idx + 1
                };
                entry.predicted_next = next as u32;
            }
            OpClass::Jump => {
                next = uop.target as usize;
            }
            OpClass::JumpInd => {
                // Predict through the BTB; a miss predicts fall-through
                // (and will redirect at execute).
                next = self
                    .btb
                    .predict(pc)
                    .and_then(|t| self.program.index_of_pc(t))
                    .unwrap_or(inst_idx + 1);
                entry.predicted_next = next as u32;
            }
            OpClass::Call => {
                self.call_journal
                    .push_back((self.next_seq, CallDelta::Pushed));
                self.call_stack.push(inst_idx + 1);
                next = uop.target as usize;
            }
            OpClass::Ret => {
                // The decode-time call stack is exact along the fetched
                // path, so returns never mispredict in this model.
                match self.call_stack.pop() {
                    Some(ret_idx) => {
                        self.call_journal
                            .push_back((self.next_seq, CallDelta::Popped(ret_idx)));
                        next = ret_idx;
                    }
                    None => next = self.program.len(),
                }
            }
            OpClass::HfiEnter => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                let Inst::HfiEnter { config } = self.program.inst(inst_idx) else {
                    unreachable!("plan class matches the backing instruction")
                };
                match self.hfi.enter(*config) {
                    Ok(_) => {}
                    Err(fault) => entry.fault = Some(fault),
                }
            }
            OpClass::HfiEnterChild => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                let Inst::HfiEnterChild { config, regions } = self.program.inst(inst_idx) else {
                    unreachable!("plan class matches the backing instruction")
                };
                match self.hfi.enter_child(*config, **regions) {
                    Ok(_) => {}
                    Err(fault) => entry.fault = Some(fault),
                }
                // Loading the child register file costs a few cycles of
                // microcode (charged as front-end stall).
                self.fetch_stall_until =
                    self.cycle.max(self.fetch_stall_until) + self.costs.set_region_cycles;
            }
            OpClass::HfiExit => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                match self.hfi.exit() {
                    Ok((disposition, _)) => match disposition {
                        ExitDisposition::FallThrough | ExitDisposition::SwitchedToParent => {}
                        ExitDisposition::JumpToHandler(handler) => {
                            next = self
                                .program
                                .index_of_pc(handler)
                                .unwrap_or(self.program.len());
                        }
                    },
                    Err(fault) => entry.fault = Some(fault),
                }
            }
            OpClass::HfiReenter => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                if let Err(fault) = self.hfi.reenter() {
                    entry.fault = Some(fault);
                }
            }
            OpClass::HfiSetRegion => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                let Inst::HfiSetRegion { slot, region } = self.program.inst(inst_idx) else {
                    unreachable!("plan class matches the backing instruction")
                };
                if let Err(fault) = self.hfi.set_region(*slot as usize, *region) {
                    entry.fault = Some(fault);
                }
                self.fetch_stall_until =
                    self.cycle.max(self.fetch_stall_until) + self.costs.set_region_cycles;
            }
            OpClass::HfiClearRegion => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                if let Err(fault) = self.hfi.clear_region(uop.region as usize) {
                    entry.fault = Some(fault);
                }
            }
            OpClass::HfiClearAllRegions => {
                entry.hfi_gen_before = self.hfi_gen as u32;
                if let Err(fault) = self.hfi.clear_all_regions() {
                    entry.fault = Some(fault);
                }
            }
            // Straight-line classes: rename above was all they needed.
            _ => {}
        }

        if entry.hfi_gen_before != NO_GEN {
            self.bump_hfi_gen();
        }
        let seq = self.push_entry(entry);
        self.issue_queue.push(seq);
        self.fetch_index = next;
        true
    }

    /// Records the current HFI state as a new speculative generation.
    fn bump_hfi_gen(&mut self) {
        self.hfi_gen += 1;
        self.hfi_history.truncate(self.hfi_gen);
        self.hfi_history.push(self.hfi.clone());
    }

    /// Writes `entry` into the ring slot of the next sequence number,
    /// registering it with the rename table and store list. Returns the
    /// assigned seq.
    fn push_entry(&mut self, mut entry: RobEntry) -> u64 {
        let seq = self.next_seq;
        entry.hfi_gen = if entry.hfi_gen_before == NO_GEN {
            self.hfi_gen as u32
        } else {
            (self.hfi_gen as u32).min(entry.hfi_gen_before)
        };
        self.next_seq += 1;
        debug_assert!(self.rob_len() <= self.config.rob_size, "ROB overfilled");
        if entry.dst != NO_REG {
            self.reg_writer[entry.dst as usize] = Some(seq);
        }
        if entry.has(EF_STORE) {
            self.store_seqs.push_back(seq);
        }
        let slot = self.slot(seq);
        self.rob[slot] = entry;
        seq
    }

    /// Handles a syscall with the ROB drained: consults HFI's microcode
    /// interposition check (§4.4), then either jumps to the exit handler
    /// or calls the OS model.
    fn handle_syscall(&mut self, inst_idx: usize) -> bool {
        let number = self.regs[0];
        // The native-mode decode check costs one extra cycle (§4.4).
        self.fetch_stall_until =
            self.cycle.max(self.fetch_stall_until) + self.costs.syscall_check_cycles;
        let disposition = self.hfi.syscall(number, SyscallKind::Syscall);
        self.bump_hfi_gen();
        match disposition {
            SyscallDisposition::Redirect(handler) => {
                self.stats.syscalls_redirected += 1;
                self.stats.committed += 1;
                // HFI gives the exit handler the interrupted PC (alongside
                // the MSR cause); modelled as an ABI register, r14.
                if inst_idx + 1 < self.program.len() {
                    self.regs[14] = self.program.pc_of(inst_idx + 1);
                }
                self.fetch_index = self
                    .program
                    .index_of_pc(handler)
                    .unwrap_or(self.program.len());
            }
            SyscallDisposition::Allow => {
                self.stats.syscalls_to_os += 1;
                self.stats.committed += 1;
                let outcome = self.os.syscall(number, &mut self.regs, &mut self.mem);
                self.fetch_stall_until = self.cycle.max(self.fetch_stall_until)
                    + self.costs.syscall_roundtrip_cycles
                    + outcome.extra_cycles;
                self.regs[0] = outcome.ret;
                if outcome.exit {
                    self.halted = Some(Stop::Exited { code: self.regs[1] });
                    return false;
                }
                self.fetch_index = inst_idx + 1;
            }
            SyscallDisposition::Fault => {
                self.deliver_fault_now(HfiFault::PrivilegedInstruction);
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Execute.
    // ------------------------------------------------------------------

    fn execute(&mut self, plan: &DecodedProgram) {
        self.mem_ops_this_cycle = 0;
        self.alu_ops_this_cycle = 0;

        // Finish in-flight work: only the Executing entries are visited,
        // not the whole ROB. An entry parked on an operand re-enters the
        // queue as its producer completes, the same cycle its value
        // becomes readable. (Wakeup order is irrelevant: the woken seqs
        // are sorted before they join the queue.)
        if !self.in_flight.is_empty() {
            let cycle = self.cycle;
            let mask = self.rob_mask;
            let rob = &mut self.rob;
            let waits = &mut self.waits;
            let woken = &mut self.woken;
            self.in_flight.retain(|&(seq, done_at)| {
                if done_at > cycle {
                    return true;
                }
                let entry = &mut rob[(seq & mask) as usize];
                entry.state = EntryState::Done;
                // A store's waiters are loads, which wait for its address
                // or its commit instead.
                if !entry.has(EF_STORE) {
                    waits.wake(seq, woken);
                }
                false
            });
        }
        if !self.woken.is_empty() {
            self.woken.sort_unstable();
            merge_sorted(&mut self.issue_queue, &self.woken);
            self.woken.clear();
        }

        // Issue ready entries (oldest first), respecting port limits. The
        // scan walks only the queued entries, compacting in place, and
        // every static fact comes from the pre-decoded plan: no `Inst`
        // match, no allocation, no clone.
        // Seq of the entry that took the last memory port, if any did.
        let mut mem_full_at = u64::MAX;
        let mut redirect: Option<(u64, usize)> = None; // (branch seq, correct next)
        let mut queue = std::mem::take(&mut self.issue_queue);
        let mut keep = 0usize; // entries [0..keep) stay queued
        let mut qi = 0usize;
        while qi < queue.len() {
            // When both port classes are exhausted nothing further can
            // issue this cycle (the remaining scan would be pure skips).
            if self.mem_ops_this_cycle >= self.config.mem_ports
                && self.alu_ops_this_cycle >= self.config.alu_ports
            {
                break;
            }
            let seq = queue[qi];
            qi += 1;
            let i = self.slot(seq);
            let inst_idx = self.rob[i].inst_idx as usize;
            let uop = plan.op(inst_idx);
            // Port gate. `GATE_MEM` is exactly `Inst::is_mem()`: `clflush`
            // addresses memory but competes for an ALU slot (and still
            // counts as a memory op below), faithfully to the seed.
            if uop.has(MicroOp::GATE_MEM) {
                if self.mem_ops_this_cycle >= self.config.mem_ports {
                    queue[keep] = seq;
                    keep += 1;
                    continue;
                }
            } else if self.alu_ops_this_cycle >= self.config.alu_ports {
                queue[keep] = seq;
                keep += 1;
                continue;
            }
            // Operand readiness; resolved waits are memoized in place so
            // later cycles skip the producer lookup. (Safe: the producer
            // is older than this consumer, so between its completion and
            // this issue no same-register commit can intervene.)
            let mut vals = [0u64; 3];
            let mut blocker = None;
            for (k, val) in vals.iter_mut().enumerate() {
                let src = self.rob[i].srcs[k];
                match src.tag {
                    SRC_NONE => {}
                    SRC_READY => *val = src.payload,
                    _ => match self.wait_value(src.payload, src.reg) {
                        Some(value) => {
                            *val = value;
                            self.rob[i].srcs[k] = Src::ready(value);
                        }
                        None => {
                            blocker = Some(src.payload);
                            break;
                        }
                    },
                }
            }
            if let Some(producer) = blocker {
                // Every visit until the producer completes would stop
                // here without an effect, so park instead of revisiting.
                self.waits.park(producer, seq);
                continue;
            }
            // An unset operand slot's `vals` entry is never written, so it
            // reads as zero: the optional base or index of an address.
            let v = |k: usize| vals[k];

            match uop.class {
                OpClass::AluRR => {
                    self.alu_ops_this_cycle += 1;
                    let value = uop.alu.eval(v(0), v(1));
                    self.finish(seq, value, uop.alu.latency());
                }
                OpClass::AluRI => {
                    self.alu_ops_this_cycle += 1;
                    let value = uop.alu.eval(v(0), uop.imm as u64);
                    self.finish(seq, value, uop.alu.latency());
                }
                OpClass::MovI => {
                    self.alu_ops_this_cycle += 1;
                    self.finish(seq, uop.imm as u64, 1);
                }
                OpClass::Mov => {
                    self.alu_ops_this_cycle += 1;
                    let value = v(0);
                    self.finish(seq, value, 1);
                }
                OpClass::Rdtsc => {
                    self.alu_ops_this_cycle += 1;
                    let now = self.cycle;
                    self.finish(seq, now, 1);
                }
                OpClass::Nop | OpClass::Halt | OpClass::Cpuid | OpClass::Fence => {
                    self.alu_ops_this_cycle += 1;
                    self.finish(seq, 0, 1);
                }
                OpClass::Jump | OpClass::Call | OpClass::Ret => {
                    self.alu_ops_this_cycle += 1;
                    self.finish(seq, 0, 1);
                }
                OpClass::HfiEnter
                | OpClass::HfiEnterChild
                | OpClass::HfiExit
                | OpClass::HfiReenter
                | OpClass::HfiSetRegion
                | OpClass::HfiClearRegion
                | OpClass::HfiClearAllRegions => {
                    self.alu_ops_this_cycle += 1;
                    self.finish(seq, 0, self.costs.enter_exit_base_cycles);
                }
                OpClass::Branch | OpClass::BranchI => {
                    self.alu_ops_this_cycle += 1;
                    let rhs = if uop.class == OpClass::Branch {
                        v(1)
                    } else {
                        uop.imm as u64
                    };
                    let taken = uop.cond.eval(v(0), rhs);
                    let actual = if taken {
                        uop.target as usize
                    } else {
                        inst_idx + 1
                    };
                    self.pht.update(plan.pc(inst_idx), taken);
                    if self.rob[i].predicted_next != actual as u32 {
                        redirect = Some((seq, actual));
                    }
                    self.finish(seq, 0, 1);
                    if redirect.is_some() {
                        break;
                    }
                }
                OpClass::JumpInd => {
                    self.alu_ops_this_cycle += 1;
                    let target_pc = v(0);
                    self.btb.update(plan.pc(inst_idx), target_pc);
                    match self.program.index_of_pc(target_pc) {
                        Some(actual) => {
                            if self.rob[i].predicted_next != actual as u32 {
                                redirect = Some((seq, actual));
                            }
                        }
                        None => {
                            // Jump into unmapped/unaligned code: the
                            // fetch faults — as an HFI code-bounds
                            // violation when a sandbox is active, or a
                            // plain hardware fault otherwise.
                            let hfi = &self.hfi_history[self.rob[i].hfi_gen as usize];
                            self.rob[i].fault = Some(match hfi.check_fetch(target_pc, 1) {
                                Err(fault) => fault,
                                Ok(()) => HfiFault::Hardware { addr: target_pc },
                            });
                        }
                    }
                    self.finish(seq, 0, 1);
                    if redirect.is_some() {
                        break;
                    }
                }
                OpClass::Flush => {
                    self.mem_ops_this_cycle += 1;
                    let addr = effective_address(v(0), v(1), uop.scale, uop.imm);
                    self.caches.flush_data(addr);
                    self.finish(seq, 0, 3);
                }
                OpClass::Load => {
                    let mut addr = effective_address(v(0), v(1), uop.scale, uop.imm);
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        addr = hook.perturb_ea(plan.pc(inst_idx), addr);
                    }
                    self.exec_load(seq, addr, uop.size, false);
                }
                OpClass::Store => {
                    self.mem_ops_this_cycle += 1;
                    let mut addr = effective_address(v(0), v(1), uop.scale, uop.imm);
                    let mut skip = false;
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        // The flipped address still faces the guard; skip
                        // models dropping the guard micro-op itself.
                        addr = hook.perturb_ea(plan.pc(inst_idx), addr);
                        skip = hook.skip_guard(plan.pc(inst_idx));
                    }
                    // Implicit-region check, parallel with the dtb: zero
                    // latency; a failure blocks the (commit-time) access.
                    if self.hfi_history[self.rob[i].hfi_gen as usize].enabled() {
                        self.stats.hfi_checks += 1;
                    }
                    let hfi = &self.hfi_history[self.rob[i].hfi_gen as usize];
                    if !skip {
                        if let Err(fault) = hfi.check_data(addr, uop.size as u64, Access::Write) {
                            self.rob[i].fault = Some(fault);
                        }
                    }
                    self.rob[i].mem_addr = addr;
                    self.rob[i].mem_size = uop.size;
                    self.rob[i].store_value = v(2);
                    self.rob[i].flags |= EF_HAS_STORE_VALUE;
                    self.finish(seq, 0, 1);
                }
                OpClass::HmovLoad => {
                    // One check per dispatch attempt, exactly as the
                    // hardware would issue it — a store-dependence stall
                    // retries the check every cycle, so the counter ticks
                    // again even though the memoized outcome is reused
                    // (counted in bulk below while the load is parked).
                    self.stats.hfi_checks += 1;
                    if self.rob[i].has(EF_EA_KNOWN) {
                        let ea = self.rob[i].mem_addr;
                        self.exec_load(seq, ea, uop.size, true);
                    } else {
                        let mut index = v(1) as i64;
                        let mut skip = false;
                        if let Some(hook) = self.chaos.as_deref_mut() {
                            // The flip lands upstream of the §4.2 guard.
                            index = hook.perturb_ea(plan.pc(inst_idx), index as u64) as i64;
                            skip = hook.skip_guard(plan.pc(inst_idx));
                        }
                        match self.hfi_history[self.rob[i].hfi_gen as usize].hmov_check_access(
                            uop.region,
                            index,
                            uop.scale as u64,
                            uop.imm,
                            uop.size as u64,
                            Access::Read,
                        ) {
                            Ok(ea) => {
                                self.rob[i].mem_addr = ea;
                                self.rob[i].flags |= EF_EA_KNOWN;
                                self.exec_load(seq, ea, uop.size, true);
                            }
                            Err(fault) => {
                                // A dropped guard micro-op: the raw AGU
                                // address proceeds unchecked (fault
                                // injection only).
                                let unchecked = if skip {
                                    self.hfi_history[self.rob[i].hfi_gen as usize]
                                        .hmov_unchecked_ea(
                                            uop.region,
                                            index,
                                            uop.scale as u64,
                                            uop.imm,
                                        )
                                } else {
                                    None
                                };
                                match unchecked {
                                    Some(ea) => {
                                        self.rob[i].mem_addr = ea;
                                        self.rob[i].flags |= EF_EA_KNOWN;
                                        self.exec_load(seq, ea, uop.size, true);
                                    }
                                    None => {
                                        // Failed hmov: no cache access at all.
                                        self.mem_ops_this_cycle += 1;
                                        self.rob[i].fault = Some(fault);
                                        self.finish(seq, 0, 1);
                                    }
                                }
                            }
                        }
                    }
                }
                OpClass::HmovStore => {
                    self.mem_ops_this_cycle += 1;
                    self.stats.hfi_checks += 1;
                    let mut index = v(1) as i64;
                    let mut skip = false;
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        index = hook.perturb_ea(plan.pc(inst_idx), index as u64) as i64;
                        skip = hook.skip_guard(plan.pc(inst_idx));
                    }
                    let resolved = match self.hfi_history[self.rob[i].hfi_gen as usize]
                        .hmov_check_access(
                            uop.region,
                            index,
                            uop.scale as u64,
                            uop.imm,
                            uop.size as u64,
                            Access::Write,
                        ) {
                        Ok(ea) => Ok(ea),
                        Err(fault) => match self.hfi_history[self.rob[i].hfi_gen as usize]
                            .hmov_unchecked_ea(uop.region, index, uop.scale as u64, uop.imm)
                        {
                            Some(ea) if skip => Ok(ea),
                            _ => Err(fault),
                        },
                    };
                    match resolved {
                        Ok(ea) => {
                            self.rob[i].mem_addr = ea;
                            self.rob[i].mem_size = uop.size;
                            self.rob[i].store_value = v(2);
                            self.rob[i].flags |= EF_HAS_STORE_VALUE;
                            self.finish(seq, 0, 1);
                        }
                        Err(fault) => {
                            self.rob[i].fault = Some(fault);
                            self.finish(seq, 0, 1);
                        }
                    }
                }
                OpClass::Syscall => unreachable!("syscalls handled at decode"),
            }
            if mem_full_at == u64::MAX && self.mem_ops_this_cycle >= self.config.mem_ports {
                mem_full_at = seq;
            }
            if self.rob[i].state == EntryState::Waiting {
                // A load that returned from `exec_load` without issuing:
                // stalled behind the older store in `store_value`.
                self.waits.park(self.rob[i].store_value, seq);
                if uop.class == OpClass::HmovLoad {
                    self.parked_hmov_now.push(seq);
                }
            } else if self.rob[i].mem_size != 0
                && self.rob[i].has(EF_STORE)
                && self.waits.has_waiters(seq)
            {
                // This store's address just resolved. The loads parked
                // on it are younger, so they re-enter ahead of the cursor
                // and are still visited this cycle.
                self.wake_loads(seq);
                for load in self.woken.drain(..) {
                    let at = qi + queue[qi..].partition_point(|&s| s < load);
                    if keep < qi {
                        // Slide the unvisited prefix into the gap.
                        queue.copy_within(qi..at, qi - 1);
                        qi -= 1;
                        queue[at - 1] = load;
                    } else {
                        queue.insert(at, load);
                    }
                }
            }
        }
        // Entries not yet visited (early break) stay queued, in order.
        queue.copy_within(qi.., keep);
        queue.truncate(keep + (queue.len() - qi));
        self.issue_queue = queue;

        if let Some((branch_seq, correct_next)) = redirect {
            self.stats.mispredicts += 1;
            self.squash_after(branch_seq);
            self.fetch_index = correct_next;
            // The refill penalty may not cancel a longer pending stall
            // (e.g. a kernel round trip).
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(self.cycle + self.config.redirect_penalty);
        }

        // An `hmov` load parked in an earlier cycle would have been
        // re-dispatched, counting one check, had the scan reached it with
        // a memory port free: exactly when it is older than the entry
        // that took the last port. Counted after the squash, which
        // removes loads the redirect cut the scan short of; loads parked
        // this cycle already counted at their own visit.
        self.stats.hfi_checks += self.parked_hmov.partition_point(|&s| s < mem_full_at) as u64;
        if !self.parked_hmov_now.is_empty() {
            merge_sorted(&mut self.parked_hmov, &self.parked_hmov_now);
            self.parked_hmov_now.clear();
        }
        debug_assert!(
            self.issue_queue.windows(2).all(|w| w[0] < w[1]),
            "issue queue in age order"
        );
    }

    /// Moves the loads parked on `store` to `self.woken`, dropping them
    /// from the parked-`hmov` tally.
    fn wake_loads(&mut self, store: u64) {
        let from = self.woken.len();
        self.waits.wake(store, &mut self.woken);
        for load in &self.woken[from..] {
            if let Ok(k) = self.parked_hmov.binary_search(load) {
                self.parked_hmov.remove(k);
            }
        }
    }

    /// Executes a load: HFI check first (zero latency, parallel with the
    /// dtb); only a *passing* check reaches the cache — speculative or not.
    fn exec_load(&mut self, load_seq: u64, addr: u64, size: u8, is_hmov: bool) {
        // Older-store dependence, scanned youngest-first so the most
        // recent matching store wins: wait for unknown addresses; forward
        // on exact overlap; wait for commit on partial overlap. Only the
        // in-flight stores are walked, not the whole ROB.
        let i = self.slot(load_seq);
        for &store_seq in self.store_seqs.iter().rev() {
            if store_seq >= load_seq {
                continue;
            }
            let j = self.slot(store_seq);
            let ssize = self.rob[j].mem_size;
            if ssize == 0 {
                // Address unknown: stall until the store resolves it.
                self.rob[i].store_value = store_seq;
                return;
            }
            let saddr = self.rob[j].mem_addr;
            let overlap = saddr < addr + size as u64 && addr < saddr + ssize as u64;
            if overlap {
                if saddr == addr && ssize == size && self.rob[j].has(EF_HAS_STORE_VALUE) {
                    // Store-to-load forwarding.
                    self.mem_ops_this_cycle += 1;
                    let forwarded = zero_extend(self.rob[j].store_value, size);
                    self.rob[i].flags &= !EF_CACHE_ACCESSED;
                    self.finish(load_seq, forwarded, self.caches.latencies.l1);
                    return;
                }
                // Partial overlap: wait for the store to drain.
                self.rob[i].store_value = store_seq;
                return;
            }
        }
        self.mem_ops_this_cycle += 1;
        if !is_hmov {
            if self.hfi_history[self.rob[i].hfi_gen as usize].enabled() {
                self.stats.hfi_checks += 1;
            }
            let mut skip = false;
            if let Some(hook) = self.chaos.as_deref_mut() {
                skip = hook.skip_guard(self.plan.pc(self.rob[i].inst_idx as usize));
            }
            let hfi = &self.hfi_history[self.rob[i].hfi_gen as usize];
            if !skip {
                if let Err(fault) = hfi.check_data(addr, size as u64, Access::Read) {
                    // The bounds check fails before the physical address
                    // resolves: the cache is not touched (paper §4.1). The
                    // load completes as a faulting NOP.
                    self.rob[i].fault = Some(fault);
                    self.finish(load_seq, 0, 1);
                    return;
                }
            }
        }
        // Cache access happens here, at execute — speculatively. This is
        // the Spectre transmission channel.
        let latency = self.caches.data_access(addr, self.cycle);
        self.rob[i].flags |= EF_CACHE_ACCESSED;
        let value = self.mem.read(addr, size);
        self.rob[i].mem_addr = addr;
        self.rob[i].mem_size = size;
        self.finish(load_seq, value, latency);
    }

    fn finish(&mut self, seq: u64, value: u64, latency: u64) {
        let i = self.slot(seq);
        let mut value = value;
        if self.chaos.is_some() {
            let inst_idx = self.rob[i].inst_idx as usize;
            let pc = self.plan.pc(inst_idx);
            let transition = self.plan.op(inst_idx).has(MicroOp::TRANSITION);
            let dst = self.rob[i].dst;
            if let Some(hook) = self.chaos.as_deref_mut() {
                // Result-bus corruption: the flipped value is what writeback
                // and every dependent operand will observe.
                value = hook.perturb_result(pc, value);
                // Springboard corruption: a zeroing or stack-switch op whose
                // write never landed leaves host-pointer-like junk instead.
                if transition && dst != NO_REG && hook.corrupt_transition(pc) {
                    value = crate::chaos::transition_junk(pc);
                }
            }
        }
        self.rob[i].value = value;
        self.rob[i].state = EntryState::Executing;
        self.in_flight.push((seq, self.cycle + latency.max(1)));
    }

    fn squash_after(&mut self, squash_seq: u64) {
        let wrong_path = squash_seq + 1..self.next_seq;
        // Restore HFI state (and its generation) from the oldest squashed
        // HFI op: its pre-op generation entry in the history is exactly
        // the context state just before the first wrong-path mutation.
        for seq in wrong_path.clone() {
            let entry = &self.rob[self.slot(seq)];
            if entry.hfi_gen_before != NO_GEN {
                let gen = entry.hfi_gen_before as usize;
                self.hfi = self.hfi_history[gen].clone();
                self.hfi_gen = gen;
                self.hfi_history.truncate(gen + 1);
                break;
            }
        }
        // Unwind the decode-time call stack by replaying the wrong-path
        // deltas in reverse (youngest first).
        while let Some(&(seq, delta)) = self.call_journal.back() {
            if seq <= squash_seq {
                break;
            }
            self.call_journal.pop_back();
            match delta {
                CallDelta::Pushed => {
                    self.call_stack.pop();
                }
                CallDelta::Popped(ret_idx) => self.call_stack.push(ret_idx),
            }
        }
        self.stats.squashed += wrong_path.end - wrong_path.start;
        self.stats.squashed_loads_executed += wrong_path
            .clone()
            .filter(|&seq| {
                let entry = &self.rob[self.slot(seq)];
                entry.has(EF_LOAD) && entry.has(EF_CACHE_ACCESSED)
            })
            .count() as u64;
        // Reuse the squashed sequence numbers: every reference above
        // `squash_seq` (journal, store list, rename table, scheduling
        // lists, operand waits) is pruned with the tail, and the next
        // decode overwrites their slots.
        self.next_seq = squash_seq + 1;
        while self.store_seqs.back().is_some_and(|&s| s > squash_seq) {
            self.store_seqs.pop_back();
        }
        let live = |list: &Vec<u64>| list.partition_point(|&s| s <= squash_seq);
        self.issue_queue.truncate(live(&self.issue_queue));
        self.parked_hmov.truncate(live(&self.parked_hmov));
        self.parked_hmov_now.truncate(live(&self.parked_hmov_now));
        self.waits.prune_after(squash_seq);
        self.in_flight.retain(|&(s, _)| s <= squash_seq);
        self.rebuild_reg_writer();
    }

    // ------------------------------------------------------------------
    // Commit.
    // ------------------------------------------------------------------

    fn commit(&mut self, plan: &DecodedProgram) {
        for _ in 0..self.config.commit_width {
            let seq = self.head_seq;
            if seq == self.next_seq || self.rob[self.slot(seq)].state != EntryState::Done {
                return;
            }
            // The slot keeps its contents until a later decode reuses it,
            // so the retiring entry is read in place.
            let RobEntry {
                value,
                mem_addr,
                store_value,
                fault,
                inst_idx,
                hfi_gen,
                hfi_gen_before,
                dst,
                mem_size,
                flags,
                ..
            } = self.rob[self.slot(seq)];
            let has = |flag: u8| flags & flag != 0;
            self.head_seq += 1;
            // A committed entry retires its rename-table claim (unless a
            // younger in-flight producer has already superseded it) and
            // drains its journal entries: deltas at or below a committed
            // seq can never be squashed.
            if dst != NO_REG && self.reg_writer[dst as usize] == Some(seq) {
                self.reg_writer[dst as usize] = None;
            }
            if has(EF_STORE) {
                debug_assert_eq!(self.store_seqs.front(), Some(&seq));
                self.store_seqs.pop_front();
                // Loads stalled behind this store re-enter the queue.
                self.wake_loads(seq);
            }
            debug_assert!(
                !self.waits.has_waiters(seq),
                "no entry stays parked on a committed one"
            );
            while self
                .call_journal
                .front()
                .is_some_and(|&(journal_seq, _)| journal_seq <= seq)
            {
                self.call_journal.pop_front();
            }
            // Springboard entry assertion: at commit of `hfi_enter` the
            // architectural register file must satisfy the program's
            // declared transition contract. Checked before any decode-time
            // enter fault, matching the functional executor, which asserts
            // the contract before calling `enter` at all.
            let inst_idx = inst_idx as usize;
            if plan.op(inst_idx).class == OpClass::HfiEnter {
                if let Some(contract) = self.program.contract() {
                    let pc = plan.pc(inst_idx);
                    let mut skip = false;
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        skip = hook.skip_transition_check(pc);
                    }
                    if !skip {
                        if let Some(reg) = contract.first_violation(&self.regs) {
                            let fault = HfiFault::TransitionContract { reg };
                            if let Some(hook) = self.chaos.as_deref_mut() {
                                hook.observe(&ArchEvent::Fault { pc, fault });
                            }
                            // The speculative decode-time enter must not
                            // become architectural: rewind to the pre-enter
                            // context so the fault is delivered outside the
                            // sandbox, exactly as the functional executor
                            // delivers it.
                            if hfi_gen_before != NO_GEN {
                                let gen = hfi_gen_before as usize;
                                self.hfi = self.hfi_history[gen].clone();
                                self.hfi_gen = gen;
                                self.hfi_history.truncate(gen + 1);
                            }
                            self.deliver_fault_now(fault);
                            return;
                        }
                    }
                }
            }
            if let Some(fault) = fault {
                if let Some(hook) = self.chaos.as_deref_mut() {
                    hook.observe(&ArchEvent::Fault {
                        pc: plan.pc(inst_idx),
                        fault,
                    });
                }
                self.deliver_fault_now(fault);
                return;
            }
            self.stats.committed += 1;
            let uop = plan.op(inst_idx);
            if uop.has(MicroOp::BRANCH_STAT) {
                self.stats.branches += 1;
            }
            if dst != NO_REG {
                self.regs[dst as usize] = value;
            }
            if has(EF_STORE) && mem_size > 0 && has(EF_HAS_STORE_VALUE) {
                self.mem.write(mem_addr, store_value, mem_size);
                // Stores update the cache at commit (never
                // speculatively).
                let now = self.cycle;
                self.caches.data_access(mem_addr, now);
            }
            if self.chaos.is_some() {
                // The entry's architectural HFI state is the generation it
                // decoded under (everything older has already committed),
                // not the speculative decode-tip `self.hfi`.
                let sandboxed = self.hfi_history[hfi_gen as usize].enabled();
                let pc = plan.pc(inst_idx);
                if let Some(hook) = self.chaos.as_deref_mut() {
                    hook.observe(&ArchEvent::Retire {
                        pc,
                        len: uop.len,
                        sandboxed,
                    });
                    if has(EF_LOAD) && mem_size > 0 {
                        hook.observe(&ArchEvent::Mem {
                            pc,
                            addr: mem_addr,
                            size: mem_size,
                            access: Access::Read,
                            hmov: (uop.class == OpClass::HmovLoad).then_some(uop.region),
                            sandboxed,
                        });
                    }
                    if has(EF_STORE) && mem_size > 0 && has(EF_HAS_STORE_VALUE) {
                        hook.observe(&ArchEvent::Mem {
                            pc,
                            addr: mem_addr,
                            size: mem_size,
                            access: Access::Write,
                            hmov: (uop.class == OpClass::HmovStore).then_some(uop.region),
                            sandboxed,
                        });
                    }
                }
                // Between-instruction perturbations: a region-register bit
                // flip must propagate into the speculative-generation
                // history (in-flight entries keep their pre-flip state,
                // matching hardware where already-issued checks used the
                // old comparator inputs); a predictor clobber is purely
                // microarchitectural.
                let mut corrupted = false;
                let mut clobber = false;
                if let Some(hook) = self.chaos.as_deref_mut() {
                    corrupted = hook.corrupt_context(&mut self.hfi);
                    clobber = hook.clobber_predictors();
                }
                if corrupted {
                    self.bump_hfi_gen();
                }
                if clobber {
                    self.pht = PatternHistoryTable::new(4096);
                    self.btb = BranchTargetBuffer::new(512);
                }
            }
            if uop.class == OpClass::Halt {
                self.halted = Some(Stop::Halted);
                return;
            }
        }
    }

    /// Delivers a fault architecturally: squash everything younger, let
    /// HFI disable the sandbox and record the MSR, then redirect to the
    /// exit handler or the OS signal handler.
    fn deliver_fault_now(&mut self, fault: HfiFault) {
        self.stats.faults += 1;
        self.stats.squashed += self.rob_len() as u64;
        self.head_seq = self.next_seq;
        self.issue_queue.clear();
        self.waits.clear();
        self.woken.clear();
        self.parked_hmov.clear();
        self.parked_hmov_now.clear();
        self.in_flight.clear();
        self.reg_writer = [None; 16];
        self.store_seqs.clear();
        self.call_journal.clear();
        let disposition = self.hfi.deliver_fault(fault);
        self.bump_hfi_gen();
        let target = match disposition {
            ExitDisposition::JumpToHandler(handler) => {
                // Native-sandbox faults reach the handler via the OS
                // signal path (SIGSEGV → runtime handler), which is slow.
                self.fetch_stall_until = self.cycle + self.config.signal_delivery;
                self.program.index_of_pc(handler)
            }
            ExitDisposition::FallThrough | ExitDisposition::SwitchedToParent => {
                self.fetch_stall_until = self.cycle + self.config.signal_delivery;
                self.signal_handler
                    .and_then(|h| self.program.index_of_pc(h))
            }
        };
        match target {
            Some(index) => self.fetch_index = index,
            None => self.halted = Some(Stop::Fault(fault)),
        }
    }

    // ------------------------------------------------------------------
    // Top level.
    // ------------------------------------------------------------------

    /// Runs until halt, unhandled fault, or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        // One `Arc` bump per call: the stages borrow the plan while they
        // mutate the rest of the machine.
        let plan = Arc::clone(&self.plan);
        while self.halted.is_none() && self.cycle < max_cycles {
            // Stall fast-forward: with the ROB empty and the front end
            // stalled (kernel round trip, signal delivery, serialization
            // drain), every intervening cycle is architecturally empty —
            // commit and execute see no entries and the frontend's stall
            // check returns before any side effect. Jump to the wakeup.
            if self.rob_is_empty() && self.cycle < self.fetch_stall_until {
                self.cycle = self.fetch_stall_until.min(max_cycles);
                continue;
            }
            self.commit(&plan);
            if self.halted.is_some() {
                break;
            }
            self.execute(&plan);
            self.frontend(&plan);
            self.cycle += 1;
            debug_assert!(self.lists_within_window(), "a listed seq left the window");

            // Deadlock safety: nothing in flight and nothing to fetch.
            if self.rob_is_empty()
                && self.fetch_index >= self.program.len()
                && self.cycle >= self.fetch_stall_until
            {
                break;
            }
        }
        let stop = self.halted.clone().unwrap_or(Stop::CycleLimit);
        RunResult {
            cycles: self.cycle,
            stop,
            stats: self.stats,
            regs: self.regs,
            exit_reason: self.hfi.exit_reason(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::isa::{AluOp, Cond, MemOperand};
    use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};
    use hfi_core::{Region, SandboxConfig};

    const CODE_BASE: u64 = 0x40_0000;

    fn run_program(asm: ProgramBuilder) -> RunResult {
        let mut machine = Machine::new(asm.finish());
        machine.run(1_000_000)
    }

    #[test]
    fn arithmetic_loop() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let (r0, r1) = (Reg(0), Reg(1));
        asm.movi(r0, 0);
        asm.movi(r1, 100);
        let top = asm.label_here("top");
        asm.alu_ri(AluOp::Add, r0, r0, 7);
        asm.alu_ri(AluOp::Sub, r1, r1, 1);
        asm.branch_i(Cond::Ne, r1, 0, top);
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[0], 700);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let (r0, r1) = (Reg(0), Reg(1));
        asm.movi(r0, 0xABCD);
        asm.movi(r1, 0x1_0000);
        asm.store(r0, MemOperand::base_disp(r1, 0x10), 8);
        asm.load(Reg(2), MemOperand::base_disp(r1, 0x10), 8);
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.regs[2], 0xABCD);
    }

    #[test]
    fn store_load_forwarding_partial_sizes() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        asm.movi(Reg(0), 0x1122_3344);
        asm.movi(Reg(1), 0x2_0000);
        asm.store(Reg(0), MemOperand::base_disp(Reg(1), 0), 4);
        asm.load(Reg(2), MemOperand::base_disp(Reg(1), 0), 1);
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.regs[2], 0x44);
    }

    #[test]
    fn call_and_ret() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let func = asm.label();
        let done = asm.label();
        asm.movi(Reg(0), 5);
        asm.call(func);
        asm.jump(done);
        asm.place(func);
        asm.alu_ri(AluOp::Mul, Reg(0), Reg(0), 3);
        asm.ret();
        asm.place(done);
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.regs[0], 15);
    }

    #[test]
    fn mispredicted_branch_still_computes_correctly() {
        // Alternating branch defeats the 2-bit counter; results must be
        // exact regardless.
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let (r0, r1, r2) = (Reg(0), Reg(1), Reg(2));
        asm.movi(r0, 0); // accumulator
        asm.movi(r1, 50); // trip count
        asm.movi(r2, 0); // parity
        let top = asm.label_here("top");
        let skip = asm.label();
        asm.branch_i(Cond::Ne, r2, 0, skip);
        asm.alu_ri(AluOp::Add, r0, r0, 10);
        asm.place(skip);
        asm.alu_ri(AluOp::Xor, r2, r2, 1);
        asm.alu_ri(AluOp::Sub, r1, r1, 1);
        asm.branch_i(Cond::Ne, r1, 0, top);
        asm.halt();
        let result = run_program(asm);
        // 25 even iterations add 10 each.
        assert_eq!(result.regs[0], 250);
        assert!(result.stats.mispredicts > 0);
    }

    #[test]
    fn rdtsc_monotonic_and_fence() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        asm.rdtsc(Reg(0));
        asm.fence();
        asm.movi(Reg(2), 0x3_0000);
        asm.load(Reg(3), MemOperand::base_disp(Reg(2), 0), 8);
        asm.fence();
        asm.rdtsc(Reg(1));
        asm.halt();
        let result = run_program(asm);
        assert!(result.regs[1] > result.regs[0]);
    }

    #[test]
    fn hfi_oob_load_faults_and_halts() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let data = ImplicitDataRegion::new(0x10_0000, 0xFFFF, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(2, Region::Data(data));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(0), 0x20_0000); // outside the data region
        asm.load(Reg(1), MemOperand::base_disp(Reg(0), 0), 8);
        asm.halt();
        let result = run_program(asm);
        match result.stop {
            Stop::Fault(HfiFault::DataBounds { addr, .. }) => assert_eq!(addr, 0x20_0000),
            other => panic!("expected data-bounds fault, got {other:?}"),
        }
    }

    #[test]
    fn hfi_in_bounds_load_succeeds() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let data = ImplicitDataRegion::new(0x10_0000, 0xFFFF, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(2, Region::Data(data));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(0), 0x10_0100);
        asm.movi(Reg(2), 99);
        asm.store(Reg(2), MemOperand::base_disp(Reg(0), 0), 8);
        asm.load(Reg(1), MemOperand::base_disp(Reg(0), 0), 8);
        asm.hfi_exit();
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[1], 99);
    }

    #[test]
    fn hmov_executes_relative_to_region() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let heap = ExplicitDataRegion::large(0x100_0000, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(0), 1234);
        asm.hmov_store(0, Reg(0), crate::isa::HmovOperand::disp(0x40), 8);
        asm.hmov_load(0, Reg(1), crate::isa::HmovOperand::disp(0x40), 8);
        asm.hfi_exit();
        asm.halt();
        let mut machine = Machine::new(asm.finish());
        let result = machine.run(100_000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[1], 1234);
        // The value must physically live at region base + 0x40.
        assert_eq!(machine.mem.read(0x100_0040, 8), 1234);
    }

    #[test]
    fn hmov_oob_faults() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let heap = ExplicitDataRegion::large(0x100_0000, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.hmov_load(0, Reg(1), crate::isa::HmovOperand::disp(1 << 16), 8);
        asm.halt();
        let result = run_program(asm);
        assert!(matches!(result.stop, Stop::Fault(HfiFault::Hmov { .. })));
    }

    #[test]
    fn code_region_blocks_oob_fetch() {
        // Jump to code past the code region bound: decode turns it into a
        // faulting NOP.
        let mut asm = ProgramBuilder::new(CODE_BASE);
        // A tiny code region covering only the first few instructions.
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xF, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code)); // 6 bytes
        asm.hfi_enter(SandboxConfig::hybrid()); // 4 bytes -> next pc 0x40000A
        for _ in 0..12 {
            asm.nop(); // crosses past CODE_BASE + 0xF after 6 nops
        }
        asm.halt();
        let result = run_program(asm);
        assert!(
            matches!(result.stop, Stop::Fault(HfiFault::CodeBounds { .. })),
            "got {:?}",
            result.stop
        );
    }

    #[test]
    fn serialized_enter_drains_pipeline() {
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let mut base_asm = ProgramBuilder::new(CODE_BASE);
        base_asm.hfi_set_region(0, Region::Code(code));
        base_asm.hfi_enter(SandboxConfig::hybrid());
        for _ in 0..50 {
            base_asm.nop();
        }
        base_asm.hfi_exit();
        base_asm.halt();
        let unserialized = run_program(base_asm).cycles;

        let mut ser_asm = ProgramBuilder::new(CODE_BASE);
        ser_asm.hfi_set_region(0, Region::Code(code));
        ser_asm.hfi_enter(SandboxConfig::hybrid().serialized());
        for _ in 0..50 {
            ser_asm.nop();
        }
        ser_asm.hfi_exit();
        ser_asm.halt();
        let result = run_program(ser_asm);
        let serialized = result.cycles;
        let costs = CostModel::default();
        // Both edges serialized; the drains partially overlap with cold
        // i-cache miss stalls, so require at least one full drain cost.
        assert_eq!(result.stats.serializations, 2);
        assert!(
            serialized >= unserialized + costs.serialize_cycles,
            "serialized {serialized} vs unserialized {unserialized}"
        );
    }

    #[test]
    fn native_syscall_redirects_to_handler() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let handler = asm.label();
        let sandbox = asm.label();
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        // We need the handler's byte pc; build in two passes: place the
        // sandbox code after the enter, handler at a known label.
        asm.jump(sandbox);
        asm.place(handler);
        asm.movi(Reg(5), 777); // proof the handler ran
        asm.halt();
        asm.place(sandbox);
        // Patch: enter native sandbox with the handler's pc. We cheat by
        // computing the pc after finish(); instead, use a fixed layout:
        // rebuild with known addresses.
        let prog = asm.finish();
        let handler_pc = prog.pc_of(2); // jump=1 inst at idx1? verify below
                                        // Rebuild properly now that we know the layout.
        let mut asm2 = ProgramBuilder::new(CODE_BASE);
        let handler2 = asm2.label();
        let sandbox2 = asm2.label();
        asm2.hfi_set_region(0, Region::Code(code)); // idx 0
        asm2.jump(sandbox2); // idx 1
        asm2.place(handler2);
        asm2.movi(Reg(5), 777); // idx 2
        asm2.halt(); // idx 3
        asm2.place(sandbox2);
        asm2.hfi_enter(SandboxConfig::native(handler_pc)); // idx 4
        asm2.movi(Reg(0), 42); // syscall number
        asm2.syscall();
        asm2.halt();
        let prog2 = asm2.finish();
        assert_eq!(prog2.pc_of(2), handler_pc);
        let mut machine = Machine::new(prog2);
        let result = machine.run(100_000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[5], 777);
        assert_eq!(result.stats.syscalls_redirected, 1);
        assert_eq!(
            result.exit_reason,
            Some(ExitReason::Syscall {
                number: 42,
                kind: SyscallKind::Syscall
            })
        );
    }

    #[test]
    fn hybrid_syscall_reaches_os() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(0), 7);
        asm.syscall();
        asm.hfi_exit();
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.stats.syscalls_to_os, 1);
    }

    #[test]
    fn exit_syscall_stops_machine() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        asm.movi(Reg(1), 3); // exit code
        asm.movi(Reg(0), 0); // syscall 0 = exit
        asm.syscall();
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.stop, Stop::Exited { code: 3 });
    }

    #[test]
    fn speculative_load_fills_cache_after_squash() {
        // Branch depends on a slow (cold) load; the wrong-path load warms
        // a probe line that survives the squash — the Spectre channel.
        let probe_addr: i64 = 0x8_0000;
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let skip = asm.label();
        asm.movi(Reg(1), 0x6_0000);
        asm.flush(MemOperand::base_disp(Reg(1), 0)); // make the condition load slow
                                                     // Train the branch taken? Here the PHT inits weakly-taken, so the
                                                     // first prediction is taken; condition resolves to not-taken.
        asm.load(Reg(2), MemOperand::base_disp(Reg(1), 0), 8); // slow, value 0
        asm.branch_i(Cond::Eq, Reg(2), 0, skip); // actually taken... invert:
                                                 // wrong-path body below executes only speculatively if predicted
                                                 // not-taken; to keep it simple we instead make the *taken* target
                                                 // skip, and put the leak on the fall-through (wrong) path when the
                                                 // branch is actually taken but predicted not-taken is impossible
                                                 // with weak-taken init. So: flip with a pre-training loop is
                                                 // overkill for a unit test — directly verify both outcomes below.
        asm.movi(Reg(3), probe_addr);
        asm.load(Reg(4), MemOperand::base_disp(Reg(3), 0), 8); // wrong path
        asm.place(skip);
        asm.halt();
        let mut machine = Machine::new(asm.finish());
        let result = machine.run(100_000);
        assert_eq!(result.stop, Stop::Halted);
        // If any wrong-path load executed, its line must still be warm.
        if result.stats.squashed_loads_executed > 0 {
            assert!(machine.caches.probe_l1d(probe_addr as u64));
        }
    }

    #[test]
    fn rob_fills_and_drains_without_deadlock() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        asm.movi(Reg(1), 0x9_0000);
        for i in 0..600 {
            asm.load(Reg(2), MemOperand::base_disp(Reg(1), (i % 7) * 64), 8);
        }
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.stats.committed, 602);
    }

    // The programs below exercise each way an entry leaves the issue
    // queue and comes back. Their expected cycles and counters were
    // recorded from the issue stage that revisited every waiting entry on
    // every cycle, so any drift in when an entry re-enters the queue, or
    // in how parked `hmov` loads count checks, shows up here.

    const DATA_BASE: u64 = 0x10_0000;
    const HEAP_BASE: u64 = 0x100_0000;

    /// Code, a 64 KiB implicit data region at [`DATA_BASE`] and a 64 KiB
    /// `hmov` heap (region 0) at [`HEAP_BASE`], then a hybrid enter.
    fn enter_sandbox(asm: &mut ProgramBuilder) {
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let data = ImplicitDataRegion::new(DATA_BASE, 0xFFFF, true, true).unwrap();
        let heap = ExplicitDataRegion::large(HEAP_BASE, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(2, Region::Data(data));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
    }

    fn assert_pinned(result: &RunResult, cycles: u64, stats: CoreStats) {
        assert_eq!((result.cycles, result.stats), (cycles, stats));
    }

    #[test]
    fn operand_waits_on_cold_loads_are_exact() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let (acc, ptr, val, n, sq) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
        asm.movi(acc, 0);
        asm.movi(ptr, 0x50_0000);
        asm.movi(n, 6);
        let top = asm.label_here("top");
        // A cold line on a fresh page: memory latency plus a dTLB miss.
        asm.load(val, MemOperand::base_disp(ptr, 0), 8);
        // Two consumers wait on the load, a third on one of them.
        asm.alu(AluOp::Add, acc, acc, val);
        asm.alu(AluOp::Mul, sq, val, val);
        asm.alu(AluOp::Xor, acc, acc, sq);
        asm.alu_ri(AluOp::Add, ptr, ptr, 4096);
        asm.alu_ri(AluOp::Sub, n, n, 1);
        asm.branch_i(Cond::Ne, n, 0, top);
        asm.halt();
        let mut machine = Machine::new(asm.finish());
        for k in 0..6u64 {
            machine.mem.write(0x50_0000 + k * 4096, k + 3, 8);
        }
        let result = machine.run(1_000_000);
        assert_eq!(result.stop, Stop::Halted);
        let expected = (3..9u64).fold(0, |acc, v| (acc + v) ^ (v * v));
        assert_eq!(result.regs[0], expected);
        assert_pinned(
            &result,
            447,
            CoreStats {
                committed: 46,
                squashed: 5,
                branches: 6,
                mispredicts: 1,
                rob_stall_cycles: 0,
                hfi_checks: 0,
                serializations: 0,
                squashed_loads_executed: 0,
                faults: 0,
                syscalls_redirected: 0,
                syscalls_to_os: 0,
            },
        );
    }

    #[test]
    fn hmov_loads_parked_behind_a_store_count_every_check() {
        // Each iteration: a cold load yields the address of a store;
        // `hmov` loads behind that store stall until it resolves. Older
        // plain loads whose base comes off a multiply chain take both
        // memory ports in some of those cycles, and younger stores off a
        // second chain take them in others, so some stalled `hmov` loads
        // are reached with a port free and some are not.
        let mut asm = ProgramBuilder::new(CODE_BASE);
        enter_sandbox(&mut asm);
        let (acc, table, ptr, n, k) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(9));
        asm.movi(acc, 0);
        asm.movi(table, DATA_BASE as i64);
        asm.movi(n, 4);
        asm.movi(k, 1);
        let top = asm.label_here("top");
        asm.load(ptr, MemOperand::base_disp(table, 0), 8);
        asm.alu(AluOp::Mul, Reg(8), k, k);
        asm.alu(AluOp::Mul, Reg(8), Reg(8), k);
        asm.alu_ri(AluOp::And, Reg(8), Reg(8), 0x38);
        for disp in [0x100, 0x140, 0x180] {
            asm.load(Reg(10), MemOperand::full(table, Reg(8), 1, disp), 8);
        }
        asm.store(n, MemOperand::base_disp(ptr, 0), 8);
        for (dst, disp) in [(4, 0x40), (5, 0x48), (6, 0x50)] {
            asm.hmov_load(0, Reg(dst), crate::isa::HmovOperand::disp(disp), 8);
        }
        asm.alu(AluOp::Mul, Reg(13), k, k);
        asm.alu(AluOp::Mul, Reg(13), Reg(13), k);
        asm.alu_ri(AluOp::And, Reg(13), Reg(13), 0x38);
        asm.store(k, MemOperand::full(table, Reg(13), 1, 0x200), 8);
        asm.store(k, MemOperand::full(table, Reg(13), 1, 0x240), 8);
        asm.hmov_load(0, Reg(7), crate::isa::HmovOperand::disp(0x58), 8);
        asm.alu(AluOp::Add, acc, acc, Reg(4));
        asm.alu(AluOp::Add, acc, acc, Reg(7));
        asm.alu_ri(AluOp::Add, k, k, 1);
        asm.alu_ri(AluOp::Add, table, table, 0x800);
        asm.alu_ri(AluOp::Sub, n, n, 1);
        asm.branch_i(Cond::Ne, n, 0, top);
        asm.hfi_exit();
        asm.halt();
        let mut machine = Machine::new(asm.finish());
        for it in 0..4u64 {
            machine
                .mem
                .write(DATA_BASE + it * 0x800, DATA_BASE + 0x8000 + it * 8, 8);
        }
        machine.mem.write(HEAP_BASE + 0x40, 5, 8);
        machine.mem.write(HEAP_BASE + 0x58, 7, 8);
        let result = machine.run(1_000_000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[0], 4 * (5 + 7));
        assert_pinned(
            &result,
            1266,
            CoreStats {
                committed: 102,
                squashed: 5,
                branches: 4,
                mispredicts: 1,
                rob_stall_cycles: 0,
                hfi_checks: 5180,
                serializations: 0,
                squashed_loads_executed: 0,
                faults: 0,
                syscalls_redirected: 0,
                syscalls_to_os: 0,
            },
        );
    }

    #[test]
    fn partially_overlapping_loads_wait_for_the_store_to_commit() {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        enter_sandbox(&mut asm);
        let (acc, base, value, n) = (Reg(0), Reg(1), Reg(2), Reg(3));
        asm.movi(acc, 0);
        asm.movi(base, (DATA_BASE + 0x100) as i64);
        asm.movi(value, 0x1122_3344_5566_7788);
        asm.movi(n, 5);
        let top = asm.label_here("top");
        asm.store(value, MemOperand::base_disp(base, 0), 8);
        asm.load(Reg(4), MemOperand::base_disp(base, 4), 4);
        asm.hmov_store(0, value, crate::isa::HmovOperand::disp(0x40), 8);
        asm.hmov_load(0, Reg(5), crate::isa::HmovOperand::disp(0x44), 4);
        asm.hmov_load(0, Reg(6), crate::isa::HmovOperand::disp(0x40), 8);
        asm.alu(AluOp::Add, acc, acc, Reg(4));
        asm.alu(AluOp::Add, acc, acc, Reg(5));
        asm.alu(AluOp::Xor, acc, acc, Reg(6));
        asm.alu_ri(AluOp::Add, value, value, 1);
        asm.alu_ri(AluOp::Sub, n, n, 1);
        asm.branch_i(Cond::Ne, n, 0, top);
        asm.hfi_exit();
        asm.halt();
        let result = run_program(asm);
        assert_eq!(result.stop, Stop::Halted);
        let expected = (0..5u64).fold(0, |acc, i| {
            let v = 0x1122_3344_5566_7788 + i;
            (acc + 2 * (v >> 32)) ^ v
        });
        assert_eq!(result.regs[0], expected);
        assert_pinned(
            &result,
            474,
            CoreStats {
                committed: 65,
                squashed: 0,
                branches: 5,
                mispredicts: 1,
                rob_stall_cycles: 0,
                hfi_checks: 177,
                serializations: 0,
                squashed_loads_executed: 0,
                faults: 0,
                syscalls_redirected: 0,
                syscalls_to_os: 0,
            },
        );
    }

    #[test]
    fn mispredicted_branch_squashes_parked_entries() {
        // The branch depends on a cold load whose value alternates, so it
        // keeps mispredicting. Predicted taken into the body when it is
        // not, it leaves a wrong path that holds operand waiters on that
        // load, a store whose address waits on it, and `hmov` loads that
        // stalled behind that store cycles before the branch resolves.
        let mut asm = ProgramBuilder::new(CODE_BASE);
        enter_sandbox(&mut asm);
        let (acc, table, flag, n) = (Reg(0), Reg(1), Reg(2), Reg(3));
        asm.movi(acc, 0);
        asm.movi(table, DATA_BASE as i64);
        asm.movi(n, 8);
        let top = asm.label_here("top");
        let body = asm.label();
        let join = asm.label();
        asm.load(flag, MemOperand::base_disp(table, 0), 8);
        asm.branch_i(Cond::Ne, flag, 0, body);
        asm.jump(join);
        asm.place(body);
        asm.alu(AluOp::Add, Reg(4), flag, flag);
        asm.store(Reg(4), MemOperand::full(table, flag, 8, 0x400), 8);
        asm.hmov_load(0, Reg(5), crate::isa::HmovOperand::disp(0x40), 8);
        asm.hmov_load(0, Reg(6), crate::isa::HmovOperand::disp(0x80), 8);
        asm.alu(AluOp::Add, acc, acc, Reg(5));
        asm.alu(AluOp::Add, acc, acc, Reg(6));
        asm.place(join);
        asm.alu_ri(AluOp::Add, table, table, 0x800);
        asm.alu_ri(AluOp::Sub, n, n, 1);
        asm.branch_i(Cond::Ne, n, 0, top);
        asm.hfi_exit();
        asm.halt();
        let mut machine = Machine::new(asm.finish());
        for it in 0..8u64 {
            machine.mem.write(DATA_BASE + it * 0x800, (it + 1) % 2, 8);
        }
        machine.mem.write(HEAP_BASE + 0x40, 10, 8);
        machine.mem.write(HEAP_BASE + 0x80, 1, 8);
        let result = machine.run(1_000_000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[0], 4 * 11);
        assert!(result.stats.mispredicts > 0);
        assert_pinned(
            &result,
            2016,
            CoreStats {
                committed: 77,
                squashed: 186,
                branches: 16,
                mispredicts: 9,
                rob_stall_cycles: 0,
                hfi_checks: 12772,
                serializations: 0,
                squashed_loads_executed: 0,
                faults: 0,
                syscalls_redirected: 0,
                syscalls_to_os: 0,
            },
        );
    }

    #[test]
    fn fault_delivery_clears_parked_entries() {
        // An out-of-bounds load faults while younger entries are parked
        // on a cold load and on a store waiting for its address; the
        // signal handler then runs the same pattern cleanly and halts.
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let handler = asm.label();
        enter_sandbox(&mut asm);
        let (table, ptr, oob) = (Reg(1), Reg(2), Reg(6));
        asm.movi(table, DATA_BASE as i64);
        asm.movi(oob, 0x20_0000);
        asm.load(Reg(7), MemOperand::base_disp(oob, 0), 8);
        asm.load(ptr, MemOperand::base_disp(table, 0), 8);
        asm.alu(AluOp::Add, Reg(3), ptr, ptr);
        asm.store(Reg(3), MemOperand::base_disp(ptr, 0x100), 8);
        asm.hmov_load(0, Reg(4), crate::isa::HmovOperand::disp(0x40), 8);
        asm.alu(AluOp::Add, Reg(5), Reg(4), Reg(4));
        asm.halt();
        asm.place(handler);
        let handler_idx = asm.here();
        asm.movi(table, (DATA_BASE + 0x800) as i64);
        asm.load(ptr, MemOperand::base_disp(table, 0), 8);
        asm.store(table, MemOperand::base_disp(ptr, 0), 8);
        asm.load(Reg(4), MemOperand::base_disp(table, 0x40), 8);
        asm.alu(AluOp::Add, Reg(5), Reg(4), ptr);
        asm.halt();
        let program = asm.finish();
        let handler_pc = program.pc_of(handler_idx);
        let mut machine = Machine::new(program);
        machine.signal_handler = Some(handler_pc);
        machine.mem.write(DATA_BASE, DATA_BASE + 0x10, 8);
        machine.mem.write(DATA_BASE + 0x800, DATA_BASE + 0x8000, 8);
        machine.mem.write(DATA_BASE + 0x840, 9, 8);
        let result = machine.run(1_000_000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[5], 9 + DATA_BASE + 0x8000);
        assert_eq!(result.stats.faults, 1);
        assert_pinned(
            &result,
            3626,
            CoreStats {
                committed: 12,
                squashed: 8,
                branches: 0,
                mispredicts: 0,
                rob_stall_cycles: 0,
                hfi_checks: 15,
                serializations: 0,
                squashed_loads_executed: 0,
                faults: 1,
                syscalls_redirected: 0,
                syscalls_to_os: 0,
            },
        );
    }

    /// A loop over `count` 256-byte rows of a flag table at
    /// `table_base`. Each row's flag (0, 1 or 2) decides a branch the
    /// predictor cannot learn; the taken body stores at `8 * flag +
    /// 0x40` into the row, parks an `hmov` load behind that store and
    /// reads the row's `0x48` word, which the store forwards when the
    /// flag is 1.
    fn flag_loop(asm: &mut ProgramBuilder, table_base: u64, count: i64) {
        let (acc, table, flag, n) = (Reg(0), Reg(1), Reg(2), Reg(3));
        asm.movi(table, table_base as i64);
        asm.movi(n, count);
        let top = asm.label_here("top");
        let body = asm.label();
        let join = asm.label();
        asm.load(flag, MemOperand::base_disp(table, 0), 8);
        asm.branch_i(Cond::Ne, flag, 0, body);
        asm.jump(join);
        asm.place(body);
        asm.alu(AluOp::Add, Reg(4), flag, acc);
        asm.store(Reg(4), MemOperand::full(table, flag, 8, 0x40), 8);
        asm.hmov_load(0, Reg(5), crate::isa::HmovOperand::disp(0x40), 8);
        asm.load(Reg(6), MemOperand::base_disp(table, 0x48), 8);
        asm.alu(AluOp::Add, acc, acc, Reg(5));
        asm.alu(AluOp::Xor, acc, acc, Reg(6));
        asm.place(join);
        asm.alu(AluOp::Mul, Reg(7), acc, acc);
        asm.alu_ri(AluOp::Add, acc, acc, 3);
        asm.alu_ri(AluOp::Add, table, table, 0x100);
        asm.alu_ri(AluOp::Sub, n, n, 1);
        asm.branch_i(Cond::Ne, n, 0, top);
    }

    /// A flag loop of 116 rows, then an out-of-bounds load with a dozen
    /// older ALU ops and eight younger ones around it; the signal handler
    /// re-enters the sandbox and runs a second flag loop of 100 rows.
    fn ring_wrap_machine(config: CoreConfig) -> Machine {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let handler = asm.label();
        enter_sandbox(&mut asm);
        asm.movi(Reg(0), 0);
        flag_loop(&mut asm, DATA_BASE, 116);
        asm.movi(Reg(8), 0x20_0000);
        for _ in 0..12 {
            asm.alu_ri(AluOp::Add, Reg(9), Reg(9), 1);
        }
        asm.load(Reg(10), MemOperand::base_disp(Reg(8), 0), 8);
        for _ in 0..8 {
            asm.alu_ri(AluOp::Add, Reg(11), Reg(11), 1);
        }
        asm.halt();
        asm.place(handler);
        let handler_idx = asm.here();
        enter_sandbox(&mut asm);
        flag_loop(&mut asm, DATA_BASE + 0x8000, 100);
        asm.hfi_exit();
        asm.halt();
        let program = asm.finish();
        let handler_pc = program.pc_of(handler_idx);
        let mut machine = Machine::with_config(program, config);
        machine.signal_handler = Some(handler_pc);
        // Flags from a xorshift sequence, so no history pattern holds.
        let mut x = 0x9E37_79B9u64;
        for row in 0..220u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            machine.mem.write(DATA_BASE + row * 0x100, x % 3, 8);
        }
        machine.mem.write(HEAP_BASE + 0x40, 5, 8);
        machine
    }

    #[test]
    fn rob_ring_wraps_through_squashes_and_a_fault() {
        // Each run reuses every ROB slot many times over, squashes at
        // every ring position, and delivers its fault from a live window
        // that spans the ring's wrap point (seq 1280 is a multiple of
        // both ring sizes). 224 entries is the default core; 12 rounds up
        // to a 16-slot ring that fills on every iteration.
        let pinned = [
            (
                224,
                26149,
                CoreStats {
                    committed: 2411,
                    squashed: 9767,
                    branches: 432,
                    mispredicts: 100,
                    rob_stall_cycles: 15602,
                    hfi_checks: 298472,
                    serializations: 0,
                    squashed_loads_executed: 198,
                    faults: 1,
                    syscalls_redirected: 0,
                    syscalls_to_os: 0,
                },
            ),
            (
                12,
                43480,
                CoreStats {
                    committed: 2411,
                    squashed: 624,
                    branches: 432,
                    mispredicts: 86,
                    rob_stall_cycles: 37281,
                    hfi_checks: 20539,
                    serializations: 0,
                    squashed_loads_executed: 22,
                    faults: 1,
                    syscalls_redirected: 0,
                    syscalls_to_os: 0,
                },
            ),
        ];
        for (rob_size, cycles, stats) in pinned {
            let config = CoreConfig {
                rob_size,
                ..CoreConfig::default()
            };
            let slots = rob_size.next_power_of_two() as u64;
            // Stepping one cycle per call runs the same pipeline as one
            // call, so the stepped run must end identical to a plain one.
            let mut stepped = ring_wrap_machine(config);
            let mut window = None;
            while stepped.halted.is_none() && stepped.cycle < 1_000_000 {
                let before = (stepped.head_seq, stepped.next_seq);
                stepped.run(stepped.cycle + 1);
                if stepped.stats.faults == 1 && window.is_none() {
                    window = Some(before);
                }
            }
            let (head, next) = window.expect("the out-of-bounds load faults");
            assert_ne!(
                head / slots,
                (next - 1) / slots,
                "rob {rob_size}: window {head}..{next}"
            );
            assert!(
                stepped.next_seq > 8 * slots,
                "rob {rob_size}: ring wrapped too few times"
            );
            let result = ring_wrap_machine(config).run(1_000_000);
            assert_eq!(result.stop, Stop::Halted);
            assert_eq!(result.regs[0], 37);
            assert_pinned(&result, cycles, stats);
            assert_eq!((stepped.cycle, stepped.stats), (cycles, stats));
        }
    }
}
