//! Branch prediction: a 2-bit-counter pattern history table (PHT), a
//! branch target buffer (BTB), and a return address stack (RAS).
//!
//! The PHT is what Spectre-PHT trains (Fig. 7): in-bounds executions drive
//! the counter to strongly-taken, then the out-of-bounds probe speculates
//! down the stale taken path. The BTB serves indirect branch targets and is
//! the analogous Spectre-BTB surface.

/// A 2-bit saturating-counter PHT indexed by hashed PC.
#[derive(Debug, Clone)]
pub struct PatternHistoryTable {
    counters: Vec<u8>,
    mask: usize,
}

impl PatternHistoryTable {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        // Initialize weakly-taken so cold branches behave plausibly.
        Self {
            counters: vec![2; entries],
            mask: entries - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 1) as usize ^ (pc >> 13) as usize) & self.mask
    }

    /// Predicted direction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Returns every counter to weakly-taken, as built.
    pub fn reset(&mut self) {
        self.counters.fill(2);
    }

    /// Trains the counter with the resolved direction.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let counter = &mut self.counters[idx];
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
    }
}

/// A direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    entries: Vec<Option<(u64, u64)>>, // (branch pc, target pc)
    mask: usize,
}

impl BranchTargetBuffer {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        Self {
            entries: vec![None; entries],
            mask: entries - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc >> 1) as usize & self.mask
    }

    /// Predicted target for the control-flow instruction at `pc`.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Forgets every target, as built.
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }

    /// Records the resolved target.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, target));
    }
}

/// A return address stack.
#[derive(Debug, Clone, Default)]
pub struct ReturnAddressStack {
    stack: std::collections::VecDeque<u64>,
    depth: usize,
}

/// An O(1) squash-recovery token: the top-of-stack index and value at
/// checkpoint time. Real RAS recovery hardware checkpoints exactly this
/// (a TOS pointer plus the top entry), not the whole stack — entries the
/// wrong path overwrote *below* the checkpointed top stay corrupted,
/// which is the accepted mispredict-on-deep-wrong-path behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasCheckpoint {
    len: usize,
    top: Option<u64>,
}

impl ReturnAddressStack {
    /// A RAS of `depth` entries.
    pub fn new(depth: usize) -> Self {
        Self {
            stack: std::collections::VecDeque::with_capacity(depth),
            depth,
        }
    }

    /// Pushes a return address (on call fetch).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.depth {
            self.stack.pop_front();
        }
        self.stack.push_back(addr);
    }

    /// Pops the predicted return address (on return fetch).
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop_back()
    }

    /// Captures a recovery token (on every call/return fetch). O(1) and
    /// allocation-free, unlike snapshotting the stack.
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint {
            len: self.stack.len(),
            top: self.stack.back().copied(),
        }
    }

    /// Restores a checkpoint after a squash: the TOS pointer and top
    /// value come back exactly; deeper entries keep whatever the wrong
    /// path left there (zero-filled if the wrong path popped them away).
    pub fn restore(&mut self, checkpoint: RasCheckpoint) {
        self.stack.truncate(checkpoint.len);
        self.stack.resize(checkpoint.len, 0);
        if let (Some(top), Some(slot)) = (checkpoint.top, self.stack.back_mut()) {
            *slot = top;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pht_trains_to_taken() {
        let mut pht = PatternHistoryTable::new(1024);
        let pc = 0x4000;
        for _ in 0..4 {
            pht.update(pc, true);
        }
        assert!(pht.predict(pc));
        // One not-taken doesn't flip a saturated counter...
        pht.update(pc, false);
        assert!(pht.predict(pc));
        // ...two do.
        pht.update(pc, false);
        assert!(!pht.predict(pc));
    }

    #[test]
    fn btb_tags_exactly() {
        let mut btb = BranchTargetBuffer::new(256);
        btb.update(0x4000, 0x5000);
        assert_eq!(btb.predict(0x4000), Some(0x5000));
        // An aliasing PC with a different tag misses.
        assert_eq!(btb.predict(0x4000 + 512 * 2), None);
    }

    #[test]
    fn ras_round_trips() {
        let mut ras = ReturnAddressStack::new(16);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_checkpoint_restore() {
        let mut ras = ReturnAddressStack::new(16);
        ras.push(0x100);
        let checkpoint = ras.checkpoint();
        ras.push(0x200);
        ras.pop();
        ras.pop();
        ras.restore(checkpoint);
        assert_eq!(ras.pop(), Some(0x100));
    }

    #[test]
    fn ras_checkpoint_is_copy_and_top_only() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(0x100);
        ras.push(0x200);
        let checkpoint = ras.checkpoint();
        // Copy: no allocation travels with the token.
        let same = checkpoint;
        // Wrong path: pop both, push different addresses.
        ras.pop();
        ras.pop();
        ras.push(0xBAD);
        ras.restore(same);
        // The top comes back exactly; the entry below it was clobbered
        // by the wrong path (TOS-only recovery).
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0xBAD));
    }
}
