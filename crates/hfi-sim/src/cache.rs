//! Set-associative caches, the cache hierarchy, and the dTLB.
//!
//! The data cache is the side channel of the Spectre experiments (Fig. 7):
//! speculative loads install lines, `clflush` evicts them, and `rdtsc`
//! around a probe load distinguishes hit from miss latency. HFI's security
//! argument (paper §4.1) is that a *faulting* access never reaches the
//! cache — the fill happens only after the bounds check passes — and the
//! pipeline model enforces exactly that by consulting HFI before calling
//! [`CacheHierarchy::data_access`].

/// One set-associative cache with true-LRU replacement.
///
/// Ways are stored set-major in one flat allocation; a set is the
/// `assoc`-long slice at `set_index * assoc`, so a lookup is pure index
/// arithmetic with no per-set indirection.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Box<[Line]>,
    assoc: usize,
    line_bits: u32,
    set_bits: u32,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    /// Higher = more recently used.
    lru: u64,
    valid: bool,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `assoc` ways and `line_bytes`
    /// lines (both powers of two).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two decomposition.
    pub fn new(size_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two() && size_bytes.is_power_of_two());
        let num_lines = size_bytes / line_bytes;
        let num_sets = num_lines / assoc as u64;
        assert!(num_sets.is_power_of_two() && num_sets >= 1);
        Self {
            lines: vec![
                Line {
                    tag: 0,
                    lru: 0,
                    valid: false
                };
                num_sets as usize * assoc
            ]
            .into_boxed_slice(),
            assoc,
            line_bits: line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_bits;
        let set = (line_addr & ((1 << self.set_bits) - 1)) as usize;
        let tag = line_addr >> self.set_bits;
        (set, tag)
    }

    /// Accesses `addr` at time `now`: returns `true` on hit. Misses
    /// install the line (allocate-on-miss), evicting the LRU way.
    pub fn access(&mut self, addr: u64, now: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.assoc;
        let set = &mut self.lines[base..base + self.assoc];
        for line in set.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = now;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, line)| if line.valid { line.lru } else { 0 })
            .map(|(way, _)| way)
            .expect("assoc >= 1");
        set[victim] = Line {
            tag,
            lru: now,
            valid: true,
        };
        false
    }

    /// Probes without modifying state: would `addr` hit?
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.assoc;
        self.lines[base..base + self.assoc]
            .iter()
            .any(|line| line.valid && line.tag == tag)
    }

    /// Evicts the line containing `addr` (clflush).
    pub fn flush(&mut self, addr: u64) {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.assoc;
        for line in &mut self.lines[base..base + self.assoc] {
            if line.valid && line.tag == tag {
                line.valid = false;
            }
        }
    }

    /// Invalidates everything.
    pub fn flush_all(&mut self) {
        for line in self.lines.iter_mut() {
            line.valid = false;
        }
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Latency parameters of the modelled hierarchy (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLatencies {
    /// L1 hit (load-to-use).
    pub l1: u64,
    /// L2 hit.
    pub l2: u64,
    /// Main memory.
    pub memory: u64,
    /// dTLB miss (page-walk) penalty.
    pub tlb_miss: u64,
}

impl Default for CacheLatencies {
    fn default() -> Self {
        // Skylake-like: 4-cycle L1, 12-cycle L2, ~200-cycle DRAM.
        Self {
            l1: 4,
            l2: 12,
            memory: 200,
            tlb_miss: 30,
        }
    }
}

/// A two-level data/instruction hierarchy plus dTLB, matching the gem5
/// configuration of the paper's Table 2 (32 KiB 8-way L1s).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Data TLB (fully-associative, modelled as a small cache of pages).
    pub dtlb: Cache,
    /// Latency parameters.
    pub latencies: CacheLatencies,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheHierarchy {
    /// The default Skylake-like geometry (Table 2 of the paper).
    pub fn new() -> Self {
        Self {
            l1i: Cache::new(32 << 10, 8, 64),
            l1d: Cache::new(32 << 10, 8, 64),
            l2: Cache::new(1 << 20, 16, 64),
            // 64-entry dTLB over 4 KiB pages, modelled as 16 sets x 4 ways
            // over page granularity (fully assoc would be ideal; 4-way is
            // close enough for the experiments).
            dtlb: Cache::new(64 * 4096, 4, 4096),
            latencies: CacheLatencies::default(),
        }
    }

    /// A data access at `addr`: returns total latency in cycles and
    /// updates cache + TLB state. The dTLB lookup overlaps the L1 index
    /// lookup — and, with HFI, the region checks (paper Fig. 1) — so TLB
    /// hits add nothing.
    pub fn data_access(&mut self, addr: u64, now: u64) -> u64 {
        let tlb_pen = if self.dtlb.access(addr, now) {
            0
        } else {
            self.latencies.tlb_miss
        };
        let lat = if self.l1d.access(addr, now) {
            self.latencies.l1
        } else if self.l2.access(addr, now) {
            self.latencies.l2
        } else {
            self.latencies.memory
        };
        lat + tlb_pen
    }

    /// An instruction fetch at `pc`: returns latency in cycles.
    pub fn fetch_access(&mut self, pc: u64, now: u64) -> u64 {
        if self.l1i.access(pc, now) {
            0 // overlapped with the pipeline's fetch stage
        } else if self.l2.access(pc, now) {
            self.latencies.l2
        } else {
            self.latencies.memory
        }
    }

    /// Would a data access at `addr` hit in L1D? (No state change.)
    pub fn probe_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// clflush: evicts `addr` from all data levels.
    pub fn flush_data(&mut self, addr: u64) {
        self.l1d.flush(addr);
        self.l2.flush(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut cache = Cache::new(1024, 2, 64);
        assert!(!cache.access(0x1000, 1));
        assert!(cache.access(0x1000, 2));
        assert!(cache.access(0x103F, 3)); // same line
        assert!(!cache.access(0x1040, 4)); // next line
        assert_eq!(cache.stats(), (2, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, one set per 64-byte stride at set 0: three conflicting
        // lines force an eviction of the least recently used.
        let mut cache = Cache::new(128, 2, 64); // 1 set, 2 ways
        cache.access(0x0, 1);
        cache.access(0x40, 2);
        cache.access(0x0, 3); // refresh line 0
        cache.access(0x80, 4); // evicts 0x40
        assert!(cache.probe(0x0));
        assert!(!cache.probe(0x40));
        assert!(cache.probe(0x80));
    }

    #[test]
    fn flush_removes_line() {
        let mut cache = Cache::new(1024, 2, 64);
        cache.access(0x2000, 1);
        assert!(cache.probe(0x2000));
        cache.flush(0x2000);
        assert!(!cache.probe(0x2000));
    }

    #[test]
    fn probe_does_not_modify() {
        let mut cache = Cache::new(1024, 2, 64);
        cache.access(0x0, 1);
        let stats_before = cache.stats();
        let _ = cache.probe(0x12345);
        let _ = cache.probe(0x0);
        assert_eq!(cache.stats(), stats_before);
        assert!(cache.probe(0x0), "probe must not evict the resident line");
    }

    #[test]
    fn hierarchy_latency_ordering() {
        let mut hier = CacheHierarchy::new();
        let cold = hier.data_access(0x8000, 1);
        let warm = hier.data_access(0x8000, 2);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(warm, hier.latencies.l1);
    }

    #[test]
    fn flush_data_forces_memory_latency() {
        let mut hier = CacheHierarchy::new();
        hier.data_access(0x8000, 1);
        hier.flush_data(0x8000);
        // TLB still warm; line must come from memory again.
        let lat = hier.data_access(0x8000, 2);
        assert_eq!(lat, hier.latencies.memory);
    }
}
