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
///
/// The cache remembers the line of its last access and the way holding
/// it. That line is resident until the next access or flush: every
/// access leaves the line it touched in its way, and a later access
/// either hits that memo itself or replaces it with its own line. So a
/// repeat access to the memoized line is a hit on that way, and it only
/// sets `lru` and counts the hit. Both flushes forget the memo.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Box<[Line]>,
    assoc: usize,
    line_bits: u32,
    set_bits: u32,
    /// Line address (`addr >> line_bits`) of the last access, or
    /// [`Self::NO_LINE`] after a flush.
    last_line: u64,
    /// Index in `lines` of the way holding `last_line`.
    last_way: usize,
    hits: u64,
    misses: u64,
}

/// One way of a set: 16 bytes, no valid bit. An invalid way holds
/// [`Line::INVALID`], a tag no address produces (`new` requires lines of
/// at least two bytes, so a tag has at most 63 bits), and `lru == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    /// Higher = more recently used.
    lru: u64,
}

impl Line {
    const INVALID: Line = Line {
        tag: u64::MAX,
        lru: 0,
    };
}

impl Cache {
    /// `last_line` when no access is memoized; line addresses have at
    /// most 63 bits, so none equals it.
    const NO_LINE: u64 = u64::MAX;

    /// Creates a cache of `size_bytes` with `assoc` ways and `line_bytes`
    /// lines (both powers of two).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two decomposition, or if
    /// lines are shorter than two bytes.
    pub fn new(size_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two() && size_bytes.is_power_of_two());
        assert!(line_bytes >= 2, "the invalid-tag sentinel needs a line bit");
        let num_lines = size_bytes / line_bytes;
        let num_sets = num_lines / assoc as u64;
        assert!(num_sets.is_power_of_two() && num_sets >= 1);
        Self {
            lines: vec![Line::INVALID; num_sets as usize * assoc].into_boxed_slice(),
            assoc,
            line_bits: line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            last_line: Self::NO_LINE,
            last_way: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The first way of `line_addr`'s set, and its tag.
    fn index(&self, line_addr: u64) -> (usize, u64) {
        let set = (line_addr & ((1 << self.set_bits) - 1)) as usize;
        let tag = line_addr >> self.set_bits;
        (set * self.assoc, tag)
    }

    /// Accesses `addr` at time `now`: returns `true` on hit. Misses
    /// install the line (allocate-on-miss), evicting the LRU way.
    #[inline]
    pub fn access(&mut self, addr: u64, now: u64) -> bool {
        let line_addr = addr >> self.line_bits;
        if line_addr == self.last_line {
            self.lines[self.last_way].lru = now;
            self.hits += 1;
            return true;
        }
        self.access_set(line_addr, now)
    }

    /// [`Self::access`] past the memo: scans the set, then memoizes the
    /// line it hit or installed.
    fn access_set(&mut self, line_addr: u64, now: u64) -> bool {
        let (base, tag) = self.index(line_addr);
        let set = &mut self.lines[base..base + self.assoc];
        self.last_line = line_addr;
        if let Some(way) = set.iter().position(|line| line.tag == tag) {
            set[way].lru = now;
            self.last_way = base + way;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // An invalid way's `lru` is 0, so it goes first; ties go to the
        // lowest way.
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, line)| line.lru)
            .map(|(way, _)| way)
            .expect("assoc >= 1");
        set[victim] = Line { tag, lru: now };
        self.last_way = base + victim;
        false
    }

    /// Probes without modifying state: would `addr` hit?
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.index(addr >> self.line_bits);
        self.lines[base..base + self.assoc]
            .iter()
            .any(|line| line.tag == tag)
    }

    /// Evicts the line containing `addr` (clflush).
    pub fn flush(&mut self, addr: u64) {
        let (base, tag) = self.index(addr >> self.line_bits);
        for line in &mut self.lines[base..base + self.assoc] {
            if line.tag == tag {
                *line = Line::INVALID;
            }
        }
        self.last_line = Self::NO_LINE;
    }

    /// Invalidates everything.
    pub fn flush_all(&mut self) {
        self.lines.fill(Line::INVALID);
        self.last_line = Self::NO_LINE;
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Returns the cache to its just-built state, keeping its lines'
    /// allocation: every way invalid, no memo, zero counters.
    pub fn reset(&mut self) {
        let Self {
            lines,
            assoc: _,
            line_bits: _,
            set_bits: _,
            last_line,
            last_way,
            hits,
            misses,
        } = self;
        lines.fill(Line::INVALID);
        *last_line = Self::NO_LINE;
        *last_way = 0;
        *hits = 0;
        *misses = 0;
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

    /// Returns every level and the dTLB to their just-built state and
    /// restores the default latencies, keeping the allocations.
    pub fn reset(&mut self) {
        let Self {
            l1i,
            l1d,
            l2,
            dtlb,
            latencies,
        } = self;
        for cache in [l1i, l1d, l2, dtlb] {
            cache.reset();
        }
        *latencies = CacheLatencies::default();
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

    /// The cache as it was before the last-line memo and the invalid-tag
    /// sentinel, kept verbatim as the reference model.
    mod reference {
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
        pub struct Line {
            pub tag: u64,
            pub lru: u64,
            pub valid: bool,
        }

        impl Cache {
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

            pub fn probe(&self, addr: u64) -> bool {
                let (set_idx, tag) = self.index(addr);
                let base = set_idx * self.assoc;
                self.lines[base..base + self.assoc]
                    .iter()
                    .any(|line| line.valid && line.tag == tag)
            }

            pub fn flush(&mut self, addr: u64) {
                let (set_idx, tag) = self.index(addr);
                let base = set_idx * self.assoc;
                for line in &mut self.lines[base..base + self.assoc] {
                    if line.valid && line.tag == tag {
                        line.valid = false;
                    }
                }
            }

            pub fn flush_all(&mut self) {
                for line in self.lines.iter_mut() {
                    line.valid = false;
                }
            }

            pub fn stats(&self) -> (u64, u64) {
                (self.hits, self.misses)
            }

            pub fn lines(&self) -> &[Line] {
                &self.lines
            }
        }
    }

    /// The resident `(tag, lru)` of every way, `None` for an invalid one.
    fn resident(cache: &Cache) -> Vec<Option<(u64, u64)>> {
        let lines = cache.lines.iter();
        lines
            .map(|l| (l.tag != Line::INVALID.tag).then_some((l.tag, l.lru)))
            .collect()
    }

    fn reference_resident(cache: &reference::Cache) -> Vec<Option<(u64, u64)>> {
        let lines = cache.lines().iter();
        lines.map(|l| l.valid.then_some((l.tag, l.lru))).collect()
    }

    #[test]
    fn memo_and_sentinel_match_the_valid_bit_cache_on_random_traffic() {
        // SplitMix64, so the test needs no crate beyond this one.
        let mut state = 0x5EED_CAC4_E000_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // (size, ways, line): direct-mapped, fully associative, and a
        // few set-associative shapes, all small enough to conflict.
        let geometries = [
            (64, 1, 16),
            (128, 4, 32),
            (256, 2, 16),
            (512, 8, 64),
            (1024, 4, 64),
            (64, 8, 2),
        ];
        for (size, ways, line) in geometries {
            let mut cache = Cache::new(size, ways, line);
            let mut model = reference::Cache::new(size, ways, line);
            // Addresses from a window four times the cache, plus a few far
            // ones whose tags use the high bits; time sometimes stands
            // still or restarts at zero, so LRU ties happen.
            let window = 4 * size;
            let mut now = 0u64;
            let mut last = 0u64;
            for step in 0..20_000 {
                let roll = next() % 100;
                let addr = match next() % 10 {
                    0 => last,
                    1 => last.wrapping_add(1),
                    2 => u64::MAX - next() % window,
                    _ => next() % window,
                };
                last = addr;
                now = match next() % 20 {
                    0 => 0,
                    1 | 2 => now,
                    _ => now + 1 + next() % 3,
                };
                let what = match roll {
                    0..=79 => {
                        let (hit, want) = (cache.access(addr, now), model.access(addr, now));
                        assert_eq!(hit, want, "access {addr:#x} at step {step}");
                        "access"
                    }
                    80..=89 => {
                        assert_eq!(cache.probe(addr), model.probe(addr), "probe {addr:#x}");
                        "probe"
                    }
                    90..=98 => {
                        cache.flush(addr);
                        model.flush(addr);
                        "flush"
                    }
                    _ => {
                        cache.flush_all();
                        model.flush_all();
                        "flush_all"
                    }
                };
                assert_eq!(cache.stats(), model.stats(), "{what} at step {step}");
                assert_eq!(
                    resident(&cache),
                    reference_resident(&model),
                    "{what} {addr:#x} at step {step}, geometry {size}/{ways}/{line}"
                );
            }
        }
    }
}
