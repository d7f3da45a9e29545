//! Sparse data memory for the simulator.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;
const PAGE_BYTES: usize = PAGE_SIZE as usize;
/// Entries of the page-translation cache (a power of two).
const CACHE_ENTRIES: usize = 16;

/// A sparse 64-bit byte-addressable memory.
///
/// Pages materialize (zero-filled) on first write; reads of untouched
/// memory return zero, like anonymous mmap. [`SparseMemory::clear`]
/// forgets every page but keeps its buffer, zeroed, for the next
/// materialization, so a memory that is cleared and refilled again and
/// again allocates only past its high-water mark.
///
/// The page table maps page number to a slot in flat page storage, with
/// a 16-entry direct-mapped translation cache in front, indexed by the
/// low bits of the page number: a kernel that streams through a few
/// buffers keeps each buffer's current page resident, so most reads and
/// writes skip the `HashMap`, and a non-page-crossing access touches its
/// page once instead of once per byte. A cached access whose 8-byte word
/// lies inside its page is one fixed-width load or store.
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    page_table: HashMap<u64, u32>,
    /// Page buffers. Slots `..page_table.len()` hold the materialized
    /// pages; the rest are spares, all zero, which the next pages take
    /// in order.
    storage: Vec<Box<[u8; PAGE_BYTES]>>,
    /// The translation cache, entry `page number % CACHE_ENTRIES`: the
    /// cached page number plus one (zero marks an empty entry; page
    /// numbers are below 2^52) and its storage slot. A slot is stable
    /// until [`SparseMemory::clear`], which empties the cache.
    tags: [Cell<u64>; CACHE_ENTRIES],
    slots: [Cell<u32>; CACHE_ENTRIES],
}

impl SparseMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached slot of `page_no`, if its entry holds it.
    #[inline]
    fn cached(&self, page_no: u64) -> Option<u32> {
        let entry = page_no as usize % CACHE_ENTRIES;
        (self.tags[entry].get() == page_no + 1).then(|| self.slots[entry].get())
    }

    #[inline]
    fn remember(&self, page_no: u64, slot: u32) {
        let entry = page_no as usize % CACHE_ENTRIES;
        self.tags[entry].set(page_no + 1);
        self.slots[entry].set(slot);
    }

    #[inline]
    fn slot_of(&self, page_no: u64) -> Option<u32> {
        if let Some(slot) = self.cached(page_no) {
            return Some(slot);
        }
        let slot = *self.page_table.get(&page_no)?;
        self.remember(page_no, slot);
        Some(slot)
    }

    #[inline]
    fn slot_mut(&mut self, page_no: u64) -> u32 {
        if let Some(slot) = self.cached(page_no) {
            return slot;
        }
        let slot = match self.page_table.get(&page_no) {
            Some(&slot) => slot,
            None => {
                let slot = self.page_table.len();
                if slot == self.storage.len() {
                    let page = vec![0u8; PAGE_BYTES].into_boxed_slice();
                    self.storage
                        .push(page.try_into().expect("a page is PAGE_BYTES long"));
                }
                debug_assert!(
                    self.storage[slot].iter().all(|&b| b == 0),
                    "a spare page buffer is zero"
                );
                self.page_table.insert(page_no, slot as u32);
                slot as u32
            }
        };
        self.remember(page_no, slot);
        slot
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.slot_of(addr >> PAGE_BITS) {
            Some(slot) => self.storage[slot as usize][(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let slot = self.slot_mut(addr >> PAGE_BITS);
        self.storage[slot as usize][(addr & (PAGE_SIZE - 1)) as usize] = value;
    }

    /// Reads `size` bytes (1–8) little-endian, zero-extended to u64.
    ///
    /// A translation-cache hit whose 8-byte word lies inside the page
    /// loads that word and zero-extends it; any other read takes
    /// [`Self::read_slow`].
    #[inline]
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset <= PAGE_BYTES - 8 {
            if let Some(slot) = self.cached(addr >> PAGE_BITS) {
                let page = &self.storage[slot as usize];
                let word: [u8; 8] = page[offset..offset + 8].try_into().expect("8 bytes");
                return zero_extend(u64::from_le_bytes(word), size);
            }
        }
        self.read_slow(addr, size)
    }

    /// [`Self::read`] for a page-crossing word or a translation-cache
    /// miss.
    fn read_slow(&self, addr: u64, size: u8) -> u64 {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + size as usize <= PAGE_BYTES {
            let Some(slot) = self.slot_of(addr >> PAGE_BITS) else {
                return 0;
            };
            let page = &self.storage[slot as usize];
            let mut buf = [0u8; 8];
            buf[..size as usize].copy_from_slice(&page[offset..offset + size as usize]);
            return u64::from_le_bytes(buf);
        }
        let mut value = 0u64;
        for i in 0..size as u64 {
            value |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        value
    }

    /// Writes the low `size` bytes (1–8) of `value` little-endian.
    ///
    /// A translation-cache hit whose 8-byte word lies inside the page
    /// stores 1, 2, 4 or 8 bytes in place; any other write takes
    /// [`Self::write_slow`].
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64, size: u8) {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset <= PAGE_BYTES - 8 {
            if let Some(slot) = self.cached(addr >> PAGE_BITS) {
                let word = &mut self.storage[slot as usize][offset..offset + 8];
                match size {
                    1 => word[0] = value as u8,
                    2 => word[..2].copy_from_slice(&(value as u16).to_le_bytes()),
                    4 => word[..4].copy_from_slice(&(value as u32).to_le_bytes()),
                    8 => word.copy_from_slice(&value.to_le_bytes()),
                    _ => self.write_slow(addr, value, size),
                }
                return;
            }
        }
        self.write_slow(addr, value, size);
    }

    /// [`Self::write`] for a page-crossing word, a translation-cache miss
    /// or an odd size.
    fn write_slow(&mut self, addr: u64, value: u64, size: u8) {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + size as usize <= PAGE_BYTES {
            let slot = self.slot_mut(addr >> PAGE_BITS);
            let page = &mut self.storage[slot as usize];
            page[offset..offset + size as usize]
                .copy_from_slice(&value.to_le_bytes()[..size as usize]);
            return;
        }
        for i in 0..size as u64 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Bulk-initializes memory from a byte slice, one page-sized copy
    /// per page it touches.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr & (PAGE_SIZE - 1)) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_BYTES - offset));
            let slot = self.slot_mut(addr >> PAGE_BITS);
            self.storage[slot as usize][offset..offset + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }

    /// Reads `len` bytes into a vector, one page-sized copy per page.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut addr = addr;
        let mut rest = &mut out[..];
        while !rest.is_empty() {
            let offset = (addr & (PAGE_SIZE - 1)) as usize;
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_BYTES - offset));
            if let Some(slot) = self.slot_of(addr >> PAGE_BITS) {
                chunk.copy_from_slice(&self.storage[slot as usize][offset..offset + chunk.len()]);
            }
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
        out
    }

    /// Number of materialized 4 KiB pages.
    pub fn touched_pages(&self) -> usize {
        self.page_table.len()
    }

    /// Every materialized page's base address and bytes, ascending by
    /// address: two memories with equal snapshots have touched the same
    /// pages and read the same everywhere.
    pub fn snapshot(&self) -> Vec<(u64, Vec<u8>)> {
        let mut pages: Vec<(u64, Vec<u8>)> = self
            .page_table
            .iter()
            .map(|(&page_no, &slot)| (page_no << PAGE_BITS, self.storage[slot as usize].to_vec()))
            .collect();
        pages.sort_unstable_by_key(|&(addr, _)| addr);
        pages
    }

    /// Page buffers held, materialized and spare: the most pages this
    /// memory has held at once since it was built.
    pub fn page_buffers(&self) -> usize {
        self.storage.len()
    }

    /// Forgets every page: afterwards the memory reads as zero
    /// everywhere and [`Self::touched_pages`] is 0, exactly as a new
    /// one. The buffers are zeroed and kept as spares, so no byte of
    /// the old contents survives and refilling them allocates nothing.
    pub fn clear(&mut self) {
        let Self {
            page_table,
            storage,
            tags,
            slots: _,
        } = self;
        for page in &mut storage[..page_table.len()] {
            page.fill(0);
        }
        page_table.clear();
        for tag in tags.iter() {
            tag.set(0);
        }
    }
}

/// The low `size` bytes (1–8) of `value`, zero-extended: the value a
/// `size`-byte load yields, whether it reads memory or takes a store's
/// data by forwarding.
#[inline(always)]
pub(crate) fn zero_extend(value: u64, size: u8) -> u64 {
    debug_assert!((1..=8).contains(&size));
    value & (u64::MAX >> (64 - 8 * size as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read(0xDEAD_BEEF, 8), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut mem = SparseMemory::new();
        mem.write(0x1000, 0x1122_3344_5566_7788, 8);
        assert_eq!(mem.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(mem.read(0x1000, 4), 0x5566_7788);
        assert_eq!(mem.read(0x1000, 1), 0x88);
        assert_eq!(mem.read_u8(0x1007), 0x11);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = SparseMemory::new();
        mem.write(PAGE_SIZE - 4, 0xAABB_CCDD_EEFF_0011, 8);
        assert_eq!(mem.read(PAGE_SIZE - 4, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(mem.touched_pages(), 2);
    }

    #[test]
    fn bulk_bytes() {
        let mut mem = SparseMemory::new();
        mem.write_bytes(0x2000, b"hello");
        assert_eq!(mem.read_bytes(0x2000, 5), b"hello");
    }

    #[test]
    fn bulk_bytes_cross_one_and_two_page_boundaries() {
        // Starts 5 bytes before a page boundary: the short image
        // crosses one boundary, the long one two.
        for len in [10, PAGE_BYTES + 10] {
            let mut mem = SparseMemory::new();
            let base = 3 * PAGE_SIZE - 5;
            let image: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            mem.write_bytes(base, &image);
            assert_eq!(mem.read_bytes(base, len), image, "len {len}");
            assert_eq!(mem.touched_pages(), 2 + len / PAGE_BYTES);
            for (i, &b) in image.iter().enumerate() {
                assert_eq!(mem.read_u8(base + i as u64), b, "byte {i}");
            }
            // The neighbours stay zero, and reads through untouched
            // pages fill zeros around the written bytes.
            assert_eq!(mem.read_u8(base - 1), 0);
            assert_eq!(mem.read_u8(base + len as u64), 0);
            let around = mem.read_bytes(base - PAGE_SIZE, len + 2 * PAGE_BYTES);
            assert_eq!(&around[PAGE_BYTES..PAGE_BYTES + len], &image[..]);
            assert!(around[..PAGE_BYTES].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn pages_that_alias_in_the_cache_keep_their_own_bytes() {
        // 40 pages whose numbers share their low bits, so each evicts
        // the last from the same cache entry, interleaved with a page
        // that maps elsewhere.
        let mut mem = SparseMemory::new();
        let stride = CACHE_ENTRIES as u64 * PAGE_SIZE;
        for round in 0..3u64 {
            for i in 0..40u64 {
                let addr = 0x10_0000 + i * stride + 8 * round;
                mem.write(addr, (i << 8) | round, 8);
                mem.write(0x1000 + 8 * i, i, 8);
            }
        }
        for round in 0..3u64 {
            for i in 0..40u64 {
                let addr = 0x10_0000 + i * stride + 8 * round;
                assert_eq!(mem.read(addr, 8), (i << 8) | round);
                assert_eq!(mem.read(0x1000 + 8 * i, 8), i);
            }
        }
        assert_eq!(mem.touched_pages(), 41);
    }

    #[test]
    fn fixed_width_paths_match_a_byte_wise_model_at_page_ends() {
        // The model composes every access from `read_u8`/`write_u8`, the
        // byte paths the fixed-width ones must agree with.
        fn model_read(model: &SparseMemory, addr: u64, size: u8) -> u64 {
            (0..size as u64).fold(0, |value, i| {
                value | (model.read_u8(addr.wrapping_add(i)) as u64) << (8 * i)
            })
        }
        fn model_write(model: &mut SparseMemory, addr: u64, value: u64, size: u8) {
            for i in 0..size as u64 {
                model.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
        // SplitMix64, so the test needs no crate beyond this one.
        let mut state = 0x3E30_FF5E_7777_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut mem = SparseMemory::new();
        let mut model = SparseMemory::new();
        // Neighbouring pages, so a page-end access spills into a page
        // that may not exist yet; pages 16 apart, which share a
        // translation-cache entry; and the last page of the address
        // space, whose successor wraps to page 0.
        let pages = [3u64, 4, 5, 19, 35, 36, (u64::MAX >> PAGE_BITS)];
        for step in 0..50_000 {
            let page = pages[(next() % pages.len() as u64) as usize];
            let offset = match next() % 4 {
                0 => next() % PAGE_SIZE,
                1 => next() % 8,
                _ => PAGE_SIZE - 8 + next() % 8,
            };
            let addr = (page << PAGE_BITS) | offset;
            let size = [1u8, 2, 4, 8][(next() % 4) as usize];
            if next() % 3 == 0 {
                let value = next();
                mem.write(addr, value, size);
                model_write(&mut model, addr, value, size);
            } else {
                assert_eq!(
                    mem.read(addr, size),
                    model_read(&model, addr, size),
                    "{size}-byte read at {addr:#x}, step {step}"
                );
            }
            assert_eq!(mem.touched_pages(), model.touched_pages(), "step {step}");
        }
        for &page in &pages {
            let base = page << PAGE_BITS;
            assert_eq!(
                mem.read_bytes(base, PAGE_BYTES),
                model.read_bytes(base, PAGE_BYTES)
            );
        }
    }

    #[test]
    fn cleared_memory_reads_like_a_fresh_one_and_reuses_its_buffers() {
        // SplitMix64, so the test needs no crate beyond this one.
        let mut state = 0xC1EA_4ED0_0001_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Neighbouring pages, pages that share a translation-cache entry,
        // and pages far apart, so a refill lands its pages in spare
        // buffers that held other pages before the clear.
        let pages = [1u64, 2, 3, 17, 33, 0x4_0000, 0x4_0001];
        let mut mem = SparseMemory::new();
        let mut fresh = SparseMemory::new();
        let mut most_touched = 0;
        for step in 0..40_000 {
            let page = pages[(next() % pages.len() as u64) as usize];
            let addr = (page << PAGE_BITS) | (next() % PAGE_SIZE);
            match next() % 50 {
                0 => {
                    mem.clear();
                    fresh = SparseMemory::new();
                    assert_eq!(mem.touched_pages(), 0, "step {step}");
                    // No byte of the old contents survives, whether the
                    // page is read before or after it is materialized
                    // again.
                    for &page in &pages {
                        let base = page << PAGE_BITS;
                        assert!(mem.read_bytes(base, PAGE_BYTES).iter().all(|&b| b == 0));
                    }
                    let page = pages[(next() % pages.len() as u64) as usize];
                    mem.write_u8(page << PAGE_BITS, 0);
                    fresh.write_u8(page << PAGE_BITS, 0);
                    let base = page << PAGE_BITS;
                    assert!(mem.read_bytes(base, PAGE_BYTES).iter().all(|&b| b == 0));
                }
                1..=4 => {
                    let len = (next() % (2 * PAGE_SIZE)) as usize;
                    let bytes: Vec<u8> = (0..len).map(|_| next() as u8 | 1).collect();
                    mem.write_bytes(addr, &bytes);
                    fresh.write_bytes(addr, &bytes);
                }
                5..=24 => {
                    let size = [1u8, 2, 4, 8][(next() % 4) as usize];
                    let value = next() | 1;
                    mem.write(addr, value, size);
                    fresh.write(addr, value, size);
                }
                _ => {
                    let size = [1u8, 2, 4, 8][(next() % 4) as usize];
                    assert_eq!(
                        mem.read(addr, size),
                        fresh.read(addr, size),
                        "{size}-byte read at {addr:#x}, step {step}"
                    );
                }
            }
            assert_eq!(mem.touched_pages(), fresh.touched_pages(), "step {step}");
            most_touched = most_touched.max(mem.touched_pages());
            assert_eq!(mem.page_buffers(), most_touched, "step {step}");
        }
        for &page in &pages {
            let base = page << PAGE_BITS;
            assert_eq!(
                mem.read_bytes(base, PAGE_BYTES),
                fresh.read_bytes(base, PAGE_BYTES)
            );
        }
    }

    #[test]
    fn zero_extend_keeps_exactly_the_low_bytes() {
        let value = 0x8877_6655_4433_2211;
        assert_eq!(zero_extend(value, 1), 0x11);
        assert_eq!(zero_extend(value, 2), 0x2211);
        assert_eq!(zero_extend(value, 4), 0x4433_2211);
        assert_eq!(zero_extend(value, 8), value);
    }
}
