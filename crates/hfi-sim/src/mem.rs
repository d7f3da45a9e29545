//! Sparse data memory for the simulator.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;
/// Entries of the page-translation cache (a power of two).
const CACHE_ENTRIES: usize = 16;

/// A sparse 64-bit byte-addressable memory.
///
/// Pages materialize (zero-filled) on first write; reads of untouched
/// memory return zero, like anonymous mmap.
///
/// The page table maps page number to a slot in flat page storage, with
/// a 16-entry direct-mapped translation cache in front, indexed by the
/// low bits of the page number: a kernel that streams through a few
/// buffers keeps each buffer's current page resident, so most reads and
/// writes skip the `HashMap`, and a non-page-crossing access touches its
/// page once instead of once per byte.
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    page_table: HashMap<u64, u32>,
    storage: Vec<Box<[u8]>>,
    /// The translation cache, entry `page number % CACHE_ENTRIES`: the
    /// cached page number plus one (zero marks an empty entry; page
    /// numbers are below 2^52) and its storage slot. Slots are stable
    /// (pages are never freed), so an entry never goes stale.
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
                let slot = self.storage.len() as u32;
                self.storage
                    .push(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
                self.page_table.insert(page_no, slot);
                slot
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
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + size as usize <= PAGE_SIZE as usize {
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
    pub fn write(&mut self, addr: u64, value: u64, size: u8) {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + size as usize <= PAGE_SIZE as usize {
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
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE as usize - offset));
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
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_SIZE as usize - offset));
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
        for len in [10, PAGE_SIZE as usize + 10] {
            let mut mem = SparseMemory::new();
            let base = 3 * PAGE_SIZE - 5;
            let image: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            mem.write_bytes(base, &image);
            assert_eq!(mem.read_bytes(base, len), image, "len {len}");
            assert_eq!(mem.touched_pages(), 2 + len / PAGE_SIZE as usize);
            for (i, &b) in image.iter().enumerate() {
                assert_eq!(mem.read_u8(base + i as u64), b, "byte {i}");
            }
            // The neighbours stay zero, and reads through untouched
            // pages fill zeros around the written bytes.
            assert_eq!(mem.read_u8(base - 1), 0);
            assert_eq!(mem.read_u8(base + len as u64), 0);
            let around = mem.read_bytes(base - PAGE_SIZE, len + 2 * PAGE_SIZE as usize);
            assert_eq!(
                &around[PAGE_SIZE as usize..PAGE_SIZE as usize + len],
                &image[..]
            );
            assert!(around[..PAGE_SIZE as usize].iter().all(|&b| b == 0));
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
}
