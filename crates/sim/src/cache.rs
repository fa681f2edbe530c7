//! Set-associative cache with LRU replacement, MSHRs and a write buffer.
//!
//! Speculative accesses mutate cache state by default — that *is* the side
//! channel every attack in the paper transmits over. InvisiSpec-mode loads
//! bypass installation (see `cpu.rs`).

use crate::config::CacheConfig;

/// Per-cache event counters, named after the gem5 statistics EVAX samples.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Evictions of clean (never-written) lines — `cleanEvicts`, the
    /// Flush+Reload / Prime+Probe signature counter (paper Fig. 9).
    pub clean_evicts: u64,
    /// Evictions of dirty lines (writebacks).
    pub writebacks: u64,
    /// Lines invalidated by explicit flushes (`clflush`).
    pub flushes: u64,
    /// Accesses that allocated an MSHR (`mshr_misses`).
    pub mshr_misses: u64,
    /// Cumulative latency of MSHR misses (`ReadReq_mshr_miss_latency`).
    pub mshr_miss_latency: u64,
    /// Accesses stalled because all MSHRs were busy.
    pub mshr_full_events: u64,
    /// Prefetch fills.
    pub prefetch_fills: u64,
    /// Hits on lines brought in by a prefetch.
    pub prefetch_hits: u64,
}

/// Line flag bits, laid out as the snapshot's per-line flags word.
const VALID: u8 = 1;
const DIRTY: u8 = 2;
const PREFETCHED: u8 = 4;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// `true` on hit.
    pub hit: bool,
    /// Cycles spent at this level (hit latency, or hit latency + MSHR wait).
    pub latency: u32,
    /// `true` if the miss could not get an MSHR and had to stall.
    pub mshr_stall: bool,
    /// A line evicted by the fill triggered by this access, if any — the
    /// address of its first byte.
    pub evicted: Option<u64>,
}

/// A single cache level.
///
/// Line state is stored flat, one array per field, indexed
/// `set * ways + way`. A line whose flags are zero is invalid, so a new
/// cache is three zeroed allocations: the pages of a large, mostly unused
/// L2 are never touched, and dropping it is three frees.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    tags: Vec<u64>,
    flags: Vec<u8>,
    /// LRU timestamps (higher = more recent).
    lru: Vec<u64>,
    stats: CacheStats,
    tick: u64,
    /// Completion times of in-flight misses, for MSHR occupancy.
    mshr_busy_until: Vec<u64>,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let lines = cfg.sets() * cfg.ways;
        Cache {
            sets: cfg.sets() as u64,
            tags: vec![0; lines],
            flags: vec![0; lines],
            lru: vec![0; lines],
            stats: CacheStats::default(),
            tick: 0,
            mshr_busy_until: Vec::new(),
            cfg,
        }
    }

    /// The geometry/timing configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The line slots of `addr`'s set, and its tag.
    fn index(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr / self.cfg.line as u64;
        let first = (line_addr % self.sets) as usize * self.cfg.ways;
        (first..first + self.cfg.ways, line_addr)
    }

    /// The slot holding a valid line with `tag`, if any.
    fn find(&self, slots: std::ops::Range<usize>, tag: u64) -> Option<usize> {
        slots
            .into_iter()
            .find(|&i| self.flags[i] & VALID != 0 && self.tags[i] == tag)
    }

    /// `true` if `addr`'s line is present (no state change, no stats) —
    /// used by tests and the attack harness's "probe without touching".
    pub fn contains(&self, addr: u64) -> bool {
        let (slots, tag) = self.index(addr);
        self.find(slots, tag).is_some()
    }

    /// Performs a read/write lookup at time `now`; on a miss the caller is
    /// responsible for accessing the next level and then calling
    /// [`Cache::fill`] (unless running invisibly).
    pub fn access(&mut self, addr: u64, write: bool, now: u64) -> CacheAccess {
        self.tick += 1;
        let (slots, tag) = self.index(addr);
        if let Some(i) = self.find(slots, tag) {
            self.lru[i] = self.tick;
            if write {
                self.flags[i] |= DIRTY;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            if self.flags[i] & PREFETCHED != 0 {
                self.stats.prefetch_hits += 1;
                self.flags[i] &= !PREFETCHED;
            }
            return CacheAccess {
                hit: true,
                latency: self.cfg.hit_latency,
                mshr_stall: false,
                evicted: None,
            };
        }
        // Miss.
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        // MSHR availability.
        self.mshr_busy_until.retain(|&t| t > now);
        let mshr_stall = self.mshr_busy_until.len() >= self.cfg.mshrs;
        if mshr_stall {
            self.stats.mshr_full_events += 1;
        } else {
            self.stats.mshr_misses += 1;
        }
        CacheAccess {
            hit: false,
            latency: self.cfg.hit_latency,
            mshr_stall,
            evicted: None,
        }
    }

    /// Registers an in-flight miss occupying an MSHR until `done`.
    pub fn note_miss_latency(&mut self, latency: u64, done: u64) {
        self.stats.mshr_miss_latency += latency;
        self.mshr_busy_until.push(done);
    }

    /// Installs the line containing `addr`, evicting the LRU way. Returns
    /// the base address of the evicted line, if one was valid.
    pub fn fill(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        self.tick += 1;
        let (slots, tag) = self.index(addr);
        // Already present (racing fills): just update.
        if let Some(i) = self.find(slots.clone(), tag) {
            if dirty {
                self.flags[i] |= DIRTY;
            }
            self.lru[i] = self.tick;
            return None;
        }
        // The first invalid way, otherwise the least recently used one.
        let victim = slots
            .min_by_key(|&i| {
                if self.flags[i] & VALID != 0 {
                    self.lru[i]
                } else {
                    0
                }
            })
            .expect("cache has ways");
        let old = self.flags[victim];
        let evicted = if old & VALID != 0 {
            if old & DIRTY != 0 {
                self.stats.writebacks += 1;
            } else {
                self.stats.clean_evicts += 1;
            }
            Some(self.tags[victim] * self.cfg.line as u64)
        } else {
            None
        };
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        self.tags[victim] = tag;
        self.flags[victim] =
            VALID | if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        self.lru[victim] = self.tick;
        evicted
    }

    /// Invalidates the line containing `addr` (`clflush`). Returns `true` if
    /// a line was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let (slots, tag) = self.index(addr);
        let Some(i) = self.find(slots, tag) else {
            return false;
        };
        self.tags[i] = 0;
        self.flags[i] = 0;
        self.lru[i] = 0;
        self.stats.flushes += 1;
        true
    }

    /// Invalidates everything (used at secure-mode entry by some policies).
    pub fn flush_all(&mut self) {
        self.stats.flushes += self.occupancy() as u64;
        self.tags.fill(0);
        self.flags.fill(0);
        self.lru.fill(0);
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }

    /// Appends the full cache state (LRU clock, then tag, flags and LRU
    /// stamp per line in slot order, then in-flight MSHR deadlines and
    /// statistics) to a snapshot word stream. Geometry is not recorded — it
    /// is re-derived from the [`CacheConfig`] at restore, which the snapshot
    /// header fingerprints.
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        for i in 0..self.tags.len() {
            out.extend_from_slice(&[self.tags[i], self.flags[i] as u64, self.lru[i]]);
        }
        out.push(self.mshr_busy_until.len() as u64);
        out.extend_from_slice(&self.mshr_busy_until);
        let CacheStats {
            read_hits,
            read_misses,
            write_hits,
            write_misses,
            clean_evicts,
            writebacks,
            flushes,
            mshr_misses,
            mshr_miss_latency,
            mshr_full_events,
            prefetch_fills,
            prefetch_hits,
        } = self.stats.clone();
        out.extend_from_slice(&[
            read_hits,
            read_misses,
            write_hits,
            write_misses,
            clean_evicts,
            writebacks,
            flushes,
            mshr_misses,
            mshr_miss_latency,
            mshr_full_events,
            prefetch_fills,
            prefetch_hits,
        ]);
    }

    /// Restores state written by [`Cache::save_state`] into a cache built
    /// from the same configuration. Returns `None` on a truncated or
    /// malformed stream.
    pub(crate) fn load_state(&mut self, w: &mut std::slice::Iter<'_, u64>) -> Option<()> {
        self.tick = *w.next()?;
        for i in 0..self.tags.len() {
            self.tags[i] = *w.next()?;
            self.flags[i] = u8::try_from(*w.next()?).ok().filter(|&f| f <= 0b111)?;
            self.lru[i] = *w.next()?;
        }
        let n = usize::try_from(*w.next()?).ok()?;
        self.mshr_busy_until.clear();
        for _ in 0..n {
            self.mshr_busy_until.push(*w.next()?);
        }
        let s = &mut self.stats;
        for field in [
            &mut s.read_hits,
            &mut s.read_misses,
            &mut s.write_hits,
            &mut s.write_misses,
            &mut s.clean_evicts,
            &mut s.writebacks,
            &mut s.flushes,
            &mut s.mshr_misses,
            &mut s.mshr_miss_latency,
            &mut s.mshr_full_events,
            &mut s.prefetch_fills,
            &mut s.prefetch_hits,
        ] {
            *field = *w.next()?;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size: 1024,
            line: 64,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
            write_buffers: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = c.access(0x100, false, 0);
        assert!(!a.hit);
        c.fill(0x100, false, false);
        let b = c.access(0x100, false, 1);
        assert!(b.hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = small();
        c.fill(0x100, false, false);
        assert!(c.access(0x13F, false, 0).hit);
        assert!(!c.access(0x140, false, 0).hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small(); // 8 sets, 2 ways
        let set_stride = 64 * 8; // same set every 512 bytes
        c.fill(0, false, false);
        c.fill(set_stride as u64, false, false);
        // Touch the first line so the second becomes LRU.
        c.access(0, false, 0);
        let evicted = c.fill(2 * set_stride as u64, false, false);
        assert_eq!(evicted, Some(set_stride as u64));
        assert!(c.contains(0));
        assert!(!c.contains(set_stride as u64));
    }

    #[test]
    fn clean_vs_dirty_evictions() {
        let mut c = small();
        let stride = 64 * 8;
        c.fill(0, false, false);
        c.fill(stride, true, false);
        c.fill(2 * stride, false, false); // evicts clean line 0
        c.fill(3 * stride, false, false); // evicts dirty line stride
        assert_eq!(c.stats().clean_evicts, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.fill(0x100, false, false);
        assert!(c.flush_line(0x100));
        assert!(!c.contains(0x100));
        assert!(!c.flush_line(0x100));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = small(); // 4 MSHRs
        for i in 0..4u64 {
            let a = c.access(0x1000 + i * 64, false, 0);
            assert!(!a.mshr_stall);
            c.note_miss_latency(100, 100);
        }
        let a = c.access(0x9000, false, 0);
        assert!(a.mshr_stall);
        // After the misses complete, MSHRs free up.
        let b = c.access(0xA000, false, 200);
        assert!(!b.mshr_stall);
    }

    #[test]
    fn prefetch_tracking() {
        let mut c = small();
        c.fill(0x200, false, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        c.access(0x200, false, 0);
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second hit no longer counts as a prefetch hit.
        c.access(0x200, false, 1);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn occupancy_and_flush_all() {
        let mut c = small();
        c.fill(0, false, false);
        c.fill(64, false, false);
        assert_eq!(c.occupancy(), 2);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn write_sets_dirty() {
        let mut c = small();
        c.fill(0x300, false, false);
        c.access(0x300, true, 0);
        let stride = 64 * 8;
        c.fill(0x300 + stride, false, false);
        c.fill(0x300 + 2 * stride, false, false); // evict the written line eventually
        c.fill(0x300 + 3 * stride, false, false);
        assert!(c.stats().writebacks >= 1);
    }
}
