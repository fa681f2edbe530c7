//! Property test: the flat `Cache` against an independent reference model.
//!
//! The oracle below keeps the straightforward one-`Vec`-per-set layout and
//! shares no code with `evax_sim::cache` beyond its plain data types. Both
//! are driven by the same random sequence of accesses, fills, MSHR notes
//! and flushes; after every operation their results, residency, occupancy
//! and statistics must agree.

use evax_sim::cache::{CacheAccess, CacheStats};
use evax_sim::{Cache, CacheConfig, CpuConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
    lru: 0,
};

/// Reference set-associative cache: LRU replacement preferring the first
/// invalid way, MSHR occupancy by completion time, gem5-style counters.
struct Oracle {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
    mshr_busy_until: Vec<u64>,
}

impl Oracle {
    fn new(cfg: CacheConfig) -> Self {
        Oracle {
            sets: vec![vec![INVALID; cfg.ways]; cfg.size / (cfg.line * cfg.ways)],
            stats: CacheStats::default(),
            tick: 0,
            mshr_busy_until: Vec::new(),
            cfg,
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.cfg.line as u64;
        ((line_addr % self.sets.len() as u64) as usize, line_addr)
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    fn access(&mut self, addr: u64, write: bool, now: u64) -> CacheAccess {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let hit_latency = self.cfg.hit_latency;
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            if write {
                line.dirty = true;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            if line.prefetched {
                line.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            return CacheAccess {
                hit: true,
                latency: hit_latency,
                mshr_stall: false,
                evicted: None,
            };
        }
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        self.mshr_busy_until.retain(|&t| t > now);
        let mshr_stall = self.mshr_busy_until.len() >= self.cfg.mshrs;
        if mshr_stall {
            self.stats.mshr_full_events += 1;
        } else {
            self.stats.mshr_misses += 1;
        }
        CacheAccess {
            hit: false,
            latency: hit_latency,
            mshr_stall,
            evicted: None,
        }
    }

    fn note_miss_latency(&mut self, latency: u64, done: u64) {
        self.stats.mshr_miss_latency += latency;
        self.mshr_busy_until.push(done);
    }

    fn fill(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let ways = &mut self.sets[set];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.dirty |= dirty;
            line.lru = tick;
            return None;
        }
        let victim = match ways.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => {
                let oldest = ways.iter().map(|l| l.lru).min().expect("ways");
                ways.iter().position(|l| l.lru == oldest).expect("oldest")
            }
        };
        let old = ways[victim];
        let evicted = old.valid.then(|| {
            if old.dirty {
                self.stats.writebacks += 1;
            } else {
                self.stats.clean_evicts += 1;
            }
            old.tag * self.cfg.line as u64
        });
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        self.sets[set][victim] = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            lru: tick,
        };
        evicted
    }

    fn flush_line(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        match self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            Some(line) => {
                *line = INVALID;
                self.stats.flushes += 1;
                true
            }
            None => false,
        }
    }

    fn flush_all(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            if line.valid {
                self.stats.flushes += 1;
            }
            *line = INVALID;
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }
}

/// One random operation: `(kind, set, tag, offset, a, b, now, latency)`.
type Op = (u8, u64, u64, u64, bool, bool, u64, u64);

/// The address an operation touches: a few sets, with three ways' worth of
/// distinct tags each, so hits, evictions and flushes of resident lines are
/// all common.
fn address(cfg: &CacheConfig, set: u64, tag: u64, offset: u64) -> u64 {
    let sets = cfg.sets() as u64;
    let line = cfg.line as u64;
    ((tag % (3 * cfg.ways as u64)) * sets + set % sets.min(8)) * line + offset % line
}

fn check_against_oracle(cfg: CacheConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut flat = Cache::new(cfg.clone());
    let mut oracle = Oracle::new(cfg.clone());
    for (step, &(kind, set, tag, offset, a, b, now, latency)) in ops.iter().enumerate() {
        let addr = address(&cfg, set, tag, offset);
        match kind {
            0..=7 => prop_assert_eq!(
                flat.access(addr, a, now),
                oracle.access(addr, a, now),
                "access #{}",
                step
            ),
            8..=13 => prop_assert_eq!(
                flat.fill(addr, a, b),
                oracle.fill(addr, a, b),
                "fill #{}",
                step
            ),
            14..=15 => {
                flat.note_miss_latency(latency, now + latency);
                oracle.note_miss_latency(latency, now + latency);
            }
            16..=18 => prop_assert_eq!(
                flat.flush_line(addr),
                oracle.flush_line(addr),
                "flush_line #{}",
                step
            ),
            _ => {
                flat.flush_all();
                oracle.flush_all();
            }
        }
        prop_assert_eq!(
            flat.contains(addr),
            oracle.contains(addr),
            "contains #{}",
            step
        );
        prop_assert_eq!(flat.occupancy(), oracle.occupancy(), "occupancy #{}", step);
        prop_assert_eq!(flat.stats(), &oracle.stats, "stats #{}", step);
    }
    for set in 0..8 {
        for tag in 0..3 * cfg.ways as u64 {
            let addr = address(&cfg, set, tag, 0);
            prop_assert_eq!(
                flat.contains(addr),
                oracle.contains(addr),
                "final {:#x}",
                addr
            );
        }
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..20,
            0u64..8,
            0u64..64,
            0u64..64,
            any::<bool>(),
            any::<bool>(),
            0u64..600,
            1u64..300,
        ),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_cache_matches_oracle_two_way_eight_sets(ops in ops()) {
        let cfg = CacheConfig {
            size: 2 * 8 * 64,
            line: 64,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
            write_buffers: 4,
        };
        check_against_oracle(cfg, &ops)?;
    }

    #[test]
    fn flat_cache_matches_oracle_default_l1d(ops in ops()) {
        check_against_oracle(CpuConfig::default().l1d, &ops)?;
    }
}
