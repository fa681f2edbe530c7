//! Branch prediction: tournament (local + global + choice), BTB, and RAS —
//! the structures Table II configures and the Spectre family mistrains.

/// Saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Ctr2(u8);

impl Ctr2 {
    fn taken(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Outcome of a direction prediction with enough provenance to update the
/// chooser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirPrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Local component's vote.
    pub local: bool,
    /// Global component's vote.
    pub global: bool,
    /// `true` if the chooser selected the global component.
    pub chose_global: bool,
}

/// Tournament direction predictor: per-branch local history feeding a local
/// PHT, a global-history PHT, and a chooser.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    local_hist: Vec<u16>,
    local_pht: Vec<Ctr2>,
    global_pht: Vec<Ctr2>,
    choice: Vec<Ctr2>,
    ghr: u64,
    local_hist_bits: u32,
    global_bits: u32,
}

impl TournamentPredictor {
    /// Creates a predictor with typical gem5-tournament sizing.
    pub fn new() -> Self {
        TournamentPredictor {
            local_hist: vec![0; 1024],
            local_pht: vec![Ctr2::default(); 1024],
            global_pht: vec![Ctr2::default(); 4096],
            choice: vec![Ctr2::default(); 4096],
            ghr: 0,
            local_hist_bits: 10,
            global_bits: 12,
        }
    }

    fn local_index(&self, pc: usize) -> usize {
        let hist = self.local_hist[pc % self.local_hist.len()];
        (hist as usize) & (self.local_pht.len() - 1)
    }

    fn global_index(&self) -> usize {
        (self.ghr as usize) & (self.global_pht.len() - 1)
    }

    fn choice_index(&self, pc: usize) -> usize {
        (pc ^ self.ghr as usize) & (self.choice.len() - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: usize) -> DirPrediction {
        let local = self.local_pht[self.local_index(pc)].taken();
        let global = self.global_pht[self.global_index()].taken();
        let chose_global = self.choice[self.choice_index(pc)].taken();
        DirPrediction {
            taken: if chose_global { global } else { local },
            local,
            global,
            chose_global,
        }
    }

    /// Trains all components with the resolved outcome.
    pub fn update(&mut self, pc: usize, pred: DirPrediction, actual: bool) {
        // Chooser learns toward whichever component was right (when they
        // disagree).
        if pred.local != pred.global {
            let idx = self.choice_index(pc);
            self.choice[idx].update(pred.global == actual);
        }
        let li = self.local_index(pc);
        self.local_pht[li].update(actual);
        let gi = self.global_index();
        self.global_pht[gi].update(actual);
        // Histories.
        let lh_idx = pc % self.local_hist.len();
        let lh = &mut self.local_hist[lh_idx];
        *lh = ((*lh << 1) | actual as u16) & ((1 << self.local_hist_bits) - 1);
        self.ghr = ((self.ghr << 1) | actual as u64) & ((1 << self.global_bits) - 1);
    }

    /// Appends predictor state (histories + all counter tables) to a
    /// snapshot word stream. Table sizes are fixed by [`Self::new`].
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.ghr);
        out.extend(self.local_hist.iter().map(|&h| h as u64));
        for table in [&self.local_pht, &self.global_pht, &self.choice] {
            out.extend(table.iter().map(|c| c.0 as u64));
        }
    }

    /// Restores state written by [`TournamentPredictor::save_state`].
    /// Returns `None` on a truncated stream or an out-of-range counter.
    pub(crate) fn load_state(&mut self, w: &mut std::slice::Iter<'_, u64>) -> Option<()> {
        self.ghr = *w.next()?;
        for h in &mut self.local_hist {
            *h = u16::try_from(*w.next()?).ok()?;
        }
        for table in [&mut self.local_pht, &mut self.global_pht, &mut self.choice] {
            for c in table.iter_mut() {
                let v = *w.next()?;
                if v > 3 {
                    return None;
                }
                *c = Ctr2(v as u8);
            }
        }
        Some(())
    }
}

impl Default for TournamentPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// Branch-target buffer: direct-mapped, tagged.
///
/// Each slot stores its branch's `pc + 1` as the tag, so 0 marks an empty
/// slot and a new table is a zeroed allocation. A branch at `usize::MAX`
/// cannot be installed.
#[derive(Debug, Clone)]
pub struct Btb {
    tags: Vec<usize>,
    targets: Vec<usize>,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "BTB must have entries");
        Btb {
            tags: vec![0; entries],
            targets: vec![0; entries],
        }
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: usize) -> Option<usize> {
        let slot = pc % self.tags.len();
        let tag = self.tags[slot];
        (tag != 0 && tag - 1 == pc).then_some(self.targets[slot])
    }

    /// Installs/updates the target for `pc`. Aliasing overwrites — the
    /// property Spectre-BTB mistraining exploits.
    pub fn update(&mut self, pc: usize, target: usize) {
        let slot = pc % self.tags.len();
        self.tags[slot] = pc.wrapping_add(1);
        self.targets[slot] = target;
    }

    /// Appends BTB contents to a snapshot word stream: per slot, a present
    /// flag, the branch pc and the target (`0, 0, 0` when empty).
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        for (&tag, &target) in self.tags.iter().zip(&self.targets) {
            match tag {
                0 => out.extend_from_slice(&[0, 0, 0]),
                _ => out.extend_from_slice(&[1, (tag - 1) as u64, target as u64]),
            }
        }
    }

    /// Restores state written by [`Btb::save_state`]. Returns `None` on a
    /// truncated stream, a bad present flag, or a pc that has no tag.
    pub(crate) fn load_state(&mut self, w: &mut std::slice::Iter<'_, u64>) -> Option<()> {
        for slot in 0..self.tags.len() {
            let present = *w.next()?;
            let pc = usize::try_from(*w.next()?).ok()?;
            let target = usize::try_from(*w.next()?).ok()?;
            (self.tags[slot], self.targets[slot]) = match present {
                0 => (0, 0),
                1 => (pc.checked_add(1)?, target),
                _ => return None,
            };
        }
        Some(())
    }
}

/// Return-address stack with a fixed depth; overflow wraps (the Spectre-RSB
/// under/overflow surface).
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Vec<usize>,
    top: usize,
    used: usize,
    capacity: usize,
}

impl Ras {
    /// Creates a RAS holding `capacity` return addresses.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS must have entries");
        Ras {
            stack: vec![0; capacity],
            top: 0,
            used: 0,
            capacity,
        }
    }

    /// Pushes a return address (call).
    pub fn push(&mut self, addr: usize) {
        self.top = (self.top + 1) % self.capacity;
        self.stack[self.top] = addr;
        self.used = (self.used + 1).min(self.capacity);
    }

    /// Pops the predicted return address (ret). Returns `None` when empty —
    /// an underflowed RAS mispredicts.
    pub fn pop(&mut self) -> Option<usize> {
        if self.used == 0 {
            return None;
        }
        let addr = self.stack[self.top];
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.used -= 1;
        Some(addr)
    }

    /// Snapshot for squash recovery.
    pub fn snapshot(&self) -> RasSnapshot {
        RasSnapshot {
            stack: self.stack.clone(),
            top: self.top,
            used: self.used,
        }
    }

    /// Restores a snapshot taken before a (now squashed) speculative region.
    pub fn restore(&mut self, snap: &RasSnapshot) {
        self.stack.clone_from(&snap.stack);
        self.top = snap.top;
        self.used = snap.used;
    }

    /// Number of live entries.
    pub fn depth(&self) -> usize {
        self.used
    }

    /// Appends RAS state to a snapshot word stream. Capacity is fixed by
    /// construction.
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.top as u64);
        out.push(self.used as u64);
        out.extend(self.stack.iter().map(|&a| a as u64));
    }

    /// Restores state written by [`Ras::save_state`]. Returns `None` on a
    /// truncated stream or indices beyond this RAS's capacity.
    pub(crate) fn load_state(&mut self, w: &mut std::slice::Iter<'_, u64>) -> Option<()> {
        let top = usize::try_from(*w.next()?).ok()?;
        let used = usize::try_from(*w.next()?).ok()?;
        if top >= self.capacity || used > self.capacity {
            return None;
        }
        self.top = top;
        self.used = used;
        for slot in &mut self.stack {
            *slot = usize::try_from(*w.next()?).ok()?;
        }
        Some(())
    }
}

/// Saved RAS state used to recover from squashes.
#[derive(Debug, Clone)]
pub struct RasSnapshot {
    stack: Vec<usize>,
    top: usize,
    used: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tournament_learns_always_taken() {
        let mut p = TournamentPredictor::new();
        for _ in 0..16 {
            let pred = p.predict(100);
            p.update(100, pred, true);
        }
        assert!(p.predict(100).taken);
    }

    #[test]
    fn tournament_learns_alternating_via_local_history() {
        let mut p = TournamentPredictor::new();
        let mut outcome = false;
        // Train long enough for local history to capture the period-2 pattern.
        for _ in 0..200 {
            let pred = p.predict(64);
            p.update(64, pred, outcome);
            outcome = !outcome;
        }
        let mut correct = 0;
        for _ in 0..40 {
            let pred = p.predict(64);
            if pred.taken == outcome {
                correct += 1;
            }
            p.update(64, pred, outcome);
            outcome = !outcome;
        }
        assert!(correct >= 36, "correct={correct}");
    }

    #[test]
    fn mistraining_transfers_across_aliasing_pcs() {
        // The global component is shared: heavy taken-training on one branch
        // biases a fresh branch's first prediction — the Spectre-PHT setup.
        let mut p = TournamentPredictor::new();
        for pc in 0..64usize {
            for _ in 0..8 {
                let pred = p.predict(pc);
                p.update(pc, pred, true);
            }
        }
        assert!(
            p.predict(9999).taken,
            "global bias should leak to unseen pc"
        );
    }

    #[test]
    fn btb_stores_and_aliases() {
        let mut b = Btb::new(16);
        b.update(5, 100);
        assert_eq!(b.lookup(5), Some(100));
        assert_eq!(b.lookup(21), None); // same slot, different tag
        b.update(21, 200);
        assert_eq!(b.lookup(5), None); // evicted by aliasing
        assert_eq!(b.lookup(21), Some(200));
        // Slot 0, whose tag is pc + 1 = 1, aliases the same way.
        b.update(0, 300);
        b.update(16, 400);
        assert_eq!(b.lookup(0), None);
        assert_eq!(b.lookup(16), Some(400));
        b.update(0, 500);
        assert_eq!(b.lookup(0), Some(500));
        assert_eq!(b.lookup(16), None);
    }

    #[test]
    fn empty_btb_never_hits_pc_zero() {
        let b = Btb::new(16);
        for pc in [0, 16, usize::MAX] {
            assert_eq!(b.lookup(pc), None, "pc {pc}");
        }
        let mut words = Vec::new();
        b.save_state(&mut words);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn btb_snapshot_words_round_trip_pc_zero() {
        let mut b = Btb::new(4);
        b.update(0, 9);
        b.update(6, 11);
        let mut words = Vec::new();
        b.save_state(&mut words);
        assert_eq!(words, [1, 0, 9, 0, 0, 0, 1, 6, 11, 0, 0, 0]);
        let mut restored = Btb::new(4);
        assert_eq!(restored.load_state(&mut words.iter()), Some(()));
        assert_eq!(restored.lookup(0), Some(9));
        assert_eq!(restored.lookup(6), Some(11));
        assert_eq!(restored.lookup(1), None);
    }

    /// Through the public restore path, the same slot is a typed
    /// malformed-snapshot error rather than a panic or a wrapped tag.
    #[test]
    fn restore_rejects_a_btb_pc_without_a_tag() {
        use crate::isa::{ProgramBuilder, Reg};
        use crate::{Cpu, CpuConfig, SnapshotError};
        const TARGET: u64 = 1029;
        let mut p = ProgramBuilder::new("btb-slot");
        p.li(Reg::new(1), TARGET);
        while p.here() < 517 {
            p.nop();
        }
        p.jmp_ind(Reg::new(1));
        while (p.here() as u64) < TARGET {
            p.nop();
        }
        p.halt();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.fast_forward(&p.build(), 10_000);
        let mut snap = cpu.snapshot();
        let slots: Vec<usize> = snap
            .cpu_words
            .windows(3)
            .enumerate()
            .filter(|(_, w)| *w == [1, 517, TARGET])
            .map(|(i, _)| i)
            .collect();
        assert_eq!(slots.len(), 1, "one installed BTB slot");
        assert!(Cpu::restore(CpuConfig::default(), &snap).is_ok());
        snap.cpu_words[slots[0] + 1] = u64::MAX;
        assert!(matches!(
            Cpu::restore(CpuConfig::default(), &snap),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn ras_lifo() {
        let mut r = Ras::new(4);
        r.push(1);
        r.push(2);
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        // Third pop returns the stale slot or None depending on wrap; depth
        // is capped at capacity, so it must be empty now.
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_snapshot_restores() {
        let mut r = Ras::new(4);
        r.push(10);
        let snap = r.snapshot();
        r.push(20);
        r.pop();
        r.pop();
        r.restore(&snap);
        assert_eq!(r.depth(), 1);
        assert_eq!(r.pop(), Some(10));
    }
}
