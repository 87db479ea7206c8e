//! The conventional re-order buffer used by the baseline machine.
//!
//! The baseline processor of the paper commits in order from a ROB whose size
//! is swept from 128 to 4096 entries (Figure 1, and the two reference lines
//! of Figure 9). Entries carry the rename undo/free information so that
//! commit can free the previously-mapped physical register and squash can
//! walk the map back.

use crate::checkpoint::CheckpointId;
use koc_isa::{ArchReg, InstId, PhysReg};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobEntry {
    /// The dynamic instruction.
    pub inst: InstId,
    /// Whether the instruction has finished execution.
    pub finished: bool,
    /// Destination rename record: (logical, new physical, previous physical).
    pub rename: Option<(ArchReg, PhysReg, Option<PhysReg>)>,
    /// Whether the instruction is a store.
    pub is_store: bool,
    /// Whether the instruction is a branch.
    pub is_branch: bool,
    /// Checkpoint association (unused by the baseline, kept so shared
    /// pipeline code can treat both machines uniformly).
    pub ckpt: CheckpointId,
}

/// Error returned when the ROB is full at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobFull;

impl std::fmt::Display for RobFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reorder buffer is full")
    }
}

impl std::error::Error for RobFull {}

/// A conventional in-order-commit re-order buffer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReorderBuffer {
    capacity: usize,
    entries: VecDeque<RobEntry>,
}

impl ReorderBuffer {
    /// Creates a ROB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reorder buffer capacity must be non-zero");
        ReorderBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether another instruction can be dispatched.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at the tail (program order). Ids are consecutive:
    /// dispatch appends the next fetched id, and a squash pops everything
    /// above its boundary while fetch resumes right after it.
    ///
    /// # Errors
    /// Returns [`RobFull`] when the ROB is full; dispatch stalls.
    pub fn push(&mut self, entry: RobEntry) -> Result<(), RobFull> {
        if !self.has_space() {
            return Err(RobFull);
        }
        debug_assert!(
            self.entries
                .back()
                .is_none_or(|tail| tail.inst + 1 == entry.inst),
            "ROB entries hold consecutive ids in program order"
        );
        self.entries.push_back(entry);
        Ok(())
    }

    /// Marks an instruction as finished (write-back). Ids are consecutive
    /// (see [`push`](Self::push)), so the entry sits at its id's offset from
    /// the head; an id already committed or squashed is ignored.
    pub fn mark_finished(&mut self, inst: InstId) {
        let offset = self
            .entries
            .front()
            .and_then(|head| inst.checked_sub(head.inst));
        if let Some(e) = offset.and_then(|i| self.entries.get_mut(i)) {
            debug_assert_eq!(e.inst, inst);
            e.finished = true;
        }
    }

    /// Pops the head entry if it has finished — one in-order commit step.
    /// The per-cycle commit loop calls this up to the commit width; no
    /// intermediate collection.
    pub fn pop_finished(&mut self) -> Option<RobEntry> {
        match self.entries.front() {
            Some(e) if e.finished => self.entries.pop_front(),
            _ => None,
        }
    }

    /// Commits up to `width` finished instructions from the head, in order.
    /// Convenience wrapper over [`pop_finished`](Self::pop_finished) for
    /// tests and tools; the cycle loop uses the allocation-free pop.
    pub fn commit(&mut self, width: usize) -> Vec<RobEntry> {
        let mut committed = Vec::new();
        while committed.len() < width {
            match self.pop_finished() {
                Some(e) => committed.push(e),
                None => break,
            }
        }
        committed
    }

    /// Pops the youngest entry if it is younger than `inst` (exclusive) —
    /// one step of the rename walk-back on a branch misprediction. The
    /// recovery path loops on this, youngest first.
    pub fn pop_younger_than(&mut self, inst: InstId) -> Option<RobEntry> {
        match self.entries.back() {
            Some(back) if back.inst > inst => self.entries.pop_back(),
            _ => None,
        }
    }

    /// Removes and returns every entry younger than `inst` (exclusive),
    /// youngest first. Convenience wrapper over
    /// [`pop_younger_than`](Self::pop_younger_than) for tests and tools.
    pub fn squash_younger_than(&mut self, inst: InstId) -> Vec<RobEntry> {
        let mut squashed = Vec::new();
        while let Some(e) = self.pop_younger_than(inst) {
            squashed.push(e);
        }
        squashed
    }

    /// The instruction id at the head of the ROB (the oldest in-flight
    /// instruction), if any.
    pub fn head_inst(&self) -> Option<InstId> {
        self.entries.front().map(|e| e.inst)
    }

    /// Iterates over entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Removes everything (full flush).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(inst: InstId) -> RobEntry {
        RobEntry {
            inst,
            finished: false,
            rename: None,
            is_store: false,
            is_branch: false,
            ckpt: 0,
        }
    }

    #[test]
    fn commit_is_in_order_and_stops_at_unfinished() {
        let mut rob = ReorderBuffer::new(8);
        for i in 0..4 {
            rob.push(entry(i)).unwrap();
        }
        rob.mark_finished(0);
        rob.mark_finished(2); // out-of-order completion
        let committed = rob.commit(4);
        assert_eq!(committed.len(), 1, "instruction 1 blocks the commit of 2");
        assert_eq!(committed[0].inst, 0);
        rob.mark_finished(1);
        let committed = rob.commit(4);
        let ids: Vec<_> = committed.iter().map(|e| e.inst).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn commit_respects_width() {
        let mut rob = ReorderBuffer::new(8);
        for i in 0..6 {
            rob.push(entry(i)).unwrap();
            rob.mark_finished(i);
        }
        assert_eq!(rob.commit(4).len(), 4);
        assert_eq!(rob.commit(4).len(), 2);
    }

    #[test]
    fn full_rob_rejects_dispatch() {
        let mut rob = ReorderBuffer::new(2);
        rob.push(entry(0)).unwrap();
        rob.push(entry(1)).unwrap();
        assert_eq!(rob.push(entry(2)), Err(RobFull));
    }

    #[test]
    fn squash_returns_youngest_first_and_keeps_the_boundary() {
        let mut rob = ReorderBuffer::new(8);
        for i in 0..5 {
            rob.push(entry(i)).unwrap();
        }
        let squashed = rob.squash_younger_than(2);
        let ids: Vec<_> = squashed.iter().map(|e| e.inst).collect();
        assert_eq!(ids, vec![4, 3]);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.head_inst(), Some(0));
    }

    #[test]
    fn mark_finished_finds_refetched_entries_and_ignores_gone_ones() {
        let mut rob = ReorderBuffer::new(8);
        for i in 10..16 {
            rob.push(entry(i)).unwrap();
        }
        rob.mark_finished(10);
        rob.commit(1);
        rob.squash_younger_than(12);
        for i in 13..15 {
            rob.push(entry(i)).unwrap();
        }
        rob.mark_finished(14);
        rob.mark_finished(15); // squashed and not refetched
        rob.mark_finished(10); // already committed
        let finished: Vec<_> = rob.iter().map(|e| (e.inst, e.finished)).collect();
        assert_eq!(
            finished,
            vec![(11, false), (12, false), (13, false), (14, true)]
        );
    }

    #[test]
    fn head_inst_tracks_the_oldest() {
        let mut rob = ReorderBuffer::new(4);
        assert_eq!(rob.head_inst(), None);
        rob.push(entry(5)).unwrap();
        rob.push(entry(6)).unwrap();
        assert_eq!(rob.head_inst(), Some(5));
        rob.mark_finished(5);
        rob.commit(1);
        assert_eq!(rob.head_inst(), Some(6));
    }

    #[test]
    fn flush_empties_the_rob() {
        let mut rob = ReorderBuffer::new(4);
        rob.push(entry(0)).unwrap();
        rob.flush();
        assert!(rob.is_empty());
        assert!(rob.has_space());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = ReorderBuffer::new(0);
    }
}
