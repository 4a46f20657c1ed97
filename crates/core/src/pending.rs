//! The pending-batch FIFO shared by the streaming serving loop and the
//! fleet's per-cluster workers.
//!
//! An admitted batch is not observed at admission: it waits here, in
//! admission order, until the virtual clock passes its estimated completion
//! (it is then *settled* and the caller observes its members), or until a
//! down-flip lands on a node its plan touches while it is still in flight
//! (it is then *killed* and its members flow through the caller's recovery
//! policy). Popping strictly front-first keeps the observation order the
//! admission order, whatever order the batches happen to complete in, which
//! is what keeps the order-sensitive latency sketches deterministic.
//!
//! A config with no faults never kills anything, so every batch simply
//! settles once the clock passes it.

use hidp_platform::NodeIndex;
use hidp_sim::{ExecutionPlan, TaskKind};
use std::collections::VecDeque;

/// The set of nodes a plan's tasks touch — compute targets and both
/// transfer endpoints — as a 64-bit mask (callers gate kill semantics to
/// clusters of at most 64 nodes). This is the same residency rule the
/// failure-aware engine applies per task, lifted to whole batches.
pub(crate) fn plan_node_mask(plan: &ExecutionPlan) -> u64 {
    let mut mask = 0u64;
    for task in plan.tasks() {
        match &task.kind {
            TaskKind::Compute { target, .. } => mask |= node_bit(target.node),
            TaskKind::Transfer { from, to, .. } => mask |= node_bit(*from) | node_bit(*to),
        }
    }
    mask
}

/// The mask bit of one node.
pub(crate) fn node_bit(node: NodeIndex) -> u64 {
    1u64 << (node.0 as u64 & 63)
}

/// One admitted batch awaiting its estimated completion: when it was
/// admitted, and per copy (the primary plus an optional hedge) its
/// estimated completion, the nodes its plan touches and whether it is still
/// alive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingBatch {
    /// Admission (release) time, seconds.
    pub(crate) admitted: f64,
    completion: f64,
    /// `INFINITY` when the batch has no hedge copy.
    hedge_completion: f64,
    mask: u64,
    hedge_mask: u64,
    primary_alive: bool,
    hedge_alive: bool,
    /// How many member indices the batch owns in the FIFO's pool.
    member_count: u32,
}

impl PendingBatch {
    /// A batch admitted at `admitted` whose one copy completes at
    /// `completion` on the nodes in `mask` (0 when nothing can kill it).
    #[inline]
    pub(crate) fn new(admitted: f64, completion: f64, mask: u64) -> Self {
        Self {
            admitted,
            completion,
            hedge_completion: f64::INFINITY,
            mask,
            hedge_mask: 0,
            primary_alive: true,
            hedge_alive: false,
            member_count: 0,
        }
    }

    /// Adds a hedge copy completing at `completion` on the nodes in `mask`.
    pub(crate) fn with_hedge(mut self, completion: f64, mask: u64) -> Self {
        self.hedge_completion = completion;
        self.hedge_mask = mask;
        self.hedge_alive = true;
        self
    }

    #[inline]
    fn alive(&self) -> bool {
        self.primary_alive || self.hedge_alive
    }

    /// The earliest completion among surviving copies (`INFINITY` when
    /// every copy is dead).
    #[inline]
    pub(crate) fn effective_completion(&self) -> f64 {
        let mut t = f64::INFINITY;
        if self.primary_alive {
            t = self.completion;
        }
        if self.hedge_alive && self.hedge_completion < t {
            t = self.hedge_completion;
        }
        t
    }

    /// Whether some live copy is still running at `at`.
    fn runs_past(&self, at: f64) -> bool {
        (self.primary_alive && self.completion > at)
            || (self.hedge_alive && self.hedge_completion > at)
    }
}

/// Admitted batches in admission order, with their member indices.
///
/// The members live in one pool, concatenated in admission order. Batches
/// leave only from the front, so the queued batches own exactly the pool
/// suffix `members[head..]`, front batch first. Popping a batch advances
/// `head`; once the consumed prefix outgrows the live suffix, the next push
/// compacts the pool. Every live entry moves at most once per compaction
/// and a compaction frees at least as many entries as it moves, so pushes
/// stay amortised O(1) and the pool stays within about twice the members
/// in flight, however long the run.
#[derive(Debug, Default)]
pub(crate) struct PendingFifo {
    batches: VecDeque<PendingBatch>,
    members: Vec<u32>,
    head: usize,
}

impl PendingFifo {
    /// Empties the FIFO, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.batches.clear();
        self.members.clear();
        self.head = 0;
    }

    /// Appends an admitted batch serving `members` (input indices).
    #[inline]
    pub(crate) fn push(&mut self, mut batch: PendingBatch, members: &[u32]) {
        if self.head > self.members.len() - self.head {
            self.members.drain(..self.head);
            self.head = 0;
        }
        batch.member_count = members.len() as u32;
        self.members.extend_from_slice(members);
        self.batches.push_back(batch);
    }

    /// Pops the front batch with its members once the clock `now` has
    /// passed its effective completion, discarding killed batches ahead of
    /// it. Returns `None` while the front is still in flight. Passing
    /// `f64::INFINITY` drains every surviving batch, in admission order.
    #[inline]
    pub(crate) fn pop_settled(&mut self, now: f64) -> Option<(PendingBatch, &[u32])> {
        while let Some(front) = self.batches.front() {
            if front.alive() && front.effective_completion() > now {
                return None;
            }
            let batch = self.batches.pop_front().expect("front exists");
            let span = self.head..self.head + batch.member_count as usize;
            self.head = span.end;
            if batch.alive() {
                return Some((batch, &self.members[span]));
            }
        }
        None
    }

    /// Whether a down-flip at `at` could kill pending work: some live copy
    /// is still running at that instant.
    pub(crate) fn runs_past(&self, at: f64) -> bool {
        self.batches.iter().any(|b| b.runs_past(at))
    }

    /// Applies a down-flip of `node` at `at`: every live copy whose plan
    /// touches the node and whose completion lies beyond the flip dies
    /// (work finished by the flip instant was already committed — the
    /// engine's rule). Each member of a batch that just lost its last copy
    /// goes to `on_killed`, in admission order.
    pub(crate) fn kill(&mut self, node: NodeIndex, at: f64, mut on_killed: impl FnMut(u32)) {
        let bit = node_bit(node);
        let mut start = self.head;
        for b in self.batches.iter_mut() {
            let span = start..start + b.member_count as usize;
            start = span.end;
            let was_alive = b.alive();
            if b.primary_alive && b.completion > at && b.mask & bit != 0 {
                b.primary_alive = false;
            }
            if b.hedge_alive && b.hedge_completion > at && b.hedge_mask & bit != 0 {
                b.hedge_alive = false;
            }
            if was_alive && !b.alive() {
                self.members[span].iter().for_each(|&m| on_killed(m));
            }
        }
    }

    /// Capacity of the member pool.
    #[cfg(test)]
    pub(crate) fn member_capacity(&self) -> usize {
        self.members.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settled(fifo: &mut PendingFifo, now: f64) -> Vec<(f64, Vec<u32>)> {
        let mut out = Vec::new();
        while let Some((b, members)) = fifo.pop_settled(now) {
            out.push((b.admitted, members.to_vec()));
        }
        out
    }

    #[test]
    fn settles_front_first_in_admission_order() {
        let mut fifo = PendingFifo::default();
        fifo.push(PendingBatch::new(0.0, 3.0, 0), &[0, 1]);
        fifo.push(PendingBatch::new(1.0, 2.0, 0), &[2]);
        // The second batch completes first but waits behind the first.
        assert!(settled(&mut fifo, 2.5).is_empty());
        assert_eq!(
            settled(&mut fifo, 3.0),
            vec![(0.0, vec![0, 1]), (1.0, vec![2])]
        );
        assert!(fifo.pop_settled(f64::INFINITY).is_none());
    }

    #[test]
    fn kills_only_copies_running_on_the_node_past_the_flip() {
        let n2 = node_bit(NodeIndex(2));
        let n3 = node_bit(NodeIndex(3));
        let mut fifo = PendingFifo::default();
        fifo.push(PendingBatch::new(0.0, 1.0, n2), &[0]); // done by the flip
        fifo.push(PendingBatch::new(0.0, 4.0, n2 | n3), &[1, 2]); // killed
        fifo.push(PendingBatch::new(0.0, 4.0, n3), &[3]); // other node
        fifo.push(PendingBatch::new(0.0, 5.0, n2).with_hedge(6.0, n3), &[4]); // hedge survives
        assert!(fifo.runs_past(2.0));
        let mut killed = Vec::new();
        fifo.kill(NodeIndex(2), 2.0, |m| killed.push(m));
        assert_eq!(killed, vec![1, 2]);
        // The hedged batch now settles at its hedge's completion.
        assert_eq!(
            settled(&mut fifo, f64::INFINITY),
            vec![(0.0, vec![0]), (0.0, vec![3]), (0.0, vec![4])]
        );
        assert!(!fifo.runs_past(0.0));
    }

    #[test]
    fn the_member_pool_holds_only_pending_members() {
        let mut fifo = PendingFifo::default();
        for i in 0..100_000u32 {
            let t = f64::from(i);
            fifo.push(PendingBatch::new(t, t + 2.0, 0), &[i, i + 1, i + 2]);
            while fifo.pop_settled(t).is_some() {}
        }
        assert!(fifo.member_capacity() < 64, "{}", fifo.member_capacity());
    }
}
