//! Bounded admission machinery: the priority queue and the token bucket.
//!
//! Both structures are the daemon's overload armor. The queue never grows
//! past its construction-time capacity — once full, an arrival either
//! evicts the lowest-priority queued request (if the arrival outranks it)
//! or is rejected outright with a retry-after hint. The token bucket caps
//! the sustained admission rate with integer arithmetic (no floats, no
//! clocks): refills happen at epoch boundaries, driven by the epoch loop.
//!
//! Everything here is deterministic: the same request stream replays to
//! the same queue states, which is what lets crash recovery rebuild the
//! queue from the journal instead of persisting it on every push.

use crate::deadline::Deadline;
use crate::proto::{Priority, Request};

/// One queued, journaled, acknowledged request awaiting its epoch batch.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueEntry {
    /// Durable sequence number (assigned at accept, journaled before ack).
    pub seq: u64,
    /// Admission priority (higher survives longer under overload).
    pub priority: Priority,
    /// Virtual tick at which the request was accepted.
    pub at_tick: u64,
    /// Absolute deadline the request must survive to.
    pub deadline: Deadline,
    /// The request itself.
    pub request: Request,
}

/// A pre-computed admission decision for a prospective push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushPlan {
    /// Space available; the arrival will simply enqueue.
    Enqueue,
    /// The arrival outranks the queue's weakest entry and will evict the
    /// entry with this seq.
    Evict(u64),
    /// The arrival does not outrank anyone; reject with backpressure.
    Reject,
}

/// Outcome of a push against the bounded queue.
#[derive(Clone, Debug, PartialEq)]
pub enum PushOutcome {
    /// Enqueued without displacing anyone.
    Enqueued,
    /// Enqueued by evicting the returned lowest-priority entry.
    Evicted(QueueEntry),
    /// Queue full and the arrival did not outrank the lowest queued
    /// priority; the arrival was **not** enqueued.
    Full,
}

/// A bounded, priority-aware admission queue.
///
/// Draining order is `(priority desc, seq asc)`; eviction picks the
/// `(priority asc, seq desc)` extreme — the lowest-priority, youngest
/// entry — so FIFO fairness holds within a priority class.
///
/// Entries keep their insertion order. The daemon pushes seqs as it issues
/// them, ascending, and every removal keeps the survivors' order, so its
/// queue is sorted by seq and [`AdmissionQueue::contains`] binary-searches.
#[derive(Clone, Debug)]
pub struct AdmissionQueue {
    cap: usize,
    entries: Vec<QueueEntry>,
    depth_high_water: usize,
    /// Whether `entries` is in ascending seq order: true unless a push
    /// arrived below a queued seq since the queue was last empty.
    seq_sorted: bool,
}

impl AdmissionQueue {
    /// An empty queue with the given hard capacity bound.
    pub fn new(cap: usize) -> Self {
        AdmissionQueue {
            cap: cap.max(1),
            entries: Vec::new(),
            depth_high_water: 0,
            seq_sorted: true,
        }
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Deepest the queue has been since construction (or the last
    /// [`AdmissionQueue::reset_high_water`]).
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Resets the high-water mark to the current depth.
    pub fn reset_high_water(&mut self) {
        self.depth_high_water = self.entries.len();
    }

    /// True when `seq` is currently queued: a binary search while the
    /// entries are in seq order, as the daemon's always are.
    pub fn contains(&self, seq: u64) -> bool {
        if self.seq_sorted {
            self.entries.binary_search_by_key(&seq, |e| e.seq).is_ok()
        } else {
            self.entries.iter().any(|e| e.seq == seq)
        }
    }

    /// Computes the admission decision for an arrival of the given priority
    /// **without mutating** the queue. The daemon journals the accept first
    /// and only then applies the decision — the split keeps "journal before
    /// ack" honest (a failed journal write leaves the queue untouched).
    pub fn plan(&self, priority: Priority) -> PushPlan {
        if self.entries.len() < self.cap {
            return PushPlan::Enqueue;
        }
        match self
            .entries
            .iter()
            .min_by_key(|e| (e.priority, u64::MAX - e.seq))
        {
            Some(v) if priority > v.priority => PushPlan::Evict(v.seq),
            _ => PushPlan::Reject,
        }
    }

    /// Attempts to enqueue, applying the bounded-queue policy.
    pub fn push(&mut self, entry: QueueEntry) -> PushOutcome {
        match self.plan(entry.priority) {
            PushPlan::Enqueue => {
                self.append(entry);
                self.depth_high_water = self.depth_high_water.max(self.entries.len());
                PushOutcome::Enqueued
            }
            PushPlan::Evict(victim_seq) => match self.remove_seq(victim_seq) {
                Some(victim) => {
                    self.append(entry);
                    PushOutcome::Evicted(victim)
                }
                None => PushOutcome::Full,
            },
            PushPlan::Reject => PushOutcome::Full,
        }
    }

    fn append(&mut self, entry: QueueEntry) {
        self.seq_sorted = match self.entries.last() {
            Some(last) => self.seq_sorted && last.seq < entry.seq,
            None => true,
        };
        self.entries.push(entry);
    }

    /// Removes (and returns) the entry with sequence number `seq`; the rest
    /// keep their insertion order.
    pub fn remove_seq(&mut self, seq: u64) -> Option<QueueEntry> {
        let i = self.entries.iter().position(|e| e.seq == seq)?;
        Some(self.entries.remove(i))
    }

    /// The seqs a batch drain of up to `n` entries would take, in drain
    /// order (`priority desc, seq asc`), without mutating.
    pub fn peek_batch(&self, n: usize) -> Vec<u64> {
        let mut keyed: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|e| (u64::from(Priority::MAX - e.priority), e.seq))
            .collect();
        keyed.sort_unstable();
        keyed.truncate(n);
        keyed.into_iter().map(|(_, seq)| seq).collect()
    }

    /// Removes the given seqs in one pass over the queue, returning the
    /// entries in the given order. A seq not queued is skipped and a repeated
    /// seq is returned once; the rest keep their insertion order.
    pub fn remove_seqs(&mut self, seqs: &[u64]) -> Vec<QueueEntry> {
        // Each seq with its first position in `seqs`, sorted by seq.
        let mut rank: Vec<(u64, usize)> = seqs.iter().copied().zip(0..).collect();
        rank.sort_unstable();
        rank.dedup_by_key(|&mut (seq, _)| seq);
        let position = |seq: u64| {
            let i = rank.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
            rank.get(i).map(|&(_, p)| p)
        };
        let mut taken: Vec<QueueEntry> = self
            .entries
            .extract_if(.., |e| position(e.seq).is_some())
            .collect();
        taken.sort_by_cached_key(|e| position(e.seq));
        taken
    }

    /// The queued entries, in insertion order (for snapshots).
    pub fn entries(&self) -> &[QueueEntry] {
        &self.entries
    }
}

/// An integer token bucket gating the sustained admission rate.
///
/// One token is taken per accepted mutation; `refill` is called once per
/// committed epoch by the epoch driver. No clocks, no floats — the bucket
/// state is an exact function of the journaled history, which is how
/// recovery reconstructs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenBucket {
    capacity: u64,
    tokens: u64,
}

impl TokenBucket {
    /// A full bucket with the given burst capacity.
    pub fn new(capacity: u64) -> Self {
        TokenBucket {
            capacity: capacity.max(1),
            tokens: capacity.max(1),
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Takes one token; `false` (and no change) when empty.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    /// Returns one token (used when a later admission gate rejects the
    /// request in the same breath — rejected requests are not charged).
    pub fn refund(&mut self) {
        self.tokens = (self.tokens + 1).min(self.capacity);
    }

    /// Adds `amount` tokens, saturating at capacity.
    pub fn refill(&mut self, amount: u64) {
        self.tokens = self.tokens.saturating_add(amount).min(self.capacity);
    }

    /// Overwrites the level (recovery only).
    pub fn set_tokens(&mut self, tokens: u64) {
        self.tokens = tokens.min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_topology::Resources;
    use proptest::prelude::*;

    fn entry(seq: u64, priority: Priority) -> QueueEntry {
        QueueEntry {
            seq,
            priority,
            at_tick: seq,
            deadline: Deadline::NEVER,
            request: Request::Admit {
                priority,
                demand: Resources::new(1.0, 1.0, 1.0),
                deadline_ticks: 0,
                tag: seq,
            },
        }
    }

    #[test]
    fn queue_never_exceeds_capacity() {
        let mut q = AdmissionQueue::new(3);
        for s in 0..10 {
            let _ = q.push(entry(s, (s % 4) as u8));
            assert!(q.len() <= 3);
        }
        assert_eq!(q.depth_high_water(), 3);
    }

    #[test]
    fn eviction_requires_strictly_higher_priority() {
        let mut q = AdmissionQueue::new(2);
        assert_eq!(q.push(entry(0, 5)), PushOutcome::Enqueued);
        assert_eq!(q.push(entry(1, 5)), PushOutcome::Enqueued);
        // Equal priority does not evict.
        assert_eq!(q.push(entry(2, 5)), PushOutcome::Full);
        // Higher priority evicts the youngest of the lowest class.
        match q.push(entry(3, 6)) {
            PushOutcome::Evicted(v) => assert_eq!(v.seq, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(q.contains(0) && q.contains(3));
    }

    #[test]
    fn drain_orders_by_priority_then_seq() {
        let mut q = AdmissionQueue::new(8);
        for (s, p) in [(0u64, 1u8), (1, 9), (2, 1), (3, 9), (4, 5)] {
            assert_eq!(q.push(entry(s, p)), PushOutcome::Enqueued);
        }
        let seqs = q.peek_batch(4);
        assert_eq!(seqs, vec![1, 3, 4, 0]);
        assert_eq!(q.len(), 5, "peeking drains nothing");
        let batch = q.remove_seqs(&seqs);
        assert_eq!(batch.iter().map(|e| e.seq).collect::<Vec<_>>(), seqs);
        assert_eq!(q.len(), 1);
        assert!(q.contains(2));
    }

    /// The drain as it was: one scan and one `swap_remove` per seq.
    fn remove_seqs_one_by_one(q: &mut AdmissionQueue, seqs: &[u64]) -> Vec<QueueEntry> {
        seqs.iter()
            .filter_map(|s| {
                let i = q.entries.iter().position(|e| e.seq == *s)?;
                Some(q.entries.swap_remove(i))
            })
            .collect()
    }

    fn sorted_seqs(entries: &[QueueEntry]) -> Vec<u64> {
        let mut seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs
    }

    proptest! {
        #[test]
        fn one_pass_drain_matches_the_per_seq_loop(
            pushed in proptest::collection::vec((0u64..64, 0u8..4), 0..40),
            batch in proptest::collection::vec(0u64..72, 0..48),
        ) {
            let mut q = AdmissionQueue::new(64);
            for (seq, priority) in pushed {
                if !q.contains(seq) {
                    prop_assert_eq!(q.push(entry(seq, priority)), PushOutcome::Enqueued);
                }
            }
            let before: Vec<u64> = q.entries().iter().map(|e| e.seq).collect();
            let mut oracle = q.clone();
            let want = remove_seqs_one_by_one(&mut oracle, &batch);
            let got = q.remove_seqs(&batch);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(sorted_seqs(q.entries()), sorted_seqs(oracle.entries()));
            let kept: Vec<u64> = before.into_iter().filter(|s| q.contains(*s)).collect();
            let survivors: Vec<u64> = q.entries().iter().map(|e| e.seq).collect();
            prop_assert_eq!(survivors, kept, "survivors keep their insertion order");
        }
    }

    /// One step of a queue's life in the daemon.
    #[derive(Clone, Debug)]
    enum QueueOp {
        /// An accept: the next seq, at this priority (evicts when full).
        Push(Priority),
        /// A batch drain of these queue positions (taken modulo the depth).
        Drain(Vec<usize>),
        /// A snapshot restore: a fresh queue refilled in `entries()` order.
        Restore,
    }

    proptest! {
        /// Pushing seqs as the daemon issues them (ascending) keeps the
        /// queue sorted by seq through evictions, batch drains and snapshot
        /// restores, so the binary-searched `contains` agrees with a linear
        /// scan for every seq, queued or not. Unsorted pushes (`ascending` false)
        /// fall back to the scan and agree too.
        #[test]
        fn issued_seqs_stay_sorted_and_contains_is_exact(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u8..4).prop_map(QueueOp::Push),
                    proptest::collection::vec(0usize..16, 0..6).prop_map(QueueOp::Drain),
                    Just(QueueOp::Restore),
                ],
                0..80,
            ),
            cap in 1usize..10,
            ascending in any::<bool>(),
        ) {
            let mut q = AdmissionQueue::new(cap);
            let mut next = 0u64;
            for op in ops {
                match op {
                    QueueOp::Push(priority) => {
                        // Unsorted mode issues seqs backwards from 1000.
                        let seq = if ascending { next } else { 1_000 - next };
                        next += 1;
                        let _ = q.push(entry(seq, priority));
                    }
                    QueueOp::Drain(positions) => {
                        let seqs: Vec<u64> = positions
                            .iter()
                            .filter_map(|&i| q.entries().get(i % q.len().max(1)).map(|e| e.seq))
                            .collect();
                        q.remove_seqs(&seqs);
                    }
                    QueueOp::Restore => {
                        let mut restored = AdmissionQueue::new(cap);
                        for e in q.entries() {
                            let _ = restored.push(e.clone());
                        }
                        q = restored;
                    }
                }
                if ascending {
                    prop_assert!(q.entries().windows(2).all(|w| w[0].seq < w[1].seq));
                }
                for seq in (0..next + 2).chain(1_000 - next - 1..=1_000) {
                    let linear = q.entries().iter().any(|e| e.seq == seq);
                    prop_assert_eq!(q.contains(seq), linear, "seq {}", seq);
                }
            }
        }
    }

    #[test]
    fn remove_seq_keeps_insertion_order() {
        let mut q = AdmissionQueue::new(8);
        for s in [4u64, 1, 7, 2] {
            assert_eq!(q.push(entry(s, 0)), PushOutcome::Enqueued);
        }
        assert_eq!(q.remove_seq(1).map(|e| e.seq), Some(1));
        assert_eq!(q.remove_seq(9), None);
        let seqs: Vec<u64> = q.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 7, 2]);
    }

    #[test]
    fn bucket_is_bounded_and_exact() {
        let mut b = TokenBucket::new(2);
        assert!(b.try_take() && b.try_take());
        assert!(!b.try_take());
        b.refill(10);
        assert_eq!(b.tokens(), 2);
        b.set_tokens(1);
        assert!(b.try_take());
        assert!(!b.try_take());
        b.refund();
        assert_eq!(b.tokens(), 1);
    }
}
