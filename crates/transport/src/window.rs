//! The receive window both TCP receivers share: the cumulative-ACK
//! point and the out-of-order segments buffered beyond it.
//!
//! Segments beyond a gap are kept as a sorted, de-duplicated deque of
//! sequence numbers, every one above `rcv_next`. Reordering is local —
//! a segment lands at or near the back, and a filled gap drains from
//! the front — and the deque keeps its capacity as it empties, so a
//! receiver that has seen its deepest reorder allocates nothing more.

use mafic_netsim::{SnapError, SnapReader, State, StateWrite};
use std::collections::VecDeque;

/// What one arriving segment did to the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// The segment is at or above the ACK point: in order (the ACK
    /// point advanced) or buffered beyond a gap (a repeat of a buffered
    /// segment changes nothing).
    Accepted,
    /// The segment lies below the ACK point: an old duplicate.
    Old,
}

/// `rcv_next` plus the out-of-order buffer.
#[derive(Debug, Default)]
pub(crate) struct ReceiveWindow {
    rcv_next: u64,
    /// Buffered segments, strictly ascending, all `> rcv_next`.
    out_of_order: VecDeque<u64>,
}

impl ReceiveWindow {
    /// The cumulative ACK: the next sequence number expected.
    pub(crate) fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// Segments buffered beyond a gap.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.out_of_order.len()
    }

    /// Takes in segment `seq`: an in-order segment advances the ACK
    /// point over any contiguous buffered run, a later one is buffered
    /// (once), an earlier one changes nothing.
    pub(crate) fn receive(&mut self, seq: u64) -> Arrival {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.out_of_order.front() == Some(&self.rcv_next) {
                self.out_of_order.pop_front();
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            if self.out_of_order.back().is_none_or(|&last| seq > last) {
                self.out_of_order.push_back(seq);
            } else if let Err(at) = self.out_of_order.binary_search(&seq) {
                self.out_of_order.insert(at, seq);
            }
        } else {
            return Arrival::Old;
        }
        Arrival::Accepted
    }
}

impl State for ReceiveWindow {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.rcv_next);
        w.write_seq(&self.out_of_order, |w, &seq| w.write_u64(seq));
    }

    /// Rejects a buffered segment at or below `rcv_next` (it would
    /// never drain) or out of strictly ascending order (the drain and
    /// the search both assume it).
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rcv_next = r.read_u64()?;
        self.out_of_order.clear();
        let mut floor = self.rcv_next;
        for _ in 0..r.read_len()? {
            let seq = r.read_u64()?;
            if seq <= floor {
                return Err(SnapError::Malformed(format!(
                    "buffered segment {seq} not above {floor} (rcv_next {})",
                    self.rcv_next
                )));
            }
            self.out_of_order.push_back(seq);
            floor = seq;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The reorder logic both sinks carried before the shared window:
    /// a `BTreeSet` beside `rcv_next`. The differential test holds the
    /// deque to it, ACK for ACK and byte for byte.
    #[derive(Default)]
    struct Oracle {
        rcv_next: u64,
        out_of_order: BTreeSet<u64>,
    }

    impl Oracle {
        fn receive(&mut self, seq: u64) -> Arrival {
            if seq == self.rcv_next {
                self.rcv_next += 1;
                while self.out_of_order.remove(&self.rcv_next) {
                    self.rcv_next += 1;
                }
            } else if seq > self.rcv_next {
                self.out_of_order.insert(seq);
            } else {
                return Arrival::Old;
            }
            Arrival::Accepted
        }
    }

    impl State for Oracle {
        fn write_state<W: StateWrite>(&self, w: &mut W) {
            w.write_u64(self.rcv_next);
            w.write_seq(&self.out_of_order, |w, &seq| w.write_u64(seq));
        }

        fn read_state(&mut self, _: &mut SnapReader<'_>) -> Result<(), SnapError> {
            unreachable!("the oracle is never restored")
        }
    }

    #[test]
    fn deque_matches_the_btreeset_receiver() {
        for seed in [1u64, 2, 3, 4] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut window = ReceiveWindow::default();
            let mut oracle = Oracle::default();
            let mut deepest = 0;
            let mut next_new = 0u64;
            for step in 0..20_000 {
                // Mostly in-order runs, with gaps (segments sent ahead),
                // retransmissions that fill them, and duplicates of
                // both old and buffered segments.
                let seq = match rng.gen_range(0u8..10) {
                    0..=4 => {
                        next_new += 1;
                        next_new - 1
                    }
                    5 => {
                        next_new += rng.gen_range(2..6);
                        next_new - 1
                    }
                    6 | 7 => oracle.rcv_next + rng.gen_range(0..4),
                    8 => oracle.rcv_next.saturating_sub(rng.gen_range(1..4)),
                    _ => rng.gen_range(0..next_new + 8),
                };
                assert_eq!(
                    window.receive(seq),
                    oracle.receive(seq),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    window.rcv_next(),
                    oracle.rcv_next,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    state_bytes(&window),
                    state_bytes(&oracle),
                    "seed {seed} step {step}"
                );
                deepest = deepest.max(window.buffered());
                next_new = next_new.max(window.rcv_next());
            }
            assert!(deepest >= 8, "the run must build a real reorder buffer");
        }
    }

    fn with_gaps() -> ReceiveWindow {
        let mut w = ReceiveWindow::default();
        for seq in [0, 3, 5, 6] {
            w.receive(seq);
        }
        w
    }

    #[test]
    fn round_trips() {
        assert_state_law(&with_gaps(), ReceiveWindow::default);
    }

    fn restore(bytes: &[u8]) -> Result<(), SnapError> {
        ReceiveWindow::default().read_state(&mut SnapReader::new(bytes))
    }

    /// Overwrites buffered entry `i` (layout: rcv_next, count, entries).
    fn with_entry(i: usize, seq: u64) -> Vec<u8> {
        let mut bytes = state_bytes(&with_gaps());
        let at = 16 + 8 * i;
        bytes[at..at + 8].copy_from_slice(&seq.to_le_bytes());
        bytes
    }

    #[test]
    fn restore_rejects_a_segment_at_or_below_rcv_next() {
        assert!(restore(&with_entry(0, 2)).is_ok());
        for seq in [0, 1] {
            let err = restore(&with_entry(0, seq)).expect_err("must refuse");
            assert!(matches!(err, SnapError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn restore_rejects_a_buffer_out_of_order() {
        for (i, seq) in [(1, 3), (1, 2), (2, 5)] {
            let err = restore(&with_entry(i, seq)).expect_err("must refuse");
            assert!(matches!(err, SnapError::Malformed(_)), "{err}");
        }
    }
}
