//! A bounded event trace for debugging and observability.
//!
//! When enabled, the simulator records one [`TraceEvent`] per significant
//! action (drop, delivery, control message) into a ring buffer. Traces
//! are for humans and tests; the metrics pipeline uses the
//! [`crate::StatsCollector`] counters instead.

use crate::ids::NodeId;
use crate::packet::{DropReason, FlowKey};
use crate::time::SimTime;
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::collections::VecDeque;
use std::fmt;

/// One recorded simulator action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was dropped.
    Drop {
        /// When.
        at: SimTime,
        /// The flow it belonged to.
        flow: FlowKey,
        /// Why.
        reason: DropReason,
    },
    /// A packet was delivered to an agent.
    Deliver {
        /// When.
        at: SimTime,
        /// The flow.
        flow: FlowKey,
        /// The receiving node.
        node: NodeId,
    },
    /// A control message was delivered to a node.
    Control {
        /// When.
        at: SimTime,
        /// The receiving node.
        node: NodeId,
        /// Rendered message.
        summary: String,
    },
}

impl TraceEvent {
    /// The timestamp of the event.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Drop { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Control { at, .. } => *at,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Drop { at, flow, reason } => {
                write!(f, "{at} DROP {flow} ({reason})")
            }
            TraceEvent::Deliver { at, flow, node } => {
                write!(f, "{at} DELIVER {flow} at {node}")
            }
            TraceEvent::Control { at, node, summary } => {
                write!(f, "{at} CONTROL {node}: {summary}")
            }
        }
    }
}

/// A bounded ring buffer of trace events.
#[derive(Debug)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    recorded_total: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` events (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceBuffer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            recorded_total: 0,
        }
    }

    /// Appends an event, evicting the oldest if full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.recorded_total += 1;
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all retained events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl State for TraceBuffer {
    /// The retained events and the lifetime total; the capacity is
    /// build-time configuration and is not written. (The trace is
    /// checkpointed but never hashed: it observes, it does not decide.)
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.recorded_total);
        w.write_seq(&self.events, |w, event| match event {
            TraceEvent::Drop { at, flow, reason } => {
                w.write_u8(0);
                w.write_u64(at.as_nanos());
                flow.write_state(w);
                reason.write_state(w);
            }
            TraceEvent::Deliver { at, flow, node } => {
                w.write_u8(1);
                w.write_u64(at.as_nanos());
                flow.write_state(w);
                w.write_u32(node.0);
            }
            TraceEvent::Control { at, node, summary } => {
                w.write_u8(2);
                w.write_u64(at.as_nanos());
                w.write_u32(node.0);
                w.write_str(summary);
            }
        });
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.recorded_total = r.read_u64()?;
        self.events = r.read_seq(|r| {
            Ok(match r.read_u8()? {
                0 => TraceEvent::Drop {
                    at: SimTime::from_nanos(r.read_u64()?),
                    flow: crate::packet::read_flow_key(r)?,
                    reason: crate::packet::read_drop_reason(r)?,
                },
                1 => TraceEvent::Deliver {
                    at: SimTime::from_nanos(r.read_u64()?),
                    flow: crate::packet::read_flow_key(r)?,
                    node: NodeId(r.read_u32()?),
                },
                2 => TraceEvent::Control {
                    at: SimTime::from_nanos(r.read_u64()?),
                    node: NodeId(r.read_u32()?),
                    summary: r.read_str()?,
                },
                tag => return Err(SnapError::Malformed(format!("trace-event tag {tag}"))),
            })
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;

    fn drop_event(ms: u64) -> TraceEvent {
        TraceEvent::Drop {
            at: SimTime::from_nanos(ms * 1_000_000),
            flow: FlowKey::new(Addr::new(1), Addr::new(2), 1, 2),
            reason: DropReason::FilterProbing,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = TraceBuffer::new(3);
        for ms in 0..5 {
            t.record(drop_event(ms));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded_total, 5);
        let first = t.iter().next().unwrap();
        assert_eq!(first.at(), SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn display_formats_each_kind() {
        let d = drop_event(1).to_string();
        assert!(d.contains("DROP") && d.contains("filter-probing"));
        let deliver = TraceEvent::Deliver {
            at: SimTime::ZERO,
            flow: FlowKey::new(Addr::new(1), Addr::new(2), 1, 2),
            node: NodeId::from_index(3),
        };
        assert!(deliver.to_string().contains("DELIVER"));
        let control = TraceEvent::Control {
            at: SimTime::ZERO,
            node: NodeId::from_index(1),
            summary: "pushback-start".into(),
        };
        assert!(control.to_string().contains("CONTROL"));
    }

    #[test]
    fn clear_empties_but_keeps_total() {
        let mut t = TraceBuffer::new(4);
        t.record(drop_event(1));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.recorded_total, 1);
    }

    #[test]
    fn snapshot_round_trips_events_and_total() {
        let mut t = TraceBuffer::new(3);
        for ms in 0..5 {
            t.record(drop_event(ms));
        }
        t.record(TraceEvent::Control {
            at: SimTime::from_nanos(7),
            node: NodeId::from_index(1),
            summary: "pushback-start".into(),
        });
        crate::testkit::assert_state_law(&t, || TraceBuffer::new(3));
        let bytes = crate::testkit::state_bytes(&t);
        let mut restored = TraceBuffer::new(3);
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.recorded_total, 6);
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = restored.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TraceBuffer::new(0);
    }
}
