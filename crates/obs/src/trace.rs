//! The pipeline event tracer: records the raw lifecycle-event stream.

use crate::observer::{Event, Observer};

/// Records every [`Event`] with its cycle, in delivery order. Rendering
/// (JSON, Kanata) lives in [`crate::format`] and runs after the simulation,
/// so the hot path only appends a `Copy` record to a vector.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PipelineTracer {
    events: Vec<(u64, Event)>,
}

impl PipelineTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        PipelineTracer {
            events: Vec::with_capacity(1024),
        }
    }

    /// The recorded `(cycle, event)` stream, in delivery order.
    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Observer for PipelineTracer {
    #[inline]
    fn event(&mut self, cycle: u64, ev: Event) {
        self.events.push((cycle, ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_events_in_order() {
        let mut t = PipelineTracer::new();
        assert!(t.is_empty());
        t.event(
            3,
            Event::Fetch {
                inst: 0,
                kind: koc_isa::OpKind::Load,
            },
        );
        t.event(3, Event::Dispatch { inst: 0, ckpt: 0 });
        let issue = Event::Issue {
            inst: 0,
            long: false,
        };
        t.event(5, issue);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[2], (5, issue));
    }
}
