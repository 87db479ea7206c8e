//! A bounded MPMC job queue with explicit load shedding.
//!
//! The queue never grows past its capacity: a submit against a full queue
//! is *rejected immediately* (the server turns that into a 429-style
//! `overloaded` response with a `Retry-After` hint) instead of queueing
//! unbounded work the server cannot finish. Workers block on a condvar
//! with a timeout so shutdown is prompt.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::clock::Duration;

/// A bounded multi-producer multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, or hands it back when the queue is full (the
    /// load-shedding signal — nothing ever blocks or grows).
    ///
    /// # Errors
    /// Returns `item` itself when the queue is at capacity.
    pub fn offer(&self, item: T) -> Result<(), T> {
        let mut q = self.guard();
        if q.len() >= self.capacity {
            return Err(item);
        }
        q.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, waiting up to `timeout_ms` for one.
    pub fn claim_timeout(&self, timeout_ms: u64) -> Option<T> {
        let mut q = self.guard();
        if let Some(item) = q.pop_front() {
            return Some(item);
        }
        // Condvar poisoning mirrors the queue-lock poisoning case: another
        // worker already panicked; recovering the guard keeps the server
        // draining.
        let (mut q, _timed_out) = match self
            .ready
            .wait_timeout(q, Duration::from_millis(timeout_ms))
        {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        q.pop_front()
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.guard().len()
    }

    fn guard(&self) -> MutexGuard<'_, VecDeque<T>> {
        // A poisoned queue lock means a producer or worker panicked
        // mid-push/pop of a plain VecDeque; the structure is still valid,
        // and recovering keeps the server serving (panic isolation is the
        // crate's contract).
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        let q = BoundedQueue::bounded(2);
        assert!(q.offer(1).is_ok());
        assert!(q.offer(2).is_ok());
        assert_eq!(q.offer(3), Err(3));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.claim_timeout(0), Some(1));
        assert!(q.offer(3).is_ok());
    }

    #[test]
    fn claim_timeout_wakes_on_offer() {
        use std::sync::Arc;
        let q = Arc::new(BoundedQueue::bounded(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.claim_timeout(2_000));
        crate::clock::sleep_ms(20);
        q.offer(42).unwrap();
        assert_eq!(t.join().unwrap(), Some(42));
    }
}
