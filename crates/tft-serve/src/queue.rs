//! A bounded FIFO job queue with explicit backpressure.
//!
//! The gateway runs studies on a single virtual server, so admission order
//! *is* execution order: first-in, first-out, no priorities, no reordering.
//! Depth is bounded and the queue **refuses** work when full — the caller
//! turns [`QueueFull`] into `429 Too Many Requests` with a `Retry-After`
//! derived from the queued virtual work, instead of buffering unboundedly.

use std::collections::VecDeque;

/// Returned by [`BoundedFifo::push`] when the queue is at capacity. Carries
/// the rejected item back so the caller still owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

/// A FIFO queue that holds at most `depth` items.
#[derive(Debug)]
pub struct BoundedFifo<T> {
    depth: usize,
    items: VecDeque<T>,
    /// Pushes refused at capacity — the queue's own honest record of shed
    /// load, surfaced through [`BoundedFifo::rejections`] so overload is
    /// visible even if the caller forgets to count.
    rejected: u64,
}

impl<T> BoundedFifo<T> {
    /// An empty queue admitting at most `depth` items.
    ///
    /// # Panics
    /// Panics if `depth` is zero — a gateway that can accept nothing is a
    /// misconfiguration, not a backpressure policy.
    pub fn new(depth: usize) -> BoundedFifo<T> {
        assert!(depth > 0, "queue depth must be positive");
        BoundedFifo {
            depth,
            items: VecDeque::with_capacity(depth),
            rejected: 0,
        }
    }

    /// Append `item`, or return it inside [`QueueFull`] if at capacity
    /// (counted in [`BoundedFifo::rejections`]).
    pub fn push(&mut self, item: T) -> Result<(), QueueFull<T>> {
        if self.items.len() >= self.depth {
            self.rejected += 1;
            return Err(QueueFull(item));
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Pushes refused because the queue was full, since construction.
    pub fn rejections(&self) -> u64 {
        self.rejected
    }

    /// The item that has waited longest, if any.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Remove and return the item that has waited longest.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured maximum depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Iterate in queue (admission) order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = BoundedFifo::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.front(), Some(&1));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_returns_the_item() {
        let mut q = BoundedFifo::new(2);
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert_eq!(q.push("c"), Err(QueueFull("c")));
        // Draining one slot re-admits.
        assert_eq!(q.pop(), Some("a"));
        assert!(q.push("c").is_ok());
        assert_eq!(q.rejections(), 1, "exactly the one refused push counted");
    }

    #[test]
    #[should_panic(expected = "queue depth must be positive")]
    fn zero_depth_is_rejected() {
        let _ = BoundedFifo::<u8>::new(0);
    }
}
