//! The bounded admission queue: a `Mutex<VecDeque>` + `Condvar` MPMC
//! channel whose *only* growth policy is typed rejection. `push` never
//! blocks and never allocates past capacity — overload is shed at the
//! door, which is what keeps tail latency bounded when demand exceeds
//! service rate.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a `push` was refused. The item comes back so the caller can
/// answer its client.
pub(crate) enum PushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// [`AdmissionQueue::close`] was called.
    Closed(T),
}

/// What a blocking `pop` produced.
pub(crate) enum Popped<T> {
    /// A job.
    Job(T),
    /// Nothing arrived within the timeout; poll again (workers use
    /// this to notice shutdown promptly).
    TimedOut,
    /// Queue closed and fully drained — the worker should exit.
    Closed,
}

struct Inner<T> {
    deque: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity MPMC queue with explicit close/drain semantics.
pub(crate) struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                deque: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// A panicking worker cannot poison admission: the queue's state is
    /// always internally consistent (push/pop are single operations),
    /// so we take the guard back from a poisoned lock.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking admission. Returns the depth *after* the push (for
    /// the queue-depth gauge), or the item back with a typed refusal.
    /// `admitted` runs on the queued item and that depth after the push
    /// but before any popper can see the item.
    pub(crate) fn push(
        &self,
        item: T,
        admitted: impl FnOnce(&mut T, usize),
    ) -> Result<usize, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.deque.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.deque.push_back(item);
        let depth = inner.deque.len();
        if let Some(queued) = inner.deque.back_mut() {
            admitted(queued, depth);
        }
        drop(inner);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Blocking pop with a poll timeout. After `close`, remaining jobs
    /// are still handed out until the queue is empty, then `Closed`.
    pub(crate) fn pop(&self, timeout: Duration) -> Popped<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.deque.pop_front() {
                return Popped::Job(item);
            }
            if inner.closed {
                return Popped::Closed;
            }
            let (guard, result) = self
                .nonempty
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if result.timed_out() && inner.deque.is_empty() && !inner.closed {
                return Popped::TimedOut;
            }
        }
    }

    /// Closes the queue: future pushes are refused, blocked poppers are
    /// woken. Queued jobs stay queued (see [`AdmissionQueue::drain`]).
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Removes and returns everything still queued (shutdown path: the
    /// server answers each with `ShuttingDown` instead of dropping it).
    pub(crate) fn drain(&self) -> Vec<T> {
        self.lock().deque.drain(..).collect()
    }

    /// Current depth (tests and gauges).
    pub(crate) fn depth(&self) -> usize {
        self.lock().deque.len()
    }

    /// The fixed capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_respects_capacity_and_returns_depth() {
        let q = AdmissionQueue::new(2);
        let mut admitted = Vec::new();
        for item in 1..=3 {
            let pushed = q.push(item, |queued, depth| admitted.push((*queued, depth)));
            match (item, pushed) {
                (1 | 2, Ok(depth)) => assert_eq!(depth, item),
                (3, Err(PushError::Full(refused))) => assert_eq!(refused, 3),
                _ => panic!("push {item}: unexpected outcome"),
            }
        }
        assert_eq!(
            admitted,
            vec![(1, 1), (2, 2)],
            "only admitted items are reported"
        );
        assert_eq!(q.depth(), 2);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn pop_times_out_on_empty_queue() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1);
        assert!(matches!(q.pop(Duration::from_millis(5)), Popped::TimedOut));
    }

    #[test]
    fn close_refuses_pushes_and_drains_leftovers() {
        let q = AdmissionQueue::new(4);
        q.push(1, |_, _| {}).ok();
        q.push(2, |_, _| {}).ok();
        q.close();
        match q.push(3, |_, _| {}) {
            Err(PushError::Closed(item)) => assert_eq!(item, 3),
            _ => panic!("expected Closed"),
        }
        // Queued jobs still pop after close…
        assert!(matches!(q.pop(Duration::from_millis(5)), Popped::Job(1)));
        // …and drain takes the rest.
        assert_eq!(q.drain(), vec![2]);
        assert!(matches!(q.pop(Duration::from_millis(5)), Popped::Closed));
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(AdmissionQueue::new(1));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        q.push(42u32, |_, _| {}).ok();
        assert!(matches!(handle.join().unwrap(), Popped::Job(42)));
    }
}
