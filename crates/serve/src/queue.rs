//! The daemon's job queue: priorities, bounded depth, cancellation-aware
//! blocking pop.
//!
//! The queue holds *job ids* only — specs, state and artifacts live with
//! the daemon — and is deliberately small: a `Mutex` + `Condvar` around a
//! sorted ready list. Depth is bounded at push time so an overloaded
//! daemon answers `429` instead of buffering unboundedly, and closing the
//! queue wakes every blocked worker for shutdown.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::spec::Priority;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at its configured depth (backpressure: HTTP 429).
    Full,
    /// The queue is closed (drain in progress: HTTP 503).
    Closed,
}

#[derive(Debug)]
struct State {
    /// Ready jobs as `(priority, fifo sequence, id)`.
    ready: VecDeque<(Priority, u64, String)>,
    seq: u64,
    closed: bool,
}

/// A bounded, priority-ordered, close-aware job queue.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<State>,
    available: Condvar,
    depth: usize,
}

impl JobQueue {
    /// Creates a queue refusing pushes beyond `depth` waiting jobs.
    pub fn new(depth: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                ready: VecDeque::new(),
                seq: 0,
                closed: false,
            }),
            available: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues `id` at `priority`.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at depth, [`PushError::Closed`] after
    /// [`JobQueue::close`].
    pub fn push(&self, id: &str, priority: Priority) -> Result<(), PushError> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.ready.len() >= self.depth {
            return Err(PushError::Full);
        }
        let seq = s.seq;
        s.seq += 1;
        s.ready.push_back((priority, seq, id.to_owned()));
        self.available.notify_one();
        Ok(())
    }

    /// Enqueues `id` at `priority`, ignoring the depth bound.
    ///
    /// Only for journal replay at daemon start: the previous daemon may
    /// have died with `depth` jobs queued *plus* one per worker running
    /// (or the restart may use a smaller `--queue-depth`), so the number
    /// of legitimately in-flight jobs can exceed the bound. The bound
    /// exists for backpressure on *new* submissions; already-accepted
    /// jobs must never be refused on resume.
    pub fn push_unbounded(&self, id: &str, priority: Priority) {
        let mut s = self.state.lock().expect("queue lock");
        let seq = s.seq;
        s.seq += 1;
        s.ready.push_back((priority, seq, id.to_owned()));
        self.available.notify_one();
    }

    /// Blocks until a job is ready (highest priority first, FIFO within
    /// a priority) or the queue is closed *and* empty (`None`).
    pub fn pop(&self) -> Option<String> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(best) = s
                .ready
                .iter()
                .enumerate()
                .min_by_key(|(_, (p, seq, _))| (*p, *seq))
                .map(|(i, _)| i)
            {
                return s.ready.remove(best).map(|(_, _, id)| id);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).expect("queue lock");
        }
    }

    /// Removes a not-yet-started job from the ready list. Returns
    /// whether it was still queued.
    pub fn remove(&self, id: &str) -> bool {
        let mut s = self.state.lock().expect("queue lock");
        let before = s.ready.len();
        s.ready.retain(|(_, _, queued)| queued != id);
        before != s.ready.len()
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").ready.len()
    }

    /// Whether no jobs wait.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pushes fail, blocked pops drain the remaining
    /// jobs and then return `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_then_fifo_order() {
        let q = JobQueue::new(8);
        q.push("n1", Priority::Normal).unwrap();
        q.push("l1", Priority::Low).unwrap();
        q.push("h1", Priority::High).unwrap();
        q.push("n2", Priority::Normal).unwrap();
        q.push("h2", Priority::High).unwrap();
        let order: Vec<String> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, ["h1", "h2", "n1", "n2", "l1"]);
    }

    #[test]
    fn depth_bound_gives_backpressure() {
        let q = JobQueue::new(2);
        q.push("a", Priority::Normal).unwrap();
        q.push("b", Priority::Normal).unwrap();
        assert_eq!(q.push("c", Priority::Normal), Err(PushError::Full));
        q.pop().unwrap();
        q.push("c", Priority::Normal).unwrap();
    }

    #[test]
    fn close_drains_then_unblocks() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        q.push("a", Priority::Normal).unwrap();
        q.close();
        assert_eq!(q.push("b", Priority::Normal), Err(PushError::Closed));
        assert_eq!(q.pop().as_deref(), Some("a"), "drain continues");
        assert_eq!(q.pop(), None, "then wakes empty");

        // A blocked pop is woken by close from another thread.
        let q2 = std::sync::Arc::new(JobQueue::new(4));
        let waiter = {
            let q2 = std::sync::Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn push_unbounded_ignores_the_depth_bound() {
        let q = JobQueue::new(1);
        q.push("a", Priority::Normal).unwrap();
        assert_eq!(q.push("b", Priority::Normal), Err(PushError::Full));
        // Journal replay must be able to re-enqueue past the bound.
        q.push_unbounded("b", Priority::Normal);
        q.push_unbounded("c", Priority::High);
        assert_eq!(q.len(), 3);
        let order: Vec<String> = (0..3).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, ["c", "a", "b"]);
    }

    #[test]
    fn remove_cancels_queued_jobs() {
        let q = JobQueue::new(4);
        q.push("a", Priority::Normal).unwrap();
        q.push("b", Priority::Normal).unwrap();
        assert!(q.remove("a"));
        assert!(!q.remove("a"), "already gone");
        assert_eq!(q.pop().as_deref(), Some("b"));
    }
}
