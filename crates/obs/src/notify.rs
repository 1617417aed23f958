//! A generation counter that live readers wait on instead of polling.
//!
//! A writer [`Notifier::bump`]s after each change a reader may care
//! about (event lines reaching the file, a job turning terminal). A
//! reader samples [`Notifier::generation`] *before* it looks at the
//! shared state, then [`Notifier::wait_past`] that generation: a change
//! made after the sample bumps past it and returns the wait at once, so
//! no wake-up is lost between the look and the wait.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A bump-and-wait generation counter. See the module docs.
#[derive(Debug, Default)]
pub struct Notifier {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl Notifier {
    /// A notifier at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the generation and wakes every waiter.
    pub fn bump(&self) {
        *self.generation.lock().expect("notifier lock") += 1;
        self.changed.notify_all();
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        *self.generation.lock().expect("notifier lock")
    }

    /// Blocks until the generation passes `seen` or `timeout` elapses,
    /// and returns the generation then.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut generation = self.generation.lock().expect("notifier lock");
        while *generation <= seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            generation = self
                .changed
                .wait_timeout(generation, left)
                .expect("notifier lock")
                .0;
        }
        *generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_bump_before_the_wait_returns_it_at_once() {
        let n = Notifier::new();
        let seen = n.generation();
        n.bump();
        let started = Instant::now();
        assert_eq!(n.wait_past(seen, Duration::from_secs(10)), seen + 1);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_bump_from_another_thread_wakes_the_waiter() {
        let n = Arc::new(Notifier::new());
        let seen = n.generation();
        let bumper = {
            let n = Arc::clone(&n);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                n.bump();
            })
        };
        let started = Instant::now();
        assert!(n.wait_past(seen, Duration::from_secs(10)) > seen);
        assert!(started.elapsed() < Duration::from_secs(5));
        bumper.join().unwrap();
    }

    #[test]
    fn a_wait_without_a_bump_returns_at_its_timeout() {
        let n = Notifier::new();
        n.bump();
        let seen = n.generation();
        let started = Instant::now();
        assert_eq!(n.wait_past(seen, Duration::from_millis(60)), seen);
        assert!(started.elapsed() >= Duration::from_millis(60));
    }
}
