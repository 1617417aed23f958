//! A deliberately misbehaving workload for runner-resilience tests.
//!
//! Real beam campaigns wedge: §II-A counts hangs as first-class outcomes,
//! and a reproduction of the campaign infrastructure needs a way to
//! provoke them on demand. [`Pathological`] behaves like a tiny
//! element-wise kernel for its first `after` executions (so the golden
//! run always succeeds), then either hangs inside `execute_tile` or
//! panics, depending on its [`Failure`] mode. The campaign runner's
//! watchdog and panic capture are tested against it.

use std::time::{Duration, Instant};

use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{self, Clean, Lane, TileBody, TileCtx, TileId, TiledProgram};
use radcrit_core::shape::{Coord, OutputShape};
use serde::{Deserialize, Serialize};

use crate::profile::KernelClass;
use crate::Workload;

/// How long a hanging execution spins before giving up on its own.
///
/// The escape hatch keeps abandoned worker threads from outliving a test
/// process; any watchdog deadline well below this still observes a hang.
const HANG_ESCAPE: Duration = Duration::from_secs(20);

/// What a [`Pathological`] kernel does once its healthy executions are
/// used up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Failure {
    /// Spin inside `execute_tile` (bounded by `HANG_ESCAPE`, 20 s).
    Hang,
    /// Panic inside `execute_tile`.
    Panic,
}

/// An element-wise doubling kernel that misbehaves after `after`
/// successful executions *of the same instance*.
///
/// Each campaign worker builds its own instance, so with `after = 1` a
/// worker's first injection runs normally and every later one triggers
/// the failure — while the separately-built golden instance, which only
/// executes once, stays healthy.
#[derive(Debug)]
pub struct Pathological {
    n: usize,
    after: usize,
    mode: Failure,
    executions: usize,
    input: Vec<f64>,
    in_buf: Option<BufferId>,
    out_buf: Option<BufferId>,
}

impl Pathological {
    /// Creates a pathological kernel over `n` output elements that fails
    /// from execution `after + 1` onward.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when `n` is zero or `after`
    /// is zero (the golden execution must succeed).
    pub fn new(n: usize, after: usize, mode: Failure) -> Result<Self, AccelError> {
        if n == 0 {
            return Err(AccelError::InvalidConfig(
                "pathological kernel needs at least one element".into(),
            ));
        }
        if after == 0 {
            return Err(AccelError::InvalidConfig(
                "pathological kernel needs after >= 1 so the golden run completes".into(),
            ));
        }
        Ok(Pathological {
            n,
            after,
            mode,
            executions: 0,
            input: (0..n).map(|i| i as f64 + 1.0).collect(),
            in_buf: None,
            out_buf: None,
        })
    }

    /// How many times this instance has started executing.
    pub fn executions(&self) -> usize {
        self.executions
    }
}

impl TiledProgram for Pathological {
    fn name(&self) -> &str {
        "pathological"
    }

    fn tile_count(&self) -> usize {
        1
    }

    fn threads_per_tile(&self) -> usize {
        self.n
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        self.executions += 1;
        self.in_buf = Some(mem.alloc_init("in", &self.input));
        self.out_buf = Some(mem.alloc("out", self.n));
        Ok(())
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        program::dispatch(self, tile, ctx)
    }

    fn output(&self) -> BufferId {
        self.out_buf.expect("setup ran")
    }

    fn output_shape(&self) -> OutputShape {
        OutputShape::d1(self.n)
    }

    /// `setup` counts executions and `execute_tile` reads the count to
    /// decide when to fail — observable per-run state, so the engine
    /// must never skip setup or resume this program from a snapshot.
    fn resumable(&self) -> bool {
        false
    }
}

impl TileBody for Pathological {
    fn tile_body<L: Lane>(
        &mut self,
        _tile: TileId,
        ctx: &mut TileCtx<'_>,
    ) -> Result<(), AccelError> {
        if self.executions > self.after {
            match self.mode {
                Failure::Hang => {
                    let t0 = Instant::now();
                    while t0.elapsed() < HANG_ESCAPE {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Failure::Panic => {
                    panic!(
                        "pathological kernel panicked on execution {}",
                        self.executions
                    );
                }
            }
        }
        let in_buf = self.in_buf.expect("setup ran");
        let out_buf = self.out_buf.expect("setup ran");
        let mut vals = vec![0.0; self.n];
        ctx.load(in_buf, 0, &mut vals)?;
        // One span: op `i` doubles element `i`.
        let ops = self.n as u64;
        if L::clean_span(ctx, ops, 0, || vals[0].mul_add(2.0, 0.0)) {
            double::<Clean>(ctx, &mut vals);
            Clean::count(ctx, ops);
        } else {
            double::<L>(ctx, &mut vals);
            L::count(ctx, ops);
        }
        ctx.store(out_buf, 0, &vals)
    }
}

/// Doubles every element of `vals`, op `i` doubling element `i`.
#[inline(always)]
fn double<L: Lane>(ctx: &mut TileCtx<'_>, vals: &mut [f64]) {
    for (i, v) in vals.iter_mut().enumerate() {
        *v = L::fma(ctx, i, *v, 2.0, 0.0);
    }
}

impl Workload for Pathological {
    fn logical_shape(&self) -> OutputShape {
        OutputShape::d1(self.n)
    }

    fn error_coord(&self, idx: usize) -> Coord {
        [idx, 0, 0]
    }

    fn class(&self) -> KernelClass {
        // Diagnostic kernel; the Table I classification is immaterial.
        KernelClass::DGEMM
    }

    fn input_label(&self) -> String {
        format!("{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_accel::config::DeviceConfig;
    use radcrit_accel::engine::Engine;

    #[test]
    fn rejects_degenerate_configs() {
        assert!(Pathological::new(0, 1, Failure::Hang).is_err());
        assert!(Pathological::new(8, 0, Failure::Hang).is_err());
    }

    #[test]
    fn healthy_executions_double_the_input() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = Pathological::new(8, 2, Failure::Panic).unwrap();
        let golden = engine.golden(&mut k).unwrap();
        assert_eq!(
            golden.output,
            vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
        );
        assert_eq!(k.executions(), 1);
    }

    #[test]
    fn panics_after_budget_is_spent() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = Pathological::new(8, 1, Failure::Panic).unwrap();
        engine.golden(&mut k).unwrap();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.golden(&mut k)));
        assert!(result.is_err(), "second execution must panic");
    }
}
