//! Model-based property tests: without a strike, the cache hierarchy and
//! TileCtx must be completely transparent — every load observes exactly
//! what was last stored, for arbitrary interleavings of accesses across
//! buffers and units. Golden runs depend on this invariant bit for bit.

use proptest::prelude::*;

use radcrit_accel::cache::CacheGeometry;
use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::Engine;
use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{TileCtx, TileId, TiledProgram};
use radcrit_core::shape::OutputShape;

/// One step of the random access program.
#[derive(Debug, Clone)]
enum Access {
    Store {
        buf: usize,
        start: usize,
        values: Vec<f64>,
    },
    Load {
        buf: usize,
        start: usize,
        len: usize,
    },
}

fn access_strategy() -> impl Strategy<Value = Access> {
    prop_oneof![
        (
            0usize..3,
            0usize..48,
            proptest::collection::vec(-1e6f64..1e6, 1..16)
        )
            .prop_map(|(buf, start, values)| Access::Store { buf, start, values }),
        (0usize..3, 0usize..48, 1usize..16).prop_map(|(buf, start, len)| Access::Load {
            buf,
            start,
            len
        }),
    ]
}

/// A program that replays the access trace through TileCtx, one tile per
/// access, and checks every load against a plain `Vec<f64>` model.
#[derive(Debug)]
struct Replay {
    trace: Vec<Access>,
    model: Vec<Vec<f64>>,
    bufs: Vec<BufferId>,
    out: Option<BufferId>,
    failures: usize,
}

const BUF_LEN: usize = 64;

impl TiledProgram for Replay {
    fn name(&self) -> &str {
        "replay"
    }

    fn tile_count(&self) -> usize {
        self.trace.len().max(1)
    }

    fn threads_per_tile(&self) -> usize {
        1
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        self.bufs = (0..3)
            .map(|i| mem.alloc(format!("b{i}"), BUF_LEN))
            .collect();
        self.out = Some(mem.alloc("out", 1));
        self.model = vec![vec![0.0; BUF_LEN]; 3];
        self.failures = 0;
        Ok(())
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        if self.trace.is_empty() {
            return ctx.write_one(self.out.expect("setup"), 0, 1.0);
        }
        match self.trace[tile.index()].clone() {
            Access::Store { buf, start, values } => {
                let end = (start + values.len()).min(BUF_LEN);
                let values = &values[..end - start];
                ctx.store(self.bufs[buf], start, values)?;
                self.model[buf][start..end].copy_from_slice(values);
            }
            Access::Load { buf, start, len } => {
                let end = (start + len).min(BUF_LEN);
                let mut got = vec![0.0; end - start];
                ctx.load(self.bufs[buf], start, &mut got)?;
                if got != self.model[buf][start..end] {
                    self.failures += 1;
                }
            }
        }
        ctx.write_one(self.out.expect("setup"), 0, self.failures as f64)
    }

    fn output(&self) -> BufferId {
        self.out.expect("setup ran")
    }

    fn output_shape(&self) -> OutputShape {
        OutputShape::d1(1)
    }
}

fn tiny_device() -> DeviceConfig {
    // Small caches force constant evictions, exercising write-back paths.
    DeviceConfig::builder("tiny")
        .units(3)
        .max_threads_per_unit(8)
        .l1(CacheGeometry::new(128, 64, 2).expect("valid L1"))
        .l2(CacheGeometry::new(256, 64, 2).expect("valid L2"))
        .build()
        .expect("valid tiny device")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn caches_are_transparent_without_strikes(
        trace in proptest::collection::vec(access_strategy(), 1..60)) {
        let mut program = Replay {
            trace,
            model: Vec::new(),
            bufs: Vec::new(),
            out: None,
            failures: 0,
        };
        let engine = Engine::new(tiny_device());
        let outcome = engine.golden(&mut program).expect("golden replay");
        prop_assert_eq!(outcome.output[0], 0.0, "some load diverged from the model");
    }

    #[test]
    fn golden_runs_are_bitwise_repeatable(
        trace in proptest::collection::vec(access_strategy(), 1..40)) {
        let mut program = Replay {
            trace,
            model: Vec::new(),
            bufs: Vec::new(),
            out: None,
            failures: 0,
        };
        let engine = Engine::new(tiny_device());
        let a = engine.golden(&mut program).expect("first run");
        let b = engine.golden(&mut program).expect("second run");
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.profile.total_ops, b.profile.total_ops);
        prop_assert_eq!(a.profile.loads, b.profile.loads);
    }
}
