//! Per-tile execution traces.
//!
//! A trace records what every tile did — arithmetic volume, memory
//! traffic, cache behaviour, assigned unit — letting analyses *measure*
//! the workload properties Table I of the paper asserts: compute- versus
//! memory-bound (operational intensity), load balance (per-unit and
//! per-tile spread), and the AMR-style variation of work across launches.

use serde::{Deserialize, Serialize};

/// What one tile did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileTrace {
    /// Dispatch position.
    pub pos: usize,
    /// Executing unit.
    pub unit: usize,
    /// Arithmetic operations.
    pub ops: u64,
    /// Transcendental operations.
    pub trans_ops: u64,
    /// Elements loaded.
    pub loads: u64,
    /// Elements stored.
    pub stores: u64,
    /// L2 hits observed during the tile.
    pub l2_hits: u64,
    /// L2 misses observed during the tile.
    pub l2_misses: u64,
}

/// The trace of one full execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    tiles: Vec<TileTrace>,
}

impl ExecutionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, t: TileTrace) {
        self.tiles.push(t);
    }

    /// All tile records in dispatch order.
    pub fn tiles(&self) -> &[TileTrace] {
        &self.tiles
    }

    /// Total arithmetic ops.
    pub fn total_ops(&self) -> u64 {
        self.tiles.iter().map(|t| t.ops).sum()
    }

    /// Ops aggregated per unit.
    fn ops_per_unit(&self) -> Vec<u64> {
        let units = self.tiles.iter().map(|t| t.unit).max().map_or(0, |u| u + 1);
        let mut out = vec![0u64; units];
        for t in &self.tiles {
            out[t.unit] += t.ops;
        }
        out
    }

    /// Load imbalance across units: max over mean of per-unit ops
    /// (1.0 = perfectly balanced). The measured version of Table I's
    /// "Load Balance" column.
    pub fn unit_imbalance(&self) -> f64 {
        let per_unit = self.ops_per_unit();
        let busy: Vec<u64> = per_unit.into_iter().filter(|&o| o > 0).collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().expect("non-empty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        max / mean
    }

    /// Coefficient of variation of per-tile ops (0 = every tile does the
    /// same work). Border effects (LavaMD) and AMR activity windows
    /// (CLAMR) show up here.
    pub fn tile_cv(&self) -> f64 {
        if self.tiles.len() < 2 {
            return 0.0;
        }
        let n = self.tiles.len() as f64;
        let mean = self.total_ops() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .tiles
            .iter()
            .map(|t| {
                let d = t.ops as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1.0);
        var.sqrt() / mean
    }

    /// Operational intensity: ops per element moved (loads + stores).
    /// Low values mean memory-bound (Table I's "Bound by" column, via the
    /// roofline argument the paper cites).
    pub fn operational_intensity(&self) -> f64 {
        let moved: u64 = self.tiles.iter().map(|t| t.loads + t.stores).sum();
        if moved == 0 {
            f64::INFINITY
        } else {
            self.total_ops() as f64 / moved as f64
        }
    }

    /// L2 hit rate over the whole run.
    pub fn l2_hit_rate(&self) -> f64 {
        let hits: u64 = self.tiles.iter().map(|t| t.l2_hits).sum();
        let total: u64 = self.tiles.iter().map(|t| t.l2_hits + t.l2_misses).sum();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(pos: usize, unit: usize, ops: u64, loads: u64) -> TileTrace {
        TileTrace {
            pos,
            unit,
            ops,
            trans_ops: 0,
            loads,
            stores: 0,
            l2_hits: ops / 2,
            l2_misses: ops / 2,
        }
    }

    #[test]
    fn balanced_trace_has_unit_imbalance_one() {
        let mut tr = ExecutionTrace::new();
        for i in 0..8 {
            tr.push(t(i, i % 4, 100, 10));
        }
        assert!((tr.unit_imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(tr.tile_cv(), 0.0);
        assert_eq!(tr.total_ops(), 800);
    }

    #[test]
    fn imbalanced_trace_detected() {
        let mut tr = ExecutionTrace::new();
        tr.push(t(0, 0, 1000, 10));
        tr.push(t(1, 1, 100, 10));
        assert!(tr.unit_imbalance() > 1.5);
        assert!(tr.tile_cv() > 0.5);
    }

    #[test]
    fn operational_intensity_ratio() {
        let mut tr = ExecutionTrace::new();
        tr.push(t(0, 0, 100, 50));
        assert!((tr.operational_intensity() - 2.0).abs() < 1e-12);
        let empty = ExecutionTrace::new();
        assert!(empty.operational_intensity().is_infinite());
    }

    #[test]
    fn l2_hit_rate_aggregates() {
        let mut tr = ExecutionTrace::new();
        tr.push(t(0, 0, 100, 10)); // 50/50
        assert!((tr.l2_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_degenerate_but_defined() {
        let tr = ExecutionTrace::new();
        assert_eq!(tr.unit_imbalance(), 1.0);
        assert_eq!(tr.tile_cv(), 0.0);
        assert_eq!(tr.l2_hit_rate(), 0.0);
    }
}
