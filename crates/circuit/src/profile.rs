//! Sampled tape profiling: executions and wall-clock attributed per
//! micro-op kind and per depth level.
//!
//! The profiled run path ([`crate::CompiledEvaluator::run_into_profiled`])
//! executes the same decoded instructions as the hot `run_into`, with a
//! clock read between them; `run_into` itself carries no profiling
//! branches, and drivers sample (e.g. profile every k-th pass) rather
//! than instrument every pass. Absolute nanoseconds include clock
//! overhead (~tens of ns per op); the numbers are for *ranking* kinds
//! and levels against each other, which is what the superinstruction
//! work needs.

use crate::compile::MicroOp;

/// Executions and attributed time for one micro-op kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStat {
    /// Micro-ops of this kind executed.
    pub executions: u64,
    /// Wall-clock attributed to this kind, nanoseconds.
    pub total_ns: u64,
}

/// Executions and attributed time for one depth level of the tape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStat {
    /// Micro-ops executed in this level.
    pub executions: u64,
    /// Wall-clock attributed to this level, nanoseconds.
    pub total_ns: u64,
}

/// Accumulated profile over any number of profiled passes of one tape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TapeProfile {
    /// Per-kind totals, indexed by [`MicroOp::kind_index`].
    pub kinds: [KindStat; MicroOp::NUM_KINDS],
    /// Per-level totals, index 0 = constant prologue, index `l + 1` =
    /// depth level `l` of [`crate::CompiledCircuit::level_ranges`].
    pub levels: Vec<LevelStat>,
    /// Adjacent-pair census: `pairs[prev * NUM_KINDS + cur]` counts how
    /// often an op of kind `cur` directly followed one of kind `prev`
    /// *within the same depth level* (pairs never straddle a level
    /// boundary, matching the fuse pass's legality rule). Empty until
    /// the first profiled pass.
    pub pairs: Vec<u64>,
    /// Profiled passes folded in.
    pub passes: u64,
}

impl TapeProfile {
    /// An empty profile.
    pub fn new() -> TapeProfile {
        TapeProfile::default()
    }

    /// Grows the level table to `n` entries (prologue + levels).
    pub(crate) fn ensure_levels(&mut self, n: usize) {
        if self.levels.len() < n {
            self.levels.resize(n, LevelStat::default());
        }
    }

    /// Records one same-level adjacency of kinds `(prev, cur)`.
    pub(crate) fn record_pair(&mut self, prev: usize, cur: usize) {
        if self.pairs.is_empty() {
            self.pairs = vec![0; MicroOp::NUM_KINDS * MicroOp::NUM_KINDS];
        }
        self.pairs[prev * MicroOp::NUM_KINDS + cur] += 1;
    }

    /// Total micro-ops executed across all profiled passes.
    pub fn total_executions(&self) -> u64 {
        self.kinds.iter().map(|k| k.executions).sum()
    }

    /// Total attributed nanoseconds across all profiled passes.
    pub fn total_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.total_ns).sum()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &TapeProfile) {
        for (s, o) in self.kinds.iter_mut().zip(&other.kinds) {
            s.executions += o.executions;
            s.total_ns += o.total_ns;
        }
        self.ensure_levels(other.levels.len());
        for (s, o) in self.levels.iter_mut().zip(&other.levels) {
            s.executions += o.executions;
            s.total_ns += o.total_ns;
        }
        if !other.pairs.is_empty() {
            if self.pairs.is_empty() {
                self.pairs = vec![0; MicroOp::NUM_KINDS * MicroOp::NUM_KINDS];
            }
            for (s, o) in self.pairs.iter_mut().zip(&other.pairs) {
                *s += o;
            }
        }
        self.passes += other.passes;
    }

    /// `(kind_name, stat)` rows with at least one execution, hottest
    /// (most attributed time) first.
    pub fn hot_kinds(&self) -> Vec<(&'static str, KindStat)> {
        let mut rows: Vec<(&'static str, KindStat)> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.executions > 0)
            .map(|(i, k)| (MicroOp::kind_name(i), *k))
            .collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        rows
    }

    /// `((prev_kind, cur_kind), count)` rows with at least one observed
    /// same-level adjacency, most frequent first. This is the table the
    /// `fuse` pass's superinstruction menu is justified against (see
    /// `absort inspect --profile`).
    pub fn hot_pairs(&self) -> Vec<((&'static str, &'static str), u64)> {
        let k = MicroOp::NUM_KINDS;
        let mut rows: Vec<((&'static str, &'static str), u64)> = self
            .pairs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| ((MicroOp::kind_name(i / k), MicroOp::kind_name(i % k)), c))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_kinds_levels_and_passes() {
        let mut a = TapeProfile::new();
        a.kinds[0] = KindStat {
            executions: 2,
            total_ns: 10,
        };
        a.ensure_levels(1);
        a.levels[0] = LevelStat {
            executions: 2,
            total_ns: 10,
        };
        a.passes = 1;
        let mut b = TapeProfile::new();
        b.kinds[0] = KindStat {
            executions: 3,
            total_ns: 5,
        };
        b.kinds[13] = KindStat {
            executions: 1,
            total_ns: 7,
        };
        b.ensure_levels(2);
        b.levels[1] = LevelStat {
            executions: 4,
            total_ns: 12,
        };
        b.passes = 2;
        a.merge(&b);
        assert_eq!(a.passes, 3);
        assert_eq!(a.kinds[0].executions, 5);
        assert_eq!(a.kinds[0].total_ns, 15);
        assert_eq!(a.levels.len(), 2);
        assert_eq!(a.levels[1].executions, 4);
        assert_eq!(a.total_executions(), 6);
        let hot = a.hot_kinds();
        assert_eq!(hot[0].0, MicroOp::kind_name(0));
        assert_eq!(hot[1].0, MicroOp::kind_name(13));
    }
}
