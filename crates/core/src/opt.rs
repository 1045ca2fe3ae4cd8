//! The four optimization levels of the evaluation (§6.3).
//!
//! | Level | Storage layout                | Local propagation + combination |
//! |-------|-------------------------------|---------------------------------|
//! | O1    | ParMetis (random machines)    | off                             |
//! | O2    | bandwidth-aware sketch layout | off                             |
//! | O3    | ParMetis (random machines)    | on                              |
//! | O4    | bandwidth-aware sketch layout | on                              |

use surfer_partition::PlacementPolicy;

/// Which Surfer optimizations are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizationLevel {
    /// ParMetis layout, no local optimizations.
    O1,
    /// Bandwidth-aware layout, no local optimizations.
    O2,
    /// ParMetis layout + local propagation + local combination.
    O3,
    /// Bandwidth-aware layout + local propagation + local combination
    /// (full Surfer).
    O4,
}

impl OptimizationLevel {
    /// All four levels, in paper order.
    pub const ALL: [OptimizationLevel; 4] =
        [OptimizationLevel::O1, OptimizationLevel::O2, OptimizationLevel::O3, OptimizationLevel::O4];

    /// The storage-placement policy of this level.
    pub fn placement(self) -> PlacementPolicy {
        match self {
            OptimizationLevel::O1 | OptimizationLevel::O3 => PlacementPolicy::RandomBaseline,
            OptimizationLevel::O2 | OptimizationLevel::O4 => PlacementPolicy::BandwidthAware,
        }
    }

    /// Whether the §5.1 local optimizations apply: local propagation
    /// (inner vertices combined in memory) and local combination
    /// (cross-partition messages merged per destination when `combine` is
    /// associative).
    pub fn local(self) -> bool {
        matches!(self, OptimizationLevel::O3 | OptimizationLevel::O4)
    }
}

impl std::fmt::Display for OptimizationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OptimizationLevel::O1 => "O1",
            OptimizationLevel::O2 => "O2",
            OptimizationLevel::O3 => "O3",
            OptimizationLevel::O4 => "O4",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_matrix_matches_paper() {
        use OptimizationLevel::*;
        assert_eq!(O1.placement(), PlacementPolicy::RandomBaseline);
        assert_eq!(O2.placement(), PlacementPolicy::BandwidthAware);
        assert_eq!(O3.placement(), PlacementPolicy::RandomBaseline);
        assert_eq!(O4.placement(), PlacementPolicy::BandwidthAware);
        assert!(!O1.local() && !O2.local());
        assert!(O3.local() && O4.local());
    }

    #[test]
    fn display_names() {
        assert_eq!(OptimizationLevel::O4.to_string(), "O4");
        assert_eq!(OptimizationLevel::ALL.len(), 4);
    }
}
