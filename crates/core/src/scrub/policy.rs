//! Scrub scheduling policy: when the engine scans, how it separates
//! corruption from roundoff, and what it may do when a scan cannot correct
//! in place.

/// When the scrub engine runs a pass. Scans always sit at the quiescent
/// end-of-iteration boundary (after the left update, before the driver
/// advances), where every rank holds identical replicated state and the
/// Theorem-1 invariant is supposed to hold for the live groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScrubCadence {
    /// Never scan — the engine is disabled and costs nothing.
    #[default]
    Never,
    /// Scan at the end of every `k`-th panel iteration (`k ≥ 1`) and at
    /// every scope boundary — the last chance before the finished group's
    /// checksum recompute would absorb any corruption for good.
    Panels(usize),
}

/// Scrub engine configuration (see DESIGN.md §10). An active engine
/// corrects in place what it can localize, escalates the rest to a
/// verified-boundary-image rollback, and scans once more right after every
/// fail-stop recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubPolicy {
    /// Scan schedule. The default never scans ([`ScrubPolicy::disabled`]).
    pub cadence: ScrubCadence,
}

impl ScrubPolicy {
    /// Absolute residual threshold separating corruption from accumulated
    /// update roundoff: far above the checksum-update roundoff of any
    /// test-sized problem (~1e-12) and below the smallest seeded injector
    /// flip (high-mantissa bits of O(1) entries, ~1e-7). Flips in mantissa
    /// bits below it are undetectable by construction — and equally
    /// invisible to the final `r∞` verification (the detectability floor,
    /// DESIGN.md §10).
    pub const TOL: f64 = 1e-8;

    /// The engine does nothing (the default for plain [`crate::ft_pdgehrd`]).
    pub fn disabled() -> Self {
        Self { cadence: ScrubCadence::Never }
    }

    /// Scan every `k` panels (and at scope boundaries).
    pub fn every_panels(k: usize) -> Self {
        assert!(k >= 1, "scrub cadence must be at least one panel");
        Self { cadence: ScrubCadence::Panels(k) }
    }

    /// Whether the engine ever scans.
    #[inline]
    pub fn active(&self) -> bool {
        self.cadence != ScrubCadence::Never
    }

    /// Is a pass due at the end of panel iteration `panel_idx`?
    /// `scope_closing` marks the iteration that ends a panel scope.
    pub fn due(&self, panel_idx: usize, scope_closing: bool) -> bool {
        match self.cadence {
            ScrubCadence::Never => false,
            ScrubCadence::Panels(k) => scope_closing || (panel_idx + 1).is_multiple_of(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_schedules() {
        let never = ScrubPolicy::disabled();
        assert!(!never.active());
        assert!(!never.due(0, true));

        let p2 = ScrubPolicy::every_panels(2);
        assert!(p2.active());
        assert!(!p2.due(0, false)); // after panel 0: 1 % 2 != 0
        assert!(p2.due(1, false));
        assert!(p2.due(0, true)); // scope boundary always scans
    }

    #[test]
    #[should_panic(expected = "at least one panel")]
    fn zero_cadence_rejected() {
        let _ = ScrubPolicy::every_panels(0);
    }
}
