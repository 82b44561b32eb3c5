//! The fuzzer's coverage signature: which *behavior classes* a generated
//! program has exercised, combining the analyzer's diagnostic space
//! (`SY001`–`SY008` as a bitmask) with log₂-bucketed engine exploration
//! metrics (forks, merges, restarts, peak live paths) and the probe
//! outcome.
//!
//! Exact metric values would make nearly every program "novel" and the
//! corpus would grow without bound; bucketing to powers of two keeps the
//! key space small while still separating "never forks" from "forks a
//! few times" from "forks until the engine refuses".

use std::collections::BTreeSet;

use symple_analyze::DiagCoverage;
use symple_core::engine::ExploreStats;

/// Log₂ bucket of a metric: 0 → 0, 1 → 1, 2–3 → 2, 4–7 → 3, …
pub fn bucket(n: u64) -> u8 {
    (64 - n.leading_zeros()) as u8
}

/// One behavior class: a point in (diagnostic space × outcome ×
/// bucketed exploration metrics).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverageKey {
    /// Analyzer diagnostic signature ([`DiagCoverage::bits`]).
    pub diag_bits: u8,
    /// Probe outcome token (`"ok"` or `"err:<Variant>"`).
    pub outcome: String,
    /// Bucketed [`ExploreStats::forks`].
    pub forks: u8,
    /// Bucketed [`ExploreStats::merges`].
    pub merges: u8,
    /// Bucketed [`ExploreStats::restarts`].
    pub restarts: u8,
    /// Bucketed [`ExploreStats::max_live_paths`].
    pub live: u8,
}

impl CoverageKey {
    /// Builds a key from an analyzer signature, an engine probe, and the
    /// probe's outcome token.
    pub fn new(diag: DiagCoverage, outcome: &str, stats: &ExploreStats) -> CoverageKey {
        CoverageKey {
            diag_bits: diag.bits(),
            outcome: outcome.to_string(),
            forks: bucket(stats.forks),
            merges: bucket(stats.merges),
            restarts: bucket(stats.restarts),
            live: bucket(stats.max_live_paths as u64),
        }
    }
}

/// The set of behavior classes seen so far, plus the running union of
/// diagnostic codes. Iteration order (and therefore [`render`]) is the
/// `BTreeSet` order — fully deterministic.
///
/// [`render`]: CoverageMap::render
#[derive(Debug, Default)]
pub struct CoverageMap {
    keys: BTreeSet<CoverageKey>,
    diag_union: DiagCoverage,
}

impl CoverageMap {
    /// Records a key; returns `true` when it is novel (a behavior class
    /// no earlier program reached — the signal that seeds the corpus).
    pub fn insert(&mut self, key: CoverageKey) -> bool {
        self.diag_union = self
            .diag_union
            .union(DiagCoverage::from_bits(key.diag_bits));
        self.keys.insert(key)
    }

    /// Number of distinct behavior classes seen.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Union of all diagnostic codes any program exercised.
    pub fn diag_union(&self) -> DiagCoverage {
        self.diag_union
    }

    /// Deterministic multi-line rendering, one key per line — used by the
    /// CLI report and by the determinism acceptance test (same seed ⇒
    /// byte-identical render).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for k in &self.keys {
            out.push_str(&format!(
                "diag={:#04x} outcome={} forks^{} merges^{} restarts^{} live^{}\n",
                k.diag_bits, k.outcome, k.forks, k.merges, k.restarts, k.live
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(forks: u64, merges: u64, restarts: u64, live: usize) -> ExploreStats {
        ExploreStats {
            forks,
            merges,
            restarts,
            max_live_paths: live,
            ..ExploreStats::default()
        }
    }

    #[test]
    fn bucket_is_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(7), 3);
        assert_eq!(bucket(8), 4);
        assert_eq!(bucket(u64::MAX), 64);
    }

    #[test]
    fn novelty_respects_buckets_not_exact_values() {
        let mut map = CoverageMap::default();
        let d = DiagCoverage::EMPTY;
        assert!(map.insert(CoverageKey::new(d, "ok", &stats(2, 0, 0, 1))));
        // 3 forks lands in the same bucket as 2: not novel.
        assert!(!map.insert(CoverageKey::new(d, "ok", &stats(3, 0, 0, 1))));
        // 4 forks crosses a bucket boundary: novel.
        assert!(map.insert(CoverageKey::new(d, "ok", &stats(4, 0, 0, 1))));
        // Same metrics, different outcome: novel.
        assert!(map.insert(CoverageKey::new(d, "err:PathExplosion", &stats(4, 0, 0, 1))));
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut a = CoverageMap::default();
        let mut b = CoverageMap::default();
        let d = DiagCoverage::EMPTY;
        let k1 = CoverageKey::new(d, "ok", &stats(9, 1, 0, 4));
        let k2 = CoverageKey::new(d, "err:ArithmeticOverflow", &stats(0, 0, 0, 1));
        // Insertion order differs; render must not.
        a.insert(k1.clone());
        a.insert(k2.clone());
        b.insert(k2);
        b.insert(k1);
        assert_eq!(a.render(), b.render());
        assert!(a.render().lines().count() == 2);
    }
}
