//! The case registry: every Table 1 query UDA plus the adversarial
//! synthetics, each paired with its seeded event generator.

use symple_queries::bing_q::{b1_uda, b2_uda, b3_variants, gap_variants, B3Uda};
use symple_queries::funnel::{f1_variants, FunnelUda};
use symple_queries::generators;
use symple_queries::github_q::{
    g1_variants, g2_variants, g3_variants, g4_variants, G1Uda, G2Uda, G3Uda, G4Uda,
};
use symple_queries::redshift_q::{
    r1_variants, r2_variants, r3_uda, r3_variants, r4_variants, R1Uda, R2Uda, R4Uda,
};
use symple_queries::sessions::GpsSessionsUda;
use symple_queries::twitter_q::{t1_variants, T1Uda};

use crate::adversarial::{
    overflow_ints, overflow_variants, restart_ints, restart_variants, scaled_ints, scaled_variants,
    vector_ints, vector_variants, OverflowSumUda, RestartProneUda, ScaledReportUda, VectorHeavyUda,
};
use crate::case::{DynCase, UdaCase};

/// Every case the oracle sweeps: the 12 Table 1 query UDAs (plus the F1
/// funnel and the §4.4 GPS sessionizer), then the adversarial synthetics.
///
/// Cases carry their analyzer event variants so `--analyze-first` can
/// pre-flight each one; GPS has none (its event space — continuous
/// coordinates — has no finite variant enumeration), so the analyzer
/// simply never skips its cells.
pub fn all_cases() -> Vec<Box<dyn DynCase>> {
    vec![
        Box::new(UdaCase::new("G1", G1Uda, generators::github_ops).with_variants(g1_variants())),
        Box::new(UdaCase::new("G2", G2Uda, generators::github_ops).with_variants(g2_variants())),
        Box::new(UdaCase::new("G3", G3Uda, generators::github_ops).with_variants(g3_variants())),
        Box::new(
            UdaCase::new("G4", G4Uda, generators::github_op_times).with_variants(g4_variants()),
        ),
        Box::new(
            UdaCase::new("B1", b1_uda(), generators::timestamps).with_variants(gap_variants()),
        ),
        Box::new(
            UdaCase::new("B2", b2_uda(), generators::timestamps).with_variants(gap_variants()),
        ),
        Box::new(UdaCase::new("B3", B3Uda, generators::timestamps).with_variants(b3_variants())),
        Box::new(UdaCase::new("T1", T1Uda, generators::spam_flags).with_variants(t1_variants())),
        Box::new(UdaCase::new("R1", R1Uda, generators::unit_events).with_variants(r1_variants())),
        Box::new(UdaCase::new("R2", R2Uda, generators::country_codes).with_variants(r2_variants())),
        Box::new(UdaCase::new("R3", r3_uda(), generators::timestamps).with_variants(r3_variants())),
        Box::new(UdaCase::new("R4", R4Uda, generators::campaign_ids).with_variants(r4_variants())),
        Box::new(
            UdaCase::new("F1", FunnelUda, generators::funnel_events).with_variants(f1_variants()),
        ),
        Box::new(UdaCase::new("GPS", GpsSessionsUda, generators::gps_coords)),
        Box::new(
            UdaCase::new("OVF", OverflowSumUda, overflow_ints).with_variants(overflow_variants()),
        ),
        // Tree composition of RST's unmergeable restart chains is
        // exponential (paths multiply at every tree node); see
        // DynCase::supports.
        Box::new(
            UdaCase::new("RST", RestartProneUda, restart_ints)
                .without_tree_compose()
                .with_variants(restart_variants()),
        ),
        Box::new(UdaCase::new("VEC", VectorHeavyUda, vector_ints).with_variants(vector_variants())),
        Box::new(
            UdaCase::new("SUB", ScaledReportUda, scaled_ints).with_variants(scaled_variants()),
        ),
    ]
}

/// Looks up one case by id (artifact replay).
pub fn case_by_id(id: &str) -> Option<Box<dyn DynCase>> {
    all_cases().into_iter().find(|c| c.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CaseInput;
    use crate::case::Sabotage;
    use crate::cell::Cell;

    #[test]
    fn registry_covers_queries_and_synthetics() {
        let ids: Vec<&str> = all_cases().iter().map(|c| c.id()).collect();
        for required in [
            "G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4", "F1", "GPS",
            "OVF", "RST", "VEC",
        ] {
            assert!(ids.contains(&required), "missing case {required}");
        }
        assert!(case_by_id("G3").is_some());
        assert!(case_by_id("nope").is_none());
    }

    #[test]
    fn every_case_but_gps_is_analyzable() {
        for case in all_cases() {
            let analysis = case.analyze();
            if case.id() == "GPS" {
                assert!(analysis.is_none(), "GPS has no variant enumeration");
            } else {
                let a = analysis.unwrap_or_else(|| panic!("case {} lost its variants", case.id()));
                assert!(a.max_branching() >= 1, "case {}", case.id());
            }
        }
    }

    #[test]
    fn every_case_agrees_on_one_input() {
        let input = CaseInput::full(42, 30);
        let cell = Cell::default_chunked(3);
        for case in all_cases() {
            let expected = case.run_reference(&input);
            let actual = case.run_cell(&input, &cell, Sabotage::None);
            assert_eq!(expected, actual, "case {}", case.id());
        }
    }
}
