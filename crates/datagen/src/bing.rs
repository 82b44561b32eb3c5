//! Synthetic Bing-style query logs (queries B1–B3).
//!
//! The real dataset holds 1.9 billion queries (300 GB) and never leaves the
//! 380-node cluster. The generator emits a timestamp-ordered query stream
//! with the structure the three Bing queries mine:
//!
//! * **global outages** — configured windows in which *no* query succeeds
//!   (B1: "more than 2 minutes with no successful query by any user");
//! * **local outages** — windows in which one geographic area fails (B2);
//! * **user sessions** — per-user query bursts with < 2-minute gaps (B3).

use symple_core::rng::Rng64 as StdRng;

/// One query-log row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BingQuery {
    /// Querying user.
    pub user_id: u64,
    /// Geographic area of the query.
    pub geo: u32,
    /// Seconds since epoch; the stream is sorted by this field.
    pub timestamp: i64,
    /// Whether the query was answered successfully.
    pub success: bool,
    /// Hash of the query text (unused by the queries; raw-record ballast).
    pub query_hash: u64,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct BingConfig {
    /// Records to generate.
    pub num_records: usize,
    /// Distinct users (B3's group count regime).
    pub num_users: u64,
    /// Distinct geographic areas (B2's group count regime).
    pub num_geos: u32,
    /// Mean seconds between consecutive queries in the whole stream.
    pub mean_gap_s: f64,
    /// Global outage windows `(start, end)` in which no query succeeds.
    pub global_outages: Vec<(i64, i64)>,
    /// Per-geo outage windows `(geo, start, end)`.
    pub local_outages: Vec<(u32, i64, i64)>,
    /// Baseline probability a query fails outside outages.
    pub base_failure_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BingConfig {
    fn default() -> BingConfig {
        let t0 = START_TS;
        BingConfig {
            num_records: 100_000,
            num_users: 3_000,
            num_geos: 50,
            mean_gap_s: 1.0,
            global_outages: vec![(t0 + 20_000, t0 + 20_400), (t0 + 60_000, t0 + 60_200)],
            local_outages: vec![(7, t0 + 40_000, t0 + 44_000)],
            base_failure_rate: 0.02,
            seed: 0xb1_46,
        }
    }
}

/// Stream start timestamp.
pub const START_TS: i64 = 1_420_000_000;

/// Generates a timestamp-ordered Bing-style query stream.
pub fn generate_bing(cfg: &BingConfig) -> Vec<BingQuery> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ts = START_TS;
    let mut out: Vec<BingQuery> = Vec::with_capacity(cfg.num_records);
    for _ in 0..cfg.num_records {
        // Exponential-ish inter-arrival via geometric sampling.
        let gap = if rng.gen_bool((1.0 / cfg.mean_gap_s).clamp(0.01, 1.0)) {
            1
        } else {
            rng.gen_range(1..=(2.0 * cfg.mean_gap_s).ceil() as i64 + 1)
        };
        ts += gap;
        let geo = rng.gen_range(0..cfg.num_geos);
        // Session-biased user choice: half the time, reuse a recent user.
        let user_id = if rng.gen_bool(0.5) && !out.is_empty() {
            let back: usize = rng.gen_range(1..=out.len().min(20));
            out[out.len() - back].user_id
        } else {
            rng.gen_range(0..cfg.num_users)
        };
        let in_global_outage = cfg.global_outages.iter().any(|(s, e)| ts >= *s && ts < *e);
        let in_local_outage = cfg
            .local_outages
            .iter()
            .any(|(g, s, e)| *g == geo && ts >= *s && ts < *e);
        let success = !in_global_outage && !in_local_outage && !rng.gen_bool(cfg.base_failure_rate);
        out.push(BingQuery {
            user_id,
            geo,
            timestamp: ts,
            success,
            query_hash: rng.gen(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = BingConfig {
            num_records: 10_000,
            ..BingConfig::default()
        };
        let a = generate_bing(&cfg);
        assert_eq!(a, generate_bing(&cfg));
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn global_outages_have_no_successes() {
        let cfg = BingConfig {
            num_records: 100_000,
            ..BingConfig::default()
        };
        let qs = generate_bing(&cfg);
        for (s, e) in &cfg.global_outages {
            let in_window: Vec<_> = qs
                .iter()
                .filter(|q| q.timestamp >= *s && q.timestamp < *e)
                .collect();
            assert!(
                !in_window.is_empty(),
                "outage window should contain queries"
            );
            assert!(in_window.iter().all(|q| !q.success));
        }
    }

    #[test]
    fn local_outage_hits_only_its_geo() {
        let cfg = BingConfig {
            num_records: 100_000,
            ..BingConfig::default()
        };
        let qs = generate_bing(&cfg);
        let (geo, s, e) = cfg.local_outages[0];
        let in_window: Vec<_> = qs
            .iter()
            .filter(|q| q.timestamp >= s && q.timestamp < e && q.geo == geo)
            .collect();
        assert!(!in_window.is_empty());
        assert!(in_window.iter().all(|q| !q.success));
        // Other geos mostly succeed in that window.
        let others: Vec<_> = qs
            .iter()
            .filter(|q| q.timestamp >= s && q.timestamp < e && q.geo != geo)
            .collect();
        let ok = others.iter().filter(|q| q.success).count();
        assert!(ok * 2 > others.len(), "other geos should mostly succeed");
    }

    #[test]
    fn users_repeat_for_sessions() {
        let cfg = BingConfig {
            num_records: 10_000,
            ..BingConfig::default()
        };
        let qs = generate_bing(&cfg);
        let repeats = qs
            .windows(2)
            .filter(|w| w[0].user_id == w[1].user_id)
            .count();
        assert!(
            repeats > 100,
            "session bias should produce consecutive same-user queries"
        );
    }
}
