//! Synthetic RedShift-benchmark ad impressions (queries R1–R4).
//!
//! The real dataset is the Amazon Redshift benchmark: 1.2 TB, four months
//! of ad impressions over 10 K advertisers. The queries use four columns —
//! advertiser, campaign, timestamp, country — which is also the paper's
//! "condensed" variant (50 GB). The generator injects the mined patterns:
//!
//! * single-country advertisers (R2's answer set);
//! * serving gaps of more than an hour per advertiser (R3);
//! * runs in which only a single campaign of an advertiser shows (R4).

use symple_core::rng::Rng64 as StdRng;

/// One ad impression row (the four used columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdImpression {
    /// Advertiser (the grouping key for R1–R4).
    pub advertiser_id: u32,
    /// Campaign within the advertiser.
    pub campaign_id: u32,
    /// Seconds since epoch; the stream is sorted by this field.
    pub timestamp: i64,
    /// Country code the impression was served in.
    pub country: u8,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct RedshiftConfig {
    /// Records to generate.
    pub num_records: usize,
    /// Distinct advertisers (the paper's 10 K, scaled down).
    pub num_advertisers: u32,
    /// Campaigns per advertiser.
    pub campaigns_per_advertiser: u32,
    /// Number of countries.
    pub num_countries: u8,
    /// Fraction of advertisers operating in a single country (R2).
    pub single_country_fraction: f64,
    /// Probability that an advertiser's impression starts a serving gap
    /// longer than an hour (R3's pattern; implemented as timestamp jumps).
    pub gap_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RedshiftConfig {
    fn default() -> RedshiftConfig {
        RedshiftConfig {
            num_records: 100_000,
            num_advertisers: 500,
            campaigns_per_advertiser: 8,
            num_countries: 30,
            single_country_fraction: 0.2,
            gap_probability: 0.0005,
            seed: 0x4ed5,
        }
    }
}

/// Generates a timestamp-ordered ad-impression stream.
pub fn generate_redshift(cfg: &RedshiftConfig) -> Vec<AdImpression> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ts: i64 = 1_410_000_000; // ≈ 4 months before the github end.
    let mut out = Vec::with_capacity(cfg.num_records);
    // Advertisers below the cutoff operate in exactly one country.
    let single_cutoff = (cfg.single_country_fraction * cfg.num_advertisers as f64) as u32;
    // Advertisers currently "paused": impressions suppressed until the
    // stored resume timestamp (creates R3's >1 h serving gaps).
    let mut paused_until: std::collections::HashMap<u32, i64> = std::collections::HashMap::new();
    // Last campaign served per advertiser (drives R4's campaign runs).
    let mut last_campaign: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();

    for _ in 0..cfg.num_records {
        ts += rng.gen_range(0..6);
        let mut advertiser_id = rng.gen_range(0..cfg.num_advertisers);
        // Respect pauses: skip to another advertiser if paused.
        for _ in 0..4 {
            match paused_until.get(&advertiser_id) {
                Some(until) if ts < *until => {
                    advertiser_id = rng.gen_range(0..cfg.num_advertisers);
                }
                _ => break,
            }
        }
        if rng.gen_bool(cfg.gap_probability) {
            // Start a gap of 1–6 hours for this advertiser.
            let gap = rng.gen_range(3_700..=21_600);
            paused_until.insert(advertiser_id, ts + gap);
        }
        let country = if advertiser_id < single_cutoff {
            (advertiser_id % u32::from(cfg.num_countries)) as u8
        } else {
            rng.gen_range(0..cfg.num_countries)
        };
        // Campaign runs: reuse the previous campaign of this advertiser
        // with high probability so R4's "single-campaign runs" exist.
        let campaign_id = if rng.gen_bool(0.85) {
            last_campaign
                .get(&advertiser_id)
                .copied()
                .unwrap_or_else(|| rng.gen_range(0..cfg.campaigns_per_advertiser))
        } else {
            rng.gen_range(0..cfg.campaigns_per_advertiser)
        };
        last_campaign.insert(advertiser_id, campaign_id);
        out.push(AdImpression {
            advertiser_id,
            campaign_id,
            timestamp: ts,
            country,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = RedshiftConfig {
            num_records: 20_000,
            ..RedshiftConfig::default()
        };
        let a = generate_redshift(&cfg);
        assert_eq!(a, generate_redshift(&cfg));
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn single_country_advertisers() {
        let cfg = RedshiftConfig {
            num_records: 50_000,
            ..RedshiftConfig::default()
        };
        let imps = generate_redshift(&cfg);
        let cutoff = (cfg.single_country_fraction * cfg.num_advertisers as f64) as u32;
        for a in 0..cutoff {
            let countries: std::collections::HashSet<u8> = imps
                .iter()
                .filter(|i| i.advertiser_id == a)
                .map(|i| i.country)
                .collect();
            assert!(countries.len() <= 1, "advertiser {a} spans {countries:?}");
        }
        // Multi-country advertisers exist.
        let big: std::collections::HashSet<u8> = imps
            .iter()
            .filter(|i| i.advertiser_id == cfg.num_advertisers - 1)
            .map(|i| i.country)
            .collect();
        assert!(big.len() > 1);
    }

    #[test]
    fn serving_gaps_exist() {
        let cfg = RedshiftConfig {
            num_records: 100_000,
            gap_probability: 0.002,
            ..RedshiftConfig::default()
        };
        let imps = generate_redshift(&cfg);
        // Some advertiser must have a >1h gap between consecutive
        // impressions.
        let mut last: std::collections::HashMap<u32, i64> = std::collections::HashMap::new();
        let mut found = false;
        for i in &imps {
            if let Some(prev) = last.insert(i.advertiser_id, i.timestamp) {
                if i.timestamp - prev > 3_600 {
                    found = true;
                }
            }
        }
        assert!(found, "no serving gap was generated");
    }

    #[test]
    fn campaign_runs_exist() {
        let cfg = RedshiftConfig {
            num_records: 30_000,
            ..RedshiftConfig::default()
        };
        let imps = generate_redshift(&cfg);
        // Per-advertiser streams should contain repeats of campaigns.
        let mut repeats = 0;
        let mut last: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for i in &imps {
            if last.insert(i.advertiser_id, i.campaign_id) == Some(i.campaign_id) {
                repeats += 1;
            }
        }
        assert!(
            repeats > imps.len() / 4,
            "campaign runs too rare: {repeats}"
        );
    }
}
