//! Synthetic Twitter-style tweet logs (query T1).
//!
//! The real dataset holds all tweets in a 24-hour period (1.23 TB). T1
//! measures *spam learning speed*: per hashtag, the number of tweets **not**
//! marked as spam that precede a run of at least 5 tweets marked as spam.
//! The generator injects exactly that structure: per-hashtag streams that
//! start clean and, for a configurable fraction of hashtags, flip into a
//! spam burst once the (simulated) spam classifier catches on.

use symple_core::rng::Rng64 as StdRng;

/// One tweet row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tweet {
    /// Hashtag the tweet is grouped by.
    pub hashtag_id: u64,
    /// Authoring user.
    pub user_id: u64,
    /// Seconds since epoch; the stream is sorted by this field.
    pub timestamp: i64,
    /// Whether the spam classifier marked this tweet as spam.
    pub is_spam: bool,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TwitterConfig {
    /// Records to generate.
    pub num_records: usize,
    /// Distinct hashtags (T1's group-count regime: large).
    pub num_hashtags: u64,
    /// Fraction of hashtags that are spam campaigns.
    pub spam_fraction: f64,
    /// Mean number of clean tweets before a spam hashtag's burst starts.
    pub mean_learning_tweets: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwitterConfig {
    fn default() -> TwitterConfig {
        TwitterConfig {
            num_records: 100_000,
            num_hashtags: 5_000,
            spam_fraction: 0.1,
            mean_learning_tweets: 8,
            seed: 0x73_11,
        }
    }
}

/// Generates a timestamp-ordered tweet stream.
pub fn generate_twitter(cfg: &TwitterConfig) -> Vec<Tweet> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ts: i64 = 1_430_000_000;
    let mut out = Vec::with_capacity(cfg.num_records);
    // Per-hashtag clean-tweet budget before spam marking kicks in.
    let mut clean_left: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let spam_cutoff = (cfg.spam_fraction * cfg.num_hashtags as f64) as u64;

    for _ in 0..cfg.num_records {
        ts += rng.gen_range(0..3);
        let hashtag_id = rng.gen_range(0..cfg.num_hashtags);
        let is_spam_campaign = hashtag_id < spam_cutoff;
        let is_spam = if is_spam_campaign {
            let left = clean_left
                .entry(hashtag_id)
                .or_insert_with(|| rng.gen_range(1..=cfg.mean_learning_tweets * 2));
            if *left > 0 {
                *left -= 1;
                false
            } else {
                true // The classifier has learned: everything is marked.
            }
        } else {
            rng.gen_bool(0.01) // Sporadic false positives elsewhere.
        };
        out.push(Tweet {
            hashtag_id,
            user_id: rng.gen_range(0..100_000),
            timestamp: ts,
            is_spam,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = TwitterConfig {
            num_records: 20_000,
            ..TwitterConfig::default()
        };
        let a = generate_twitter(&cfg);
        assert_eq!(a, generate_twitter(&cfg));
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn spam_hashtags_flip_clean_then_spam() {
        let cfg = TwitterConfig {
            num_records: 50_000,
            num_hashtags: 100,
            ..TwitterConfig::default()
        };
        let tweets = generate_twitter(&cfg);
        let spam_cutoff = (cfg.spam_fraction * cfg.num_hashtags as f64) as u64;
        // For a spam hashtag: once spam starts, it never reverts.
        for h in 0..spam_cutoff {
            let marks: Vec<bool> = tweets
                .iter()
                .filter(|t| t.hashtag_id == h)
                .map(|t| t.is_spam)
                .collect();
            if marks.len() < 10 {
                continue;
            }
            let first_spam = marks.iter().position(|m| *m);
            if let Some(p) = first_spam {
                assert!(
                    marks[p..].iter().all(|m| *m),
                    "hashtag {h} reverted to clean"
                );
                assert!(p >= 1, "hashtag {h} had no learning phase");
            }
        }
    }
}
