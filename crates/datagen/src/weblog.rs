//! Synthetic web-activity logs: the paper's motivating workload
//! (Figure 1 — search, read reviews, purchase).
//!
//! Used by the `purchase_funnel` example and the quickstart tests rather
//! than the evaluation figures; kept deliberately simple.

use symple_core::rng::Rng64 as StdRng;

/// What a user did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WebEventKind {
    /// Searched for an item.
    Search = 0,
    /// Read a review of the item they searched for.
    Review = 1,
    /// Purchased an item.
    Purchase = 2,
    /// Anything else (browse, click, …).
    Other = 3,
}

impl WebEventKind {
    /// The kind as a small integer.
    pub fn code(self) -> u32 {
        self as u32
    }
}

/// One user-activity event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WebEvent {
    /// The acting user (the groupby key in Figure 1).
    pub user_id: u64,
    /// What happened.
    pub kind: WebEventKind,
    /// The item involved.
    pub item_id: u64,
    /// Seconds since epoch; the stream is sorted by this field.
    pub timestamp: i64,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct WeblogConfig {
    /// Records to generate.
    pub num_records: usize,
    /// Distinct users.
    pub num_users: u64,
    /// Distinct items.
    pub num_items: u64,
    /// Probability a search funnel converts into ≥10 reviews + purchase.
    pub funnel_conversion: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WeblogConfig {
    fn default() -> WeblogConfig {
        WeblogConfig {
            num_records: 50_000,
            num_users: 500,
            num_items: 2_000,
            funnel_conversion: 0.2,
            seed: 0x3eb_106,
        }
    }
}

/// Generates a timestamp-ordered web activity stream containing genuine
/// Figure 1 funnels (search → ≥10 reviews → purchase).
pub fn generate_weblog(cfg: &WeblogConfig) -> Vec<WebEvent> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ts: i64 = 1_440_000_000;
    let mut out = Vec::with_capacity(cfg.num_records);
    while out.len() < cfg.num_records {
        ts += rng.gen_range(1..30);
        let user_id = rng.gen_range(0..cfg.num_users);
        let item_id = rng.gen_range(0..cfg.num_items);
        if rng.gen_bool(0.15) {
            // Start a funnel: search, then reviews, maybe purchase.
            out.push(WebEvent {
                user_id,
                kind: WebEventKind::Search,
                item_id,
                timestamp: ts,
            });
            let converts = rng.gen_bool(cfg.funnel_conversion);
            let reviews = if converts {
                rng.gen_range(11..20)
            } else {
                rng.gen_range(0..=10)
            };
            for _ in 0..reviews {
                ts += rng.gen_range(1..10);
                out.push(WebEvent {
                    user_id,
                    kind: WebEventKind::Review,
                    item_id,
                    timestamp: ts,
                });
            }
            if converts || rng.gen_bool(0.1) {
                ts += rng.gen_range(1..10);
                out.push(WebEvent {
                    user_id,
                    kind: WebEventKind::Purchase,
                    item_id,
                    timestamp: ts,
                });
            }
        } else {
            out.push(WebEvent {
                user_id,
                kind: WebEventKind::Other,
                item_id,
                timestamp: ts,
            });
        }
    }
    out.truncate(cfg.num_records);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = WeblogConfig {
            num_records: 10_000,
            ..WeblogConfig::default()
        };
        let a = generate_weblog(&cfg);
        assert_eq!(a, generate_weblog(&cfg));
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert_eq!(a.len(), 10_000);
    }

    #[test]
    fn funnels_exist() {
        let cfg = WeblogConfig {
            num_records: 20_000,
            ..WeblogConfig::default()
        };
        let events = generate_weblog(&cfg);
        let searches = events
            .iter()
            .filter(|e| e.kind == WebEventKind::Search)
            .count();
        let purchases = events
            .iter()
            .filter(|e| e.kind == WebEventKind::Purchase)
            .count();
        assert!(searches > 100);
        assert!(purchases > 10);
    }
}
