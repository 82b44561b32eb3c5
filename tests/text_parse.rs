//! Differential test of the log-line parsers: on hostile lines, every
//! `TextRecord::parse_line` must return exactly what the column-iterator
//! parser it replaced returned — the same record or the same refusal.
//!
//! [`Reference`] is that parser (`str::split(',')`, `str::get`,
//! `str::parse`, `u64::from_str_radix`), copied over public items with one
//! edit: [`unsigned`] refuses the leading sign `str::parse` takes, which
//! the byte cursor never accepted. The lines are generator output — a
//! quarter of them with full-width ids, so overflow is in reach of a single
//! inserted digit — under 1–3 byte-level mutations. Each mutated line is
//! parsed right after its clean original, so it meets `Cursor::datetime`'s
//! per-thread minute cache holding its own minute: a mutation in the stamp's
//! `:SS` tail is read by the cache-hit path, one in its first 16 bytes by a
//! miss.

use std::fmt::Debug;
use std::ops::Range;

use proptest::prelude::*;
use proptest::rng::TestRng;

use symple::datagen::{
    generate_bing, generate_github, generate_redshift, generate_twitter, generate_weblog,
    AdImpression, BingConfig, BingQuery, GithubConfig, GithubEvent, GithubOp, RedshiftConfig,
    TextRecord, Tweet, TwitterConfig, WebEvent, WebEventKind, WeblogConfig,
};

/// The reference's one edit: a numeric field that starts with a sign is
/// refused.
fn unsigned(s: &str) -> Option<&str> {
    (!s.starts_with(['+', '-'])).then_some(s)
}

fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn parse_datetime(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    if b.len() != 19
        || b[4] != b'-'
        || b[7] != b'-'
        || b[10] != b' '
        || b[13] != b':'
        || b[16] != b':'
    {
        return None;
    }
    let num = |r: Range<usize>| -> Option<i64> { unsigned(s.get(r)?)?.parse().ok() };
    let (y, m, d) = (num(0..4)?, num(5..7)? as u32, num(8..10)? as u32);
    let (h, mi, sec) = (num(11..13)?, num(14..16)?, num(17..19)?);
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || h > 23 || mi > 59 || sec > 59 {
        return None;
    }
    Some(days_from_civil(y, m, d) * 86_400 + h * 3_600 + mi * 60 + sec)
}

/// `col` is `prefix` then an unsigned decimal that fits `T`.
fn decimal<T: std::str::FromStr>(col: &str, prefix: &str) -> Option<T> {
    unsigned(col.strip_prefix(prefix)?)?.parse().ok()
}

const GITHUB_OP_NAMES: [&str; 10] = [
    "push",
    "pull_open",
    "pull_close",
    "delete",
    "branch_create",
    "branch_delete",
    "fork",
    "issue_open",
    "issue_close",
    "watch",
];

/// A record type with its generator and its pre-cursor parser.
trait Reference: TextRecord + PartialEq + Debug {
    /// `n` generator records.
    fn generate(n: usize, seed: u64) -> Vec<Self>;
    /// Overwrites the numeric ids with values drawn from their whole type.
    fn stretch(&mut self, rng: &mut TestRng);
    /// What `parse_line` returned before the byte cursor, signs refused.
    fn reference(line: &str) -> Option<Self>;
}

impl Reference for GithubEvent {
    fn generate(num_records: usize, seed: u64) -> Vec<Self> {
        generate_github(&GithubConfig {
            num_records,
            seed,
            ..Default::default()
        })
    }
    fn stretch(&mut self, rng: &mut TestRng) {
        self.repo_id = rng.next_u64();
        self.actor_id = rng.next_u64();
    }
    fn reference(line: &str) -> Option<Self> {
        let mut cols = line.split(',');
        let timestamp = parse_datetime(cols.next()?)?;
        let repo_id = decimal(cols.next()?, "repo_")?;
        let op_name = cols.next()?;
        let op_code = GITHUB_OP_NAMES.iter().position(|n| *n == op_name)? as u32;
        let op = GithubOp::from_code(op_code)?;
        let actor_id = decimal(cols.next()?, "actor_")?;
        let _ = cols.next()?; // filler
        Some(GithubEvent {
            repo_id,
            op,
            timestamp,
            actor_id,
        })
    }
}

impl Reference for BingQuery {
    fn generate(num_records: usize, seed: u64) -> Vec<Self> {
        generate_bing(&BingConfig {
            num_records,
            seed,
            ..Default::default()
        })
    }
    fn stretch(&mut self, rng: &mut TestRng) {
        self.user_id = rng.next_u64();
        self.geo = rng.next_u64() as u32;
        self.query_hash = rng.next_u64();
    }
    fn reference(line: &str) -> Option<Self> {
        let mut cols = line.split(',');
        let timestamp = parse_datetime(cols.next()?)?;
        let user_id = decimal(cols.next()?, "user_")?;
        let geo = decimal(cols.next()?, "geo_")?;
        let success = match cols.next()? {
            "ok" => true,
            "fail" => false,
            _ => return None,
        };
        let query_hash =
            u64::from_str_radix(unsigned(cols.next()?.strip_prefix("q_")?)?, 16).ok()?;
        let _ = cols.next()?;
        Some(BingQuery {
            user_id,
            geo,
            timestamp,
            success,
            query_hash,
        })
    }
}

impl Reference for Tweet {
    fn generate(num_records: usize, seed: u64) -> Vec<Self> {
        generate_twitter(&TwitterConfig {
            num_records,
            seed,
            ..Default::default()
        })
    }
    fn stretch(&mut self, rng: &mut TestRng) {
        self.hashtag_id = rng.next_u64();
        self.user_id = rng.next_u64();
    }
    fn reference(line: &str) -> Option<Self> {
        let mut cols = line.split(',');
        let timestamp = parse_datetime(cols.next()?)?;
        let hashtag_id = decimal(cols.next()?, "tag_")?;
        let user_id = decimal(cols.next()?, "user_")?;
        let is_spam = match cols.next()? {
            "spam" => true,
            "ham" => false,
            _ => return None,
        };
        let _ = cols.next()?;
        Some(Tweet {
            hashtag_id,
            user_id,
            timestamp,
            is_spam,
        })
    }
}

impl Reference for AdImpression {
    fn generate(num_records: usize, seed: u64) -> Vec<Self> {
        generate_redshift(&RedshiftConfig {
            num_records,
            seed,
            ..Default::default()
        })
    }
    fn stretch(&mut self, rng: &mut TestRng) {
        self.advertiser_id = rng.next_u64() as u32;
        self.campaign_id = rng.next_u64() as u32;
        self.country = rng.next_u64() as u8;
    }
    fn reference(line: &str) -> Option<Self> {
        let mut cols = line.split(',');
        let timestamp = parse_datetime(cols.next()?)?;
        let advertiser_id = decimal(cols.next()?, "adv_")?;
        let campaign_id = decimal(cols.next()?, "camp_")?;
        let country = decimal(cols.next()?, "cc_")?;
        let _ = cols.next()?;
        Some(AdImpression {
            advertiser_id,
            campaign_id,
            timestamp,
            country,
        })
    }
}

impl Reference for WebEvent {
    fn generate(num_records: usize, seed: u64) -> Vec<Self> {
        generate_weblog(&WeblogConfig {
            num_records,
            seed,
            ..Default::default()
        })
    }
    fn stretch(&mut self, rng: &mut TestRng) {
        self.user_id = rng.next_u64();
        self.item_id = rng.next_u64();
    }
    fn reference(line: &str) -> Option<Self> {
        let mut cols = line.split(',');
        let timestamp = parse_datetime(cols.next()?)?;
        let user_id = decimal(cols.next()?, "user_")?;
        let kind = match cols.next()? {
            "search" => WebEventKind::Search,
            "review" => WebEventKind::Review,
            "purchase" => WebEventKind::Purchase,
            "other" => WebEventKind::Other,
            _ => return None,
        };
        let item_id = decimal(cols.next()?, "item_")?;
        let _ = cols.next()?;
        Some(WebEvent {
            user_id,
            kind,
            item_id,
            timestamp,
        })
    }
}

/// What a mutation writes: both digit classes in both cases, every
/// separator the format uses, the signs, a letter of the prefixes, and one
/// character that is two bytes of UTF-8.
const ALPHABET: &str = "0123456789abcdefABCDEFx_+-,: é";

/// 1–3 replacements, insertions or deletions at uniform positions.
fn mutate(line: &str, alphabet: &[char], rng: &mut TestRng) -> String {
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..1 + below(3) {
        let c = alphabet[below(alphabet.len())];
        match below(3) {
            0 if !chars.is_empty() => {
                let at = below(chars.len());
                chars[at] = c;
            }
            1 if !chars.is_empty() => {
                chars.remove(below(chars.len()));
            }
            _ => chars.insert(below(chars.len() + 1), c),
        }
    }
    chars.into_iter().collect()
}

/// Mutated lines per case: 5 record types × 64 cases × 400 = 128 000.
const LINES_PER_CASE: usize = 400;

fn agrees_with_reference<R: Reference>(seed: u64) -> TestCaseResult {
    let mut rng = TestRng::new(seed);
    let mut records = R::generate(LINES_PER_CASE, seed);
    prop_assert_eq!(records.len(), LINES_PER_CASE);
    for r in records.iter_mut().step_by(4) {
        r.stretch(&mut rng);
    }
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let mut accepted = 0;
    let mut line = String::new();
    for r in &records {
        line.clear();
        r.to_line(&mut line);
        // The clean line first, so the mutated one meets a minute cache
        // primed with its own minute.
        prop_assert_eq!(
            &R::parse_line(&line),
            &R::reference(&line),
            "parse_line (left) against the reference (right) on {:?}",
            line
        );
        let mutated = mutate(&line, &alphabet, &mut rng);
        let parsed = R::parse_line(&mutated);
        prop_assert_eq!(
            &parsed,
            &R::reference(&mutated),
            "parse_line (left) against the reference (right) on {:?}, mutated from {:?}",
            mutated,
            line
        );
        accepted += usize::from(parsed.is_some());
    }
    // A property over refusals alone would pass for a parser that refuses
    // everything.
    prop_assert!(
        accepted * 100 >= LINES_PER_CASE,
        "only {accepted} of {LINES_PER_CASE} mutated lines were accepted"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn github_agrees_with_reference(seed in any::<u64>()) {
        agrees_with_reference::<GithubEvent>(seed)?;
    }

    #[test]
    fn bing_agrees_with_reference(seed in any::<u64>()) {
        agrees_with_reference::<BingQuery>(seed)?;
    }

    #[test]
    fn tweet_agrees_with_reference(seed in any::<u64>()) {
        agrees_with_reference::<Tweet>(seed)?;
    }

    #[test]
    fn impression_agrees_with_reference(seed in any::<u64>()) {
        agrees_with_reference::<AdImpression>(seed)?;
    }

    #[test]
    fn web_event_agrees_with_reference(seed in any::<u64>()) {
        agrees_with_reference::<WebEvent>(seed)?;
    }
}
