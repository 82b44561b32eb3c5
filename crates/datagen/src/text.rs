//! Textual record format: CSV-ish log lines with real datetime fields.
//!
//! The paper's mappers read raw ≈1 KB records and discard most fields; it
//! even observes that R3c's runtime "is dominated by C standard lib
//! datetime parsing" (§6.3). To reproduce that cost profile, every dataset
//! can be rendered to (and parsed from) log lines whose timestamps are
//! `YYYY-MM-DD HH:MM:SS` strings, with filler columns standing in for the
//! fields real logs carry but the queries discard.
//!
//! # What `parse_line` accepts
//!
//! Each parser is one strict forward pass over the line's bytes (the
//! private `Cursor`), and it validates every column it reads:
//!
//! * the datetime is exactly 19 bytes, its numbers ASCII digits;
//! * a numeric column is its literal prefix (`user_`, `q_`, …), then one or
//!   more ASCII digits — decimal, or hex of either case for `q_` — and
//!   nothing else: no sign, no space. Leading zeros beyond the printed
//!   width are fine at any length; a value past the field type's maximum
//!   is not;
//! * a word column (`ok`/`fail`, `spam`/`ham`, the op and kind names)
//!   matches one of its names byte for byte;
//! * every such column ends at a `,`. The last `,` is what shows the filler
//!   column to exist, so a line that ends before it is refused.
//!
//! Nothing after that last `,` is read: the filler may be empty, hold any
//! bytes, and be followed by further columns. Any other byte that does not
//! fit — a non-ASCII one included — makes the line `None`, never a panic.
//!
//! # How a line is read
//!
//! Two of the `Cursor`'s reads have a fast path in front of the checked
//! one, and neither changes what is accepted:
//!
//! * a datetime whose first 16 bytes (`YYYY-MM-DD HH:MM`) equal those of
//!   the last stamp this thread validated in full reuses that stamp's
//!   minute and checks only its `:SS` tail. Equal bytes make the same
//!   minute a full validation would. The generated streams are sorted by
//!   time, so most consecutive lines share a minute (GitHub's, one event
//!   every minute or so, least often);
//! * a numeric column whose `,` is one of its next 17 bytes is read 8
//!   bytes at a time: the `,` found by a zero-byte test on each word, then
//!   1–8 decimal digits validated and converted as one word (3 multiplies)
//!   or 1–16 hex digits by a table loop with no branch per digit. Neither
//!   can overflow a `u64`. Any other column — a longer one, one that ends
//!   the line, one with a byte that is not a digit — goes to the checked
//!   byte loop, which alone refuses.
//!
//! `tests/text_parse.rs` holds every `parse_line` to the column-iterator
//! parser these replaced, on mutated lines that meet a warm minute.

use std::cell::Cell;

use crate::{AdImpression, BingQuery, GithubEvent, GithubOp, Tweet, WebEvent, WebEventKind};

/// Days from civil date — Howard Hinnant's algorithm.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date from days — the inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Formats an epoch second as `YYYY-MM-DD HH:MM:SS`.
pub fn format_datetime(epoch: i64, out: &mut String) {
    use std::fmt::Write;
    let days = epoch.div_euclid(86_400);
    let secs = epoch.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    let (h, mi, s) = (secs / 3_600, (secs / 60) % 60, secs % 60);
    let _ = write!(out, "{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}");
}

/// Parses `YYYY-MM-DD HH:MM:SS` into an epoch second: exactly 19 bytes,
/// ASCII digits only (no sign, no space padding), month 1–12, day 1–31
/// (not checked against the month), hour 0–23, minute and second 0–59.
pub fn parse_datetime(s: &str) -> Option<i64> {
    let mut c = Cursor(s.as_bytes());
    let t = c.datetime()?;
    c.0.is_empty().then_some(t)
}

const NOT_A_DIGIT: u8 = 0xff;

/// `DIGIT[b]` is the value of the ASCII hex digit `b` (either case), and
/// `NOT_A_DIGIT` for every other byte, so one load classifies a byte for
/// both radixes: it is a digit of radix `r` iff `DIGIT[b] < r`.
const DIGIT: [u8; 256] = {
    let mut t = [NOT_A_DIGIT; 256];
    let mut v = 0;
    while v < 16 {
        t[b"0123456789abcdef"[v] as usize] = v as u8;
        t[b"0123456789ABCDEF"[v] as usize] = v as u8;
        v += 1;
    }
    t
};

/// The value of the decimal digit pair `hi lo`.
fn two_digits(hi: u8, lo: u8) -> Option<i64> {
    let (hi, lo) = (DIGIT[hi as usize], DIGIT[lo as usize]);
    (hi < 10 && lo < 10).then(|| i64::from(hi * 10 + lo))
}

/// The epoch minute of a stamp's `YYYY-MM-DD HH:MM` prefix, validated in
/// full.
fn epoch_minute(b: &[u8; 16]) -> Option<i64> {
    if b[4] != b'-' || b[7] != b'-' || b[10] != b' ' || b[13] != b':' {
        return None;
    }
    let two = |i: usize| two_digits(b[i], b[i + 1]);
    let (y, m, d) = (two(0)? * 100 + two(2)?, two(5)? as u32, two(8)? as u32);
    let (h, mi) = (two(11)?, two(14)?);
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || h > 23 || mi > 59 {
        return None;
    }
    Some(days_from_civil(y, m, d) * 1_440 + h * 60 + mi)
}

thread_local! {
    /// The 16-byte prefix of the last stamp this thread validated in full,
    /// as a little-endian word, and its epoch minute. It starts as `0xff`
    /// bytes, which are not UTF-8, so no line's prefix can equal it before
    /// a stamp is validated.
    static LAST_MINUTE: Cell<(u128, i64)> = const { Cell::new((u128::MAX, 0)) };
}

/// `b` in each of a word's 8 byte lanes.
const fn lanes(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// The index of the first `,` among a word's 8 bytes, 8 if there is none.
/// The zero-byte test on `word ^ ",,,,,,,,"` can flag a lane above a zero
/// lane as well, never one below the first.
fn first_comma(word: u64) -> usize {
    let x = word ^ lanes(b',');
    ((x.wrapping_sub(lanes(1)) & !x & lanes(0x80)).trailing_zeros() / 8) as usize
}

/// The value of 8 lanes of decimal digit values (0–9), the lowest lane the
/// most significant: pairs, then quads, then the whole, one multiply each.
fn eight_digits(w: u64) -> u64 {
    let w = w.wrapping_mul(10 << 8 | 1) >> 8;
    let w = (w & 0x00ff_00ff_00ff_00ff).wrapping_mul(100 << 16 | 1) >> 16;
    (w & 0x0000_ffff_0000_ffff).wrapping_mul(10_000 << 32 | 1) >> 32
}

/// The fast path of [`Cursor::number`]: a column of 1–8 decimal or 1–16
/// hex digits whose `,` is one of the next 17 bytes, its value and the
/// bytes after the `,`. `None` means only that the column is something
/// else, for the checked loop to decide.
fn short_number<const RADIX: u64>(s: &[u8]) -> Option<(u64, &[u8])> {
    const { assert!(RADIX == 10 || RADIX == 16) };
    let (lo, rest) = s.split_first_chunk::<8>()?;
    let (hi, rest) = rest.split_first_chunk::<8>()?;
    let lo = u64::from_le_bytes(*lo);
    let n = match first_comma(lo) {
        8 => match first_comma(u64::from_le_bytes(*hi)) {
            8 if rest.first() == Some(&b',') => 16,
            8 => return None,
            m => 8 + m,
        },
        n => n,
    };
    if n == 0 {
        return None;
    }
    let value = if RADIX == 10 {
        if n > 8 {
            return None;
        }
        // Digit values in the top n lanes, zeros below. A lane is 0–9 iff
        // neither it nor it plus 0x76 has its top bit set; a carry out of
        // a lane needs its top bit set already.
        let v = (lo ^ lanes(b'0')) << (64 - 8 * n as u32);
        if (v.wrapping_add(lanes(0x76)) | v) & lanes(0x80) != 0 {
            return None;
        }
        eight_digits(v)
    } else {
        // Hex digit values fit 4 bits and `NOT_A_DIGIT` does not, so one
        // stray byte leaves `seen` at 16 or more.
        let (mut value, mut seen) = (0, 0);
        for &b in &s[..n] {
            let d = DIGIT[b as usize];
            seen |= d;
            value = value << 4 | u64::from(d & 0xf);
        }
        if seen >= 16 {
            return None;
        }
        value
    };
    Some((value, &s[n + 1..]))
}

/// The unread rest of a line. Every `parse_line` is one forward pass of
/// these reads, each of which consumes what it accepts or returns `None`.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// Consumes exactly `prefix`.
    fn lit(&mut self, prefix: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(prefix)?;
        Some(())
    }

    /// Consumes the 19 bytes of a `YYYY-MM-DD HH:MM:SS` stamp. Its first 16
    /// are validated only when they differ from the last stamp's this
    /// thread validated in full ([`LAST_MINUTE`]).
    fn datetime(&mut self) -> Option<i64> {
        let (prefix, rest) = self.0.split_first_chunk::<16>()?;
        let (&[colon, hi, lo], rest) = rest.split_first_chunk::<3>()?;
        let sec = two_digits(hi, lo).filter(|&s| colon == b':' && s <= 59)?;
        let key = u128::from_le_bytes(*prefix);
        let (last, minute) = LAST_MINUTE.get();
        let minute = if key == last {
            minute
        } else {
            let minute = epoch_minute(prefix)?;
            LAST_MINUTE.set((key, minute));
            minute
        };
        self.0 = rest;
        Some(minute * 60 + sec)
    }

    /// Consumes one or more digits of `RADIX` (10 or 16) and the `,` that
    /// ends the column: any number of leading zeros, `None` once the value
    /// passes `u64::MAX`, on any other byte, and at the end of the line.
    fn number<const RADIX: u64>(&mut self) -> Option<u64> {
        if let Some((v, rest)) = short_number::<RADIX>(self.0) {
            self.0 = rest;
            return Some(v);
        }
        let digit = |b: u8| {
            let d = u64::from(DIGIT[b as usize]);
            (d < RADIX).then_some(d)
        };
        let (&first, mut rest) = self.0.split_first()?;
        let mut v = digit(first)?;
        loop {
            let (&b, tail) = rest.split_first()?;
            rest = tail;
            if b == b',' {
                self.0 = rest;
                return Some(v);
            }
            v = v.checked_mul(RADIX)?.checked_add(digit(b)?)?;
        }
    }

    /// A decimal column (see [`Cursor::number`]) whose value fits `T`.
    fn decimal<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.number::<10>()?).ok()
    }

    /// Consumes the bytes up to the next `,`, and the `,`.
    fn word(&mut self) -> Option<&'a [u8]> {
        let end = self.0.iter().position(|&b| b == b',')?;
        let (word, rest) = self.0.split_at(end);
        self.0 = &rest[1..];
        Some(word)
    }
}

/// Records that can be rendered to and parsed from a log line.
///
/// `to_line` appends a line *without* the trailing newline; `parse_line`
/// must accept exactly what `to_line` produced (round-trip identity is
/// property-tested). What else it accepts is the [module](self)'s accept
/// set, held to the parser it replaced by `tests/text_parse.rs`.
pub trait TextRecord: Sized {
    /// Appends the record as a log line.
    fn to_line(&self, out: &mut String);
    /// Parses a log line.
    fn parse_line(line: &str) -> Option<Self>;
}

/// Renders a record list to lines.
pub fn to_lines<R: TextRecord>(records: &[R]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let mut s = String::with_capacity(96);
            r.to_line(&mut s);
            s
        })
        .collect()
}

/// Filler column emulating a log field the queries discard.
fn filler(seed: u64, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(out, "{:016x}", seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
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

impl TextRecord for GithubEvent {
    fn to_line(&self, out: &mut String) {
        use std::fmt::Write;
        format_datetime(self.timestamp, out);
        let _ = write!(
            out,
            ",repo_{:08},{},actor_{:06},",
            self.repo_id, GITHUB_OP_NAMES[self.op as usize], self.actor_id
        );
        filler(self.repo_id ^ self.actor_id, out);
    }
    fn parse_line(line: &str) -> Option<Self> {
        let mut c = Cursor(line.as_bytes());
        let timestamp = c.datetime()?;
        c.lit(b",repo_")?;
        let repo_id = c.decimal()?;
        let op_name = c.word()?;
        let op_code = GITHUB_OP_NAMES
            .iter()
            .position(|n| n.as_bytes() == op_name)?;
        let op = GithubOp::from_code(op_code as u32)?;
        c.lit(b"actor_")?;
        let actor_id = c.decimal()?;
        Some(GithubEvent {
            repo_id,
            op,
            timestamp,
            actor_id,
        })
    }
}

impl TextRecord for BingQuery {
    fn to_line(&self, out: &mut String) {
        use std::fmt::Write;
        format_datetime(self.timestamp, out);
        let _ = write!(
            out,
            ",user_{:08},geo_{:03},{},q_{:016x},",
            self.user_id,
            self.geo,
            if self.success { "ok" } else { "fail" },
            self.query_hash
        );
        filler(self.user_id ^ self.query_hash, out);
    }
    fn parse_line(line: &str) -> Option<Self> {
        let mut c = Cursor(line.as_bytes());
        let timestamp = c.datetime()?;
        c.lit(b",user_")?;
        let user_id = c.decimal()?;
        c.lit(b"geo_")?;
        let geo = c.decimal()?;
        let success = match c.word()? {
            b"ok" => true,
            b"fail" => false,
            _ => return None,
        };
        c.lit(b"q_")?;
        let query_hash = c.number::<16>()?;
        Some(BingQuery {
            user_id,
            geo,
            timestamp,
            success,
            query_hash,
        })
    }
}

impl TextRecord for Tweet {
    fn to_line(&self, out: &mut String) {
        use std::fmt::Write;
        format_datetime(self.timestamp, out);
        let _ = write!(
            out,
            ",tag_{:08},user_{:08},{},",
            self.hashtag_id,
            self.user_id,
            if self.is_spam { "spam" } else { "ham" }
        );
        filler(self.hashtag_id ^ self.user_id, out);
    }
    fn parse_line(line: &str) -> Option<Self> {
        let mut c = Cursor(line.as_bytes());
        let timestamp = c.datetime()?;
        c.lit(b",tag_")?;
        let hashtag_id = c.decimal()?;
        c.lit(b"user_")?;
        let user_id = c.decimal()?;
        let is_spam = match c.word()? {
            b"spam" => true,
            b"ham" => false,
            _ => return None,
        };
        Some(Tweet {
            hashtag_id,
            user_id,
            timestamp,
            is_spam,
        })
    }
}

impl TextRecord for AdImpression {
    fn to_line(&self, out: &mut String) {
        use std::fmt::Write;
        format_datetime(self.timestamp, out);
        let _ = write!(
            out,
            ",adv_{:06},camp_{:04},cc_{:03},",
            self.advertiser_id, self.campaign_id, self.country
        );
        filler(
            u64::from(self.advertiser_id) ^ u64::from(self.campaign_id),
            out,
        );
    }
    fn parse_line(line: &str) -> Option<Self> {
        let mut c = Cursor(line.as_bytes());
        let timestamp = c.datetime()?;
        c.lit(b",adv_")?;
        let advertiser_id = c.decimal()?;
        c.lit(b"camp_")?;
        let campaign_id = c.decimal()?;
        c.lit(b"cc_")?;
        let country = c.decimal()?;
        Some(AdImpression {
            advertiser_id,
            campaign_id,
            timestamp,
            country,
        })
    }
}

const WEB_KIND_NAMES: [&str; 4] = ["search", "review", "purchase", "other"];

impl TextRecord for WebEvent {
    fn to_line(&self, out: &mut String) {
        use std::fmt::Write;
        format_datetime(self.timestamp, out);
        let _ = write!(
            out,
            ",user_{:08},{},item_{:08},",
            self.user_id, WEB_KIND_NAMES[self.kind as usize], self.item_id
        );
        filler(self.user_id ^ self.item_id, out);
    }
    fn parse_line(line: &str) -> Option<Self> {
        let mut c = Cursor(line.as_bytes());
        let timestamp = c.datetime()?;
        c.lit(b",user_")?;
        let user_id = c.decimal()?;
        let kind = match c.word()? {
            b"search" => WebEventKind::Search,
            b"review" => WebEventKind::Review,
            b"purchase" => WebEventKind::Purchase,
            b"other" => WebEventKind::Other,
            _ => return None,
        };
        c.lit(b"item_")?;
        let item_id = c.decimal()?;
        Some(WebEvent {
            user_id,
            kind,
            item_id,
            timestamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datetime_roundtrip_known_values() {
        let mut s = String::new();
        format_datetime(0, &mut s);
        assert_eq!(s, "1970-01-01 00:00:00");
        s.clear();
        format_datetime(1_420_070_400, &mut s);
        assert_eq!(s, "2015-01-01 00:00:00");
        assert_eq!(parse_datetime("2015-01-01 00:00:00"), Some(1_420_070_400));
        assert_eq!(parse_datetime("1970-01-01 00:00:01"), Some(1));
    }

    #[test]
    fn datetime_roundtrip_sweep() {
        // Sweep across leap years, month ends and random offsets.
        for base in [
            0i64,
            951_782_400,
            1_330_000_000,
            1_456_704_000,
            4_102_444_800,
        ] {
            for off in [0i64, 1, 59, 3_600, 86_399, 86_400, 2_678_400, 31_536_000] {
                let t = base + off;
                let mut s = String::new();
                format_datetime(t, &mut s);
                assert_eq!(parse_datetime(&s), Some(t), "t={t} s={s}");
            }
        }
    }

    #[test]
    fn datetime_rejects_malformed() {
        for bad in [
            "2015-01-01",
            "2015/01/01 00:00:00",
            "2015-13-01 00:00:00",
            "2015-01-32 00:00:00",
            "2015-01-01 24:00:00",
            "2015-01-01 00:60:00",
            "x015-01-01 00:00:00",
            // `str::parse` took these signs, and with no lower bound on the
            // hour "-1" passed the range check.
            "2015-01-01 -1:00:00",
            "2015-01-01 +1:00:00",
            "+015-01-01 00:00:00",
            "-015-01-01 00:00:00",
            "2015-+1-01 00:00:00",
            "2015-01-01 00:00:-0",
            // 19 bytes with every separator in place, two of them one `é`.
            "2015-01-01 00:00:\u{e9}",
            "2015-01-01 00:00:000",
        ] {
            assert_eq!(parse_datetime(bad), None, "{bad}");
        }
    }

    #[test]
    fn github_line_roundtrip() {
        let e = GithubEvent {
            repo_id: 123,
            op: GithubOp::BranchDelete,
            timestamp: 1_400_000_000,
            actor_id: 45,
        };
        let mut line = String::new();
        e.to_line(&mut line);
        assert_eq!(GithubEvent::parse_line(&line), Some(e));
        assert!(line.contains("branch_delete"));
        assert_eq!(GithubEvent::parse_line("garbage"), None);
    }

    #[test]
    fn bing_line_roundtrip() {
        let q = BingQuery {
            user_id: 9,
            geo: 44,
            timestamp: 1_420_000_123,
            success: false,
            query_hash: 0xdead_beef,
        };
        let mut line = String::new();
        q.to_line(&mut line);
        assert_eq!(BingQuery::parse_line(&line), Some(q));
        assert!(line.contains("fail"));
    }

    #[test]
    fn tweet_line_roundtrip() {
        let t = Tweet {
            hashtag_id: 3,
            user_id: 7,
            timestamp: 1_430_000_042,
            is_spam: true,
        };
        let mut line = String::new();
        t.to_line(&mut line);
        assert_eq!(Tweet::parse_line(&line), Some(t));
    }

    #[test]
    fn impression_line_roundtrip() {
        let i = AdImpression {
            advertiser_id: 500,
            campaign_id: 3,
            timestamp: 1_410_000_999,
            country: 12,
        };
        let mut line = String::new();
        i.to_line(&mut line);
        assert_eq!(AdImpression::parse_line(&line), Some(i));
    }

    #[test]
    fn web_event_line_roundtrip() {
        let e = WebEvent {
            user_id: 1,
            kind: WebEventKind::Purchase,
            item_id: 2,
            timestamp: 1_440_000_000,
        };
        let mut line = String::new();
        e.to_line(&mut line);
        assert_eq!(WebEvent::parse_line(&line), Some(e));
    }

    #[test]
    fn to_lines_batch() {
        let events = crate::generate_github(&crate::GithubConfig {
            num_records: 200,
            ..Default::default()
        });
        let lines = to_lines(&events);
        assert_eq!(lines.len(), 200);
        for (l, e) in lines.iter().zip(&events) {
            assert_eq!(GithubEvent::parse_line(l).as_ref(), Some(e));
        }
    }

    #[test]
    fn a_cached_minute_still_reads_the_seconds() {
        // One thread throughout, so every stamp after the first meets the
        // minute cache holding 2015-01-01 00:00.
        for _ in 0..2 {
            assert_eq!(parse_datetime("2015-01-01 00:00:07"), Some(1_420_070_407));
            for bad in [
                "2015-01-01 00:00:60",
                "2015-01-01 00:00:6x",
                "2015-01-01 00:00;07",
                "2015-01-01 00:00:0",
                "2015-01-01 00:00:07 ",
            ] {
                assert_eq!(parse_datetime(bad), None, "{bad}");
            }
        }
        let line = |stamp: &str| format!("{stamp},tag_3,user_7,ham,f");
        let tweet = Tweet::parse_line(&line("2015-01-01 00:00:59"));
        assert_eq!(tweet.map(|t| t.timestamp), Some(1_420_070_459));
        assert_eq!(Tweet::parse_line(&line("2015-01-01 00:00;59")), None);
        assert_eq!(Tweet::parse_line(&line("2015-01-01 00:00:5")), None);
        // A refused prefix is never cached, and another minute is read in
        // full before the first one is served again.
        for _ in 0..2 {
            assert_eq!(parse_datetime("2015-13-01 00:00:07"), None);
        }
        assert_eq!(parse_datetime("2015-01-01 00:01:07"), Some(1_420_070_467));
        assert_eq!(parse_datetime("2015-01-01 00:00:07"), Some(1_420_070_407));
    }

    /// `Cursor::number` on `column`, and how many bytes it left unread.
    fn read_number<const RADIX: u64>(column: &[u8]) -> Option<(u64, usize)> {
        let mut c = Cursor(column);
        c.number::<RADIX>().map(|v| (v, c.0.len()))
    }

    /// `digits` as a column followed by each tail: none (the line ends), a
    /// bare `,`, and a `,` with 16 more bytes, clean or not, which puts a
    /// short column in reach of the fast path.
    fn assert_column_reads<const RADIX: u64>(digits: &[u8]) {
        let want = std::str::from_utf8(digits)
            .ok()
            .and_then(|d| u64::from_str_radix(d, RADIX as u32).ok());
        for tail in [
            &b""[..],
            b",",
            b",0123456789abcdef",
            b",\xff/:\xe9,,,,,,,,,,,,",
        ] {
            let column = [digits, tail].concat();
            let want = want
                .filter(|_| !tail.is_empty())
                .map(|v| (v, tail.len() - 1));
            let shown = String::from_utf8_lossy(&column);
            assert_eq!(
                read_number::<RADIX>(&column),
                want,
                "radix {RADIX}: {shown}"
            );
        }
    }

    #[test]
    fn columns_of_every_length_read_as_from_str_radix() {
        let cycle = |from: &[u8], len: usize| -> Vec<u8> {
            from.iter().cycle().take(len).copied().collect()
        };
        for len in [1, 7, 8, 9, 15, 16, 17, 40] {
            let zeros_then_7 = [vec![b'0'; len - 1], vec![b'7']].concat();
            for digits in [
                zeros_then_7,
                vec![b'9'; len],
                vec![b'f'; len],
                vec![b'F'; len],
                cycle(b"0123456789", len),
                cycle(b"0123456789abcdefABCDEF", len),
            ] {
                assert_column_reads::<10>(&digits);
                assert_column_reads::<16>(&digits);
            }
        }
        for digits in [
            U64_MAX,
            U64_MAX_PLUS_1,
            "0000018446744073709551615",
            "ffffffffffffffff",
            "FFFFFFFFFFFFFFFF",
            "10000000000000000",
            "DEADBEEFCAFEF00D",
            "deadbeefcafef00d",
            "DeAdBeEfCaFeF00d",
            "",
        ] {
            assert_column_reads::<10>(digits.as_bytes());
            assert_column_reads::<16>(digits.as_bytes());
        }
    }

    #[test]
    fn a_stray_byte_in_any_lane_refuses_the_column() {
        // `/` and `:` sit on either side of `0`-`9`, `@` `G` and `` ` `` `g`
        // on either side of the hex letters.
        for len in [3, 9, 16] {
            for at in 0..len {
                for stray in [b'/', b':', b'@', b'G', b'`', b'g', b',' + 0x80, 0xe9, 0xff] {
                    let mut column = [
                        b"0123456789abcdef"[..len].to_vec(),
                        b",0123456789abcdef".to_vec(),
                    ]
                    .concat();
                    column[at] = stray;
                    let shown = String::from_utf8_lossy(&column);
                    assert_eq!(read_number::<10>(&column), None, "{shown}");
                    assert_eq!(read_number::<16>(&column), None, "{shown}");
                }
            }
        }
    }

    /// 2015-01-01 00:00:00, the stamp every accept-set row below starts with.
    const STAMP: &str = "2015-01-01 00:00:00";
    const STAMP_EPOCH: i64 = 1_420_070_400;
    const U64_MAX: &str = "18446744073709551615";
    const U64_MAX_PLUS_1: &str = "18446744073709551616";
    /// 21 digits, 24 with its leading zeros.
    const TWENTY_ONE_DIGITS: &str = "000100000000000000000000";
    /// 40 zeros: leading zeros at a length no printed width reaches.
    const ZEROS: &str = "0000000000000000000000000000000000000000";

    /// Parses `STAMP`, then each row's columns, and compares with the row's
    /// expectation: the exact record, or `None`.
    fn assert_rows<R: TextRecord + PartialEq + std::fmt::Debug>(rows: &[(String, Option<R>)]) {
        for (columns, want) in rows {
            let line = format!("{STAMP},{columns}");
            assert_eq!(&R::parse_line(&line), want, "{line}");
        }
        // The stamp itself is held to `parse_datetime`'s rules.
        let (columns, want) = &rows[0];
        assert!(want.is_some(), "row 0 is the canonical line");
        for stamp in [
            "+015-01-01 00:00:00",
            "2015-01-01 -1:00:00",
            "2015-01-01 00:00:0",
        ] {
            let line = format!("{stamp},{columns}");
            assert_eq!(R::parse_line(&line), None, "{line}");
        }
    }

    #[test]
    fn bing_accept_set() {
        let q = |user_id, geo, query_hash| {
            Some(BingQuery {
                user_id,
                geo,
                timestamp: STAMP_EPOCH,
                success: false,
                query_hash,
            })
        };
        assert_rows(&[
            (
                "user_00000009,geo_044,fail,q_00000000deadbeef,0123456789abcdef".into(),
                q(9, 44, 0xdead_beef),
            ),
            // Digit runs of any length, leading zeros included.
            ("user_9,geo_4,fail,q_d,f".into(), q(9, 4, 0xd)),
            (
                format!("user_{ZEROS}9,geo_{ZEROS}44,fail,q_{ZEROS}deadbeef,f"),
                q(9, 44, 0xdead_beef),
            ),
            // Each type's maximum, and one past it.
            (
                format!("user_{U64_MAX},geo_4294967295,fail,q_ffffffffffffffff,f"),
                q(u64::MAX, u32::MAX, u64::MAX),
            ),
            (format!("user_{U64_MAX_PLUS_1},geo_044,fail,q_ff,f"), None),
            (
                format!("user_{TWENTY_ONE_DIGITS},geo_044,fail,q_ff,f"),
                None,
            ),
            ("user_9,geo_4294967296,fail,q_ff,f".into(), None),
            ("user_9,geo_044,fail,q_10000000000000000,f".into(), None),
            (
                "user_9,geo_044,fail,q_0ffffffffffffffff,f".into(),
                q(9, 44, u64::MAX),
            ),
            // Hex in either case; decimal columns take no hex digit.
            (
                "user_9,geo_044,fail,q_DEADbeef,f".into(),
                q(9, 44, 0xdead_beef),
            ),
            ("user_a,geo_044,fail,q_ff,f".into(), None),
            ("user_9,geo_044,fail,q_fg,f".into(), None),
            // The filler: empty, anything at all, more columns after it, missing.
            ("user_9,geo_044,fail,q_ff,".into(), q(9, 44, 0xff)),
            ("user_9,geo_044,fail,q_ff,\u{e9} +-".into(), q(9, 44, 0xff)),
            (
                "user_9,geo_044,fail,q_ff,f,extra,,columns".into(),
                q(9, 44, 0xff),
            ),
            ("user_9,geo_044,fail,q_ff".into(), None),
            ("user_9,geo_044,fail".into(), None),
            // Signs, spaces and empty digit runs.
            ("user_+0000009,geo_044,fail,q_ff,f".into(), None),
            ("user_9,geo_+44,fail,q_ff,f".into(), None),
            ("user_9,geo_044,fail,q_+ff,f".into(), None),
            ("user_-9,geo_044,fail,q_ff,f".into(), None),
            ("user_ 9,geo_044,fail,q_ff,f".into(), None),
            ("user_,geo_044,fail,q_ff,f".into(), None),
            ("user_9,geo_044,fail,q_,f".into(), None),
            // Non-ASCII bytes in a validated column.
            ("user_\u{ff19},geo_044,fail,q_ff,f".into(), None),
            ("user_9,geo_044,fail,q_f\u{e9},f".into(), None),
            ("user_9,geo_044,f\u{e9}il,q_ff,f".into(), None),
            // Prefixes and words match byte for byte.
            ("User_9,geo_044,fail,q_ff,f".into(), None),
            ("user_9,geo_044,failed,q_ff,f".into(), None),
            ("user_9,geo_044,,q_ff,f".into(), None),
            (
                "user_9,geo_044,ok,q_ff,f".into(),
                q(9, 44, 0xff).map(|q| BingQuery { success: true, ..q }),
            ),
        ]);
    }

    #[test]
    fn github_accept_set() {
        let e = |repo_id, op, actor_id| {
            Some(GithubEvent {
                repo_id,
                op,
                timestamp: STAMP_EPOCH,
                actor_id,
            })
        };
        assert_rows(&[
            (
                "repo_00000123,fork,actor_000045,0123456789abcdef".into(),
                e(123, GithubOp::Fork, 45),
            ),
            (
                format!("repo_{ZEROS}123,push,actor_{ZEROS}45,f"),
                e(123, GithubOp::Push, 45),
            ),
            (
                format!("repo_{U64_MAX},watch,actor_{U64_MAX},f"),
                e(u64::MAX, GithubOp::Watch, u64::MAX),
            ),
            (format!("repo_{U64_MAX_PLUS_1},watch,actor_45,f"), None),
            (format!("repo_123,watch,actor_{TWENTY_ONE_DIGITS},f"), None),
            (
                "repo_123,issue_close,actor_45,".into(),
                e(123, GithubOp::IssueClose, 45),
            ),
            (
                "repo_123,issue_close,actor_45,f,extra".into(),
                e(123, GithubOp::IssueClose, 45),
            ),
            ("repo_123,issue_close,actor_45".into(), None),
            ("repo_+123,fork,actor_45,f".into(), None),
            ("repo_123,fork,actor_+45,f".into(), None),
            ("repo_123,fork,actor_4f,f".into(), None),
            ("repo_123,f\u{f6}rk,actor_45,f".into(), None),
            ("repo_123,forks,actor_45,f".into(), None),
            ("repo_12\u{ff13},fork,actor_45,f".into(), None),
        ]);
    }

    #[test]
    fn tweet_accept_set() {
        let t = |hashtag_id, user_id, is_spam| {
            Some(Tweet {
                hashtag_id,
                user_id,
                timestamp: STAMP_EPOCH,
                is_spam,
            })
        };
        assert_rows(&[
            (
                "tag_00000003,user_00000007,spam,0123456789abcdef".into(),
                t(3, 7, true),
            ),
            (format!("tag_{ZEROS}3,user_{ZEROS}7,ham,f"), t(3, 7, false)),
            (
                format!("tag_{U64_MAX},user_{U64_MAX},ham,f"),
                t(u64::MAX, u64::MAX, false),
            ),
            (format!("tag_{U64_MAX_PLUS_1},user_7,ham,f"), None),
            (format!("tag_3,user_{TWENTY_ONE_DIGITS},ham,f"), None),
            ("tag_3,user_7,ham,".into(), t(3, 7, false)),
            ("tag_3,user_7,ham,f,extra".into(), t(3, 7, false)),
            ("tag_3,user_7,ham".into(), None),
            ("tag_+3,user_7,ham,f".into(), None),
            ("tag_3,user_+0000007,ham,f".into(), None),
            ("tag_3,user_7,Ham,f".into(), None),
            ("tag_3,user_7,sp\u{e4}m,f".into(), None),
            ("tag_\u{ff13},user_7,ham,f".into(), None),
        ]);
    }

    #[test]
    fn impression_accept_set() {
        let i = |advertiser_id, campaign_id, country| {
            Some(AdImpression {
                advertiser_id,
                campaign_id,
                timestamp: STAMP_EPOCH,
                country,
            })
        };
        assert_rows(&[
            (
                "adv_000500,camp_0003,cc_012,0123456789abcdef".into(),
                i(500, 3, 12),
            ),
            (
                format!("adv_{ZEROS}500,camp_{ZEROS}3,cc_{ZEROS}12,f"),
                i(500, 3, 12),
            ),
            (
                "adv_4294967295,camp_4294967295,cc_255,f".into(),
                i(u32::MAX, u32::MAX, u8::MAX),
            ),
            ("adv_4294967296,camp_3,cc_012,f".into(), None),
            ("adv_500,camp_4294967296,cc_012,f".into(), None),
            ("adv_500,camp_3,cc_256,f".into(), None),
            (format!("adv_500,camp_3,cc_{TWENTY_ONE_DIGITS},f"), None),
            ("adv_500,camp_3,cc_012,".into(), i(500, 3, 12)),
            ("adv_500,camp_3,cc_012,f,extra".into(), i(500, 3, 12)),
            ("adv_500,camp_3,cc_012".into(), None),
            ("adv_+500,camp_3,cc_012,f".into(), None),
            ("adv_500,camp_+3,cc_012,f".into(), None),
            ("adv_500,camp_3,cc_+12,f".into(), None),
            ("adv_500,camp_3,cc_1\u{ff12},f".into(), None),
        ]);
    }

    #[test]
    fn web_event_accept_set() {
        let e = |user_id, kind, item_id| {
            Some(WebEvent {
                user_id,
                kind,
                item_id,
                timestamp: STAMP_EPOCH,
            })
        };
        assert_rows(&[
            (
                "user_00000001,purchase,item_00000002,0123456789abcdef".into(),
                e(1, WebEventKind::Purchase, 2),
            ),
            (
                format!("user_{ZEROS}1,search,item_{ZEROS}2,f"),
                e(1, WebEventKind::Search, 2),
            ),
            (
                format!("user_{U64_MAX},other,item_{U64_MAX},f"),
                e(u64::MAX, WebEventKind::Other, u64::MAX),
            ),
            (format!("user_{U64_MAX_PLUS_1},other,item_2,f"), None),
            (format!("user_1,other,item_{TWENTY_ONE_DIGITS},f"), None),
            (
                "user_1,review,item_2,".into(),
                e(1, WebEventKind::Review, 2),
            ),
            (
                "user_1,review,item_2,f,extra".into(),
                e(1, WebEventKind::Review, 2),
            ),
            ("user_1,review,item_2".into(), None),
            ("user_+0000001,review,item_2,f".into(), None),
            ("user_1,review,item_+2,f".into(), None),
            ("user_1,reviews,item_2,f".into(), None),
            ("user_1,revi\u{e9}w,item_2,f".into(), None),
            ("user_1,review,item_\u{ff12},f".into(), None),
        ]);
    }
}
