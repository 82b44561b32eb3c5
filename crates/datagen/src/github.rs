//! Synthetic GitHub-archive repository operations (queries G1–G4).
//!
//! The real dataset holds repository operations from February 2011 to
//! September 2014 (419 GB, 12 M–22 M repositories). The generator emits a
//! timestamp-ordered stream of per-repository operations with realistic
//! structure: pushes dominate, pull requests open and later close, branches
//! are created and deleted, and a fraction of repositories see only pushes
//! (the G1 pattern).

use symple_core::rng::Rng64 as StdRng;

/// A repository operation kind.
///
/// The discriminants are stable and small so the kind can live in a
/// `SymEnum` domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum GithubOp {
    /// A push of commits.
    Push = 0,
    /// A pull request opened.
    PullOpen = 1,
    /// A pull request closed.
    PullClose = 2,
    /// The repository (or an artifact in it) deleted.
    Delete = 3,
    /// A branch created.
    BranchCreate = 4,
    /// A branch deleted.
    BranchDelete = 5,
    /// A fork.
    Fork = 6,
    /// An issue opened.
    IssueOpen = 7,
    /// An issue closed.
    IssueClose = 8,
    /// A watch/star.
    Watch = 9,
}

impl GithubOp {
    /// Number of operation kinds (the `SymEnum` domain size).
    pub const DOMAIN: u32 = 10;

    /// All operation kinds.
    pub const ALL: [GithubOp; 10] = [
        GithubOp::Push,
        GithubOp::PullOpen,
        GithubOp::PullClose,
        GithubOp::Delete,
        GithubOp::BranchCreate,
        GithubOp::BranchDelete,
        GithubOp::Fork,
        GithubOp::IssueOpen,
        GithubOp::IssueClose,
        GithubOp::Watch,
    ];

    /// The kind as a small integer (for `SymEnum` comparisons).
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Decodes a kind from its code.
    pub fn from_code(c: u32) -> Option<GithubOp> {
        GithubOp::ALL.get(c as usize).copied()
    }
}

/// One repository operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GithubEvent {
    /// The repository.
    pub repo_id: u64,
    /// The operation.
    pub op: GithubOp,
    /// Seconds since epoch; the stream is sorted by this field.
    pub timestamp: i64,
    /// Acting user (unused by the queries; part of the raw record).
    pub actor_id: u64,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GithubConfig {
    /// Records to generate.
    pub num_records: usize,
    /// Distinct repositories (the paper's 12 M–22 M, scaled down).
    pub num_repos: u64,
    /// Fraction of repositories that only ever see pushes (G1's answer
    /// set).
    pub push_only_fraction: f64,
    /// Fraction of repositories forming the "hot" set — real GitHub
    /// activity is heavily skewed toward a small core of busy projects,
    /// which is what lets per-(mapper, repo) summaries beat per-record
    /// shuffles by the paper's 4–8x.
    pub hot_repo_fraction: f64,
    /// Fraction of events landing on the hot set.
    pub hot_traffic: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GithubConfig {
    fn default() -> GithubConfig {
        GithubConfig {
            num_records: 100_000,
            num_repos: 2_000,
            push_only_fraction: 0.3,
            hot_repo_fraction: 0.01,
            hot_traffic: 0.9,
            seed: 0x91_7b_00,
        }
    }
}

/// Generates a timestamp-ordered GitHub operation stream.
pub fn generate_github(cfg: &GithubConfig) -> Vec<GithubEvent> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ts: i64 = 1_300_000_000; // ≈ Feb 2011, as in the archive.
    let mut out = Vec::with_capacity(cfg.num_records);
    // Per-repo open pull-request and branch bookkeeping keeps the streams
    // structurally plausible (closes follow opens, deletes follow creates).
    let mut open_pulls: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut deleted_branches: std::collections::HashMap<u64, u32> =
        std::collections::HashMap::new();

    let hot_repos = ((cfg.hot_repo_fraction * cfg.num_repos as f64) as u64).max(1);
    for _ in 0..cfg.num_records {
        ts += rng.gen_range(1..120);
        // Skewed repo choice: hot repos absorb most of the traffic.
        let repo_id = if rng.gen_bool(cfg.hot_traffic.clamp(0.0, 1.0)) {
            // Hot repos are spread across the id space (and thus across
            // the push-only band) by striding.
            let h = rng.gen_range(0..hot_repos);
            (h * cfg.num_repos.div_euclid(hot_repos).max(1)) % cfg.num_repos
        } else {
            rng.gen_range(0..cfg.num_repos)
        };
        let push_only = (repo_id as f64) < cfg.push_only_fraction * cfg.num_repos as f64;
        let op = if push_only {
            GithubOp::Push
        } else {
            match rng.gen_range(0..100) {
                0..=44 => GithubOp::Push,
                45..=54 => {
                    *open_pulls.entry(repo_id).or_default() += 1;
                    GithubOp::PullOpen
                }
                55..=64 => {
                    let n = open_pulls.entry(repo_id).or_default();
                    if *n > 0 {
                        *n -= 1;
                        GithubOp::PullClose
                    } else {
                        GithubOp::Push
                    }
                }
                65..=69 => GithubOp::Delete,
                70..=76 => {
                    let n = deleted_branches.entry(repo_id).or_default();
                    if *n > 0 {
                        *n -= 1;
                        GithubOp::BranchCreate
                    } else {
                        GithubOp::BranchCreate
                    }
                }
                77..=83 => {
                    *deleted_branches.entry(repo_id).or_default() += 1;
                    GithubOp::BranchDelete
                }
                84..=88 => GithubOp::Fork,
                89..=93 => GithubOp::IssueOpen,
                94..=96 => GithubOp::IssueClose,
                _ => GithubOp::Watch,
            }
        };
        out.push(GithubEvent {
            repo_id,
            op,
            timestamp: ts,
            actor_id: rng.gen_range(0..50_000),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = GithubConfig {
            num_records: 5_000,
            ..GithubConfig::default()
        };
        let a = generate_github(&cfg);
        let b = generate_github(&cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn push_only_repos_exist() {
        let cfg = GithubConfig {
            num_records: 20_000,
            ..GithubConfig::default()
        };
        let events = generate_github(&cfg);
        let cutoff = (cfg.push_only_fraction * cfg.num_repos as f64) as u64;
        assert!(events
            .iter()
            .filter(|e| e.repo_id < cutoff)
            .all(|e| e.op == GithubOp::Push));
        // Non-push-only repos do see other ops.
        assert!(events
            .iter()
            .any(|e| e.repo_id >= cutoff && e.op != GithubOp::Push));
    }

    #[test]
    fn seeds_differ() {
        let a = generate_github(&GithubConfig {
            seed: 1,
            ..GithubConfig::default()
        });
        let b = generate_github(&GithubConfig {
            seed: 2,
            ..GithubConfig::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn op_codes_roundtrip() {
        for op in GithubOp::ALL {
            assert_eq!(GithubOp::from_code(op.code()), Some(op));
        }
        assert_eq!(GithubOp::from_code(99), None);
        assert!(GithubOp::ALL.len() as u32 == GithubOp::DOMAIN);
    }
}
