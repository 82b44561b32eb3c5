#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # symple-mapreduce
//!
//! A from-scratch, multi-threaded MapReduce substrate — the Hadoop
//! stand-in on which SYMPLE-rs runs (§5.4 of the paper).
//!
//! The substrate executes *groupby-aggregate* jobs over ordered input
//! segments:
//!
//! * [`baseline`] — the paper's hand-optimized Hadoop baseline: the
//!   groupby runs in the mappers (emitting only the projected fields the
//!   UDA reads), the UDA runs sequentially in the reducers;
//! * [`symple_job`] — the SYMPLE job: groupby **and** symbolic UDA
//!   execution both run in the mappers, and reducers merely compose the
//!   symbolic summaries in `(mapper_id, record_id)` order;
//! * [`sequential`] — the single-thread reference used by the multi-core
//!   evaluation (§6.2).
//!
//! All three report byte-accurate shuffle sizes and per-phase CPU/wall
//! times in [`metrics::JobMetrics`], the quantities behind Figures 4–8.
//!
//! # Examples
//!
//! A complete job — group integers by parity, sum each group — on both
//! backends:
//!
//! ```
//! use symple_core::prelude::*;
//! use symple_mapreduce::segment::split_into_segments;
//! use symple_mapreduce::{run_baseline, run_symple, GroupBy, JobConfig};
//!
//! struct ByParity;
//! impl GroupBy for ByParity {
//!     type Record = i64;
//!     type Key = u8;
//!     type Event = i64;
//!     fn extract(&self, r: &i64) -> Option<(u8, i64)> {
//!         Some(((r % 2) as u8, *r))
//!     }
//! }
//!
//! struct SumUda;
//! #[derive(Clone, Debug)]
//! struct SumState { sum: SymInt }
//! symple_core::impl_sym_state!(SumState { sum });
//! impl Uda for SumUda {
//!     type State = SumState;
//!     type Event = i64;
//!     type Output = i64;
//!     fn init(&self) -> SumState { SumState { sum: SymInt::new(0) } }
//!     fn update(&self, s: &mut SumState, ctx: &mut SymCtx, e: &i64) {
//!         s.sum.add(ctx, *e);
//!     }
//!     fn result(&self, s: &SumState, _ctx: &mut SymCtx) -> i64 {
//!         s.sum.concrete_value().unwrap()
//!     }
//! }
//!
//! let records: Vec<i64> = (0..1_000).collect();
//! let segments = split_into_segments(&records, 4, 64);
//! let cfg = JobConfig::default();
//! let base = run_baseline(&ByParity, &SumUda, &segments, &cfg).unwrap();
//! let sym = run_symple(&ByParity, &SumUda, &segments, &cfg).unwrap();
//! assert_eq!(base.results, sym.results);
//! assert!(sym.metrics.shuffle_bytes < base.metrics.shuffle_bytes);
//! ```

pub mod baseline;
pub mod dataset;
pub mod fault;
pub mod groupby;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod segment;
pub mod sequential;
pub mod shuffle;
pub mod store;
pub mod store_io;
pub mod symple_job;

pub use baseline::{run_baseline, run_baseline_sorted};
pub use dataset::Dataset;
pub use fault::{FaultInjector, FaultPlan};
pub use groupby::{GroupBy, Key};
pub use job::{JobConfig, JobOutput};
pub use metrics::JobMetrics;
pub use scheduler::{
    run_scheduled, Attempt, AttemptOutcome, AttemptRecord, Crashed, PhaseTiming, ScheduledRun,
    SchedulerConfig, SchedulerStats,
};
pub use segment::Segment;
pub use sequential::run_sequential_job;
pub use store::{
    cache_config_fingerprint, checkpoint_namespace, config_fingerprint, CheckpointCtx, DiskStore,
    FrameStore, MemStore, SummaryCacheCtx,
};
/// Retired names for [`FrameStore`] and [`DiskStore`], from when the
/// checkpoint store and the summary cache were separate types. These
/// re-exports have no code behind them and exist only because
/// `benchmark/` links the names; they go when it is next revised.
pub use store::{
    DiskStore as DiskCheckpointStore, DiskStore as DiskSummaryCache, FrameStore as SummaryCache,
};
pub use store_io::{
    FaultIo, IoCounts, RealIo, RetryPolicy, StorageFaultKind, StorageFaultPlan, StoreIo,
    DEFAULT_FAILURE_BUDGET,
};
pub use symple_job::{run_symple, run_symple_streaming, ChunkStore, SympleJob};
