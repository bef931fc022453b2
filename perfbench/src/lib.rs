//! Wall-clock serving benchmark for the iiu workspace.
//!
//! Three workloads drive [`iiu_serve::QueryService`] from outside with a
//! closed loop of client threads and check every answer against an
//! independent reference (see `README.md` for why each workload exists).
//! A separate traced run replays the same inputs through the public
//! functions of each layer and records spans around those calls.
//!
//! The process split keeps the serving process lean: `gen` makes the
//! inputs and the reference answers from a seed and writes them to a work
//! directory; `serve` (untraced, end-to-end metrics) and `trace`
//! (per-layer metrics) only ever read those files.

pub mod deploy;
pub mod inputs;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
