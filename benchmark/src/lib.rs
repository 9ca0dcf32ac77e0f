//! # hvdb-benchmark — the repository benchmark
//!
//! Isolated, repeated runs of four HVDB workloads on
//! [`hvdb_sim::ParSimulator`] + [`hvdb_core::HvdbCore`], timed from the
//! outside around the engine's public calls. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.
//!
//! * [`workloads`] — the four input recipes;
//! * [`run`] — one run: set-up, boot, timed run, digest, output checks;
//! * [`timed`] — the traced run's per-handler timing wrapper;
//! * [`suite`] — pooled passes, set-up samples and the traced pass;
//! * [`metrics`] — the end-to-end and per-layer metric values;
//! * [`alloc`], [`host`], [`chrome`] — heap, scheduler and trace export.

#![warn(missing_docs)]

pub mod alloc;
pub mod chrome;
pub mod host;
pub mod metrics;
pub mod run;
pub mod suite;
pub mod timed;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
