//! Dependency-free observability substrate for the Pufferfish serving
//! stack.
//!
//! Four pieces, each usable alone, designed to thread through every layer
//! of the stack without adding a dependency or a lock to the hot path:
//!
//! - **Metrics registry** ([`Registry`]): a process-wide (or per-test)
//!   registry of named [`Counter`]s, [`Gauge`]s, and log-linear latency
//!   histograms ([`HistogramHandle`] over [`AtomicHistogram`]). Handles are
//!   resolved once at construction and cached, so the per-event cost is a
//!   single relaxed atomic add — the registry mutex is never touched on the
//!   hot path. [`Registry::snapshot`] and [`Registry::render_text`] expose
//!   everything in one stable, sorted pass.
//! - **Request tracing** ([`StageHistograms`], [`RequestTrace`],
//!   [`FlightRecorder`]): each request carries an owned [`RequestTrace`],
//!   its clock and its stage breakdown, from thread to thread with the
//!   request itself — no thread-locals, no shared state. Whichever thread
//!   owns the request ends each stage (decode → admission → queue wait →
//!   engine → mechanism sample → encode) with one
//!   [`StageHistograms::lap`], which records it on the trace and into the
//!   stage's histogram. The [`FlightRecorder`] keeps the last N slow
//!   requests' stage breakdowns in a fixed ring for post-hoc "why was that
//!   one slow".
//! - **ε-audit ledger** ([`EpsilonLedger`]): an append-only, per-record
//!   FNV-1a-checksummed binary log of every privacy-budget event — charge,
//!   refund, refusal, recalibration — replayable offline to per-user spend
//!   that agrees *bitwise* with the live accountant.
//! - **Byte codec** ([`codec`]): the byte rules the ledger, calibration
//!   snapshots, class tokens and wire frames share — little-endian writers,
//!   one bounds-checked read cursor, FNV-1a.
//!
//! The crate is `std`-only and panic-free on untrusted input: every decode
//! failure is a typed error ([`LedgerError`], [`codec::CodecError`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::module_name_repetitions,
    clippy::missing_panics_doc
)]

pub mod codec;
mod histogram;
mod ledger;
mod registry;
mod span;

pub use histogram::{AtomicHistogram, LatencyHistogram};
pub use ledger::{
    query_signature, replay_spend, EpsilonLedger, LedgerError, LedgerEvent, LedgerEventKind,
    LEDGER_MAGIC, LEDGER_VERSION,
};
pub use registry::{
    Counter, Gauge, HistogramHandle, HistogramSummary, MetricSample, MetricValue, Registry,
};
pub use span::{FlightRecorder, RequestTrace, Stage, StageHistograms, TraceReport};
