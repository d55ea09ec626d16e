//! Offline, API-compatible subset of `crossbeam`.
//!
//! Provides the one facility this workspace relies on that stable std
//! lacks: [`channel`] — multi-producer **multi-consumer**
//! bounded/unbounded channels with `try_send` (backpressure),
//! `recv_timeout` (deadlines) and disconnect semantics, built on
//! `Mutex<VecDeque>` + condvars. Scoped threads come from
//! `std::thread::scope`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
