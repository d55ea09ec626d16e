//! Typed service errors — the admission-control and resilience surface.

use std::fmt;

use shift_engines::EngineKind;

/// Why a request was not answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeError {
    /// The bounded request queue was full at admission time. Clients
    /// should back off and retry; the service sheds load instead of
    /// growing an unbounded backlog.
    Overloaded,
    /// The request's deadline elapsed before a worker produced (or the
    /// caller collected) an answer.
    TimedOut,
    /// The service is draining and no longer admits requests.
    ShuttingDown,
    /// The worker serving the request panicked. The worker catches the
    /// panic, counts the request as failed and keeps serving; a waiter
    /// also sees this if a worker vanishes without replying.
    WorkerLost,
    /// The engine failed every attempt the retry budget allowed, and no
    /// degradation path was configured to absorb the failure.
    EngineFailed {
        /// The engine that failed.
        engine: EngineKind,
    },
    /// The engine's circuit breaker was open: the request was rejected
    /// without touching the engine, and no degradation path absorbed it.
    BreakerOpen {
        /// The engine whose breaker rejected the request.
        engine: EngineKind,
    },
    /// The engine failed and degradation was attempted but came up empty
    /// (no stale cache entry, SERP fallback disabled or also down).
    DegradedUnavailable {
        /// The engine the degradation ladder could not cover for.
        engine: EngineKind,
    },
    /// Every candidate replica was inside a scripted outage window (or
    /// failover was disabled and the first choice was down).
    ReplicaDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => f.write_str("request queue full (overloaded)"),
            ServeError::TimedOut => f.write_str("deadline elapsed before completion"),
            ServeError::ShuttingDown => f.write_str("service is shutting down"),
            ServeError::WorkerLost => f.write_str("worker panicked before replying"),
            ServeError::EngineFailed { engine } => {
                write!(f, "engine {} failed after retries", engine.name())
            }
            ServeError::BreakerOpen { engine } => {
                write!(f, "circuit breaker open for {}", engine.name())
            }
            ServeError::DegradedUnavailable { engine } => {
                write!(f, "no degraded answer available for {}", engine.name())
            }
            ServeError::ReplicaDown => f.write_str("no replica outside an outage window"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::ServeError;

    use shift_engines::EngineKind;

    #[test]
    fn errors_display_distinctly() {
        let mut all = vec![
            ServeError::Overloaded,
            ServeError::TimedOut,
            ServeError::ShuttingDown,
            ServeError::WorkerLost,
            ServeError::ReplicaDown,
        ];
        // The engine-tagged variants must also be distinct per engine.
        for kind in EngineKind::ALL {
            all.push(ServeError::EngineFailed { engine: kind });
            all.push(ServeError::BreakerOpen { engine: kind });
            all.push(ServeError::DegradedUnavailable { engine: kind });
        }
        let texts: std::collections::HashSet<String> = all.iter().map(|e| e.to_string()).collect();
        assert_eq!(texts.len(), all.len());
    }
}
