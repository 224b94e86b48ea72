//! Error classification and retry policy for the runtime.
//!
//! The lower crates report failures as `Result<_, String>`; rather than
//! rework every seam into a shared error enum, the runtime classifies
//! failures by the stable marker substrings those layers already embed:
//! [`neurfill::cancel::CANCELLED_MARKER`] and
//! [`neurfill::cancel::DEADLINE_MARKER`] from the cancellation seam,
//! `"transient"` from I/O-ish layers and the fault harness
//! ([`crate::fault::TRANSIENT_MARKER`]), and everything else is treated as
//! permanent. The classification drives exactly one decision: *is this
//! attempt worth retrying?*

use std::time::Duration;

/// How a failure should be handled by the worker's retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Likely to succeed on retry (I/O hiccup, dropped reply, injected
    /// transient fault).
    Transient,
    /// The job was cancelled or ran out of deadline — retrying is
    /// pointless and would only burn more budget.
    Cancelled,
    /// A real failure (bad geometry, panic, invalid model) that retrying
    /// will not fix.
    Fatal,
}

/// Classifies an error message by its stable markers.
#[must_use]
pub fn classify(message: &str) -> ErrorClass {
    let lower = message.to_ascii_lowercase();
    if lower.contains(neurfill::cancel::CANCELLED_MARKER)
        || lower.contains(neurfill::cancel::DEADLINE_MARKER)
        || lower.contains("timed out")
    {
        return ErrorClass::Cancelled;
    }
    if lower.contains("transient") {
        return ErrorClass::Transient;
    }
    ErrorClass::Fatal
}

/// A classified runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Retry disposition.
    pub class: ErrorClass,
    /// Human-readable description (the original message).
    pub message: String,
}

impl RuntimeError {
    /// Classifies `message` and wraps it.
    #[must_use]
    pub fn from_message(message: impl Into<String>) -> Self {
        let message = message.into();
        Self { class: classify(&message), message }
    }

    /// Whether the retry loop should try again (budget permitting).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.class == ErrorClass::Transient
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Retry budget and backoff schedule for transient job failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    pub max_retries: u32,
    /// Backoff before retry 1; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on the per-retry backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` and the default backoff schedule.
    #[must_use]
    pub fn with_retries(max_retries: u32) -> Self {
        Self { max_retries, ..Self::default() }
    }

    /// Exponential backoff before the given retry `attempt` (1-based),
    /// clamped to [`RetryPolicy::max_backoff`].
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
        self.base_backoff.saturating_mul(factor).min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_route_to_the_right_class() {
        assert_eq!(classify("cancelled during synthesis"), ErrorClass::Cancelled);
        assert_eq!(classify("deadline exceeded during insertion"), ErrorClass::Cancelled);
        assert_eq!(classify("timed out in queue after 0ms"), ErrorClass::Cancelled);
        assert_eq!(classify("transient fault injected at 'synthesis'"), ErrorClass::Transient);
        assert_eq!(classify("Transient I/O error"), ErrorClass::Transient);
        assert_eq!(classify("layout rows mismatch"), ErrorClass::Fatal);
    }

    #[test]
    fn only_transient_errors_retry() {
        assert!(RuntimeError::from_message("transient hiccup").is_retryable());
        assert!(!RuntimeError::from_message("cancelled during x").is_retryable());
        assert!(!RuntimeError::from_message("bad geometry").is_retryable());
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20), "doubles");
        assert_eq!(p.backoff(3), Duration::from_millis(35), "clamped");
        assert_eq!(p.backoff(40), Duration::from_millis(35), "no overflow");
    }
}
