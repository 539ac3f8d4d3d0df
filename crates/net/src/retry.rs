//! [`RetryPolicy`]: the one place the control plane's timeout and
//! backoff knobs live.
//!
//! Three parties share the same policy shape:
//!
//! - the [`Gateway`](crate::gateway::Gateway) uses `rpc_timeout` for
//!   registration/status/drain RPCs and `backoff(n)` to pace
//!   mid-stream request retries after a worker death;
//! - [`NetClient`](crate::client::NetClient) uses `rpc_timeout` for its
//!   RPCs, and `max_retries` plus `backoff(n)` to pace the initial dial
//!   of [`NetClient::connect_endpoints`](crate::client::NetClient::connect_endpoints)
//!   (a session never redials);
//! - `cb_worker --retry-attach` uses `backoff(n)` between gateway
//!   re-attach attempts.
//!
//! Backoff is **capped exponential**: attempt `n` (1-based) waits
//! `backoff_base × 2^(n-1)`, clamped to `backoff_cap`. Attempt 0 waits
//! nothing.

use std::time::Duration;

/// Timeout and backoff knobs for every retrying path in the control
/// plane (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long a request/reply RPC (chunk registration, status, drain)
    /// waits for its reply before failing with a named timeout error.
    pub rpc_timeout: Duration,
    /// Mid-stream retries (gateway), initial dial passes (client) or
    /// re-attach attempts (worker) beyond this count give up and surface
    /// the failure.
    pub max_retries: u32,
    /// First retry's backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            rpc_timeout: Duration::from_secs(60),
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Sets the RPC reply timeout.
    pub fn rpc_timeout(mut self, d: Duration) -> Self {
        self.rpc_timeout = d;
        self
    }

    /// Sets the retry ceiling.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the first retry's backoff (doubles per attempt).
    pub fn backoff_base(mut self, d: Duration) -> Self {
        self.backoff_base = d;
        self
    }

    /// Sets the backoff cap.
    pub fn backoff_cap(mut self, d: Duration) -> Self {
        self.backoff_cap = d;
        self
    }

    /// The wait before retry attempt `n` (1-based): capped exponential,
    /// `backoff_base × 2^(n-1)` clamped to `backoff_cap`. Attempt 0
    /// waits nothing.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::default()
            .backoff_base(Duration::from_millis(10))
            .backoff_cap(Duration::from_millis(75));
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(75), "cap binds");
        assert_eq!(p.backoff(64), Duration::from_millis(75), "no overflow");
    }
}
