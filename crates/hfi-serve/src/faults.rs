//! Fault-containment primitives for the serving tier: per-tenant
//! circuit breakers and seeded jittered-exponential backoff.
//!
//! The scheduler (`sched.rs`) composes these with the warm pools'
//! panic quarantine and its deadline loop (a run in resumable slices,
//! cancelled between two of them) so that one misbehaving tenant — a
//! panicking kernel, a wedged request, a compile-failure burst —
//! degrades only its own requests, never the serving process or its
//! co-tenants. Everything here is deterministic given its inputs: the
//! breaker is a pure state machine over caller-supplied timestamps, and
//! backoff jitter comes from a seeded [`hfi_util::Rng`], never the host
//! entropy pool.

use std::time::Duration;

use hfi_util::Rng;

/// Per-tenant circuit breaker: a consecutive-failure threshold opens
/// the circuit, open circuits shed requests fast (the scheduler maps a
/// refused admit to `Outcome::CircuitOpen`), and after a cooldown a
/// **half-open probe** admits exactly one trial request — its success
/// closes the circuit, its failure re-opens it for another cooldown.
///
/// All transitions are driven by caller-supplied nanosecond timestamps
/// (the scheduler's epoch clock), so the state machine itself is
/// deterministic and directly unit-testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    /// Consecutive failures that open the circuit; `0` disables the
    /// breaker entirely (it never opens).
    threshold: u32,
    /// Open-state cooldown before the half-open probe is admitted (ns).
    cooldown_ns: u64,
    state: BreakerState,
}

/// The breaker's three classical states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting everything; counts consecutive failures.
    Closed {
        /// Consecutive failures so far (a success resets it).
        failures: u32,
    },
    /// Shedding everything until the cooldown elapses.
    Open {
        /// Epoch timestamp the circuit opened (ns).
        since_ns: u64,
    },
    /// Cooldown elapsed: exactly one probe request is in flight; all
    /// other requests are still shed until the probe's verdict.
    HalfOpen,
}

impl CircuitBreaker {
    /// A closed breaker opening after `threshold` consecutive failures
    /// and probing after `cooldown` in the open state.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold,
            cooldown_ns: cooldown.as_nanos() as u64,
            state: BreakerState::Closed { failures: 0 },
        }
    }

    /// Current state, for telemetry and tests.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// True when the circuit is not admitting regular traffic.
    pub fn is_open(&self) -> bool {
        !matches!(self.state, BreakerState::Closed { .. })
    }

    /// Rules on one request at time `now_ns`: `true` admits it (and, in
    /// the half-open case, marks it as the probe), `false` sheds it.
    pub fn admit(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { since_ns } => {
                if now_ns.saturating_sub(since_ns) >= self.cooldown_ns {
                    // Cooldown over: this request becomes the probe.
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already in flight; shed until it reports.
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a served request that succeeded: resets the consecutive
    /// count, and closes the circuit when this was the half-open probe.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed { failures: 0 };
    }

    /// Records an admitted request that ended without a tenant-health
    /// verdict (shed on capacity, expired in queue). In the closed
    /// state this is a no-op; if it was the half-open probe, the probe
    /// is inconclusive and the circuit conservatively re-opens so the
    /// breaker can never wedge in `HalfOpen`.
    pub fn record_neutral(&mut self, now_ns: u64) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open { since_ns: now_ns };
        }
    }

    /// Records a served request that failed (panic, mid-run deadline
    /// expiry, admission denial). Reaching the threshold — or failing
    /// the half-open probe — opens the circuit at `now_ns`.
    pub fn record_failure(&mut self, now_ns: u64) {
        if self.threshold == 0 {
            return; // disabled: never opens
        }
        match self.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    self.state = BreakerState::Open { since_ns: now_ns };
                } else {
                    self.state = BreakerState::Closed { failures };
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open { since_ns: now_ns };
            }
            BreakerState::Open { .. } => {}
        }
    }
}

/// Jittered exponential backoff for `AtCapacity` checkout retries:
/// attempt `n` sleeps `base * 2^n`, capped at `cap`, scaled by a jitter
/// factor in `[0.5, 1.5)` drawn from a seeded [`Rng`] — so the retry
/// *schedule* is deterministic under `--seed` while still decorrelating
/// workers that collide on an exhausted pool.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    rng: Rng,
}

impl Backoff {
    /// A backoff policy growing from `base` to at most `cap` per sleep.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            rng: Rng::new(seed),
        }
    }

    /// The sleep for retry number `attempt` (0-based).
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.cap);
        let jitter = 0.5 + self.rng.f64(); // [0.5, 1.5)
        exp.mul_f64(jitter).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let mut breaker = CircuitBreaker::new(3, Duration::from_millis(1));
        assert!(breaker.admit(0));
        breaker.record_failure(10);
        breaker.record_failure(20);
        assert!(breaker.admit(25), "below threshold stays closed");
        breaker.record_failure(30);
        assert_eq!(breaker.state(), BreakerState::Open { since_ns: 30 });
        assert!(!breaker.admit(40), "open circuit sheds");
    }

    #[test]
    fn a_success_resets_the_consecutive_count() {
        let mut breaker = CircuitBreaker::new(2, Duration::from_millis(1));
        breaker.record_failure(0);
        breaker.record_success();
        breaker.record_failure(10);
        assert!(
            !breaker.is_open(),
            "non-consecutive failures must not accumulate"
        );
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let cooldown = Duration::from_millis(1);
        let mut breaker = CircuitBreaker::new(1, cooldown);
        breaker.record_failure(0);
        assert!(!breaker.admit(100), "still cooling down");
        let after = cooldown.as_nanos() as u64 + 1;
        assert!(breaker.admit(after), "cooldown over: probe admitted");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.admit(after + 1), "only one probe in flight");
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed { failures: 0 });
        assert!(breaker.admit(after + 2));
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let cooldown = Duration::from_millis(1);
        let mut breaker = CircuitBreaker::new(1, cooldown);
        breaker.record_failure(0);
        let after = cooldown.as_nanos() as u64 + 1;
        assert!(breaker.admit(after));
        breaker.record_failure(after + 5);
        assert_eq!(
            breaker.state(),
            BreakerState::Open {
                since_ns: after + 5
            }
        );
        assert!(!breaker.admit(after + 10));
    }

    #[test]
    fn inconclusive_probe_reopens_instead_of_wedging_half_open() {
        let cooldown = Duration::from_millis(1);
        let mut breaker = CircuitBreaker::new(1, cooldown);
        breaker.record_failure(0);
        let after = cooldown.as_nanos() as u64 + 1;
        assert!(breaker.admit(after));
        breaker.record_neutral(after + 5);
        assert_eq!(
            breaker.state(),
            BreakerState::Open {
                since_ns: after + 5
            },
            "a probe with no health verdict must not leave the breaker half-open"
        );
        // And neutral results in the closed state are no-ops.
        let mut closed = CircuitBreaker::new(3, cooldown);
        closed.record_neutral(9);
        assert_eq!(closed.state(), BreakerState::Closed { failures: 0 });
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut breaker = CircuitBreaker::new(0, Duration::from_millis(1));
        for i in 0..100 {
            breaker.record_failure(i);
        }
        assert!(!breaker.is_open());
        assert!(breaker.admit(1000));
    }

    #[test]
    fn backoff_grows_caps_and_is_seed_deterministic() {
        let base = Duration::from_micros(10);
        let cap = Duration::from_millis(2);
        let mut a = Backoff::new(base, cap, 7);
        let mut b = Backoff::new(base, cap, 7);
        let delays_a: Vec<Duration> = (0..12).map(|n| a.delay(n)).collect();
        let delays_b: Vec<Duration> = (0..12).map(|n| b.delay(n)).collect();
        assert_eq!(delays_a, delays_b, "same seed, same schedule");
        for (n, d) in delays_a.iter().enumerate() {
            assert!(*d <= cap, "attempt {n} exceeded the cap: {d:?}");
            assert!(*d >= base / 2, "attempt {n} under the jitter floor");
        }
        // The exponential actually grows before the cap bites.
        assert!(delays_a[6] > delays_a[0]);
        let mut c = Backoff::new(base, cap, 8);
        let delays_c: Vec<Duration> = (0..12).map(|n| c.delay(n)).collect();
        assert_ne!(delays_a, delays_c, "different seeds decorrelate");
    }
}
