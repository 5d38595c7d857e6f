// Client-side fault-handling policy: bounded retries with exponential
// backoff and decorrelated jitter, an overall per-operation deadline budget,
// and a per-server circuit breaker.
//
// All randomness flows through an explicitly seeded Rng (common/rng.h) and
// all time is simulated time, so a retry schedule — like everything else in
// this repository — is bit-reproducible for a given seed.
//
// The backoff follows the "decorrelated jitter" scheme (Brooker, AWS
// architecture blog): sleep_n = min(cap, uniform(base, 3 * sleep_{n-1})).
// It spreads synchronized retry storms better than equal or full jitter
// while keeping the expected growth exponential.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace memfs {

struct RetryPolicy {
  // Total tries, including the first attempt. 1 disables retries.
  std::uint32_t max_attempts = 3;
  // First backoff is drawn from [base_backoff, 3 * base_backoff].
  std::uint64_t base_backoff = units::Micros(200);
  // Ceiling for any single backoff.
  std::uint64_t max_backoff = units::Millis(20);
  // Overall budget across all attempts and backoffs, measured from the
  // operation's start; a backoff never extends past it and an expired budget
  // stops retrying. 0 = unlimited.
  std::uint64_t deadline_budget = 0;
};

// Per-operation retry bookkeeping. Usage:
//
//   RetryState retry(policy, start_time);
//   while (true) {
//     Status s = attempt();
//     if (s.ok() || !IsRetryable(s.code())) break;
//     auto backoff = retry.NextBackoff(rng, now());
//     if (!backoff.allowed) break;       // attempts or budget exhausted
//     sleep(backoff.nanos);
//   }
class RetryState {
 public:
  RetryState(const RetryPolicy& policy, std::uint64_t start_time)
      : policy_(policy), start_(start_time) {}

  struct Backoff {
    bool allowed = false;
    std::uint64_t nanos = 0;
  };

  // Decides whether another attempt may run and, if so, how long to back off
  // first. `now` is the current (simulated) time; draws exactly one Rng
  // value per allowed retry, so the sequence is deterministic per seed.
  [[nodiscard]] Backoff NextBackoff(Rng& rng, std::uint64_t now);

  std::uint32_t attempts_started() const { return attempts_started_; }
  std::uint64_t start_time() const { return start_; }

  // Remaining deadline budget at `now` (~0 when expired; the full horizon
  // when no budget is configured).
  std::uint64_t BudgetRemaining(std::uint64_t now) const;

 private:
  RetryPolicy policy_;
  std::uint64_t start_;
  std::uint64_t prev_backoff_ = 0;
  std::uint32_t attempts_started_ = 1;  // the caller's first attempt
};

// Per-server circuit breaker. After `failure_threshold` consecutive
// retryable failures the breaker opens: requests fail immediately with
// UNAVAILABLE instead of eating the connection timeout on every stripe.
// After `open_duration` the breaker lets probes through (half-open); the
// first success closes it, a failure re-opens it for another period.
struct CircuitBreakerConfig {
  // 0 disables the breaker entirely.
  std::uint32_t failure_threshold = 5;
  std::uint64_t open_duration = units::Millis(5);
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {})
      : config_(config) {}

  // True when a request may be sent at `now` (closed, or open long enough
  // that a half-open probe is due).
  [[nodiscard]] bool AllowRequest(std::uint64_t now);

  void RecordSuccess();
  void RecordFailure(std::uint64_t now);

  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };
  State state() const { return state_; }
  // Cumulative closed->open transitions (the observable "trips").
  std::uint64_t open_transitions() const { return open_transitions_; }

 private:
  CircuitBreakerConfig config_;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t open_until_ = 0;
  std::uint64_t open_transitions_ = 0;
};

}  // namespace memfs
