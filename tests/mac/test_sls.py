"""Sector-sweep retry tests."""

import pytest

from repro.mac.sls import SweepError, SweepRetryPolicy, sweep_with_retry


def flaky(failures: int):
    """An attempt that raises ``SweepError`` ``failures`` times, then succeeds."""
    calls = []

    def attempt():
        calls.append(None)
        if len(calls) <= failures:
            raise SweepError(f"failure {len(calls)}")
        return "pair"

    return attempt


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = SweepRetryPolicy(base_delay_s=1e-3, backoff_factor=2.0)
        assert [policy.delay_after(k) for k in range(3)] == [1e-3, 2e-3, 4e-3]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SweepRetryPolicy(backoff_factor=0.5)


class TestSweepWithRetry:
    def test_first_success_costs_one_attempt(self):
        assert sweep_with_retry(flaky(0), attempt_cost_s=0.5) == ("pair", 1, 0.5)

    def test_retries_charge_attempts_and_backoff(self):
        failures = []
        result, attempts, elapsed = sweep_with_retry(
            flaky(2),
            SweepRetryPolicy(max_attempts=3, base_delay_s=1.0, backoff_factor=2.0),
            attempt_cost_s=0.5,
            on_failure=lambda index, reason: failures.append((index, reason)),
        )
        assert (result, attempts) == ("pair", 3)
        assert elapsed == pytest.approx(3 * 0.5 + 1.0 + 2.0)
        assert failures == [(0, "failure 1"), (1, "failure 2")]

    def test_exhausted_budget_returns_none(self):
        result, attempts, elapsed = sweep_with_retry(
            flaky(5), SweepRetryPolicy(max_attempts=2, base_delay_s=1.0)
        )
        assert (result, attempts) == (None, 2)
        assert elapsed == pytest.approx(1.0)  # no backoff after the last failure
