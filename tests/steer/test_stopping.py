"""Sequential-stopping unit tests against closed-form binomial cases.

The Wilson interval has exact closed forms at the degenerate histograms
(``k = 0`` / ``k = n``) a fault-injection point usually produces; the
pins below are hand-derived from them, so any drift in the interval
arithmetic — and therefore in where every adaptive campaign truncates
its test streams — fails here with explicit numbers.
"""

import math
import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.outcome import Outcome
from repro.injection.runner import TestResult as InjectionTestResult
from repro.injection.space import FaultSpec, InjectionPoint
from repro.steer import (
    DEFAULT_Z,
    SequentialStopper,
    tests_to_close,
    wilson_interval,
    wilson_width,
)

SETTINGS = dict(max_examples=100, deadline=None, derandomize=True)

POINT = InjectionPoint(0, "bcast", "app.py:1", 0)


def _test(outcome: Outcome) -> InjectionTestResult:
    return InjectionTestResult(FaultSpec(POINT, "buffer", None), outcome, None)


class TestWilsonInterval:
    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_closed_form_k0(self):
        # k = 0: interval is exactly [0, z^2 / (n + z^2)].
        z = DEFAULT_Z
        for n in (1, 5, 12, 100):
            lo, hi = wilson_interval(0, n, z)
            assert lo == pytest.approx(0.0, abs=1e-12)
            assert hi == pytest.approx(z * z / (n + z * z), abs=1e-12)

    def test_closed_form_kn_symmetric(self):
        # k = n mirrors k = 0: [n / (n + z^2), 1].
        z = DEFAULT_Z
        for n in (1, 5, 12, 100):
            lo, hi = wilson_interval(n, n, z)
            assert hi == pytest.approx(1.0, abs=1e-12)
            assert lo == pytest.approx(n / (n + z * z), abs=1e-12)
            # Exact mirror of the k = 0 interval.
            lo0, hi0 = wilson_interval(0, n, z)
            assert lo == pytest.approx(1.0 - hi0, abs=1e-12)

    def test_half_split_pin(self):
        # k = 5, n = 10, z = 1.96: center = (0.5 + z^2/20) / (1 + z^2/10),
        # half = (z / (1 + z^2/10)) * sqrt(0.025 + z^2/400).
        z = DEFAULT_Z
        denom = 1.0 + z * z / 10
        center = (0.5 + z * z / 20) / denom
        half = (z / denom) * math.sqrt(0.025 + z * z / 400)
        lo, hi = wilson_interval(5, 10, z)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(0, -1)
        with pytest.raises(ValueError):
            wilson_interval(3, 2)
        with pytest.raises(ValueError):
            wilson_interval(-1, 2)
        with pytest.raises(ValueError):
            wilson_interval(0, 5, z=0.0)

    @settings(**SETTINGS)
    @given(n=st.integers(0, 500), frac=st.floats(0.0, 1.0))
    def test_interval_is_valid_and_contains_p_hat(self, n, frac):
        k = int(round(n * frac))
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= hi <= 1.0
        if n > 0:
            assert lo - 1e-12 <= k / n <= hi + 1e-12

    @settings(**SETTINGS)
    @given(n=st.integers(1, 400))
    def test_degenerate_width_shrinks_with_n(self, n):
        assert wilson_width(0, n + 1) < wilson_width(0, n)


class TestTestsToClose:
    def test_paper_default_pin(self):
        # z = 1.96, w = 0.25: ceil(1.96^2 * 0.75 / 0.25) = ceil(11.5248) = 12.
        assert tests_to_close(0.25) == 12

    def test_is_minimal(self):
        # n = tests_to_close(w) closes a degenerate histogram below w;
        # n - 1 does not.
        for w in (0.1, 0.2, 0.25, 0.3, 0.5):
            n = tests_to_close(w)
            assert wilson_width(0, n) <= w
            if n > 1:
                assert wilson_width(0, n - 1) > w

    def test_validation(self):
        with pytest.raises(ValueError):
            tests_to_close(0.0)
        with pytest.raises(ValueError):
            tests_to_close(1.5)
        with pytest.raises(ValueError):
            tests_to_close(0.25, z=-1.0)


class TestSequentialStopper:
    def test_degenerate_stream_stops_at_closed_form(self):
        stopper = SequentialStopper(ci_width=0.25, min_tests=1)
        tests = []
        stopped_at = None
        for i in range(50):
            tests.append(_test(Outcome.SUCCESS))
            if stopper.should_stop(tests):
                stopped_at = len(tests)
                break
        assert stopped_at == tests_to_close(0.25) == 12

    def test_all_errors_stream_stops_symmetrically(self):
        stopper = SequentialStopper(ci_width=0.25, min_tests=1)
        tests = []
        for _ in range(tests_to_close(0.25)):
            tests.append(_test(Outcome.SEG_FAULT))
        assert stopper.should_stop(tests)

    def test_min_tests_guard(self):
        # Even a width-1.0 stopper (always closed) waits for min_tests.
        stopper = SequentialStopper(ci_width=1.0, min_tests=6)
        tests = []
        for i in range(1, 10):
            tests.append(_test(Outcome.SUCCESS))
            assert stopper.should_stop(tests) == (i >= 6)

    def test_tool_errors_are_excluded(self):
        # TOOL_ERROR contributes to neither n nor k: a stream of harness
        # failures never converges, mirroring PointResult.error_rate.
        stopper = SequentialStopper(ci_width=0.25, min_tests=1)
        tests = [_test(Outcome.TOOL_ERROR) for _ in range(100)]
        assert not stopper.should_stop(tests)
        # Interleaved tool errors delay the stop to the same response
        # count as a clean stream.
        mixed = []
        responses = 0
        for i in range(100):
            mixed.append(_test(Outcome.TOOL_ERROR if i % 2 else Outcome.SUCCESS))
            if i % 2 == 0:
                responses += 1
            if stopper.should_stop(mixed):
                break
        assert responses == tests_to_close(0.25)

    def test_mixed_stream_needs_more_tests(self):
        # An even SUCCESS/SEG_FAULT split has the widest interval; it
        # must not stop where the degenerate stream does.
        stopper = SequentialStopper(ci_width=0.25, min_tests=1)
        n = tests_to_close(0.25)
        tests = [
            _test(Outcome.SUCCESS if i % 2 else Outcome.SEG_FAULT)
            for i in range(n)
        ]
        assert not stopper.should_stop(tests)

    def test_decision_is_pure_function_of_prefix(self):
        stopper = SequentialStopper(ci_width=0.3, min_tests=2)
        stream = [
            _test(Outcome.SUCCESS if i % 3 else Outcome.WRONG_ANS)
            for i in range(30)
        ]
        decisions = [stopper.should_stop(stream[: i + 1]) for i in range(30)]
        again = [stopper.should_stop(stream[: i + 1]) for i in range(30)]
        assert decisions == again

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialStopper(ci_width=0.0)
        with pytest.raises(ValueError):
            SequentialStopper(ci_width=1.5)
        with pytest.raises(ValueError):
            SequentialStopper(ci_width=0.25, min_tests=0)
        with pytest.raises(ValueError):
            SequentialStopper(ci_width=0.25, z=0.0)

    def test_frozen_hashable_picklable(self):
        # Workers receive the stopper inside the pickled payload.
        stopper = SequentialStopper(ci_width=0.25, min_tests=6)
        assert hash(stopper) == hash(SequentialStopper(ci_width=0.25, min_tests=6))
        assert pickle.loads(pickle.dumps(stopper)) == stopper
        with pytest.raises(Exception):
            stopper.ci_width = 0.5

    def test_fingerprint_is_json_stable(self):
        import json

        fp = SequentialStopper(ci_width=0.25).fingerprint()
        assert json.loads(json.dumps(fp)) == {
            "ci_width": 0.25, "min_tests": 6, "z": DEFAULT_Z,
        }


#: One error, one non-error response, and a harness verdict that is no
#: response at all.
ALPHABET = tuple(_test(o) for o in (Outcome.SEG_FAULT, Outcome.SUCCESS, Outcome.TOOL_ERROR))


def _fewest_runs(stopper, prefix, most) -> int:
    """The fewest tests a serial loop that consults ``stopper`` before
    each test runs after ``prefix`` was delivered, over every
    continuation of up to ``most`` results."""
    if most == 0 or stopper.should_stop(prefix):
        return 0
    return 1 + min(_fewest_runs(stopper, prefix + [t], most - 1) for t in ALPHABET)


class TestCertain:
    """``certain(prefix, most)``: how many next tests run whatever the
    undelivered results are — what a slot source may hand the engine
    before any of them is reaped."""

    MOST = 4

    @pytest.mark.parametrize("ci_width, min_tests", [(0.4, 6), (0.7, 2), (0.5, 3)])
    def test_safe_and_tight_over_every_prefix(self, ci_width, min_tests):
        """Over every delivered prefix up to 6 long: every continuation
        runs at least ``certain`` more tests (safe), and some runs
        exactly that many (no larger value is safe)."""
        stopper = SequentialStopper(ci_width=ci_width, min_tests=min_tests)
        for length in range(7):
            for prefix in product(ALPHABET, repeat=length):
                prefix = list(prefix)
                fewest = _fewest_runs(stopper, prefix, self.MOST)
                for most in range(self.MOST + 1):
                    # A continuation runs at least this many of its first
                    # ``most`` tests, and some runs exactly this many.
                    assert stopper.certain(prefix, most) == min(fewest, most), (prefix, most)

    def test_lammps_adaptive_pins(self):
        stopper = SequentialStopper(ci_width=0.4, min_tests=6)
        # Below min_tests nothing can stop; at six responses all alike
        # it can.
        assert stopper.certain([], 8) == 6
        # One error and one non-error response keep the interval wide
        # through all of the point's 8 tests, whatever the rest are.
        mixed = [_test(Outcome.SEG_FAULT), _test(Outcome.SUCCESS)]
        assert stopper.certain(mixed, 6) == 6
        stopped = [_test(Outcome.SUCCESS)] * 6
        assert stopper.should_stop(stopped)
        assert stopper.certain(stopped, 2) == 0

    def test_should_stop_is_certain_of_nothing(self):
        stopper = SequentialStopper(ci_width=0.7, min_tests=2)
        for prefix in product(ALPHABET, repeat=3):
            tests = list(prefix)
            assert (stopper.certain(tests, 1) == 0) == stopper.should_stop(tests)
