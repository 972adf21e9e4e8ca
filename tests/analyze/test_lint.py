"""Determinism/simulator-safety lint: every rule fires on a seeded
violation, the suppression comment works, and the shipped simulator
scope is clean."""

from __future__ import annotations

import textwrap

from repro.analyze import lint_source, lint_tree
from repro.analyze.lint import DEFAULT_SCOPE, LINT_RULES


def _rules(source, hot=False):
    return {f.rule for f in lint_source(textwrap.dedent(source), "mod.py", hot=hot)}


def test_wallclock_flagged():
    assert "wallclock" in _rules(
        """
        import time

        def step():
            return time.time()
        """
    )


def test_datetime_now_flagged():
    assert "wallclock" in _rules(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
    )


def test_global_rng_flagged():
    assert "global-rng" in _rules(
        """
        import random

        def pick():
            return random.random()
        """
    )


def test_numpy_legacy_global_rng_flagged():
    assert "global-rng" in _rules(
        """
        import numpy as np

        def pick():
            return np.random.rand(3)
        """
    )


def test_numpy_generator_api_allowed():
    assert not _rules(
        """
        import numpy as np

        def pick(seed):
            return np.random.default_rng(seed).integers(0, 10)
        """
    )


def test_set_iteration_flagged():
    assert "set-iteration" in _rules(
        """
        def walk(items):
            for x in {1, 2, 3}:
                yield x
        """
    )


def test_blocking_io_flagged():
    assert "blocking-io" in _rules(
        """
        def load(path):
            with open(path) as f:
                return f.read()
        """
    )


def test_socket_import_flagged():
    assert "blocking-io" in _rules(
        """
        import socket
        """
    )


def test_missing_slots_on_hot_path_flagged():
    source = """
        from dataclasses import dataclass

        @dataclass
        class Frame:
            depth: int
        """
    assert "missing-slots" in _rules(source, hot=True)
    # The same class off the hot path is fine.
    assert "missing-slots" not in _rules(source, hot=False)


def test_parse_error_is_a_finding():
    assert _rules("def broken(:\n") == {"parse-error"}


def test_suppression_comment_honored():
    assert not _rules(
        """
        import time

        def step():
            return time.time()  # lint: allow(wallclock)
        """
    )


def test_suppression_is_rule_specific():
    assert "wallclock" in _rules(
        """
        import time

        def step():
            return time.time()  # lint: allow(global-rng)
        """
    )


def test_every_rule_documented():
    assert set(LINT_RULES) >= {
        "wallclock", "global-rng", "set-iteration", "blocking-io",
        "missing-slots", "parse-error", "error-handler",
    }


def test_shipped_scope_is_clean():
    findings = lint_tree()
    assert findings == [], "\n".join(str(f) for f in findings)
    assert "simmpi" in DEFAULT_SCOPE and "analyze" in DEFAULT_SCOPE


CATCHES_MPI_ERROR = """
    from repro.simmpi.errors import MPIError

    def main(ctx):
        try:
            yield from ctx.Barrier(ctx.WORLD)
        except MPIError:
            return None
    """


def _app_rules(source):
    return [f.rule for f in lint_source(textwrap.dedent(source), "apps/mod.py", app=True)]


def test_app_catching_mpi_error_flagged():
    """Errors are fatal to the job: an application that catches one
    breaks what the snapshot engine decides at the park."""
    assert _app_rules(CATCHES_MPI_ERROR) == ["error-handler"]
    assert "error-handler" not in _rules(CATCHES_MPI_ERROR)  # outside apps/


def test_broad_and_subclass_handlers_flagged_in_apps():
    for caught in ("", " Exception", " BaseException", " SimMPIError",
                   " errors.SegmentationFault", " (KeyError, AppError)"):
        assert _app_rules(f"""
            try:
                pass
            except{caught}:
                pass
            """) == ["error-handler"], caught


def test_survivals_the_except_rule_misses_are_flagged_in_apps():
    """A suppress(...) context, a yield while the error unwinds, and an
    aliased error class: each lets a job survive or reorder a fatal
    error, so each is flagged under apps/."""
    for source in (
        """
        import contextlib

        with contextlib.suppress(MPIError):
            pass
        """,
        """
        from contextlib import suppress as quietly

        with quietly(KeyError, Exception):
            pass
        """,
        """
        def main(ctx):
            try:
                yield from ctx.Barrier(ctx.WORLD)
            finally:
                yield from ctx.Barrier(ctx.WORLD)
        """,
        """
        from repro.simmpi.errors import MPIError as E

        try:
            pass
        except E:
            pass
        """,
        """
        import repro.simmpi.errors as errs

        try:
            pass
        except (KeyError, errs.DeadlockError):
            pass
        """,
    ):
        assert _app_rules(source) == ["error-handler"], source


def test_harmless_suppress_and_finally_allowed_in_apps():
    assert _app_rules("""
        from contextlib import suppress
        from repro.simmpi.errors import MPIError as E

        def main(ctx):
            with suppress(KeyError):
                pass
            try:
                yield from ctx.Barrier(ctx.WORLD)
            finally:
                def later():
                    yield 1
                ctx.log = later
        """) == []


def test_host_side_handlers_allowed_in_apps():
    assert _app_rules("""
        try:
            pass
        except (TypeError, ValueError):
            pass
        except KeyError:
            pass
        """) == []


def test_error_handler_rule_is_scoped_to_apps(tmp_path):
    for sub in ("apps", "simmpi"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "mod.py").write_text(textwrap.dedent(CATCHES_MPI_ERROR))
    findings = lint_tree(tmp_path)
    assert [(f.path.split("/")[-2], f.rule) for f in findings] == [("apps", "error-handler")]
