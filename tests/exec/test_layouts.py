"""Unit-layout versioning: site-major ordering, digest stability, and
checkpoint compatibility across the ``--snapshot`` default flip.

Three facts are pinned here:

* ``"s1"`` enumerates one-unit-per-point batches site-major — the unit
  set and layout tag the digest covers; dispatch order is execution
  order, chosen where ``run_campaign`` builds its pending list;
* ``"p1"`` digests are byte-identical to digests computed before the
  layout tag existed, so every pre-existing checkpoint still resumes;
* a p1 <-> s1 mismatch fails loudly, and the error says the layout (and
  the flag that selects it) instead of a bare digest diff.
"""

import pytest

from repro.exec.checkpoint import CheckpointMismatch, CheckpointStore, campaign_digest
from repro.exec.sharding import LAYOUTS, make_units
from repro.injection import enumerate_points
from repro.injection.space import InjectionPoint


def _points():
    # Two sites interleaved across point indices, multiple invocations.
    return [
        InjectionPoint(0, "Allreduce", "a.py:10", 0),
        InjectionPoint(0, "Barrier", "a.py:20", 0),
        InjectionPoint(0, "Allreduce", "a.py:10", 1),
        InjectionPoint(0, "Barrier", "a.py:20", 1),
    ]


def test_site_major_groups_sites_consecutively():
    units = make_units(4, 3, points=_points(), layout="s1")
    # One unit per point (all 3 tests), ordered site-major.
    assert [u.unit_id for u in units] == [
        "p0:t0-3", "p2:t0-3", "p1:t0-3", "p3:t0-3",
    ]
    assert all(u.n_tests == 3 for u in units)


def test_site_major_partitions_every_test_exactly_once():
    units = make_units(4, 5, points=_points(), layout="s1")
    seen = {(u.point_index, t) for u in units for t in range(u.test_start, u.test_stop)}
    assert seen == {(p, t) for p in range(4) for t in range(5)}


def test_point_major_default_is_unchanged():
    assert make_units(3, 10, unit_tests=3) == make_units(3, 10, unit_tests=3, layout="p1")


def test_s1_requires_points():
    with pytest.raises(ValueError, match="points"):
        make_units(4, 3, layout="s1")
    with pytest.raises(ValueError, match="4 entries"):
        make_units(3, 3, points=_points(), layout="s1")


def test_unknown_layout_rejected():
    with pytest.raises(ValueError, match="unknown unit layout"):
        make_units(1, 1, layout="zz")
    assert LAYOUTS == ("p1", "s1")


@pytest.fixture(scope="module")
def digest_inputs(lu_app, lu_profile):
    return dict(
        app=lu_app,
        seed=7,
        tests_per_point=4,
        param_policy="all",
        unit_tests=1,
        points=enumerate_points(lu_profile)[:3],
    )


def test_p1_digest_identical_to_pre_layout_digest(digest_inputs):
    """The classic layout must not change any existing digest — that is
    the whole backward-compatibility story for old checkpoints/DBs."""
    assert campaign_digest(**digest_inputs) == campaign_digest(
        **digest_inputs, layout="p1"
    )


def test_s1_digest_differs(digest_inputs):
    assert campaign_digest(**digest_inputs, layout="s1") != campaign_digest(
        **digest_inputs
    )


def test_pre_layout_checkpoint_resumes_under_p1(tmp_path, digest_inputs):
    """A stream written before the layout tag existed (header has no
    ``layout`` key) resumes cleanly under the classic layout."""
    digest = campaign_digest(**digest_inputs)
    import pickle

    with (tmp_path / "units.pkl").open("wb") as fh:
        pickle.dump({"digest": digest, "format": 1}, fh)  # pre-layout header
        pickle.dump({"type": "unit", "unit_id": "p0:t0-1", "tests": []}, fh)

    store = CheckpointStore(tmp_path, digest, layout="p1")
    completed = store.load(resume=True)
    store.close()
    assert set(completed) == {"p0:t0-1"}


def test_layout_mismatch_error_names_the_layout(tmp_path, digest_inputs):
    """Resuming a p1 checkpoint with snapshot serving on (s1) must fail
    with a message pointing at --snapshot/--no-snapshot, not a bare
    digest mismatch."""
    p1_digest = campaign_digest(**digest_inputs)
    store = CheckpointStore(tmp_path, p1_digest, layout="p1")
    store.load(resume=False)
    store.record("p0:t0-1", [])
    store.close()

    s1_digest = campaign_digest(**digest_inputs, layout="s1")
    with pytest.raises(CheckpointMismatch, match="--snapshot/--no-snapshot"):
        CheckpointStore(tmp_path, s1_digest, layout="s1").load(resume=True)


def test_plain_digest_mismatch_keeps_generic_hint(tmp_path, digest_inputs):
    digest = campaign_digest(**digest_inputs)
    store = CheckpointStore(tmp_path, digest, layout="p1")
    store.load(resume=False)
    store.close()
    with pytest.raises(CheckpointMismatch, match="delete it or run without --resume"):
        CheckpointStore(tmp_path, "deadbeef", layout="p1").load(resume=True)
