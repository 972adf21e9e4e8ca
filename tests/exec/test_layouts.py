"""Unit-layout versioning: site-major ordering, digest stability, and
resume compatibility across the ``--snapshot`` default flip.

Three facts are pinned here:

* ``"s1"`` enumerates one-unit-per-point batches site-major — the unit
  set and layout tag the digest covers; dispatch order is execution
  order, chosen where ``run_campaign`` builds its pending list;
* ``"p1"`` digests are byte-identical to digests computed before the
  layout tag existed, so every pre-existing stored campaign still resumes;
* resuming under the other layout opens a fresh campaign row and never
  touches (or reuses) the other layout's units.
"""

import pytest

from repro.exec.checkpoint import campaign_digest
from repro.exec.sharding import LAYOUTS, make_units
from repro.injection import enumerate_points
from repro.injection.space import InjectionPoint
from repro.store import DBCheckpointStore


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
    """A campaign stored under the digest computed before the layout
    tag existed resumes cleanly under the classic layout."""
    digest = campaign_digest(**digest_inputs)  # pre-layout payload
    store = DBCheckpointStore(tmp_path / "campaign.db", digest)
    store.load(resume=False)
    store.record("p0:t0-1", [])
    store.close()

    p1 = DBCheckpointStore(
        tmp_path / "campaign.db", campaign_digest(**digest_inputs, layout="p1")
    )
    assert set(p1.load(resume=True)) == {"p0:t0-1"}
    p1.close()


def test_layout_change_starts_fresh_row(tmp_path, digest_inputs):
    """Resuming a p1 campaign with snapshot serving on (s1) opens a new
    row: no p1 unit is reused, and the p1 row stays intact."""
    path = tmp_path / "campaign.db"
    p1_digest = campaign_digest(**digest_inputs)
    store = DBCheckpointStore(path, p1_digest)
    store.load(resume=False)
    store.record("p0:t0-1", [])
    store.close()

    s1 = DBCheckpointStore(path, campaign_digest(**digest_inputs, layout="s1"))
    assert s1.load(resume=True) == {}
    s1.close()
    again = DBCheckpointStore(path, p1_digest)
    assert set(again.load(resume=True)) == {"p0:t0-1"}
    again.close()
