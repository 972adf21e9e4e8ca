"""Feature extraction and dataset assembly tests."""

import numpy as np
import pytest

from repro.pruning.mldriven import QUARTILE_LEVELS
from repro.injection import enumerate_points
from repro.ml import (
    FEATURE_NAMES,
    build_level_dataset,
    build_outcome_dataset,
    features_matrix,
    merge_datasets,
    point_features,
    stack_is_errhal,
)
from repro.ml.features import encode_type, invocation_stack


class TestFeatures:
    def test_vector_shape_and_names(self, lammps_profile):
        point = enumerate_points(lammps_profile)[0]
        vec = point_features(lammps_profile, point)
        assert vec.shape == (len(FEATURE_NAMES),)

    def test_errhal_detected_by_convention(self, lammps_profile):
        points = enumerate_points(lammps_profile)
        feats = features_matrix(lammps_profile, points)
        errhal_col = feats[:, FEATURE_NAMES.index("ErrHal")]
        assert 0 < errhal_col.mean() < 1  # both kinds present

    def test_stack_is_errhal(self):
        assert stack_is_errhal(("main@a.py:1", "check_atoms@t.py:5"))
        assert not stack_is_errhal(("main@a.py:1", "thermo@t.py:5"))

    def test_phase_feature_varies(self, lammps_profile):
        feats = features_matrix(lammps_profile, enumerate_points(lammps_profile))
        phases = set(feats[:, FEATURE_NAMES.index("Phase")])
        assert len(phases) >= 3  # input, init, compute, end

    def test_type_encodes_root_role(self, lammps_profile):
        points = enumerate_points(lammps_profile)
        bcast_root = next(
            p for p in points if p.collective == "Bcast" and p.rank == 0
        )
        bcast_nonroot = next(
            p for p in points if p.collective == "Bcast" and p.rank == 1
        )
        assert encode_type(lammps_profile, bcast_root) == encode_type(
            lammps_profile, bcast_nonroot
        ) + 1

    def test_invocation_stack_missing_raises(self, lammps_profile):
        point = enumerate_points(lammps_profile)[0]
        summary = lammps_profile.summary(point.rank, point.site_key)
        with pytest.raises(KeyError):
            invocation_stack(summary, 10_000)

    def test_empty_matrix(self, lammps_profile):
        assert features_matrix(lammps_profile, []).shape == (0, len(FEATURE_NAMES))


class TestDatasets:
    def test_outcome_dataset(self, lu_profile, lu_small_campaign):
        ds = build_outcome_dataset(lu_profile, lu_small_campaign)
        assert len(ds) == len(lu_small_campaign.points)
        assert ds.X.shape == (len(ds), len(FEATURE_NAMES))
        assert all(0 <= label < 6 for label in ds.y)
        assert ds.label_names[0] == "SUCCESS"

    def test_level_dataset(self, lu_profile, lu_small_campaign):
        ds = build_level_dataset(lu_profile, lu_small_campaign, QUARTILE_LEVELS)
        assert all(0 <= label < 4 for label in ds.y)
        assert ds.label_names == ("low", "medium-low", "medium-high", "high")

    def test_subset(self, lu_profile, lu_small_campaign):
        ds = build_outcome_dataset(lu_profile, lu_small_campaign)
        sub = ds.subset(np.array([0, 1]))
        assert len(sub) == 2
        assert sub.points == ds.points[:2]

    def test_merge(self, lu_profile, lu_small_campaign):
        ds = build_outcome_dataset(lu_profile, lu_small_campaign)
        merged = merge_datasets([ds, ds])
        assert len(merged) == 2 * len(ds)

    def test_merge_incompatible_raises(self, lu_profile, lu_small_campaign):
        a = build_outcome_dataset(lu_profile, lu_small_campaign)
        b = build_level_dataset(lu_profile, lu_small_campaign, QUARTILE_LEVELS)
        with pytest.raises(ValueError):
            merge_datasets([a, b])

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_datasets([])
