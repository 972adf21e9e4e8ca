"""The one inject → verify → retrain loop: batched injection with an
optional per-point sequential stopper.

:func:`adaptive_campaign` injects a batch of points, verifies the
incoming model on it, retrains on everything measured so far, and stops
once the verification accuracy reaches the target — every point never
injected then gets its sensitivity *predicted*.  Two knobs make it
either of the repo's learning loops:

* **which points** (``sampler_mode``, :mod:`repro.steer.sampler`) —
  ``"order"`` walks the run's seeded permutation, the paper's § III-C
  learning phase (``FastFIT.learn``); ``"margin"`` / ``"entropy"`` take
  the *most uncertain* slice of the unexplored space under the freshly
  retrained forest, so the model's decision boundary gets measured
  first and confidently-predicted regions are deferred (often forever);
* **how many tests per point** (``ci_width``,
  :mod:`repro.steer.stopping`) — a point's test stream ends early once
  the Wilson interval over its outcome histogram closes below
  ``ci_width``, so degenerate points cost ~``z²(1-w)/w`` tests instead
  of the full budget; ``ci_width=None`` runs every stream in full.

Determinism contract
--------------------
The whole trajectory — batch membership, per-point truncation indices,
round accuracies — is a pure function of ``(app, points, config)``:

* test RNGs come from the campaign's
  ``SeedSequence(seed, (global_point_index, test_index))`` contract, and
  batches pass their **global** indices through
  ``Campaign.run(point_indices=...)``, so a point draws identical test
  streams whether it is visited in round 0 or round 5 (or by a plain
  campaign);
* stopping is a pure function of each point's ordered result prefix
  (see :class:`~repro.steer.stopping.SequentialStopper`);
* batch selection is the seeded permutation's head or a pure sort over
  model scores, and the model is a pure function of the
  (deterministic) results it was fitted on.

Therefore serial, ``jobs=N``, and killed-and-resumed (``--db`` +
``resume=True``) runs produce bit-identical trajectories.

Store identity
--------------
All batches of one steering run land in **one** campaign row: the
digest is computed once over the *full* candidate list plus the
steering parameters (via ``Campaign.digest(extra=...)``) and passed to
every ``Campaign.run`` as an override.  A resumed run recomputes the
same digest, replays recorded units from the store, and re-derives the
identical trajectory from them.  The ``learn()`` configuration (the
``"order"`` sampler, no stopper, no budget) keeps the ``{"ml": …}``
extra its databases were written under.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..apps.base import Application
from ..injection.campaign import Campaign, CampaignConfig, PointResult
from ..injection.space import InjectionPoint
from ..ml.features import features_matrix
from ..ml.metrics import accuracy
from ..ml.random_forest import RandomForestClassifier
from ..profiling.profiler import ApplicationProfile
from ..pruning.mldriven import Labeler, level_labeler
from .sampler import SAMPLER_MODES, select_batch, uncertainty_scores
from .stopping import DEFAULT_Z, SequentialStopper

_FIELDS = CampaignConfig.__dataclass_fields__


@dataclass(frozen=True)
class SteeringRound:
    """One inject → verify → retrain round of the adaptive loop."""

    round_no: int
    #: Global indices of the points injected this round (sorted).
    point_indices: tuple[int, ...]
    #: ``len(point_indices) * tests_per_point`` — the fixed-budget cost.
    tests_planned: int
    #: Tests actually executed (sequential stopping truncates streams).
    tests_run: int
    #: Verification accuracy of the *incoming* model on this round's
    #: fresh batch; ``None`` for round 0 (no model existed yet).
    accuracy: float | None
    #: Mean acquisition score of the selected batch; ``None`` for the
    #: seed round and the ``"order"`` sampler (selection was
    #: order-based, not model-based).
    mean_uncertainty: float | None

    @property
    def tests_saved(self) -> int:
        return max(0, self.tests_planned - self.tests_run)


@dataclass
class SteeringResult:
    """Outcome of one run of the learning loop."""

    accuracy_target: float
    #: ``None`` when no stopper truncated the test streams.
    ci_width: float | None
    budget: int | None
    label_names: tuple[str, ...]
    tested: dict[InjectionPoint, PointResult] = field(default_factory=dict)
    predicted: dict[InjectionPoint, int] = field(default_factory=dict)
    rounds: list[SteeringRound] = field(default_factory=list)
    model: RandomForestClassifier | None = None
    reached_target: bool = False
    #: Why the loop ended: ``"accuracy"`` (target reached),
    #: ``"budget"`` (next batch would not fit), or ``"exhausted"``
    #: (every point measured — the degenerate full campaign).
    stop_reason: str = ""

    @property
    def total_points(self) -> int:
        return len(self.tested) + len(self.predicted)

    @property
    def tests_run(self) -> int:
        return sum(r.tests_run for r in self.rounds)

    @property
    def tests_saved(self) -> int:
        """Tests skipped *within* visited points by sequential stopping
        (point-level skips show up in :attr:`predicted` instead)."""
        return sum(r.tests_saved for r in self.rounds)

    @property
    def test_reduction(self) -> float:
        """Fraction of points resolved by prediction instead of injection."""
        total = self.total_points
        return len(self.predicted) / total if total else 0.0

    @property
    def accuracy_history(self) -> list[float]:
        """Verification accuracy of every round after the seed round."""
        return [r.accuracy for r in self.rounds if r.accuracy is not None]

    @property
    def final_accuracy(self) -> float:
        history = self.accuracy_history
        return history[-1] if history else 0.0

    def curve(self) -> list[tuple[int, float]]:
        """The accuracy-vs-budget curve: ``(cumulative tests, accuracy)``
        per verified round — the report's steering plot."""
        out: list[tuple[int, float]] = []
        spent = 0
        for r in self.rounds:
            spent += r.tests_run
            if r.accuracy is not None:
                out.append((spent, r.accuracy))
        return out


def adaptive_campaign(
    app: Application,
    profile: ApplicationProfile,
    points: Sequence[InjectionPoint],
    *,
    labeler: Labeler | None = None,
    label_names: tuple[str, ...] | None = None,
    n_estimators: int = 24,
    min_tests: int = 6,
    z: float = DEFAULT_Z,
    sampler_mode: str = "margin",
    config: CampaignConfig | None = None,
    **campaign_options,
) -> SteeringResult:
    """Run the inject → verify → retrain loop.

    The loop's options are :class:`CampaignConfig` fields, taken from
    ``config`` with any ``campaign_options`` fields replaced.
    ``accuracy_target`` stops the loop once the incoming model predicts
    a fresh batch that well — under an uncertainty sampler a *harder*
    bar than under ``"order"``, since the batch is adversarially
    chosen.  ``ci_width`` (with ``min_tests`` and ``z``) configures the
    sequential stopper; ``None`` runs every test stream in full.
    ``budget`` caps the total number of injected tests; the loop never
    starts a batch it could not afford at the worst case (every stream
    running to ``tests_per_point``), so the cap is never exceeded.
    ``batch_size`` ``None`` takes ``len(points) // 8``, at least 4.

    ``metrics`` optionally records round accuracies and the final
    tested/predicted/saved split under ``steer.*`` (the inner campaign
    also records ``campaign.*`` including ``campaign.tests_saved``).

    The loop is a scheduler over one
    :class:`~repro.injection.campaign.Campaign` carrying the stopper,
    built as ``Campaign(app, profile, config, **campaign_options)`` —
    option fields (``tests_per_point``, ``seed``, ``jobs``, ``db_path``,
    …) and runtime objects (``metrics``, …) alike.
    """
    if labeler is None:
        labeler, label_names = level_labeler()
    if label_names is None:
        raise ValueError("label_names required when passing a custom labeler")
    if sampler_mode not in SAMPLER_MODES:
        raise ValueError(
            f"unknown sampler mode {sampler_mode!r}; choices: {', '.join(SAMPLER_MODES)}"
        )
    points = list(points)
    if not points:
        raise ValueError("adaptive_campaign needs at least one injection point")
    options = {k: campaign_options.pop(k) for k in [*campaign_options] if k in _FIELDS}
    cfg = replace(config or CampaignConfig(), **options)
    accuracy_target, ci_width, budget = cfg.accuracy_target, cfg.ci_width, cfg.budget
    batch_size = cfg.batch_size or max(4, len(points) // 8)

    stopper = None if ci_width is None else SequentialStopper(ci_width, min_tests, z)
    campaign = Campaign(app, profile, cfg, stopper=stopper, **campaign_options)
    seed, metrics = campaign.config.seed, campaign.metrics
    tests_per_point = campaign.config.tests_per_point

    # One digest for the whole run, over the FULL candidate list plus
    # the loop's knobs — every batch joins the same campaign row, and a
    # differently-steered run cannot collide.
    knobs = {"batch_size": batch_size, "n_estimators": n_estimators}
    if sampler_mode == "order" and stopper is None and budget is None:
        # learn()'s identity from before it joined this loop, so its
        # databases keep resuming.
        extra = {"ml": {"threshold": accuracy_target, **knobs}}
    else:
        extra = {"steer": {
            "accuracy_target": accuracy_target,
            "stopper": None if stopper is None else stopper.fingerprint(),
            "budget": budget,
            "sampler": sampler_mode,
            **knobs,
        }}
    digest = campaign.digest(points, extra=extra)

    result = SteeringResult(accuracy_target, ci_width, budget, label_names)
    X_all = features_matrix(profile, points)

    def labels_of(prs: dict[InjectionPoint, PointResult]) -> tuple[list[InjectionPoint], np.ndarray]:
        pts = sorted(prs)
        return pts, np.array([labeler(prs[p]) for p in pts], dtype=np.int64)

    model: RandomForestClassifier | None = None
    #: Global indices not injected yet, in seeded-permutation order;
    #: shrinks every round.
    unexplored = [int(i) for i in np.random.default_rng(seed).permutation(len(points))]
    spent = 0
    round_no = 0
    while True:
        if not unexplored:
            result.stop_reason = "exhausted"
            break
        n_take = min(batch_size, len(unexplored))
        if budget is not None:
            # Worst-case affordability: assume every stream runs to the
            # full tests_per_point, so the budget is a hard ceiling.
            affordable = (budget - spent) // tests_per_point
            n_take = min(n_take, affordable)
        if n_take <= 0:
            result.stop_reason = "budget"
            break

        mean_unc: float | None = None
        if model is None or sampler_mode == "order":
            # The seed round (no model yet) and the order sampler take
            # the head of the seeded permutation.
            batch = unexplored[:n_take]
        else:
            scores = uncertainty_scores(
                model, X_all[np.array(unexplored)], mode=sampler_mode
            )
            batch = select_batch(unexplored, scores, n_take)
            by_cand = dict(zip(unexplored, scores))
            mean_unc = float(np.mean([by_cand[i] for i in batch]))
        batch_sorted = sorted(batch)

        # Global indices preserve the SeedSequence contract and (with
        # the site-sorted order) the snapshot engine's park locality.
        sub = campaign.run(
            [points[i] for i in batch_sorted],
            point_indices=batch_sorted,
            digest=digest,
        )
        # Batches after the first must join the store row, not wipe it.
        campaign.config = replace(campaign.config, resume=True)
        measured = sub.points
        round_tests = sub.n_tests()
        spent += round_tests
        injected = set(batch)
        unexplored = [i for i in unexplored if i not in injected]

        acc: float | None = None
        if model is not None:
            # Verify the incoming model on the fresh batch *before*
            # retraining on it — an honest probe (an adversarial one
            # under an uncertainty sampler).
            pts, y_true = labels_of(measured)
            y_pred = model.predict(features_matrix(profile, pts))
            acc = accuracy(y_true, y_pred)
            if metrics is not None:
                metrics.histogram("steer.round_accuracy").observe(acc)
        result.tested.update(measured)
        result.rounds.append(SteeringRound(
            round_no=round_no, point_indices=tuple(batch_sorted),
            tests_planned=len(batch_sorted) * tests_per_point, tests_run=round_tests,
            accuracy=acc, mean_uncertainty=mean_unc,
        ))
        _record_round(campaign.config.db_path, digest, result.rounds[-1], spent, "")

        if acc is not None and acc >= accuracy_target:
            result.reached_target = True
            result.stop_reason = "accuracy"
            break

        pts, y = labels_of(result.tested)
        model = RandomForestClassifier(
            n_estimators=n_estimators, seed=seed + round_no
        ).fit(features_matrix(profile, pts), y)
        round_no += 1

    result.model = model
    if result.rounds:
        _record_round(
            campaign.config.db_path, digest, result.rounds[-1], spent, result.stop_reason
        )
    if unexplored and model is not None:
        preds = model.predict(X_all[np.array(unexplored)])
        result.predicted = {points[i]: int(p) for i, p in zip(unexplored, preds)}

    if metrics is not None:
        metrics.gauge("steer.rounds").set(len(result.rounds))
        metrics.gauge("steer.tested_points").set(len(result.tested))
        metrics.gauge("steer.predicted_points").set(len(result.predicted))
        metrics.gauge("steer.tests_run").set(result.tests_run)
        metrics.gauge("steer.tests_saved").set(result.tests_saved)
        metrics.gauge("steer.final_accuracy").set(result.final_accuracy)
        metrics.gauge("steer.test_reduction").set(result.test_reduction)
    return result


def _record_round(
    db_path, digest: str, rnd: SteeringRound, spent: int, stop_reason: str
) -> None:
    """Persist one round into ``steering_rounds`` (no-op without a DB).

    Opens a short-lived connection: the inner campaign closes its store
    after every batch, so the driver holds no connection between rounds.
    ``INSERT OR REPLACE`` keeps resumed replays idempotent.
    """
    if db_path is None:
        return
    from ..store.db import CampaignDB

    with CampaignDB(db_path) as db:
        cid = db.campaign_id(digest)
        if cid is None:  # pragma: no cover - campaign row always exists here
            return
        db.record_steering_round(
            cid,
            rnd.round_no,
            point_indices=list(rnd.point_indices),
            tests_planned=rnd.tests_planned,
            tests_run=rnd.tests_run,
            budget_used=spent,
            accuracy=rnd.accuracy,
            mean_uncertainty=rnd.mean_uncertainty,
            stop_reason=stop_reason,
        )
