"""Batch selection over the unexplored injection-point space.

Three samplers pick the next batch (:data:`SAMPLER_MODES`).  The
``"order"`` sampler takes the next unexplored points of the run's
seeded permutation — the paper's § III-C learning loop, blind to the
model.  The other two are uncertainty samplers: after each round the
freshly retrained forest scores every point not yet injected, and the
next batch is the top of that ranking, under one of two standard
acquisition functions:

* ``"margin"`` — ``1 - max_c P(c)``: the forest's vote disagreement.
  Zero when every tree agrees, maximal at a uniform vote split.
* ``"entropy"`` — Shannon entropy of the mean leaf distribution, in
  nats.  Distinguishes "split between two classes" from "split between
  all classes", which the margin score cannot.

Both are computed from :meth:`predict_proba`, so any model with that
method plugs in.

Determinism: selection is a pure sort by ``(-score, candidate_index)``
— equal scores break toward the smaller global index — so the same
model and candidate set always produce the same batch, independent of
dict ordering or float summation order elsewhere.  No-starvation falls
out of selection *without replacement*: every round removes its batch
from the candidate pool, so any point is picked after at most
``ceil(|pool| / batch_size)`` rounds regardless of its score.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Acquisition functions of the uncertainty samplers.
UNCERTAINTY_MODES = ("margin", "entropy")
#: Recognised samplers: the uncertainty samplers plus the seeded order.
SAMPLER_MODES = (*UNCERTAINTY_MODES, "order")


def uncertainty_scores(model, X: np.ndarray, mode: str = "margin") -> np.ndarray:
    """Per-row uncertainty of ``model`` over feature matrix ``X``.

    ``model`` needs only ``predict_proba`` (rows summing to 1); the
    score vector aligns with the rows of ``X``.
    """
    if mode not in UNCERTAINTY_MODES:
        raise ValueError(
            f"unknown sampler mode {mode!r}; choices: {', '.join(UNCERTAINTY_MODES)}"
        )
    proba = np.asarray(model.predict_proba(X), dtype=np.float64)
    if proba.ndim != 2:
        raise ValueError(f"predict_proba must return 2-D, got shape {proba.shape}")
    if proba.shape[0] == 0:
        return np.zeros(0)
    if mode == "margin":
        return 1.0 - proba.max(axis=1)
    # entropy: 0 * log(0) := 0, without touching global error state.
    logp = np.where(proba > 0.0, np.log(np.where(proba > 0.0, proba, 1.0)), 0.0)
    return -(proba * logp).sum(axis=1)


def select_batch(
    candidates: Sequence[int], scores: Sequence[float], batch_size: int
) -> list[int]:
    """Pick the ``batch_size`` most uncertain candidates, deterministically.

    ``scores[i]`` belongs to ``candidates[i]``.  Ties break toward the
    smaller candidate index, so the result is a pure function of its
    arguments.  Returns fewer than ``batch_size`` only when the pool is
    smaller; duplicated candidates are rejected (they would let one
    point absorb several batch slots).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(candidates) != len(scores):
        raise ValueError(
            f"{len(candidates)} candidates but {len(scores)} scores"
        )
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidates must be unique")
    ranked = sorted(
        zip(candidates, scores), key=lambda cs: (-float(cs[1]), int(cs[0]))
    )
    return [int(c) for c, _ in ranked[:batch_size]]

