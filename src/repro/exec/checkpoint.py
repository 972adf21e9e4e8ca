"""Campaign checkpoint/resume: digests and the on-disk store.

An interrupted campaign should restart where it left off — but only if
it is *the same campaign*.  :func:`campaign_digest` hashes everything a
campaign's results are a function of (application identity and
parameters, rank count, seed, tests per point, target policy, unit
layout, the exact point list, algorithm selection, and the code
version); the store refuses to resume from a checkpoint whose digest
does not match.

The store keeps two files in its directory:

* ``units.pkl`` — an append-only stream of pickled records, one per
  completed work unit (its id, its :class:`TestResult` list, and the
  worker's metrics snapshot), headed by a digest record.  Appends are
  flushed *and fsynced* per unit, so a completed unit survives host
  power loss, not just process death; a torn final record (the process
  died mid-write) is detected and dropped on load.
* ``manifest.json`` — a periodically rewritten, atomically replaced
  summary (digest, completed unit ids, quarantined unit ids, totals)
  for humans and tooling; the rename is followed by a directory fsync
  so the replacement itself is durable.  The pickle stream remains the
  source of truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any

from .. import __version__
from ..apps.base import Application
from ..injection.runner import TestResult
from ..injection.space import InjectionPoint
from ..obs.metrics import MetricsRegistry

UNITS_FILE = "units.pkl"
MANIFEST_FILE = "manifest.json"


class CheckpointMismatch(RuntimeError):
    """Resume requested against a checkpoint of a different campaign."""


def campaign_digest(
    app: Application,
    seed: int,
    tests_per_point: int,
    param_policy: str,
    unit_tests: int,
    points: list[InjectionPoint],
    algorithms: dict[str, str] | None = None,
    code_version: str = __version__,
    layout: str = "p1",
    fault_model: str = "bitflip",
    scenario_fp: str | None = None,
    extra: dict | None = None,
) -> str:
    """Hash of everything the campaign's results are a function of.

    ``layout`` is the unit-layout version tag
    (:data:`repro.exec.sharding.LAYOUTS`).  The classic point-major
    layout (``"p1"``) is deliberately omitted from the payload so every
    digest computed before the tag existed stays byte-identical —
    pre-existing checkpoints keep resuming.  The same omit-when-default
    rule applies to ``fault_model`` (``"bitflip"``), ``scenario_fp``
    (``None``), and ``extra`` (``None``): single-bit campaigns digest
    exactly as they always have.

    ``extra`` is a JSON-serialisable dict for drivers whose results
    depend on more than the plain campaign axes — the adaptive steering
    loop hashes its batching/stopping parameters here so a resumed
    steering run refuses units from a differently-steered campaign.
    """
    fields = {
        "app": app.name,
        "params": {k: repr(v) for k, v in sorted(app.params.items())},
        "nranks": app.nranks,
        "seed": seed,
        "tests_per_point": tests_per_point,
        "param_policy": param_policy,
        "unit_tests": unit_tests,
        "points": [
            [p.rank, p.collective, p.site, p.invocation] for p in points
        ],
        "algorithms": dict(sorted((algorithms or {}).items())),
        "code_version": code_version,
    }
    if layout != "p1":
        fields["layout"] = layout
    if fault_model != "bitflip":
        fields["fault_model"] = fault_model
    if scenario_fp is not None:
        fields["scenario"] = scenario_fp
    if extra:
        fields["extra"] = extra
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class CheckpointStore:
    """Completed-unit persistence for one campaign run."""

    def __init__(
        self,
        directory: str | os.PathLike,
        digest: str,
        flush_every: int = 1,
        layout: str = "p1",
    ):
        self.directory = Path(directory)
        self.digest = digest
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.flush_every = flush_every
        #: Unit-layout version tag recorded in the stream header; a
        #: layout change alters the digest, and the header lets the
        #: mismatch message say *why* instead of just "different".
        self.layout = layout
        self.completed: dict[str, tuple[list[TestResult], MetricsRegistry | None]] = {}
        self._fh = None
        self._since_manifest = 0

    @property
    def units_path(self) -> Path:
        return self.directory / UNITS_FILE

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_FILE

    # -- lifecycle -----------------------------------------------------

    def load(self, resume: bool) -> dict[str, tuple[list[TestResult], MetricsRegistry | None]]:
        """Read completed units from disk and open the stream for appends.

        ``resume=False`` discards any existing checkpoint and starts a
        fresh stream.  ``resume=True`` replays a matching stream — a
        digest mismatch raises :class:`CheckpointMismatch` instead of
        silently throwing away (or worse, reusing) a different
        campaign's results.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self.completed = {}
        if resume and self.units_path.exists():
            with self.units_path.open("rb") as fh:
                try:
                    header = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):
                    header = None
                if header is not None:
                    found = header.get("digest") if isinstance(header, dict) else None
                    if found != self.digest:
                        found_layout = (
                            header.get("layout", "p1")
                            if isinstance(header, dict)
                            else "p1"
                        )
                        hint = "delete it or run without --resume"
                        if found_layout != self.layout:
                            hint = (
                                f"it was written with unit layout "
                                f"{found_layout!r}, this run uses "
                                f"{self.layout!r} (the --snapshot/--no-snapshot "
                                "setting selects the layout) — rerun with the "
                                "original setting, or delete the checkpoint"
                            )
                        raise CheckpointMismatch(
                            f"checkpoint in {self.directory} belongs to a different "
                            f"campaign (digest {found!r}, expected {self.digest!r}); "
                            + hint
                        )
                    while True:
                        try:
                            record = pickle.load(fh)
                        except (EOFError, pickle.UnpicklingError, AttributeError):
                            break  # clean end of stream or torn final record
                        if record.get("type") == "unit":
                            self.completed[record["unit_id"]] = (
                                record["tests"],
                                record.get("metrics"),
                            )
        if self.completed:
            # Append to the verified stream.
            self._fh = self.units_path.open("ab")
        else:
            self._fh = self.units_path.open("wb")
            pickle.dump(
                {"digest": self.digest, "format": 1, "layout": self.layout},
                self._fh,
            )
            self._sync_stream()
        return self.completed

    def _sync_stream(self) -> None:
        """Flush and fsync the append stream: the unit is durable once
        this returns, even against host power loss."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(
        self,
        unit_id: str,
        tests: list[TestResult],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Persist one completed unit (flushed and fsynced immediately)."""
        if self._fh is None:
            raise RuntimeError("CheckpointStore.load() must be called before record()")
        self.completed[unit_id] = (tests, metrics)
        pickle.dump(
            {"type": "unit", "unit_id": unit_id, "tests": tests, "metrics": metrics},
            self._fh,
        )
        self._sync_stream()
        self._since_manifest += 1
        if self._since_manifest >= self.flush_every:
            self.write_manifest()

    def write_manifest(
        self,
        total_units: int | None = None,
        complete: bool = False,
        quarantined: list[str] | None = None,
    ) -> None:
        """Atomically rewrite the JSON manifest (tmp + rename + dir fsync).

        ``quarantined`` records units the supervisor gave up on; they
        are *not* in ``completed`` (their results are synthetic), so a
        resumed campaign retries them.
        """
        manifest: dict[str, Any] = {
            "digest": self.digest,
            "completed": sorted(self.completed),
            "n_completed": len(self.completed),
            "complete": complete,
        }
        if total_units is not None:
            manifest["total_units"] = total_units
        if quarantined is not None:
            manifest["quarantined"] = sorted(quarantined)
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, self.manifest_path)
        # Durability of the rename itself: fsync the containing directory
        # so a crash cannot resurrect the old manifest.
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._since_manifest = 0

    # -- store extensions (no-ops here) ---------------------------------
    #
    # The SQLite sibling (:class:`repro.store.DBCheckpointStore`) keeps
    # richer, queryable state than the pickle stream can express.  The
    # campaign engine drives both through one interface, so the extra
    # hooks exist here as deliberate no-ops: the stream records completed
    # units only, and the manifest already names quarantined unit ids.

    def record_quarantine(self, unit_id: str, reason: str) -> None:
        """No-op: quarantine reasons are not persisted in the pickle
        format (the manifest lists the unit ids)."""

    def record_point_tallies(self, tallies: list[tuple]) -> None:
        """No-op: per-point tallies are recomputed from the stream."""

    def record_metrics(self, label: str, registry: MetricsRegistry) -> None:
        """No-op: per-unit metrics snapshots already live in the stream."""

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (or before :meth:`load`)."""
        return self._fh is None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
