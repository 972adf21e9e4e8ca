"""The per-test RNG recipe is spelled once.

Every test of a campaign is a reproducible draw at one injection point:
``repro.injection.models.draw_task`` derives its RNG stream
(``task_rng``: ``SeedSequence(seed, spawn_key=(point, test))``) and its
spec (``pick_target`` for the parameter).  The executor, the static
pre-classifier and every replay oracle (``cross_validate``,
``snapshot_check``, ``fastfit trace``) call ``draw_task``; a second copy
of the recipe is a test that replays something other than what the
campaign ran.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Where campaign tests are drawn, served, classified or replayed.
RECIPE_SCOPE = (
    "injection", "exec", "analyze", "steer", "pruning", "verify/snapshot_check.py", "cli.py",
)

#: Modules outside ``injection/models.py`` that may call ``task_rng`` or
#: ``pick_target``, and why.
OTHER_STREAMS = {
    "injection/scenario.py": "a scenario task without a parameter picks one at "
    "injection time, from the test's own stream",
    "injection/propagation.py": "the propagation study draws its tests from its own "
    "per-test stream, not a campaign's",
}

#: The one module inside ``RECIPE_SCOPE`` besides ``injection/models.py``
#: that builds a ``SeedSequence``: the propagation study's own stream.
PROPAGATION = "injection/propagation.py"


def _calls(paths, names) -> list[str]:
    """``module:line`` of every call to a function named in ``names``."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append(f"{path.relative_to(PKG).as_posix()}:{node.lineno}")
    return found


def _modules(*parts: str) -> list[Path]:
    paths = [PKG / part for part in parts]
    return sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))


def test_seed_sequence_is_built_once():
    calls = _calls(_modules(*RECIPE_SCOPE), {"SeedSequence"})
    callers = [c.partition(":")[0] for c in calls]
    assert [c for c in callers if c != PROPAGATION] == ["injection/models.py"], calls


def test_task_rng_and_pick_target_are_called_only_in_models():
    calls = _calls(_modules("."), {"task_rng", "pick_target"})
    callers = {c.partition(":")[0] for c in calls} - {"injection/models.py"}
    assert callers == set(OTHER_STREAMS), calls
