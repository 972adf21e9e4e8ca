"""Determinism / simulator-safety lint.

The replay log (`repro.verify.replay`), the per-test ``SeedSequence``
scheme, and the snapshot/fork roadmap item all assume one property:
**a run is a pure function of (app, seed, algorithms)**.  This module
enforces the source-level rules that property rests on, over the
simulator-resident packages (``simmpi``, ``apps``, ``injection``, and
``analyze`` itself — anything that executes inside or feeds the fiber
scheduler):

* ``wallclock`` — no ``time.time()``/``monotonic()``/``datetime.now()``
  in fiber-reachable code; timestamps would diverge across replays.
  (Host-side layers — ``exec`` supervision deadlines, ``obs``
  telemetry — are deliberately out of scope.)
* ``global-rng`` — no module-level ``random``/``np.random`` draws; all
  randomness must flow through an explicit ``np.random.Generator``
  seeded by the campaign (``default_rng``/``SeedSequence`` are allowed).
* ``set-iteration`` — no iteration over set displays/constructors:
  hash-order iteration varies with interning and is the classic silent
  nondeterminism.
* ``blocking-io`` — no ``open()``/``input()``/socket/subprocess in app
  step functions or collective drivers; a fiber that blocks the host
  thread wedges every simulated rank and breaks the step-budget hang
  detector.
* ``missing-slots`` — ``@dataclass`` on hot-path records (the fiber
  syscall types) must declare ``slots=True``; attribute dict churn on
  the trampoline is a measured cost (see ROADMAP PR 2).
* ``error-handler`` (``apps`` only) — no code that could survive a
  simulated MPI error or run other ranks while one unwinds: an
  ``except`` clause or a ``suppress(...)`` call naming ``Exception``,
  ``BaseException``, or :class:`~repro.simmpi.errors.SimMPIError` or
  one of its subclasses (import aliases resolved), a bare ``except``,
  and a ``yield`` inside a ``finally`` block.  Errors are fatal to the
  job (``MPI_ERRORS_ARE_FATAL``): the snapshot engine classifies a
  strike its collective's entry checks reject without running the job
  on, which is exact only if no application survives the error.
  Host-side handlers of other errors (``except (TypeError,
  ValueError)``) are fine.  Classes are matched by name, so a handler
  that reaches an error class through a variable goes unseen.

A finding can be waived in place with ``# lint: allow(<rule>)`` on the
offending line.  Runs standalone (``fastfit analyze --lint-only``) and
as a CI gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..simmpi.errors import SimMPIError

#: rule id -> human description
LINT_RULES = {
    "wallclock": "wall-clock reads break replay determinism",
    "global-rng": "global RNG state is not replayable; use np.random.Generator",
    "set-iteration": "set iteration order is nondeterministic",
    "blocking-io": "blocking I/O wedges the fiber scheduler",
    "missing-slots": "hot-path dataclasses must declare slots=True",
    "error-handler": "applications must not catch simulated MPI errors (errors are fatal)",
    "parse-error": "file does not parse",
}

#: Package-relative directories the determinism rules apply to.
DEFAULT_SCOPE = ("simmpi", "apps", "injection", "analyze")

#: Package-relative files whose dataclasses must be slotted.
DEFAULT_HOT_PATH = ("simmpi/fiber.py",)

def _subclass_names(cls: type) -> set[str]:
    return {cls.__name__}.union(*(_subclass_names(sub) for sub in cls.__subclasses__()))


#: What an ``except`` clause or ``suppress(...)`` in application code
#: must not name.
_FATAL_CATCHES = {"Exception", "BaseException"} | _subclass_names(SimMPIError)

_WALLCLOCK = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "clock",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

_RANDOM_MODULE_FNS = {
    "random", "randint", "uniform", "choice", "choices", "shuffle",
    "sample", "seed", "randrange", "getrandbits", "gauss", "betavariate",
    "expovariate", "normalvariate", "vonmisesvariate",
}

#: np.random attributes that are replay-safe to *construct*.
_NP_RANDOM_OK = {
    "Generator", "BitGenerator", "SeedSequence", "default_rng",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

_IO_CALLS = {"open", "input"}
_IO_MODULES = {"socket", "subprocess", "requests", "http", "urllib"}


@dataclass(frozen=True, slots=True)
class LintFinding:
    """One determinism-lint diagnosis."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chains as a string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """``as`` names of a module's imports -> the dotted name they bind."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) and node.module else ""
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = prefix + alias.name
    return aliases


def _yields(body: list[ast.stmt]) -> ast.AST | None:
    """A ``yield``/``await`` in statements ``body``, nested function and
    class bodies excluded, else None."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            return node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel: str, source_lines: list[str], hot: bool, app: bool) -> None:
        self.rel = rel
        self.lines = source_lines
        self.hot = hot
        self.app = app
        self.aliases: dict[str, str] = {}
        self.findings: list[LintFinding] = []

    # -- helpers --------------------------------------------------------

    def _allowed(self, line: int, rule: str) -> bool:
        if 1 <= line <= len(self.lines):
            return f"lint: allow({rule})" in self.lines[line - 1]
        return False

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if not self._allowed(line, rule):
            self.findings.append(LintFinding(self.rel, line, rule, message))

    def _name(self, node: ast.AST) -> str:
        """The last component of a dotted name, import aliases resolved."""
        dotted = _dotted(node)
        if dotted is None:
            return "?"
        head, _, rest = dotted.partition(".")
        return ".".join(filter(None, (self.aliases.get(head, head), rest))).rsplit(".", 1)[-1]

    def _fatal_catch(self, node: ast.AST, caught: list[ast.AST | None], how: str) -> None:
        names = ["bare except" if t is None else self._name(t) for t in caught]
        fatal = [n for n in names if n == "bare except" or n in _FATAL_CATCHES]
        if fatal:
            self._add(
                node, "error-handler",
                f"{how} {', '.join(fatal)} could survive a simulated MPI error (errors are fatal)",
            )

    # -- rules ----------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self.aliases = _import_aliases(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.app and self._name(node.func) == "suppress":
            self._fatal_catch(node, list(node.args), "suppress of")
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) >= 2:
                base, attr = parts[-2], parts[-1]
                if attr in _WALLCLOCK.get(base, ()):
                    self._add(node, "wallclock", f"{dotted}() in simulator scope")
                if base == "random" and attr in _RANDOM_MODULE_FNS and len(parts) == 2:
                    self._add(node, "global-rng", f"{dotted}() uses global RNG state")
                if (
                    len(parts) >= 3
                    and parts[-2] == "random"
                    and parts[-3] in ("np", "numpy")
                    and attr not in _NP_RANDOM_OK
                ):
                    self._add(node, "global-rng", f"{dotted}() uses the legacy global numpy RNG")
        if isinstance(node.func, ast.Name) and node.func.id in _IO_CALLS:
            self._add(node, "blocking-io", f"{node.func.id}() in simulator scope")
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _IO_MODULES:
                self._add(node, "blocking-io", f"import {alias.name} in simulator scope")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _IO_MODULES:
            self._add(node, "blocking-io", f"from {node.module} import ... in simulator scope")
        if root == "random":
            self._add(node, "global-rng", "from random import ... uses global RNG state")
        self.generic_visit(node)

    def _check_iter(self, iter_node: ast.AST) -> None:
        if isinstance(iter_node, ast.Set) or (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        ):
            self._add(iter_node, "set-iteration", "iteration over a set has no stable order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.app:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            self._fatal_catch(node, caught, "except")
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        if self.app:
            inside = _yields(node.finalbody)
            if inside is not None:
                self._add(
                    inside, "error-handler",
                    "yield in a finally block runs other ranks while a simulated MPI error unwinds",
                )
        self.generic_visit(node)

    visit_TryStar = visit_Try

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot:
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = _dotted(target) or (
                    target.id if isinstance(target, ast.Name) else ""
                )
                if name is None or not name.endswith("dataclass"):
                    continue
                slotted = isinstance(deco, ast.Call) and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in deco.keywords
                )
                if not slotted:
                    self._add(
                        node, "missing-slots",
                        f"dataclass {node.name} on a hot-path module lacks slots=True",
                    )
        self.generic_visit(node)


def lint_source(source: str, rel: str, hot: bool = False, app: bool = False) -> list[LintFinding]:
    """Lint one module's source text (``hot``: a hot-path module;
    ``app``: application code)."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [LintFinding(rel, exc.lineno or 0, "parse-error", str(exc.msg))]
    visitor = _Visitor(rel, lines, hot, app)
    visitor.visit(tree)
    return visitor.findings


def iter_scope_files(
    package_root: Path | None = None, scope: Iterable[str] = DEFAULT_SCOPE
) -> Iterator[Path]:
    """Every python file the determinism rules apply to."""
    root = package_root if package_root is not None else Path(__file__).resolve().parent.parent
    for sub in scope:
        base = root / sub
        if base.is_dir():
            yield from sorted(base.rglob("*.py"))
        elif base.is_file():  # pragma: no cover - config convenience
            yield base


def lint_tree(
    package_root: Path | None = None,
    scope: Iterable[str] = DEFAULT_SCOPE,
    hot_path: Iterable[str] = DEFAULT_HOT_PATH,
) -> list[LintFinding]:
    """Lint the whole simulator scope; returns findings sorted by file
    (the ``error-handler`` rule applies under ``apps/``)."""
    root = package_root if package_root is not None else Path(__file__).resolve().parent.parent
    hot = {str((root / h).resolve()) for h in hot_path}
    apps = (root / "apps").resolve()
    findings: list[LintFinding] = []
    for path in iter_scope_files(root, scope):
        rel = str(path.relative_to(root.parent)) if root.parent in path.parents else str(path)
        resolved = path.resolve()
        findings.extend(
            lint_source(
                path.read_text(), rel, hot=str(resolved) in hot,
                app=apps in resolved.parents,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line))
    return findings
