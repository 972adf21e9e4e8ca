"""Call-stack utilities — the ``backtrace()`` equivalent.

The runtime already captures canonical stacks (``func@file:lineno``
frames, outermost first) at every collective entry; this module supplies
the equivalence and summary operations FastFIT's context-driven pruning
needs (paper § III-B: "the same call stack means that the active
functions are the same and called in the same order").
"""

from __future__ import annotations

from typing import Iterable


def group_by_stack(
    invocations: Iterable[tuple[int, tuple[str, ...]]]
) -> dict[tuple[str, ...], list[int]]:
    """Group ``(invocation_index, stack)`` pairs into equivalence classes.

    Returns ``stack -> sorted invocation indices``; the first index of
    each class is the class representative.
    """
    groups: dict[tuple[str, ...], list[int]] = {}
    for inv, stack in invocations:
        groups.setdefault(stack, []).append(inv)
    for members in groups.values():
        members.sort()
    return groups


def distinct_stacks(stacks: Iterable[tuple[str, ...]]) -> int:
    """Number of distinct stacks (the ``nDiffStack`` feature)."""
    return len(set(stacks))


def average_depth(stacks: Iterable[tuple[str, ...]]) -> float:
    """Average stack depth (the ``StackDep`` feature)."""
    depths = [len(s) for s in stacks]
    return sum(depths) / len(depths) if depths else 0.0

