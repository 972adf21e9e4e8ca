"""Dynamic call-graph capture — the Callgrind/gprof equivalent.

Call graphs are reconstructed from the call stacks observed at
communication events: every adjacent frame pair contributes a
caller → callee edge weighted by occurrence count.  Semantic-driven
pruning compares the per-rank graphs to decide process equivalence
(paper § III-A: "we collect application function call graphs … and then
compare their similarity").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class CallGraph:
    """One rank's weighted call graph as two counter dicts.

    ``nodes[f]`` counts the stacks whose innermost frame is ``f`` (0 for
    functions only ever seen as callers); ``edges[(caller, callee)]``
    counts the adjacent frame pairs observed.
    """

    nodes: dict[str, int] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)


def frame_function(frame: str) -> str:
    """The function identity of a canonical stack frame.

    Frames are ``func@file:lineno``; the call graph keys on
    ``func@file`` so that different call *lines* of the same function
    collapse into one node.
    """
    head, _, _ = frame.rpartition(":")
    return head or frame


def build_callgraph(stacks: Iterable[tuple[str, ...]]) -> CallGraph:
    """Build a weighted call graph from canonical stacks."""
    g = CallGraph()
    for stack in stacks:
        funcs = [frame_function(f) for f in stack]
        for node in funcs:
            g.nodes.setdefault(node, 0)
        if funcs:
            g.nodes[funcs[-1]] += 1
        for edge in zip(funcs, funcs[1:]):
            g.edges[edge] = g.edges.get(edge, 0) + 1
    return g


def callgraph_signature(g: CallGraph) -> tuple:
    """A hashable signature: sorted weighted edge and node sets."""
    nodes = tuple(sorted(g.nodes.items()))
    edges = tuple(sorted((u, v, count) for (u, v), count in g.edges.items()))
    return (nodes, edges)

