"""Seifert multigraphs of positive braid closures.

Resolving every crossing of a positive braid closure with the
orientation turns the strands into Seifert circles; the Seifert
multigraph has one vertex per circle and one edge per crossing.  For a
braid word the circles are the strands and every crossing joins
neighbouring strands, so the graph is immediate from the word.  The
Euler characteristic of the Seifert surface is vertices minus edges,
the genus of the closure is ``(components - chi) / 2``, and a positive
diagram is fibered exactly when the reduced graph (parallel edges
identified) is a forest.
"""

from __future__ import annotations

import dataclasses

from .braidword import BraidWord


class ParityError(ValueError):
    """Component count incompatible with the graph's Euler characteristic."""


@dataclasses.dataclass(frozen=True)
class SeifertMultigraph:
    """Vertices ``1..vertex_count`` and unordered edges, one per crossing."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(e)) for e in self.edges)
        )
        for u, v in self.edges:
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("loops cannot arise from crossings")

    def __str__(self) -> str:
        parts = [f"V={self.vertex_count}"] + [f"{u}-{v}" for u, v in self.edges]
        return "; ".join(parts)


def from_braid(w: BraidWord) -> SeifertMultigraph:
    """One vertex per strand, one edge {i, i+1} per letter i, in word order."""
    return SeifertMultigraph(w.strands, tuple((i, i + 1) for i in w.letters))


def reduced(g: SeifertMultigraph) -> SeifertMultigraph:
    """Identify parallel edges; vertex set unchanged."""
    seen: list[tuple[int, int]] = []
    for e in g.edges:
        if e not in seen:
            seen.append(e)
    return SeifertMultigraph(g.vertex_count, tuple(seen))


def fibered_positive(g: SeifertMultigraph) -> bool:
    """Fiberedness test for positive diagrams: the reduced graph is a forest.

    On a braid word every edge joins neighbouring strands, so the reduced
    graph is a sub-path of ``1-2-...-n`` and the result is always True.
    The ``reduced_graph_forest`` check and the ``fibered`` report key stay
    all the same, so that the canonical reports keep their bytes.
    """
    parent = list(range(g.vertex_count + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in reduced(g).edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def euler_and_genus(g: SeifertMultigraph, components: int) -> tuple[int, int]:
    """Euler characteristic ``V - E`` and genus ``(components - chi) / 2``."""
    chi = g.vertex_count - len(g.edges)
    if (components - chi) % 2 != 0:
        raise ParityError(
            f"{components} components incompatible with chi={chi}"
        )
    return chi, (components - chi) // 2
