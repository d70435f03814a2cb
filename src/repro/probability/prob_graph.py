"""Probabilistic graphs: the tuple-independent instances of the paper.

A probabilistic graph ``(H, π)`` (Section 2) annotates every edge of a
directed labeled graph ``H`` with a rational probability ``π(e) ∈ [0, 1]``.
It concisely represents the probability distribution over the subgraphs
``H' ⊆ H`` (possible worlds) obtained by keeping or deleting every edge
independently:

```
Pr(H') = Π_{e ∈ H'} π(e) × Π_{e ∉ H'} (1 − π(e))
```

All probabilities are stored as :class:`fractions.Fraction` so that the
library computes *exact* answers; the test suite can therefore compare the
polynomial-time algorithms against the brute-force oracle with equality
rather than with numerical tolerances.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.exceptions import GraphError, ProbabilityError
from repro.graphs.digraph import DiGraph, Edge, Vertex

ProbabilityLike = Union[int, float, str, Fraction]

#: How many recent :meth:`ProbabilisticGraph.set_probability` changes an
#: instance remembers.  A live tape session further behind than this
#: rebinds with one full replay (see :class:`repro.tape.TapeEvaluator`).
CHANGE_LOG_LIMIT = 64

#: :meth:`ProbabilisticGraph.scaled_probabilities`: the common denominator
#: ``D`` and each edge's probability as the pair ``(p * D, 1)``.
ScaledTable = Tuple[int, Mapping[Edge, Tuple[int, int]]]


def as_probability(value: ProbabilityLike) -> Fraction:
    """Convert a user-supplied probability into an exact :class:`Fraction` in [0, 1].

    Floats are converted through their decimal string representation (so
    ``0.1`` becomes exactly ``1/10`` rather than the binary float closest to
    it), which matches the paper's convention that probabilities are
    rational numbers given in the input.
    """
    if isinstance(value, Fraction):
        probability = value
    elif isinstance(value, bool):
        raise ProbabilityError(f"probabilities must be numbers, got {value!r}")
    elif isinstance(value, int):
        probability = Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ProbabilityError(f"probability must be finite, got {value!r}")
        probability = Fraction(str(value))
    elif isinstance(value, str):
        try:
            probability = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProbabilityError(f"cannot interpret {value!r} as a probability: {exc}") from None
    else:
        raise ProbabilityError(f"cannot interpret {value!r} as a probability")
    if probability < 0 or probability > 1:
        raise ProbabilityError(f"probability {probability} is outside [0, 1]")
    return probability


@dataclass(frozen=True)
class PossibleWorld:
    """One possible world of a probabilistic graph: a subgraph and its probability."""

    graph: DiGraph
    probability: Fraction
    kept_edges: Tuple[Edge, ...]


class ProbabilisticGraph:
    """A probabilistic instance graph ``(H, π)``.

    Parameters
    ----------
    graph:
        The underlying directed labeled graph ``H``.
    probabilities:
        Mapping from edges to probabilities.  Keys may be :class:`Edge`
        objects or ``(source, target)`` pairs.  Edges missing from the
        mapping receive ``default``.
    default:
        Probability assigned to unmapped edges (default 1, i.e. certain).
    """

    def __init__(
        self,
        graph: DiGraph,
        probabilities: Optional[Mapping] = None,
        default: ProbabilityLike = 1,
    ) -> None:
        self._graph = graph.copy()
        default_probability = as_probability(default)
        self._probabilities: Dict[Edge, Fraction] = {
            edge: default_probability for edge in self._graph.edge_set()
        }
        if probabilities:
            for key, value in probabilities.items():
                edge = self._resolve_edge(key)
                self._probabilities[edge] = as_probability(value)
        # The instance graph never changes after construction; freezing it
        # makes its memoised metadata (class recognition, components, edge
        # order) shareable across every query answered on this instance.
        self._graph.freeze()
        self._view: Mapping[Edge, Fraction] = MappingProxyType(self._probabilities)
        self._float_probabilities: Optional[Mapping[Edge, float]] = None
        self._scaled_probabilities: Optional[ScaledTable] = None
        self._components: Optional[List["ProbabilisticGraph"]] = None
        #: Set on components handed out by a parent's ``connected_components``
        #: cache, so mutating a shared component detaches the parent's cache
        #: instead of silently corrupting the parent's future answers.  A
        #: weak reference: a strong one would put the parent in a reference
        #: cycle with its cached components.
        self._component_owner: Optional["weakref.ref[ProbabilisticGraph]"] = None
        self._reset_change_log()

    def __getstate__(self) -> Dict[str, object]:
        """Pickle only the graph and the exact probability table.

        The read-only views (``mappingproxy`` objects cannot be pickled), the
        memoised float and scaled tables and the component split are all
        rebuilt lazily on the receiving side, and the component-owner
        backlink is dropped — an unpickled instance is an independent copy,
        not a live component of its original parent.  The change log stays
        behind too: an unpickled instance starts at version 0 with an empty
        log.
        """
        return {"_graph": self._graph, "_probabilities": self._probabilities}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._graph = state["_graph"]
        self._probabilities = state["_probabilities"]
        self._view = MappingProxyType(self._probabilities)
        self._float_probabilities = None
        self._scaled_probabilities = None
        self._components = None
        self._component_owner = None
        self._reset_change_log()

    def _reset_change_log(self) -> None:
        self._version = 0
        self._changes: "deque[Edge]" = deque(maxlen=CHANGE_LOG_LIMIT)

    def _resolve_edge(self, key) -> Edge:
        if isinstance(key, Edge):
            candidate = self._graph.get_edge(key.source, key.target)
            if candidate.label != key.label:
                raise GraphError(f"edge {key!r} does not match the instance edge {candidate!r}")
            return candidate
        if isinstance(key, tuple) and len(key) == 2:
            return self._graph.get_edge(key[0], key[1])
        raise GraphError(f"cannot interpret {key!r} as an edge of the instance")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The underlying graph ``H`` (do not mutate)."""
        return self._graph

    def probability(self, edge: Union[Edge, Tuple[Vertex, Vertex]]) -> Fraction:
        """The probability ``π(e)`` of an edge."""
        return self._probabilities[self._resolve_edge(edge)]

    def probabilities(self) -> Dict[Edge, Fraction]:
        """A copy of the full probability assignment."""
        return dict(self._probabilities)

    def probabilities_view(self) -> Mapping[Edge, Fraction]:
        """A read-only *view* of the probability assignment (no copy).

        This is what the solvers use on their hot paths; it reflects later
        :meth:`set_probability` updates.  Use :meth:`probabilities` for an
        independent snapshot.
        """
        return self._view

    def float_probabilities(self) -> Mapping[Edge, float]:
        """The probability assignment truncated to floats (memoised, read-only).

        Backs the ``precision="float"`` fast path; the table is rebuilt
        lazily after :meth:`set_probability`.
        """
        if self._float_probabilities is None:
            self._float_probabilities = MappingProxyType(
                {edge: float(p) for edge, p in self._probabilities.items()}
            )
        return self._float_probabilities

    def scaled_probabilities(self) -> ScaledTable:
        """The assignment over one common denominator (memoised, read-only).

        Returns ``(D, table)``: ``D`` is the lcm of the probabilities'
        denominators and ``table`` maps each edge to the pair
        ``(p * D, 1)``, which stands for ``p = (p * D) / D**1``.  Backs the
        exact first answer of a plan (:class:`repro.tape.ScaledContext`);
        like :meth:`float_probabilities`, it is rebuilt lazily after
        :meth:`set_probability`.
        """
        if self._scaled_probabilities is None:
            probabilities = self._probabilities
            den = math.lcm(*[p.denominator for p in probabilities.values()])
            self._scaled_probabilities = (
                den,
                MappingProxyType(
                    {
                        edge: (p.numerator * (den // p.denominator), 1)
                        for edge, p in probabilities.items()
                    }
                ),
            )
        return self._scaled_probabilities

    def set_probability(self, edge, value: ProbabilityLike) -> None:
        """Update the probability of one edge.

        Every call advances :attr:`version` and appends the edge to the
        bounded change log read by :meth:`changes_since`.
        """
        edge = self._resolve_edge(edge)
        self._probabilities[edge] = as_probability(value)
        self._version += 1
        self._changes.append(edge)
        self._float_probabilities = None
        self._scaled_probabilities = None
        # Only the component wrappers and their tables go: the component
        # graphs stay memoised on the frozen instance graph.
        self._components = None
        if self._component_owner is not None:
            # This instance was shared through a parent's component cache;
            # detach so the parent rebuilds fresh components next time.
            owner = self._component_owner()
            if owner is not None:
                owner._components = None
            self._component_owner = None

    @property
    def version(self) -> int:
        """How many :meth:`set_probability` calls this object has seen."""
        return self._version

    def changes_since(self, version: int) -> Optional[List[Edge]]:
        """The edges set since ``version``, newest first, or ``None``.

        ``None`` means the bounded change log (the last
        :data:`CHANGE_LOG_LIMIT` changes) no longer reaches back to
        ``version``.  An edge set twice is listed twice.
        """
        behind = self._version - version
        changes = self._changes
        if behind < 0 or behind > len(changes):
            return None
        return [changes[-index] for index in range(1, behind + 1)]

    def edges(self) -> List[Edge]:
        """All edges of the instance, in a deterministic order."""
        return self._graph.edges()

    def uncertain_edges(self) -> List[Edge]:
        """Edges with probability strictly between 0 and 1."""
        return [e for e in self.edges() if 0 < self._probabilities[e] < 1]

    def certain_edges(self) -> List[Edge]:
        """Edges with probability exactly 1 (present in every non-null world)."""
        return [e for e in self.edges() if self._probabilities[e] == 1]

    def impossible_edges(self) -> List[Edge]:
        """Edges with probability exactly 0 (absent from every non-null world)."""
        return [e for e in self.edges() if self._probabilities[e] == 0]

    def num_possible_worlds(self) -> int:
        """Number of possible worlds (2 to the number of edges)."""
        return 2 ** self._graph.num_edges()

    def num_nonzero_worlds(self) -> int:
        """Number of possible worlds with non-zero probability."""
        return 2 ** len(self.uncertain_edges())

    # ------------------------------------------------------------------
    # possible worlds
    # ------------------------------------------------------------------
    def world_probability(self, kept_edges: Iterable[Edge]) -> Fraction:
        """The probability of the possible world keeping exactly ``kept_edges``."""
        kept = set(kept_edges)
        unknown = kept - self._graph.edge_set()
        if unknown:
            raise GraphError(f"edges {unknown!r} are not edges of the instance")
        result = Fraction(1)
        for edge, probability in self._probabilities.items():
            result *= probability if edge in kept else (1 - probability)
        return result

    def possible_worlds(self, skip_zero_probability: bool = True) -> Iterator[PossibleWorld]:
        """Enumerate possible worlds (exponentially many).

        When ``skip_zero_probability`` is true (the default), edges with
        probability 1 are always kept and edges with probability 0 always
        dropped, so only worlds of non-zero probability are produced; the
        produced probabilities then sum to 1.
        """
        if skip_zero_probability:
            always = [e for e in self.edges() if self._probabilities[e] == 1]
            free = self.uncertain_edges()
        else:
            always = []
            free = self.edges()
        for choices in product((False, True), repeat=len(free)):
            kept = list(always) + [e for e, keep in zip(free, choices) if keep]
            probability = Fraction(1)
            for edge, keep in zip(free, choices):
                p = self._probabilities[edge]
                probability *= p if keep else (1 - p)
            yield PossibleWorld(
                graph=self._graph.subgraph_with_edges(kept),
                probability=probability,
                kept_edges=tuple(kept),
            )

    # ------------------------------------------------------------------
    # restriction (used by Lemma 3.7)
    # ------------------------------------------------------------------
    def restrict_to_component(self, vertices: Iterable[Vertex]) -> "ProbabilisticGraph":
        """The probabilistic graph induced by a set of vertices.

        Edge probabilities are preserved.  Used to split a disconnected
        instance into its connected components (Lemma 3.7).
        """
        return self._restricted(self._graph.induced_component(vertices).freeze())

    def _restricted(self, subgraph: DiGraph) -> "ProbabilisticGraph":
        """This instance's probabilities on a frozen subgraph, which is shared, not copied.

        The private constructor of the component split and of a plan's
        what-if table: it bypasses :meth:`__init__`'s graph copy and
        probability validation, because the subgraph is frozen and this
        instance's table is already valid.
        """
        # Edges compare by value, so the subgraph's edges index this
        # instance's probability table directly — no per-edge get_edge
        # round trip.
        probabilities = {edge: self._probabilities[edge] for edge in subgraph.edge_set()}
        restricted = ProbabilisticGraph.__new__(ProbabilisticGraph)
        restricted.__setstate__({"_graph": subgraph, "_probabilities": probabilities})
        return restricted

    def connected_components(self) -> List["ProbabilisticGraph"]:
        """The probabilistic graphs induced by each weakly connected component.

        The component graphs are memoised on the frozen instance graph
        (:meth:`DiGraph.connected_component_graphs`), so they and every
        structural memo on them (class verdicts, path orders, a 2WP's label
        bitmasks, a DWT's children) live as long as the instance.  The wrappers around them
        carry a snapshot of the current probabilities and are memoised too:
        repeated queries against the same instance (for instance through
        :meth:`PHomSolver.solve_many`) share one set of component instances.
        :meth:`set_probability` drops only the wrappers; the next call wraps
        the same graphs around fresh tables, and components handed out
        earlier keep their snapshot.
        """
        if self._components is None:
            components = [
                self._restricted(graph) for graph in self._graph.connected_component_graphs()
            ]
            owner = weakref.ref(self)
            for component in components:
                component._component_owner = owner
            self._components = components
        return list(self._components)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_uniform_probability(
        cls, graph: DiGraph, probability: ProbabilityLike
    ) -> "ProbabilisticGraph":
        """A probabilistic graph where every edge has the same probability."""
        return cls(graph, probabilities=None, default=probability)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProbabilisticGraph(|V|={self._graph.num_vertices()}, "
            f"|E|={self._graph.num_edges()}, "
            f"uncertain={len(self.uncertain_edges())})"
        )
