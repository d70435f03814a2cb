"""Request and result types of the serving layer, plus their JSONL encoding.

A :class:`ServiceRequest` is one question a client asks the service: a query
graph against a registered instance, with per-request method / precision /
sampling options.  A :class:`ServiceResult` is the answer, wrapping the
solver's :class:`~repro.core.solver.PHomResult` with serving provenance
(which worker answered, whether the answer came from the worker's result
cache).

Two requests are *coalescible* when answering one answers the other: same
instance, same canonical query form (:func:`repro.plan.canonical_query_key`,
so isomorphic path queries coalesce), and same method / precision / sampling
contract.  Sampling requests without a pinned seed are never coalesced
across batches or cached — each one is entitled to fresh entropy — but
duplicates *within* one batch share a single estimate, mirroring
:meth:`~repro.core.solver.PHomSolver.solve_many` deduplication.

The module also defines the JSONL wire format used by ``repro serve
--batch``: one JSON object per line, see :func:`request_from_json_dict` and
:func:`result_to_json_dict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Hashable, Optional, Tuple, Union

from repro.core.solver import PHomResult, PHomSolver
from repro.exceptions import ServiceError
from repro.graphs.digraph import DiGraph
from repro.graphs.serialization import graph_from_dict
from repro.plan import canonical_query_key
from repro.query.parser import as_query_graph

#: Precision names accepted on a request (``None`` defers to the service).
PRECISIONS = ("exact", "float", "approx")

#: Deadline policies accepted on a request carrying ``deadline_ms``.
DEADLINE_POLICIES = ("error", "degrade", "partial")


@dataclass(frozen=True)
class ServiceRequest:
    """One serving request: a query against a registered instance.

    Attributes
    ----------
    query:
        The conjunctive query, as a directed edge-labeled graph or a
        query-language string (``"R(x, y), S(y, z)"``, see
        :mod:`repro.query`); strings are parsed at construction time, so
        ``request.query`` is always a graph afterwards.
    instance_id:
        The id under which the target instance was registered with
        :meth:`~repro.service.service.QueryService.register_instance`.
    method:
        ``"auto"`` (default) or an explicit solver method name.
    precision:
        ``"exact"`` / ``"float"`` / ``"approx"``, or ``None`` to use the
        service's default precision.
    epsilon / delta / seed:
        The sampling contract, consulted only when sampling runs.  ``None``
        (the default) inherits the service's configured value — including
        the seed, so a service constructed with a pinned seed answers
        unseeded requests reproducibly.  A pinned effective seed makes the
        estimate reproducible (and therefore cacheable); an effective seed
        of ``None`` draws fresh entropy per estimate.
    request_id:
        Optional caller-supplied correlation id, echoed on the result.
    deadline_ms:
        Optional latency budget in milliseconds, a finite positive number
        (anything else raises :class:`~repro.exceptions.ServiceError`).
        ``None`` (the default) means the request waits as long as the
        service-level ``timeout`` allows.  A deadline is enforced by the
        coordinator without blocking unrelated requests that share the
        worker.
    on_deadline:
        What a missed deadline means — ``"error"`` (default) raises
        :class:`~repro.exceptions.DeadlineExceededError`; ``"degrade"``
        re-answers through the approximate route with an epsilon chosen
        from the budget (:func:`~repro.service.faults.epsilon_for_budget`),
        recording ``degraded=True`` and the original method in the result
        notes; ``"partial"`` (for ``submit_many``) returns a typed timeout
        result (``timed_out=True``, ``result=None``) without raising.
    """

    query: DiGraph
    instance_id: str
    method: str = "auto"
    precision: Optional[str] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    seed: Optional[int] = None
    request_id: Optional[str] = None
    deadline_ms: Optional[float] = None
    on_deadline: str = "error"

    def __post_init__(self) -> None:
        if isinstance(self.query, str):
            # Frozen dataclass: parse the query-language string in place so
            # every consumer (coalescing, sharding, the workers) sees a graph.
            object.__setattr__(self, "query", as_query_graph(self.query))
        if self.precision is not None and self.precision not in PRECISIONS:
            raise ServiceError(
                f"unknown precision {self.precision!r}; expected one of {PRECISIONS}"
            )
        if self.on_deadline not in DEADLINE_POLICIES:
            raise ServiceError(
                f"unknown deadline policy {self.on_deadline!r}; expected one "
                f"of {DEADLINE_POLICIES}"
            )
        # NaN fails every comparison and +inf never expires: both would run
        # the request without a deadline.
        if self.deadline_ms is not None and not (
            math.isfinite(self.deadline_ms) and self.deadline_ms > 0
        ):
            raise ServiceError(
                "deadline_ms must be a finite positive number, "
                f"got {self.deadline_ms}"
            )

    def resolved_precision(self, default: str) -> str:
        """The effective precision once the service default is applied."""
        return self.precision if self.precision is not None else default

    def may_sample(self, default_precision: str) -> bool:
        """Whether this request can be answered by a sampler."""
        return (
            self.resolved_precision(default_precision) == "approx"
            or self.method in PHomSolver.SAMPLING_METHODS
        )

    def coalesce_key(self, default_precision: str) -> Tuple[Hashable, ...]:
        """The dedupe key: requests with equal keys share one computation.

        The key folds in everything that affects the answer — instance,
        canonical query form, method, resolved precision, and (for requests
        that may sample) the full ``(ε, δ, seed)`` contract.  Only ``auto``
        requests key on the minimized core (the auto route is the one that
        minimizes); explicit methods dispatch on the query exactly as
        written, so their keys stay spelling-sensitive — a redundant
        spelling must not inherit another spelling's result or error.
        """
        precision = self.resolved_precision(default_precision)
        key: Tuple[Hashable, ...] = (
            self.instance_id,
            canonical_query_key(self.query, minimize=self.method == "auto"),
            self.method,
            precision,
        )
        if self.may_sample(default_precision):
            key += (self.epsilon, self.delta, self.seed)
        if self.deadline_ms is not None:
            # Deadline-carrying requests dispatch individually (so they can
            # be abandoned per request) and their answer depends on the
            # policy; never merge them with unconstrained duplicates or with
            # requests under a different budget.
            key += (self.deadline_ms, self.on_deadline)
        return key

    def cacheable(self, default_precision: str) -> bool:
        """Whether the answer may be served from a worker's result cache.

        Exact and float answers are pure functions of the (live) instance
        table and always cacheable; sampled answers are cacheable only under
        a pinned seed, where the estimate is reproducible by contract.
        """
        if not self.may_sample(default_precision):
            return True
        return self.seed is not None


@dataclass(frozen=True)
class ServiceResult:
    """One serving answer: the solver result plus serving provenance.

    ``result`` is ``None`` (and ``error`` holds the message) only for failed
    requests surfaced by ``submit_many(..., on_error="return")`` and for
    deadline timeouts under the ``"partial"`` policy (``timed_out=True``);
    the default raising mode never hands out error results.

    ``attempts`` counts dispatches including supervision retries (1 for a
    first-try answer); ``degraded`` marks answers re-routed through the
    approximate tier after a missed deadline; ``error_class`` names the
    exception type behind ``error`` so callers can branch without string
    matching (see :attr:`retryable`).

    ``duration_ms`` is the worker-side wall time of the answering solve
    (``None`` for failures and for answers computed before the worker
    measured, e.g. coordinator-degraded results).  ``timing`` is the
    per-phase breakdown — span name to total milliseconds, e.g.
    ``{"plan.compile": 1.2, "tape.run": 0.3}`` — and is only populated
    when the request ran under an active trace (see :mod:`repro.obs`).
    """

    result: Optional[PHomResult]
    request_id: Optional[str] = None
    worker: int = 0
    cached: bool = False
    coalesced: bool = False
    error: Optional[str] = None
    error_class: Optional[str] = None
    attempts: int = 1
    degraded: bool = False
    timed_out: bool = False
    duration_ms: Optional[float] = None
    timing: Optional[Dict[str, float]] = None

    @property
    def retryable(self) -> bool:
        """Whether resubmitting the same request could plausibly succeed.

        True for transient serving failures (retry exhaustion, missed
        deadlines); false for deterministic request errors (unknown
        instance, malformed query) and for successful answers.
        """
        return self.error_class in ("ServiceUnavailableError", "DeadlineExceededError")

    @property
    def probability(self):
        """The probability (``Fraction`` in exact mode, ``float`` otherwise)."""
        return self._solved().probability

    @property
    def method(self) -> str:
        """The algorithm that answered the request."""
        return self._solved().method

    @property
    def notes(self) -> str:
        """Provenance notes (sampling contract, fallback markers)."""
        return self._solved().notes

    def _solved(self) -> PHomResult:
        if self.result is None:
            raise ServiceError(f"request {self.request_id!r} failed: {self.error}")
        return self.result

    def __float__(self) -> float:
        return float(self.probability)


# ----------------------------------------------------------------------
# JSONL wire format (repro serve --batch)
# ----------------------------------------------------------------------
def _query_from_payload(payload: Any) -> Union[DiGraph, str]:
    """Interpret the ``query`` field of a ``solve`` line.

    Accepted forms are a JSON graph object (the dictionary format of
    :mod:`repro.graphs.serialization`) or a query-language string
    (``"R(x, y), S(y, z)"``).  Anything else — including a *string that
    itself looks like JSON*, where the caller's intent is ambiguous between
    "a serialized graph someone forgot to decode" and "query-language text"
    — is rejected with a typed :class:`~repro.exceptions.ServiceError`,
    which the JSONL session surfaces as an ``{"error": ...}`` line.
    """
    if isinstance(payload, dict):
        return graph_from_dict(payload)
    if isinstance(payload, str):
        if payload.lstrip().startswith(("{", "[")):
            raise ServiceError(
                "ambiguous query payload: the string starts with "
                f"{payload.lstrip()[0]!r}, which looks like an encoded JSON "
                "graph; pass the graph as a JSON object, or a query-language "
                "string such as 'R(x, y), S(y, z)'"
            )
        return payload  # parsed by ServiceRequest.__post_init__
    raise ServiceError(
        f"query payload must be a JSON graph object or a query-language "
        f"string, got {type(payload).__name__}"
    )


def request_from_json_dict(data: Dict[str, Any]) -> ServiceRequest:
    """Build a :class:`ServiceRequest` from one parsed ``solve`` JSONL line.

    Expected shape::

        {"op": "solve", "id": "r1", "instance": "inst1",
         "query": {"vertices": [...], "edges": [[s, t, label], ...]},
         "method": "auto", "precision": "float",
         "epsilon": 0.05, "delta": 0.01, "seed": 42,
         "deadline_ms": 250, "on_deadline": "degrade"}

    ``id``, ``method``, ``precision``, ``epsilon``, ``delta``, ``seed``,
    ``deadline_ms`` and ``on_deadline``
    are optional; ``instance`` names a previously registered instance and
    ``query`` is either a graph dictionary in the format of
    :mod:`repro.graphs.serialization` or a query-language string
    (``"query": "R(x, y), S(y, z)"``); see :func:`_query_from_payload` for
    the ambiguity rules.
    """
    if "instance" not in data:
        raise ServiceError("solve request must name an 'instance' id")
    if "query" not in data:
        raise ServiceError("solve request must carry a 'query' graph or string")
    return ServiceRequest(
        query=_query_from_payload(data["query"]),
        instance_id=str(data["instance"]),
        method=str(data.get("method", "auto")),
        precision=data.get("precision"),
        epsilon=_numeric_field(data, "epsilon", float),
        delta=_numeric_field(data, "delta", float),
        seed=_numeric_field(data, "seed", int),
        request_id=None if data.get("id") is None else str(data["id"]),
        deadline_ms=_numeric_field(data, "deadline_ms", float),
        on_deadline=str(data.get("on_deadline", "error")),
    )


def _numeric_field(data: Dict[str, Any], name: str, kind: type) -> Any:
    """``data[name]`` as ``kind`` (``int`` or ``float``), ``None`` when absent.

    Numbers and numeric strings convert as ``kind(value)`` does, and an
    integral float is a valid ``int``.  Booleans and a float with a
    fraction would convert silently to another value (``true`` to 1,
    1.5 to 1), so they are rejected, like anything else ``kind`` refuses,
    with a :class:`~repro.exceptions.ServiceError` naming the field.
    """
    value = data.get(name)
    if value is None:
        return None
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fractional:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    expected = "an integer" if kind is int else "a number"
    raise ServiceError(f"solve field {name!r} must be {expected}, got {value!r}")


def result_to_json_dict(outcome: ServiceResult) -> Dict[str, Any]:
    """Encode a :class:`ServiceResult` as one JSONL output object.

    Exact probabilities are carried as fraction strings (lossless) and every
    result also reports the ``float`` value for convenience.
    """
    result = outcome.result
    probability = result.probability
    encoded = (
        str(probability) if isinstance(probability, Fraction) else float(probability)
    )
    payload: Dict[str, Any] = {
        "id": outcome.request_id,
        "probability": encoded,
        "float": float(probability),
        "method": result.method,
        "proposition": result.proposition,
        "query_class": str(result.query_class),
        "instance_class": str(result.instance_class),
        "worker": outcome.worker,
        "cached": outcome.cached,
        "coalesced": outcome.coalesced,
    }
    if outcome.duration_ms is not None:
        payload["duration_ms"] = outcome.duration_ms
    if outcome.timing:
        payload["timing"] = outcome.timing
    if outcome.attempts > 1:
        payload["attempts"] = outcome.attempts
    if outcome.degraded:
        payload["degraded"] = True
    if result.notes:
        payload["notes"] = result.notes
    return payload
