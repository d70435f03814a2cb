"""The ``repro serve --batch`` protocol: JSONL requests in, JSONL results out.

Each input line is one JSON object with an ``"op"`` field:

``register``
    ``{"op": "register", "id": "inst1", "instance": {...}}`` installs a
    probabilistic instance (graph-dictionary format of
    :mod:`repro.graphs.serialization`); ``{"path": "instance.json"}`` loads
    it from a file instead.
``solve``
    ``{"op": "solve", "id": "r1", "instance": "inst1", "query": {...},
    "precision": "float", ...}`` — see
    :func:`repro.service.requests.request_from_json_dict` for every field,
    including the ``deadline_ms`` / ``on_deadline`` latency policy.
    ``query`` is a graph object or a query-language string
    (``"query": "R(x, y), S(y, z)"``); ambiguous payloads (a string that
    looks like encoded JSON) are rejected with a failure record.
``update``
    ``{"op": "update", "instance": "inst1", "edge": ["a", "b"],
    "probability": "1/3"}`` applies a single-edge probability change.

Consecutive ``solve`` lines form one micro-batch: they are submitted
together (so duplicates coalesce and distinct requests parallelise) and
their results stream out in input order, one JSON object per line, before
the next non-``solve`` op executes.  ``register`` and ``update`` emit an
acknowledgement line.

The stream is resilient: a malformed or failing line never aborts the
session.  It emits a typed **failure record** instead and processing
continues with the next line::

    {"error": "<message>", "error_class": "<ExceptionType>",
     "line": <input line number>, "retryable": <bool>, "id": <request id>}

``error_class`` is the exception type that rejected the line
(``ServiceError``, ``QueryParseError``, ``JSONDecodeError``, ...);
``retryable`` is true exactly for transient serving failures
(``ServiceUnavailableError``, ``DeadlineExceededError``) where re-sending
the same line later could succeed, and false for deterministic errors.
``id`` is present when the line carried one.  The session's exit code
reports whether any line failed.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Tuple

from repro.exceptions import ServiceError
from repro.graphs.serialization import load_instance, probabilistic_graph_from_dict
from repro.service.requests import (
    ServiceRequest,
    request_from_json_dict,
    result_to_json_dict,
)
from repro.service.service import QueryService

#: Error classes worth re-sending the same line for (transient failures).
RETRYABLE_ERROR_CLASSES = ("ServiceUnavailableError", "DeadlineExceededError")


def _emit(out: TextIO, payload: Dict[str, Any]) -> None:
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    out.flush()


def failure_record(
    message: str,
    error_class: Optional[str],
    line_number: int,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The typed per-line failure record of the JSONL protocol."""
    record: Dict[str, Any] = {
        "error": message,
        "error_class": error_class,
        "line": line_number,
        "retryable": error_class in RETRYABLE_ERROR_CLASSES,
    }
    if request_id is not None:
        record["id"] = request_id
    return record


def _flush_batch(
    service: QueryService, batch: List[Tuple[int, ServiceRequest]], out: TextIO
) -> int:
    """Submit the pending solve micro-batch; returns the number of failures.

    Failed requests stream a failure record; the healthy requests of the
    same micro-batch keep their (already computed) results — nothing is
    re-submitted.
    """
    if not batch:
        return 0
    failures = 0
    requests = [request for _, request in batch]
    try:
        outcomes = service.submit_many(requests, on_error="return")
    except Exception as exc:  # noqa: BLE001 - a coordinator-level failure
        # must fail the *batch's lines*, not tear the whole session down.
        for line_number, request in batch:
            failures += 1
            _emit(
                out,
                failure_record(
                    str(exc), type(exc).__name__, line_number, request.request_id
                ),
            )
        batch.clear()
        return failures
    for (line_number, request), outcome in zip(batch, outcomes):
        if outcome.error is not None:
            failures += 1
            _emit(
                out,
                failure_record(
                    outcome.error,
                    outcome.error_class,
                    line_number,
                    request.request_id,
                ),
            )
        else:
            _emit(out, result_to_json_dict(outcome))
    batch.clear()
    return failures


def run_jsonl_session(
    lines: Iterable[str],
    out: TextIO,
    service: QueryService,
    on_batch: Optional[Callable[[], None]] = None,
) -> int:
    """Drive a service from JSONL input lines; returns a process exit code.

    ``on_batch``, when given, is called after every flushed solve
    micro-batch and after every ``register``/``update`` acknowledgement —
    the hook behind ``repro serve --metrics-out``, which refreshes the
    on-disk metrics snapshot there so ``repro top --watch`` stays live
    during a long session.
    """
    failures = 0
    batch: List[Tuple[int, ServiceRequest]] = []

    def flush() -> int:
        flushed = len(batch)
        failed = _flush_batch(service, batch, out)
        if flushed and on_batch is not None:
            on_batch()
        return failed

    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                kind = type(data).__name__
                raise ServiceError(f"expected a JSON object, got {kind}")
        except (json.JSONDecodeError, ServiceError) as exc:
            failures += flush()
            failures += 1
            message = str(exc)
            if isinstance(exc, json.JSONDecodeError):
                message = f"invalid JSON: {message}"
            _emit(out, failure_record(message, type(exc).__name__, line_number))
            continue
        op = data.get("op", "solve")
        request_id = None if data.get("id") is None else str(data["id"])
        try:
            if op == "solve":
                batch.append((line_number, request_from_json_dict(data)))
                continue
            failures += flush()
            if op == "register":
                instance_id = _handle_register(service, data)
                _emit(out, {"ok": True, "op": "register", "instance": instance_id})
            elif op == "update":
                _handle_update(service, data)
                _emit(out, {"ok": True, "op": "update", "instance": data["instance"]})
            else:
                raise ServiceError(f"unknown op {op!r}")
            if on_batch is not None:
                on_batch()
        except Exception as exc:  # noqa: BLE001 - one bad line must never
            # abort the stream; it becomes a typed failure record.
            failures += 1
            _emit(
                out,
                failure_record(str(exc), type(exc).__name__, line_number, request_id),
            )
    failures += flush()
    return 1 if failures else 0


def _handle_register(service: QueryService, data: Dict[str, Any]) -> str:
    # Ids are strings everywhere else on the wire (``solve`` and ``update``
    # coerce their ``"instance"``), so a numeric id must name the same key.
    instance_id = None if data.get("id") is None else str(data["id"])
    if "instance" in data:
        instance = probabilistic_graph_from_dict(data["instance"])
    elif "path" in data:
        instance = load_instance(str(data["path"]))
    else:
        raise ServiceError("register op needs an 'instance' object or a 'path'")
    return service.register_instance(instance, instance_id)


def _handle_update(service: QueryService, data: Dict[str, Any]) -> None:
    if "instance" not in data or "edge" not in data or "probability" not in data:
        raise ServiceError("update op needs 'instance', 'edge' and 'probability'")
    edge = data["edge"]
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise ServiceError(f"update edge must be a [source, target] pair, got {edge!r}")
    service.update_probability(
        str(data["instance"]), (str(edge[0]), str(edge[1])), data["probability"]
    )
