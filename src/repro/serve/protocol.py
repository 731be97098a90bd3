"""Wire protocol for the query service: newline-delimited JSON.

One request per line, one response per line, matched by the client's
``id`` (responses may arrive out of submission order when requests are
pipelined on one connection).  The same codec backs the always-on
server (:mod:`repro.serve.server`) and the load generator
(:mod:`repro.serve.loadgen`), so both ends validate and serialize
queries identically.

Request::

    {"id": 7, "op": "query", "set": ["a", "b", "c"],
     "low": 0.4, "high": 0.9, "strategy": "index"}

``op`` defaults to ``"query"``; ``"ping"`` and ``"stats"`` round-trip
liveness and the server's metrics snapshot.  ``"return_candidates":
true`` asks for the candidate sids alongside the verified answers
(used by the equivalence harness).

Response (success)::

    {"id": 7, "ok": true, "answers": [[12, 0.8333], ...],
     "n_candidates": 9, "batch_size": 16, "queue_ms": 1.2}

Response (failure)::

    {"id": 7, "ok": false, "error": {"type": "overloaded",
                                     "message": "..."}}

Error types are closed-vocabulary (:data:`ERROR_TYPES`) so clients can
switch on them: ``bad_json`` (line is not JSON), ``bad_request``
(JSON, but not a valid request), ``too_large`` (line exceeded the
size limit), ``overloaded`` (admission control rejected the request;
back off and retry), ``shutting_down`` (server is draining),
``internal`` (dispatch failed).  Every error response is *typed and
final for that request only* -- the connection stays open and the
server keeps serving.

Floats survive the round trip exactly: ``json`` serializes via
``repr`` and Python floats round-trip through ``repr``, so similarity
values compared bit-for-bit against a direct ``query_batch`` are
equal, not merely close.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

#: Hard cap on one request line (bytes, including the newline).
MAX_LINE_BYTES = 1 << 20

#: Closed vocabulary of ``error.type`` values.
ERROR_TYPES = (
    "bad_json",
    "bad_request",
    "too_large",
    "overloaded",
    "shutting_down",
    "internal",
)

_OPS = ("query", "ping", "stats")
_STRATEGIES = ("index", "scan", "auto")
_SCALARS = (str, int, float, bool)


class ProtocolError(Exception):
    """A request that cannot be served, tagged with a wire error type."""

    def __init__(self, etype: str, message: str):
        assert etype in ERROR_TYPES, etype
        super().__init__(message)
        self.etype = etype


@dataclass(frozen=True)
class QueryRequest:
    """A decoded, validated request line."""

    id: Any
    op: str = "query"
    elements: frozenset = frozenset()
    low: float = 0.5
    high: float = 1.0
    strategy: str = "index"
    return_candidates: bool = False

    @property
    def key(self) -> tuple:
        """Coalescing key: requests sharing it may ride one batch."""
        return (self.low, self.high, self.strategy)


def _request_id(obj: dict) -> Any:
    """The id to echo in error responses, if one can be salvaged."""
    rid = obj.get("id")
    return rid if isinstance(rid, (str, int, float, bool, type(None))) else None


def decode_request(line: str | bytes, max_bytes: int = MAX_LINE_BYTES) -> QueryRequest:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` (``too_large`` / ``bad_json`` /
    ``bad_request``) on anything malformed; the error carries the
    request id when the line was at least JSON with an ``id``.
    """
    if isinstance(line, str):
        line = line.encode("utf-8", "replace")
    if len(line) > max_bytes:
        raise ProtocolError("too_large", f"request line exceeds {max_bytes} bytes")
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_json", f"not a JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    rid = _request_id(obj)
    if "id" not in obj:
        raise _bad(rid, "missing required field 'id'")
    op = obj.get("op", "query")
    if op not in _OPS:
        raise _bad(rid, f"unknown op {op!r} (expected one of {_OPS})")
    if op != "query":
        return QueryRequest(id=rid, op=op)
    elements = obj.get("set")
    if not isinstance(elements, list):
        raise _bad(rid, "'set' must be a list of scalar elements")
    for el in elements:
        if not isinstance(el, _SCALARS):
            raise _bad(rid, f"set elements must be scalars, got {type(el).__name__}")
    low = obj.get("low", 0.5)
    high = obj.get("high", 1.0)
    for name, value in (("low", low), ("high", high)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _bad(rid, f"'{name}' must be a number")
    if not 0.0 <= low <= high <= 1.0:
        raise _bad(rid, f"invalid similarity range [{low}, {high}]")
    strategy = obj.get("strategy", "index")
    if strategy not in _STRATEGIES:
        raise _bad(rid, f"unknown strategy {strategy!r} (expected one of {_STRATEGIES})")
    return QueryRequest(
        id=rid,
        op="query",
        elements=frozenset(elements),
        low=float(low),
        high=float(high),
        strategy=strategy,
        return_candidates=bool(obj.get("return_candidates", False)),
    )


def _bad(rid: Any, message: str) -> ProtocolError:
    err = ProtocolError("bad_request", message)
    err.request_id = rid
    return err


def encode_request(
    rid: Any,
    elements,
    low: float,
    high: float,
    strategy: str = "index",
    *,
    op: str = "query",
    return_candidates: bool = False,
) -> bytes:
    """Serialize one request as a newline-terminated JSON line."""
    obj: dict[str, Any] = {"id": rid, "op": op}
    if op == "query":
        obj.update(set=sorted(elements, key=repr), low=low, high=high, strategy=strategy)
        if return_candidates:
            obj["return_candidates"] = True
    return encode_line(obj)


@dataclass
class QueryAnswer:
    """The per-request slice of a batch result, ready to serialize."""

    answers: list[tuple[int, float]]
    n_candidates: int
    batch_size: int
    queue_ms: float = 0.0
    candidates: list[int] | None = None
    extra: dict[str, Any] = field(default_factory=dict)


def response_ok(rid: Any, answer: QueryAnswer) -> dict[str, Any]:
    """Build a success response object for one answered query."""
    obj: dict[str, Any] = {
        "id": rid,
        "ok": True,
        "answers": [[int(sid), float(sim)] for sid, sim in answer.answers],
        "n_candidates": int(answer.n_candidates),
        "batch_size": int(answer.batch_size),
        "queue_ms": round(float(answer.queue_ms), 3),
    }
    if answer.candidates is not None:
        obj["candidates"] = [int(s) for s in answer.candidates]
    obj.update(answer.extra)
    return obj


def response_error(rid: Any, etype: str, message: str) -> dict[str, Any]:
    """Build a typed error response object."""
    assert etype in ERROR_TYPES, etype
    return {"id": rid, "ok": False, "error": {"type": etype, "message": message}}


def encode_line(obj: dict[str, Any]) -> bytes:
    """One compact JSON object, newline-terminated, UTF-8."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_response(line: str | bytes) -> dict[str, Any]:
    """Parse one response line (client side); raises on non-JSON."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("response must be a JSON object")
    return obj
