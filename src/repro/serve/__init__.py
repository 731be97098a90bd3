"""Always-on query serving: coalescing TCP service over mmap snapshots.

The offline engine already proved the economics: batched queries are
3-4x cheaper per query than a loop, snapshots open in O(ms), and the
thread/process executors are bit-identical to the sequential path.
This package converts those savings into a *service*:

- :mod:`~repro.serve.protocol` -- the newline-delimited JSON codec
  (typed errors, size limits) shared by the server and the load
  generator;
- :mod:`~repro.serve.coalescer` -- the micro-batching state machine
  (:class:`~repro.serve.coalescer.CoalescerCore`, synchronous and
  property-tested) plus its asyncio wrapper
  (:class:`~repro.serve.coalescer.Coalescer`);
- :mod:`~repro.serve.server` -- :class:`~repro.serve.server.QueryServer`,
  the asyncio TCP server with admission control, graceful drain and
  full ``serve.*`` telemetry (``repro serve``);
- :mod:`~repro.serve.loadgen` -- the closed-loop benchmark client
  (``repro loadgen``), whose collected answers feed the serving
  equivalence gate.
"""

from repro.serve.coalescer import (
    Batch,
    Coalescer,
    CoalescerCore,
    DrainingError,
    OverloadedError,
)
from repro.serve.loadgen import LoadgenResult, run_loadgen
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    QueryRequest,
    decode_request,
    decode_response,
    encode_request,
)
from repro.serve.server import QueryServer, ServeConfig, run_server

__all__ = [
    "Batch",
    "Coalescer",
    "CoalescerCore",
    "DrainingError",
    "LoadgenResult",
    "MAX_LINE_BYTES",
    "OverloadedError",
    "ProtocolError",
    "QueryRequest",
    "QueryServer",
    "ServeConfig",
    "decode_request",
    "decode_response",
    "encode_request",
    "run_loadgen",
    "run_server",
]
