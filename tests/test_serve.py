"""Serving equivalence and robustness: the live server vs. the library.

The always-on server adds concurrency (many connections), framing (a
wire codec) and scheduling (micro-batch coalescing) on top of
``query_batch`` -- none of which may change a single answer.  The
equivalence suite pins that: for seeded workloads, answers returned
through a live :class:`repro.serve.server.QueryServer` -- under any
coalescing window, on the thread backend (inline on the dispatch
thread, whatever ``workers`` asks) and on 1/2/4 process workers -- are
bit-identical to a direct ``query_batch`` on the same snapshot,
including exact D_S similarity values and per-request answer ordering
(floats survive the JSON round trip exactly because ``json``
serializes via ``repr``).

The robustness half attacks the protocol: malformed JSON, invalid
requests, oversized lines, half-closed sockets, pipelining, slow
clients and overload must all produce *typed* errors (or correct
answers) and leave the server serving.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.index import SetSimilarityIndex
from repro.data.generators import planted_clusters
from repro.serve import QueryServer, ServeConfig, protocol, run_loadgen

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    sets = planted_clusters(
        n_clusters=5, per_cluster=7, base_size=20, universe=1200,
        mutation_rate=0.2, seed=23,
    )
    index = SetSimilarityIndex.build(
        sets, budget=36, recall_target=0.8, k=24, b=4, seed=23,
        sample_pairs=2_000,
    )
    rng = np.random.default_rng(23)
    queries = [sets[int(rng.integers(len(sets)))] for _ in range(8)]
    queries.append(frozenset(int(x) for x in rng.integers(0, 1200, size=10)))
    queries.append(frozenset())
    path = tmp_path_factory.mktemp("serve") / "snapdir"
    index.save_snapshot(path)
    return index, queries, path


def run(coro):
    return asyncio.run(coro)


async def _serve_burst(path, queries, low, high, config, *, connections=6,
                       total=None, return_candidates=True):
    server = QueryServer(path, config)
    await server.start()
    try:
        result = await run_loadgen(
            "127.0.0.1", server.port, queries, low, high,
            connections=connections,
            total=total if total is not None else 3 * len(queries),
            return_candidates=return_candidates,
        )
    finally:
        server.request_drain()
        await server.drain()
    return result, server


def _assert_equivalent(result, direct, queries):
    """Every served answer matches the direct batch bit-for-bit."""
    assert not result.errors, result.errors
    assert set(result.answers) == set(range(len(queries)))
    for qidx, answers in result.answers.items():
        want = [(int(sid), float(sim)) for sid, sim in
                direct.results[qidx].answers]
        assert answers == want, f"query {qidx} diverged through the server"
    for qidx, candidates in result.candidates.items():
        want = sorted(int(s) for s in direct.results[qidx].candidates)
        assert candidates == want


# ---------------------------------------------------------------------------
# Equivalence: served == direct query_batch
# ---------------------------------------------------------------------------


class TestServingEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_thread_backend_workers(self, workload, workers):
        """The thread backend ignores ``workers``: batches run on the
        dispatch thread, and the server reports the one worker."""
        index, queries, path = workload
        direct = index.query_batch(queries, 0.4, 1.0)
        config = ServeConfig(workers=workers, max_batch=8, max_wait_ms=2.0)
        result, server = run(_serve_burst(path, queries, 0.4, 1.0, config))
        _assert_equivalent(result, direct, queries)
        assert server.stats()["workers"] == 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_process_backend_workers(self, workload, workers):
        index, queries, path = workload
        direct = index.query_batch(queries, 0.4, 1.0)
        config = ServeConfig(
            workers=workers, backend="process", max_batch=8, max_wait_ms=2.0,
        )
        result, _ = run(_serve_burst(
            path, queries, 0.4, 1.0, config, total=2 * len(queries),
        ))
        _assert_equivalent(result, direct, queries)

    @pytest.mark.parametrize("max_batch,max_wait_ms,adaptive", [
        (1, 0.0, False),     # no coalescing at all
        (4, 0.5, False),     # tight window
        (64, 10.0, True),    # wide adaptive window
    ])
    def test_any_coalescing_window(self, workload, max_batch, max_wait_ms,
                                   adaptive):
        index, queries, path = workload
        direct = index.query_batch(queries, 0.3, 0.9)
        config = ServeConfig(
            max_batch=max_batch, max_wait_ms=max_wait_ms, adaptive=adaptive,
        )
        result, server = run(_serve_burst(path, queries, 0.3, 0.9, config))
        _assert_equivalent(result, direct, queries)
        stats = server.stats()
        assert max(
            stats["max_batch_size"], 1
        ) <= max_batch, "coalescer exceeded its batch cap"

    def test_mixed_ranges_coalesce_by_key(self, workload):
        """Requests with different (low, high) windows interleave on
        the same server and each comes back equivalent to its own
        direct batch."""
        index, queries, path = workload
        ranges = [(0.5, 1.0), (0.0, 0.4), (0.2, 0.8)]
        directs = {r: index.query_batch(queries, *r) for r in ranges}

        async def main():
            server = QueryServer(path, ServeConfig(max_batch=16, max_wait_ms=3.0))
            await server.start()
            try:
                results = await asyncio.gather(*[
                    run_loadgen(
                        "127.0.0.1", server.port, queries, lo, hi,
                        connections=3, total=2 * len(queries),
                    )
                    for lo, hi in ranges
                ])
            finally:
                server.request_drain()
                await server.drain()
            return results

        for (lo, hi), result in zip(ranges, run(main())):
            assert not result.errors
            for qidx, answers in result.answers.items():
                want = [(int(s), float(v)) for s, v in
                        directs[(lo, hi)].results[qidx].answers]
                assert answers == want

    def test_batches_actually_coalesce(self, workload):
        """Concurrent closed-loop clients produce multi-query batches
        (the whole point), visible in loadgen's observed batch sizes."""
        _, queries, path = workload
        config = ServeConfig(max_batch=32, max_wait_ms=5.0, adaptive=False)
        result, server = run(_serve_burst(
            path, queries, 0.4, 1.0, config, connections=8,
            total=8 * len(queries), return_candidates=False,
        ))
        assert max(result.batch_sizes) > 1
        assert server.stats()["batches"] < result.n_ok


# ---------------------------------------------------------------------------
# Protocol robustness: typed errors, the server keeps serving
# ---------------------------------------------------------------------------


async def _raw_session(port, payloads: list[bytes], n_responses: int,
                       *, close_write=False, timeout=10.0):
    """Write raw bytes, read n response lines, return parsed objects."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for p in payloads:
        writer.write(p)
    await writer.drain()
    if close_write:
        writer.write_eof()
    out = []
    for _ in range(n_responses):
        line = await asyncio.wait_for(reader.readline(), timeout)
        assert line, "server closed before answering"
        out.append(json.loads(line))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return out


@pytest.fixture(scope="module")
def live_server(workload):
    """One long-lived server shared by the robustness tests -- which
    double as a check that none of the abuse kills it."""
    _, _, path = workload
    loop = asyncio.new_event_loop()
    server = QueryServer(path, ServeConfig(
        max_batch=8, max_wait_ms=1.0, max_line_bytes=4096,
    ))
    loop.run_until_complete(server.start())

    def call(coro):
        return loop.run_until_complete(coro)

    yield server, call
    server.request_drain()
    loop.run_until_complete(server.drain())
    loop.close()


def _query_line(rid, elements, low=0.4, high=1.0):
    return protocol.encode_request(rid, elements, low, high)


class TestProtocolRobustness:
    def test_candidates_only_when_asked(self, live_server, workload):
        """Pipelined requests that coalesce into shared batches: those
        with ``return_candidates`` get the direct batch's candidate sids,
        ascending; the others carry no ``candidates`` key at all."""
        server, call = live_server
        index, queries, _ = workload
        direct = index.query_batch(queries, 0.4, 1.0)
        lines = [
            protocol.encode_request(
                i, q, 0.4, 1.0, return_candidates=(i % 2 == 0)
            )
            for i, q in enumerate(queries)
        ]
        replies = {
            r["id"]: r
            for r in call(_raw_session(server.port, lines, len(lines)))
        }
        for i in range(len(queries)):
            assert replies[i]["ok"], replies[i]
            if i % 2 == 0:
                assert replies[i]["candidates"] == sorted(
                    direct.results[i].candidates
                )
            else:
                assert "candidates" not in replies[i]

    def test_malformed_json_is_typed_and_survivable(self, live_server, workload):
        server, call = live_server
        _, queries, _ = workload
        (bad, good) = call(_raw_session(server.port, [
            b"this is not json\n",
            _query_line(1, queries[0]),
        ], 2))
        by_id = {r.get("id"): r for r in (bad, good)}
        assert by_id[None]["ok"] is False
        assert by_id[None]["error"]["type"] == "bad_json"
        assert by_id[1]["ok"] is True

    @pytest.mark.parametrize("line,etype", [
        (b'[1,2,3]\n', "bad_request"),                          # not an object
        (b'{"op":"query","set":["a"]}\n', "bad_request"),        # missing id
        (b'{"id":1,"op":"nope"}\n', "bad_request"),              # unknown op
        (b'{"id":1,"set":"abc"}\n', "bad_request"),              # set not a list
        (b'{"id":1,"set":[["x"]]}\n', "bad_request"),            # nested element
        (b'{"id":1,"set":[],"low":0.9,"high":0.1}\n', "bad_request"),
        (b'{"id":1,"set":[],"low":"x"}\n', "bad_request"),
        (b'{"id":1,"set":[],"strategy":"magic"}\n', "bad_request"),
    ])
    def test_invalid_requests_are_typed(self, live_server, line, etype):
        server, call = live_server
        (resp,) = call(_raw_session(server.port, [line], 1))
        assert resp["ok"] is False
        assert resp["error"]["type"] == etype

    def test_bad_request_echoes_id_when_salvageable(self, live_server):
        server, call = live_server
        (resp,) = call(_raw_session(
            server.port, [b'{"id":"req-9","set":"oops"}\n'], 1,
        ))
        assert resp["id"] == "req-9"
        assert resp["error"]["type"] == "bad_request"

    def test_oversized_line_resynchronizes(self, live_server, workload):
        """A line beyond max_line_bytes gets a typed too_large error
        and the *next* line on the same connection is served normally."""
        server, call = live_server
        _, queries, _ = workload
        huge = b'{"id":1,"set":[' + b'"x",' * 5000 + b'"x"]}\n'
        assert len(huge) > server.config.max_line_bytes
        (err, ok) = call(_raw_session(server.port, [
            huge, _query_line(2, queries[1]),
        ], 2))
        assert err["ok"] is False
        assert err["error"]["type"] == "too_large"
        assert ok["id"] == 2 and ok["ok"] is True

    def test_half_closed_socket_still_gets_answers(self, live_server, workload):
        """A client that shuts down its write side after sending still
        receives every response (EOF is not an abort)."""
        server, call = live_server
        _, queries, _ = workload
        responses = call(_raw_session(
            server.port,
            [_query_line(i, queries[i]) for i in range(3)],
            3, close_write=True,
        ))
        assert sorted(r["id"] for r in responses) == [0, 1, 2]
        assert all(r["ok"] for r in responses)

    def test_pipelined_requests_demultiplex_by_id(self, live_server, workload):
        server, call = live_server
        index, queries, _ = workload
        n = len(queries)
        responses = call(_raw_session(
            server.port,
            [_query_line(i, queries[i]) for i in range(n)],
            n,
        ))
        direct = index.query_batch(queries, 0.4, 1.0)
        got = {r["id"]: r for r in responses}
        for i in range(n):
            want = [[int(s), float(v)] for s, v in direct.results[i].answers]
            assert got[i]["answers"] == want

    def test_ping_and_stats_ops(self, live_server):
        server, call = live_server
        (pong, stats) = call(_raw_session(server.port, [
            b'{"id":"p","op":"ping"}\n',
            b'{"id":"s","op":"stats"}\n',
        ], 2))
        by_id = {r["id"]: r for r in (pong, stats)}
        assert by_id["p"]["pong"] is True
        assert by_id["s"]["stats"]["n_sets"] > 0
        assert by_id["s"]["stats"]["max_batch"] == 8

    def test_slow_client_does_not_stall_others(self, live_server, workload):
        """A client that sends a request but never reads its response
        must not block other clients' answers (per-connection writes)."""
        server, call = live_server
        _, queries, _ = workload

        async def main():
            slow_r, slow_w = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Pipelines many requests and never reads a byte.
            for i in range(64):
                slow_w.write(_query_line(1000 + i, queries[i % len(queries)]))
            await slow_w.drain()
            # Meanwhile a well-behaved client must be served promptly.
            fast = await asyncio.wait_for(
                _raw_session(server.port, [_query_line(7, queries[0])], 1),
                timeout=5.0,
            )
            slow_w.close()
            try:
                await slow_w.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return fast

        (resp,) = call(main())
        assert resp["id"] == 7 and resp["ok"] is True

    def test_empty_lines_are_ignored(self, live_server, workload):
        server, call = live_server
        _, queries, _ = workload
        (resp,) = call(_raw_session(server.port, [
            b"\n", b"  \n", _query_line(5, queries[2]),
        ], 1))
        assert resp["id"] == 5 and resp["ok"] is True


class TestOverloadAndDrain:
    def test_overload_is_explicit_and_recoverable(self, workload):
        """With a tiny admission bound and a gated dispatcher, excess
        requests get typed 'overloaded' responses -- and once the gate
        lifts, the server serves normally again."""
        _, queries, path = workload

        async def main():
            server = QueryServer(path, ServeConfig(
                max_batch=1, max_wait_ms=0.0, max_pending=2,
            ))
            await server.start()
            gate = asyncio.Event()
            real_dispatch = server._dispatch_batch

            async def gated(key, payloads):
                await gate.wait()
                return await real_dispatch(key, payloads)

            server._coalescer._dispatch = gated
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(8):
                    writer.write(_query_line(i, queries[i % len(queries)]))
                await writer.drain()
                gate.set()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 10))
                    for _ in range(8)
                ]
                writer.close()
                overloaded = [r for r in responses if not r["ok"]]
                served = [r for r in responses if r["ok"]]
                assert all(
                    r["error"]["type"] == "overloaded" for r in overloaded
                )
                assert overloaded, "admission bound never tripped"
                assert served, "server stopped serving entirely"
                # ...and it still answers a fresh request afterwards.
                (after,) = await _raw_session(
                    server.port, [_query_line(99, queries[0])], 1
                )
                assert after["ok"] is True
                stats = server.stats()
                assert stats["rejected_overload"] == len(overloaded)
            finally:
                server.request_drain()
                await server.drain()

        run(main())

    def test_drain_answers_pending_then_refuses(self, workload):
        index, queries, path = workload
        direct = index.query_batch(queries, 0.4, 1.0)

        async def main():
            server = QueryServer(path, ServeConfig(
                max_batch=64, max_wait_ms=500.0, adaptive=False,
            ))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            n = len(queries)
            for i in range(n):
                writer.write(_query_line(i, queries[i]))
            await writer.drain()
            await asyncio.sleep(0.05)  # admitted, parked in the window
            server.request_drain()
            await server.drain()  # must flush, not abandon, the window
            responses = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                responses.append(json.loads(line))
            got = {r["id"]: r for r in responses}
            assert set(got) == set(range(n))
            for i in range(n):
                want = [[int(s), float(v)] for s, v in direct.results[i].answers]
                assert got[i]["answers"] == want
            # The listener is gone: new connections are refused.
            with pytest.raises((ConnectionRefusedError, OSError)):
                await asyncio.open_connection("127.0.0.1", server.port)

        run(main())

    def test_serve_metrics_are_recorded(self, workload):
        from repro.obs import metrics

        _, queries, path = workload
        before = metrics.counter("serve.requests").value
        config = ServeConfig(max_batch=8, max_wait_ms=1.0)
        result, server = run(_serve_burst(
            path, queries, 0.4, 1.0, config, return_candidates=False,
        ))
        assert metrics.counter("serve.requests").value - before == result.n_sent
        assert metrics.hdr("serve.request_latency_ms").count > 0
        assert metrics.hdr("serve.queue_wait_ms").count > 0
        assert metrics.hdr("serve.batch_size").count >= server.stats()["batches"]


class TestLoadgenSummary:
    def test_quantiles_use_the_lower_order_statistic(self):
        """Loadgen reports quantiles by the repo's one rule: the lower
        order statistic at rank ceil(q*n), as ``repro top`` does."""
        from repro.obs.top import quantile
        from repro.serve.loadgen import LoadgenResult

        values = [4.0, 1.0, 3.0, 2.0]
        summary = LoadgenResult(
            latencies_ms=list(values), queue_ms=list(values)
        ).summary()
        assert summary["latency_ms"]["p50"] == 2.0
        assert summary["queue_ms_p50"] == 2.0
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert summary["latency_ms"][label] == quantile(values, q)


# ---------------------------------------------------------------------------
# Codec round trips
# ---------------------------------------------------------------------------


class TestCodec:
    def test_float_exactness_round_trip(self):
        """Similarities must survive JSON bit-for-bit -- the foundation
        of the serving equivalence gate."""
        values = [1 / 3, 2 / 7, 0.1 + 0.2, 5 / 6, 1e-17, 0.9999999999999999]
        answer = protocol.QueryAnswer(
            answers=[(i, v) for i, v in enumerate(values)],
            n_candidates=len(values), batch_size=1,
        )
        line = protocol.encode_line(protocol.response_ok("x", answer))
        back = protocol.decode_response(line)
        assert [v for _, v in back["answers"]] == values  # == , not approx

    def test_request_round_trip(self):
        line = protocol.encode_request(
            "rid-1", frozenset({"a", "b"}), 0.25, 0.75, "scan",
            return_candidates=True,
        )
        req = protocol.decode_request(line)
        assert req.id == "rid-1"
        assert req.elements == frozenset({"a", "b"})
        assert (req.low, req.high, req.strategy) == (0.25, 0.75, "scan")
        assert req.return_candidates is True
        assert req.key == (0.25, 0.75, "scan")

    def test_int_elements_survive(self):
        req = protocol.decode_request(b'{"id":1,"set":[3,1,2]}')
        assert req.elements == frozenset({1, 2, 3})

    def test_too_large_guard(self):
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.decode_request(b"x" * 100, max_bytes=50)
        assert exc.value.etype == "too_large"
