"""One staged pipeline over views (:mod:`repro.exec.pipeline`).

The live index and ``ParallelExecutor`` run the same function; what
differs is the view (live structures behind a pager, heap arrays of a
freeze, a mapped snapshot file) and the scheduler (inline on the
calling thread, or a process pool).  These tests pin what the views must agree on for every
plan family ``TestPlanOracle`` enumerates -- answers, candidates,
simulated I/O, the span tree and each stage span's own I/O delta -- and
the one ``timings`` key set every path reports.
"""

from __future__ import annotations

import pytest

from repro.exec import ParallelExecutor, open_snapshot
from repro.exec.shard import ShardedExecutor, build_sharded, open_sharded
from repro.obs import metrics
from repro.obs.explain import PROBE_SPANS
from repro.storage.iomodel import IOStats
from tests.test_index import PLAN_CASES, build_planned_index, oracle_queries

#: ``view -> whether a pool runs its tasks``.
#: ``mapped_thread2`` asks the thread backend for two workers, which it
#: ignores: its tasks run inline like ``mapped_thread1``'s.
VIEWS = {
    "frozen": False,
    "mapped_thread1": False,
    "mapped_thread2": False,
    "mapped_process": True,
}
STAGE_SPANS = ("embed_batch", *PROBE_SPANS, "verify_batch", "scan_batch")


@pytest.fixture(scope="module")
def paths(clustered_sets, tmp_path_factory):
    """``name -> query_batch`` over one collection and plan."""
    index = build_planned_index(clustered_sets)
    snap_dir = tmp_path_factory.mktemp("pipeline") / "snap"
    index.save_snapshot(snap_dir)
    shard_dir = tmp_path_factory.mktemp("pipeline") / "shards"
    build_sharded(
        clustered_sets, shard_dir, n_shards=2, k=48, b=6, seed=11,
        plan=index.plan, dist=index.distribution,
    )
    executors = {
        "frozen": ParallelExecutor(index.freeze()),
        "mapped_thread1": ParallelExecutor(open_snapshot(snap_dir)),
        "mapped_thread2": ParallelExecutor(open_snapshot(snap_dir), workers=2),
        "mapped_process": ParallelExecutor(
            open_snapshot(snap_dir), workers=2, backend="process"
        ),
        "sharded": ShardedExecutor(open_sharded(shard_dir)),
    }
    yield {
        "live": index.query_batch,
        "live_single": lambda qs, *a, **kw: index.query(qs[0], *a, **kw),
        **{name: ex.query_batch for name, ex in executors.items()},
    }
    for executor in executors.values():
        executor.close()
    index.thaw()


def _tree(span, depth=0):
    """``(depth, name)`` of every span but the pool's own subtree."""
    if span.name == "parallel_exec":
        return []
    return [(depth, span.name)] + [
        node for child in span.children for node in _tree(child, depth + 1)
    ]


def _stage_deltas(root):
    return [
        (span.name, span.attrs.get("sigma"), span.io_delta)
        for span in root.walk() if span.name in STAGE_SPANS
    ]


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize(
    "case,lo,hi,strategy,plan,io", PLAN_CASES, ids=[c[0] for c in PLAN_CASES]
)
def test_views_conform(paths, clustered_sets, view, case, lo, hi, strategy, plan, io):
    queries = (
        [frozenset()] if case == "empty_query"
        else oracle_queries(clustered_sets) + [frozenset()]
    )
    want = paths["live"](queries, lo, hi, strategy=strategy, explain=True)
    got = paths[view](queries, lo, hi, strategy=strategy, explain=True)
    assert [r.answers for r in got] == [r.answers for r in want]
    assert [r.candidates for r in got] == [r.candidates for r in want]

    # The span tree: the plan's stages, one probe span per planned
    # filter, and the pool's summary only where a pool ran.
    tree = _tree(want.trace)
    if plan is None:
        assert tree == [(0, "query_batch"), (1, "scan_batch")]
    else:
        (cspan,) = want.trace.find("candidates_batch")
        assert cspan.attrs["plan"] == plan
        probes = [s.name for s in cspan.children if s.name in PROBE_SPANS]
        expected = {
            "full_collection": [], "empty_queries": [],
            "sfi(lo)": ["sfi"], "complement_sfi(up)": ["sfi"],
            "dfi(up)": ["dfi"], "complement_dfi(lo)": ["dfi"],
            "sfi_difference": ["sfi", "sfi"], "dfi_difference": ["dfi", "dfi"],
            "pivot_union": ["dfi", "dfi", "sfi", "sfi"],
        }[plan]
        assert probes == [f"{kind}_probe_batch" for kind in expected]
        assert tree == (
            [(0, "query_batch"), (1, "candidates_batch")]
            + ([(2, "embed_batch")] if probes else [])
            + [(2, name) for name in probes]
            + [(1, "verify_batch")]
        )
    assert _tree(got.trace) == tree
    pool_spans = list(got.trace.find("parallel_exec"))
    assert len(pool_spans) == (1 if VIEWS[view] else 0)
    assert not list(want.trace.find("parallel_exec"))

    assert got.io == want.io
    assert got.pages_saved == want.pages_saved
    assert got.fetches_saved == want.fetches_saved
    # Every charge lands inside a stage span, the same one on each view.
    assert _stage_deltas(got.trace) == _stage_deltas(want.trace)
    for batch in (got, want):
        total = sum((d for _, _, d in _stage_deltas(batch.trace)), IOStats())
        assert total == batch.io == batch.trace.io_delta


@pytest.mark.parametrize(
    "path", ["live", "frozen", "mapped_thread1", "mapped_thread2",
             "mapped_process", "sharded"],
)
def test_one_timings_key_set(paths, clustered_sets, path):
    queries = oracle_queries(clustered_sets)
    fetch = metrics.hdr("query.phase.fetch_ms")
    before = fetch.count
    batch = paths[path](queries, 0.62, 0.7)
    keys = {"embed", "probe", "fetch", "verify"}
    assert set(batch.timings) == (keys | {"route"} if path == "sharded" else keys)
    assert all(ms >= 0.0 for ms in batch.timings.values())
    assert fetch.count == before + 1
    assert set(paths[path](queries, 0.3, 0.9, strategy="scan").timings) == {"scan"}
    if path == "live":
        assert set(paths["live_single"](queries, 0.62, 0.7).timings) == keys
