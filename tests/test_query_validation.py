"""Malformed queries are refused with ``InvalidQueryError`` everywhere.

A non-finite query component makes every distance NaN or infinite, so an
exact scan would answer with nothing; a non-integral ``k`` would be
truncated, read as ``1`` (``True``) or fail deep inside NumPy.  Every
index, the service's admission check and the router refuse both before
any work is done, and over HTTP the refusal is a 400 that no shard is
charged for.
"""

from __future__ import annotations

import urllib.error
import warnings

import numpy as np
import pytest

from repro import (
    BSBFIndex,
    ExactOracle,
    InvalidQueryError,
    MultiLevelBlockIndex,
    SFIndex,
    get_registry,
)
from repro.baselines import PostFilterIndex
from repro.graph import GraphConfig
from repro.service import IndexService, ServiceConfig, make_server
from repro.sharding import ShardRouter, make_router_server

from .conftest import small_mbi_config
from .test_service_server import DIM, fast_config, ingest_stream, post, running

N = 50

BAD_QUERIES = {
    "all-nan": np.full(DIM, np.nan),
    "one-nan": np.r_[np.zeros(DIM - 1), np.nan],
    "inf": np.r_[np.inf, np.zeros(DIM - 1)],
    "minus-inf": np.r_[np.zeros(DIM - 1), -np.inf],
}
BAD_KS = [2.5, 3.0, True, "3", None, np.float64(2.0)]
JSON_BAD_KS = [2.5, 3.0, True, "3", None]
GOOD_KS = [3, np.int32(3), np.int64(3), np.uint8(3)]


def _data():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N, DIM)), np.arange(N, dtype=np.float64)


def _mbi():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        index = MultiLevelBlockIndex(DIM, "euclidean", small_mbi_config(leaf_size=16))
    index.extend(*_data())
    return index


def _graph_index(cls):
    index = cls(DIM, graph_config=GraphConfig(n_neighbors=6, exact_threshold=100_000))
    index.extend(*_data())
    index.build()
    return index


def _flat(cls):
    index = cls(DIM)
    index.extend(*_data())
    return index


INDEXES = {
    "mbi": _mbi,
    "bsbf": lambda: _flat(BSBFIndex),
    "oracle": lambda: _flat(ExactOracle),
    "sf": lambda: _graph_index(SFIndex),
    "postfilter": lambda: _graph_index(PostFilterIndex),
}


@pytest.fixture(scope="module", params=sorted(INDEXES))
def index(request):
    return INDEXES[request.param]()


@pytest.fixture()
def service(tmp_path):
    svc = IndexService.open(
        tmp_path / "data", dim=DIM, mbi_config=fast_config(),
        config=ServiceConfig(fsync="never"),
    )
    ingest_stream(svc)
    yield svc
    svc.close()


@pytest.fixture()
def router(tmp_path):
    router = ShardRouter.open(
        tmp_path / "cluster", n_shards=2, dim=DIM, mbi_config=fast_config(),
        service_config=ServiceConfig(fsync="never"),
    )
    ingest_stream(router)
    yield router
    router.close()


class TestIndexes:
    @pytest.mark.parametrize("name", sorted(BAD_QUERIES))
    def test_non_finite_query_is_refused(self, index, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidQueryError, match="non-finite"):
                index.search(BAD_QUERIES[name], 3, 0.0, float(N))

    @pytest.mark.parametrize("k", BAD_KS, ids=repr)
    def test_non_integer_k_is_refused(self, index, k):
        with pytest.raises(InvalidQueryError, match="integer"):
            index.search(np.zeros(DIM), k)

    @pytest.mark.parametrize("k", GOOD_KS, ids=repr)
    def test_numpy_integer_k_is_accepted(self, index, k):
        result = index.search(np.zeros(DIM), k)
        assert len(result) == 3


class TestService:
    @pytest.mark.parametrize("name", sorted(BAD_QUERIES))
    def test_non_finite_query_is_refused_at_admission(self, service, name):
        with pytest.raises(InvalidQueryError, match="non-finite"):
            service.submit(BAD_QUERIES[name], k=3)

    @pytest.mark.parametrize("k", BAD_KS, ids=repr)
    def test_non_integer_k_is_refused_at_admission(self, service, k):
        with pytest.raises(InvalidQueryError, match="integer"):
            service.submit(np.zeros(DIM), k=k)

    def test_numpy_integer_k_is_answered(self, service):
        assert len(service.query(np.zeros(DIM), np.int64(4))) == 4


class TestRouter:
    @pytest.mark.parametrize("name", sorted(BAD_QUERIES))
    def test_non_finite_query_is_not_a_shard_failure(self, router, name):
        failures = get_registry().snapshot()["shard_failures_total"]
        with pytest.raises(InvalidQueryError, match="non-finite"):
            router.search(BAD_QUERIES[name], 3)
        assert get_registry().snapshot()["shard_failures_total"] == failures

    @pytest.mark.parametrize("k", [*BAD_KS, 0], ids=repr)
    def test_bad_k_is_not_a_shard_failure(self, router, k):
        failures = get_registry().snapshot()["shard_failures_total"]
        with pytest.raises(InvalidQueryError, match="k must be"):
            router.search(np.zeros(DIM), k)
        assert get_registry().snapshot()["shard_failures_total"] == failures

    def test_numpy_integer_k_is_answered(self, router):
        assert len(router.search(np.zeros(DIM), np.int64(4))) == 4


class TestHttp:
    @pytest.mark.parametrize("name", ["one-nan", "inf"])
    def test_service_answers_400(self, service, name):
        with running(make_server(service, port=0)) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/query", {"query": BAD_QUERIES[name].tolist(), "k": 3})
        excinfo.value.close()
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("name", ["one-nan", "inf"])
    def test_router_answers_400(self, router, name):
        failures = get_registry().snapshot()["shard_failures_total"]
        with running(make_router_server(router, port=0)) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/query", {"query": BAD_QUERIES[name].tolist(), "k": 3})
        excinfo.value.close()
        assert excinfo.value.code == 400
        assert get_registry().snapshot()["shard_failures_total"] == failures

    @pytest.mark.parametrize("seeded", [False, True], ids=["queued", "seeded"])
    @pytest.mark.parametrize("k", JSON_BAD_KS, ids=repr)
    def test_service_non_integer_k_answers_400(self, service, k, seeded):
        body = {"query": [0.0] * DIM, "k": k, **({"seed": 1} if seeded else {})}
        with running(make_server(service, port=0)) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/query", body)
        excinfo.value.close()
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("k", JSON_BAD_KS, ids=repr)
    def test_router_non_integer_k_answers_400(self, router, k):
        failures = get_registry().snapshot()["shard_failures_total"]
        with running(make_router_server(router, port=0)) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/query", {"query": [0.0] * DIM, "k": k})
        excinfo.value.close()
        assert excinfo.value.code == 400
        assert get_registry().snapshot()["shard_failures_total"] == failures
