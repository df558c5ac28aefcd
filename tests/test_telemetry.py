"""Tests of always-on sampled tracing: sampler, buffers, capture policy.

Covers :mod:`repro.observability.telemetry` in isolation, plus the HTTP
surface it feeds on the single-shard frontend (``/debug/trace/recent``,
``/debug/slow``, Prometheus ``/metrics``).  Cluster-wide stitching is in
``tests/test_distributed_trace.py``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.observability.telemetry import (
    Telemetry,
    TelemetryConfig,
    TraceBuffer,
    TraceRecord,
    TraceSampler,
    configure_telemetry,
    get_telemetry,
)
from repro.observability.trace import QueryTrace
from repro.observability.tracing import from_wire, to_wire
from repro.service import IndexService, ServiceConfig, make_server


class TestTelemetryConfig:
    def test_default_is_disarmed(self):
        config = TelemetryConfig()
        assert config.sample_rate == 0.0
        assert config.slow_threshold is None
        assert not Telemetry(config).armed

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate=-0.1)
        with pytest.raises(ValueError):
            TelemetryConfig(rate_limit_per_sec=0)
        with pytest.raises(ValueError):
            TelemetryConfig(slow_threshold=-1.0)
        with pytest.raises(ValueError):
            TelemetryConfig(buffer_size=0)
        with pytest.raises(ValueError):
            TelemetryConfig(slow_buffer_size=0)

    def test_armed_when_either_knob_is_on(self):
        assert Telemetry(TelemetryConfig(sample_rate=0.5)).armed
        assert Telemetry(TelemetryConfig(slow_threshold=1.0)).armed
        assert Telemetry(
            TelemetryConfig(sample_rate=0.5, slow_threshold=1.0)
        ).armed


class TestTraceSampler:
    def test_rate_zero_never_samples(self):
        sampler = TraceSampler(0.0)
        assert not any(sampler.should_sample() for _ in range(100))

    def test_rate_one_samples_up_to_the_rate_limit(self):
        sampler = TraceSampler(1.0, rate_limit_per_sec=1000.0)
        assert all(sampler.should_sample() for _ in range(10))

    def test_seeded_decisions_are_reproducible(self):
        a = TraceSampler(0.5, rate_limit_per_sec=1e9, seed=42)
        b = TraceSampler(0.5, rate_limit_per_sec=1e9, seed=42)
        decisions_a = [a.should_sample() for _ in range(200)]
        decisions_b = [b.should_sample() for _ in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_token_bucket_caps_sampling_under_load(self):
        clock = [0.0]
        sampler = TraceSampler(
            1.0, rate_limit_per_sec=2.0, clock=lambda: clock[0]
        )
        # Burst capacity is max(1, limit) = 2 tokens; a frozen clock
        # refills nothing, so only the first two coin wins pass.
        wins = [sampler.should_sample() for _ in range(10)]
        assert wins == [True, True] + [False] * 8

    def test_tokens_refill_with_the_clock(self):
        clock = [0.0]
        sampler = TraceSampler(
            1.0, rate_limit_per_sec=2.0, clock=lambda: clock[0]
        )
        assert sampler.should_sample() and sampler.should_sample()
        assert not sampler.should_sample()
        clock[0] = 1.0  # refills 2/sec * 1s = 2 tokens
        assert sampler.should_sample()
        assert sampler.should_sample()
        assert not sampler.should_sample()

    def test_rate_limited_wins_are_counted(self):
        from repro.observability.metrics import get_registry

        counter = get_registry().counter("telemetry_rate_limited_total")
        before = counter.value
        clock = [0.0]
        sampler = TraceSampler(
            1.0, rate_limit_per_sec=1.0, clock=lambda: clock[0]
        )
        sampler.should_sample()  # spends the single token
        sampler.should_sample()  # discarded by the dry bucket
        assert counter.value == before + 1

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            TraceSampler(2.0)
        with pytest.raises(ValueError):
            TraceSampler(0.5, rate_limit_per_sec=0.0)


class TestTraceBuffer:
    def _record(self, i: int) -> TraceRecord:
        return TraceRecord(
            trace_id=f"{i:032x}", source="test", seconds=float(i),
            k=1, t_start=0.0, t_end=1.0,
        )

    def test_newest_first_and_capacity_eviction(self):
        buffer = TraceBuffer(capacity=3)
        for i in range(5):
            buffer.append(self._record(i))
        recent = buffer.recent()
        assert [r.seconds for r in recent] == [4.0, 3.0, 2.0]
        assert len(buffer) == 3
        assert buffer.total == 5
        assert buffer.dropped == 2

    def test_recent_n_limits(self):
        buffer = TraceBuffer(capacity=8)
        for i in range(4):
            buffer.append(self._record(i))
        assert [r.seconds for r in buffer.recent(2)] == [3.0, 2.0]
        assert len(buffer.recent(100)) == 4

    def test_clear_keeps_totals(self):
        buffer = TraceBuffer(capacity=2)
        buffer.append(self._record(0))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.total == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)


class TestCapturePolicy:
    def test_disarmed_records_nothing(self):
        telemetry = Telemetry(TelemetryConfig())
        record = telemetry.record(
            source="service", seconds=99.0, k=1, t_start=0.0, t_end=1.0
        )
        assert record is None
        assert len(telemetry.recent) == 0
        assert len(telemetry.slow) == 0

    def test_sampled_fast_query_enters_recent_only(self):
        telemetry = Telemetry(
            TelemetryConfig(sample_rate=1.0, slow_threshold=10.0)
        )
        record = telemetry.record(
            source="service", seconds=0.001, k=1, t_start=0.0, t_end=1.0,
            trace=QueryTrace(),
        )
        assert record is not None and record.sampled and not record.slow
        assert len(telemetry.recent) == 1
        assert len(telemetry.slow) == 0

    def test_slow_unsampled_query_enters_slow_log_lightweight(self):
        telemetry = Telemetry(TelemetryConfig(slow_threshold=0.5))
        record = telemetry.record(
            source="service", seconds=0.8, k=1, t_start=0.0, t_end=1.0
        )
        assert record is not None and record.slow and not record.sampled
        assert record.trace is None and record.stitched is None
        assert len(telemetry.slow) == 1
        assert len(telemetry.recent) == 0

    def test_slow_sampled_query_enters_both_with_full_trace(self):
        telemetry = Telemetry(
            TelemetryConfig(sample_rate=1.0, slow_threshold=0.5)
        )
        record = telemetry.record(
            source="router", seconds=0.8, k=1, t_start=0.0, t_end=1.0,
            trace=QueryTrace(),
        )
        assert record.slow and record.sampled and record.trace is not None
        assert len(telemetry.recent) == 1
        assert len(telemetry.slow) == 1

    def test_threshold_is_inclusive(self):
        telemetry = Telemetry(TelemetryConfig(slow_threshold=0.5))
        assert telemetry.record(
            source="s", seconds=0.5, k=1, t_start=0.0, t_end=1.0
        ).slow

    def test_trace_id_defaults_to_a_fresh_mint(self):
        telemetry = Telemetry(TelemetryConfig(slow_threshold=0.0))
        a = telemetry.record(
            source="s", seconds=1.0, k=1, t_start=0.0, t_end=1.0
        )
        b = telemetry.record(
            source="s", seconds=1.0, k=1, t_start=0.0, t_end=1.0
        )
        assert a.trace_id != b.trace_id
        explicit = telemetry.record(
            source="s", seconds=1.0, k=1, t_start=0.0, t_end=1.0,
            trace_id="cafe" * 8,
        )
        assert explicit.trace_id == "cafe" * 8


class TestProcessTelemetry:
    def test_default_is_disarmed_singleton(self):
        assert get_telemetry() is get_telemetry()
        assert not get_telemetry().armed

    def test_configure_swaps_in_a_fresh_instance(self):
        before = get_telemetry()
        configured = configure_telemetry(TelemetryConfig(sample_rate=1.0))
        assert configured is get_telemetry()
        assert configured is not before
        assert configured.armed
        # Buffers start clean; passing None restores the disarmed default.
        assert len(configured.recent) == 0
        restored = configure_telemetry(None)
        assert not restored.armed


class TestRecordCodec:
    def test_lightweight_round_trip(self):
        record = TraceRecord(
            trace_id="ab" * 16, source="router", seconds=0.5,
            k=7, t_start=1.0, t_end=2.0, slow=True, unix_time=123.0,
        )
        got = from_wire(TraceRecord, json.loads(json.dumps(to_wire(record))))
        assert got == record

    def test_full_trace_round_trip(self):
        trace = QueryTrace(k=3)
        trace.record_shard(0, False, False, 3, 50, retries=1)
        record = TraceRecord(
            trace_id="cd" * 16, source="service", seconds=0.1,
            k=3, t_start=0.0, t_end=9.0, sampled=True, trace=trace,
        )
        got = from_wire(TraceRecord, json.loads(json.dumps(to_wire(record))))
        assert got.sampled
        assert got.trace is not None
        assert got.trace.signature() == trace.signature()


DIM = 6


@pytest.fixture()
def armed_server(tmp_path):
    """A served IndexService with telemetry armed: sample all, slow at 0s."""
    service = IndexService.open(
        tmp_path / "data",
        dim=DIM,
        config=ServiceConfig(
            fsync="never",
            telemetry=TelemetryConfig(
                sample_rate=1.0, rate_limit_per_sec=1e6,
                slow_threshold=0.0, seed=0,
            ),
        ),
    )
    rng = np.random.default_rng(0)
    for i in range(60):
        service.ingest(rng.standard_normal(DIM), float(i))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestServiceTelemetryEndpoints:
    def test_opening_the_service_armed_process_telemetry(self, armed_server):
        assert get_telemetry().armed

    def test_query_lands_in_debug_buffers(self, armed_server):
        _, base = armed_server
        _post(base + "/query", {"query": [0.0] * DIM, "k": 3, "seed": 1})
        status, body = _get(base + "/debug/trace/recent")
        records = json.loads(body)["records"]
        assert status == 200
        assert any(r["sampled"] for r in records)
        sampled = next(r for r in records if r["sampled"])
        trace = from_wire(TraceRecord, sampled).trace
        assert trace is not None and trace.k == 3
        assert len(trace.blocks) >= 1
        # slow_threshold=0 means every query is also a slow query.
        status, body = _get(base + "/debug/slow")
        assert status == 200
        assert json.loads(body)["records"]

    def test_n_parameter_limits_and_validates(self, armed_server):
        _, base = armed_server
        for seed in range(3):
            _post(
                base + "/query", {"query": [0.0] * DIM, "k": 2, "seed": seed}
            )
        _, body = _get(base + "/debug/trace/recent?n=2")
        assert len(json.loads(body)["records"]) == 2
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base + "/debug/trace/recent?n=junk")
        assert info.value.code == 400
        info.value.close()  # HTTPError holds the response socket

    def test_metrics_is_prometheus_text(self, armed_server):
        _, base = armed_server
        _post(base + "/query", {"query": [0.0] * DIM, "k": 3, "seed": 1})
        status, body = _get(base + "/metrics")
        assert status == 200
        assert "# TYPE service_requests_total counter" in body
        assert "# TYPE mbi_search_seconds histogram" in body
        assert 'mbi_search_seconds_bucket{le="+Inf"}' in body
        assert "mbi_search_seconds_count" in body
        assert "telemetry_sampled_total" in body

    def test_metrics_json_matches_registry_export(self, armed_server):
        from repro.observability.metrics import get_registry

        _, base = armed_server
        _, body = _get(base + "/metrics/json")
        state = json.loads(body)
        want = get_registry().export_state()
        assert state.keys() == want.keys()
        assert state["service_requests_total"]["kind"] == "counter"
