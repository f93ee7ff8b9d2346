"""Multi-tenant fleet tests: residency, weighted fairness, quotas.

ISSUE 8 acceptance, unit-sized:

- a memory budget below the fleet's working set demotes the coldest
  tenant (visible on /models and /metrics) with **zero failed admitted
  requests**, and re-promotion reuses the lowered IR (the pass trace is
  untouched — no recompile);
- concurrent predicts racing demotion/eviction always complete (or
  transparently re-promote) — never surface an error;
- two tenants at 3:1 weights under saturation see throughput within
  +/-15% of 3:1;
- per-tenant rate quotas shed with HTTP 429 kind ``quota_exceeded``;
- DELETE /models/<name> discharges the tenant's ledger bytes
  immediately (no leak).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    Batcher,
    FlushScheduler,
    ModelServer,
    QuotaExceeded,
    ResidencyManager,
    serve_http,
)


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.load(response)


def post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.load(response)


class TestFlushScheduler:
    def test_weighted_fairness_3_to_1_under_saturation(self):
        """Saturated tenants converge to throughput ~proportional to
        their weights (the tentpole's +/-15% fairness contract)."""
        def runner(x):
            time.sleep(0.001)
            return x

        sched = FlushScheduler()
        heavy = Batcher(runner, max_batch=4, max_latency_ms=0.5, weight=3.0)
        light = Batcher(runner, max_batch=4, max_latency_ms=0.5, weight=1.0)
        sched.register("heavy", heavy)
        sched.register("light", light)
        stop = threading.Event()

        def feed(batcher):
            # Keep a standing backlog so the scheduler always has a
            # choice — fairness only shows under saturation.
            pending = []
            while not stop.is_set():
                pending = [f for f in pending if not f.done()]
                while len(pending) < 12:
                    pending.append(batcher.submit(np.zeros((2,))))
                time.sleep(0.0005)

        with sched:
            heavy.start()
            light.start()
            feeders = [
                threading.Thread(target=feed, args=(b,), daemon=True)
                for b in (heavy, light)
            ]
            for t in feeders:
                t.start()
            time.sleep(1.5)
            stop.set()
            for t in feeders:
                t.join()
            snap = sched.snapshot()
            heavy.stop(drain=False)
            light.stop(drain=False)
        served_heavy = snap["tenants"]["heavy"]["requests"]
        served_light = snap["tenants"]["light"]["requests"]
        assert served_light > 0
        ratio = served_heavy / served_light
        assert 3.0 * 0.85 <= ratio <= 3.0 * 1.15, snap["tenants"]

    def test_slo_urgency_contract(self):
        """The scheduler's EDF override keys off slo_urgent(): a queued
        request close to its deadline flags urgent, a fresh one does
        not, and a no-SLO tenant never does."""
        # Registered with a scheduler that never starts: start() arms the
        # batchers without a flush thread, so the queued request stays
        # queued while the test reads its deadline.
        idle = FlushScheduler()
        tight = Batcher(lambda x: x, max_batch=8, max_latency_ms=50.0, slo_ms=100.0)
        idle.register("tight", tight)
        tight._flush_cost = 0.02  # recent flushes cost ~20 ms
        tight.start()
        tight.submit(np.zeros((2,)))
        deadline = tight.oldest_deadline()
        assert deadline < float("inf")
        # Fresh request: ~100 ms of slack against a 40 ms urgency window.
        assert not tight.slo_urgent(now=deadline - 0.09)
        # 30 ms left < 2 * flush cost: must jump the fair-share queue.
        assert tight.slo_urgent(now=deadline - 0.03)
        tight.stop()
        relaxed = Batcher(lambda x: x, max_batch=8, max_latency_ms=50.0)
        idle.register("relaxed", relaxed)
        relaxed.start()
        relaxed.submit(np.zeros((2,)))
        assert relaxed.oldest_deadline() == float("inf")
        assert not relaxed.slo_urgent()
        relaxed.stop()

    def test_unregister_detaches_and_standalone_still_works(self):
        sched = FlushScheduler()
        batcher = Batcher(lambda x: x, max_batch=2, max_latency_ms=0.5)
        sched.register("t", batcher)
        assert sched.serves(batcher)
        sched.unregister(batcher)
        assert not sched.serves(batcher)
        with batcher:  # falls back to its private thread
            assert batcher.submit(np.ones((2,))).result(timeout=5).shape == (2,)


class TestResidency:
    # One tenant's working set is ~0.7 MB (winograd's transformed
    # weights are 4x the conv weights): 0.8 MB fits exactly one
    # resident, so a 3-model fleet must demote.
    def budget_server(self, budget_mb=0.8, **kwargs):
        server = ModelServer(
            max_batch=4, max_latency_ms=1.0, memory_budget_mb=budget_mb, **kwargs
        )
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            server.load_registry("patternnet", name=name, seed=seed)
        return server

    def test_budget_demotes_coldest_tenant_without_failing_requests(self):
        server = self.budget_server()
        x = np.zeros((3, 16, 16))
        with server:
            for name in ("a", "b", "c"):
                for _ in range(3):
                    server.predict(x, name, timeout=30)
            desc = server.describe_models()
            # The budget is below the 3-model working set: someone was
            # demoted, and every tenant still answered every request.
            assert any(row["state"] != "resident" for row in desc.values())
            assert sum(row["demotions"] for row in desc.values()) >= 1
            stats = server.stats()
            assert all(stats[n]["errors"] == 0 for n in ("a", "b", "c"))
            fleet = stats["_fleet"]["residency"]
            assert fleet["budget_bytes"] == int(0.8 * 2**20)
            assert fleet["charged_bytes"] <= fleet["budget_bytes"]
            kinds = {i["kind"] for i in server.supervisor.incidents()}
            assert "tenant_demoted" in kinds

    def test_repromotion_reuses_lowered_ir_no_recompile(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0)
        server.load_registry("patternnet", name="m", n=2, patterns=4, seed=0)
        x = np.ones((3, 16, 16)) * 0.1
        with server:
            baseline = server.predict(x, "m", timeout=30)
            compiled = server.get("m").compiled
            trace_before = compiled.passes  # the pass-trace object itself
            ops_before = [id(op) for op in compiled.iter_ops()]
            assert server.residency.evict("m")
            assert server.describe_model("m")["state"] == "evicted"
            again = server.predict(x, "m", timeout=30)
            # Same pass-trace object and same op objects: promotion was
            # a warm prepare of the retained IR, not a recompile.
            assert compiled.passes is trace_before
            assert [id(op) for op in compiled.iter_ops()] == ops_before
            assert server.describe_model("m")["state"] == "resident"
            np.testing.assert_allclose(again, baseline)

    def test_concurrent_predicts_race_demotion_never_fail(self):
        """Requests in flight while the tenant is demoted/evicted either
        complete untouched or re-promote — never a 500."""
        server = ModelServer(max_batch=4, max_latency_ms=0.5)
        server.load_registry("patternnet", name="m", seed=4)
        x = np.zeros((3, 16, 16))
        errors = []
        stop = threading.Event()

        def attack():
            while not stop.is_set():
                server.residency.demote("m")
                server.residency.evict("m")

        def client():
            try:
                for _ in range(40):
                    server.predict(x, "m", timeout=30)
            except Exception as error:  # noqa: BLE001 - the assertion
                errors.append(error)

        with server:
            attacker = threading.Thread(target=attack, daemon=True)
            clients = [threading.Thread(target=client) for _ in range(4)]
            attacker.start()
            for t in clients:
                t.start()
            for t in clients:
                t.join()
            stop.set()
            attacker.join()
        assert errors == []
        assert server.get("m").stats.errors == 0

    def test_remove_model_discharges_ledger(self):
        server = self.budget_server(budget_mb=16.0)
        x = np.zeros((3, 16, 16))
        with server:
            for name in ("a", "b", "c"):
                server.predict(x, name, timeout=30)
            before = server.residency.total_charged()
            charged_b = server.describe_model("b")["bytes"]
            assert charged_b > 0
            server.remove_model("b")
            after = server.residency.total_charged()
            assert after == before - charged_b
            assert server.residency.tenant_names() == ["a", "c"]
            assert after >= 0

    def test_manager_refuses_unknown_and_reports_headroom(self):
        manager = ResidencyManager(budget_bytes=1000)
        assert not manager.demote("ghost")
        assert not manager.evict("ghost")
        assert manager.headroom() == 1000
        assert ResidencyManager().headroom() is None


class TestQuotas:
    def test_rate_quota_sheds_with_typed_error(self):
        batcher = Batcher(lambda x: x, max_batch=2, max_latency_ms=0.5, rate=2.0)
        with batcher:
            futures = [batcher.submit(np.zeros((2,))) for _ in range(2)]
            with pytest.raises(QuotaExceeded) as info:
                batcher.submit(np.zeros((2,)))
            assert info.value.retry_after > 0
            for f in futures:
                f.result(timeout=5)
        assert batcher.stats.shed.get("quota") == 1

    def test_token_bucket_refills(self):
        batcher = Batcher(lambda x: x, max_batch=2, max_latency_ms=0.1, rate=50.0)
        with batcher:
            for _ in range(50):
                batcher.submit(np.zeros((2,))).result(timeout=5)
            with pytest.raises(QuotaExceeded):
                batcher.submit(np.zeros((2,)))
            time.sleep(0.1)  # ~5 tokens earned back
            batcher.submit(np.zeros((2,))).result(timeout=5)


@pytest.fixture(scope="module")
def fleet_stack():
    """A 2-tenant fleet server + HTTP endpoint on an ephemeral port."""
    server = ModelServer(max_batch=8, max_latency_ms=5.0, memory_budget_mb=32.0)
    server.load_registry("patternnet", name="hot", seed=0, weight=3.0)
    server.load_registry("patternnet", name="limited", seed=1, rate=2.0)
    server.warmup()
    httpd = serve_http(server, port=0)
    yield server, httpd.url
    httpd.shutdown()
    httpd.server_close()
    server.stop()


class TestFleetHTTP:
    def test_models_rows_carry_residency_and_weight(self, fleet_stack):
        server, url = fleet_stack
        status, body = get_json(f"{url}/models")
        assert status == 200
        row = body["hot"]
        assert row["weight"] == 3.0
        assert row["state"] in ("resident", "demoted", "evicted")
        assert isinstance(row["bytes"], int)
        for key in ("resident", "demotions", "promotions", "evictions"):
            assert key in row
        assert "memory" in row  # full per-tenant byte breakdown

    def test_stats_fleet_block(self, fleet_stack):
        server, url = fleet_stack
        status, body = get_json(f"{url}/stats")
        assert status == 200
        fleet = body["_fleet"]
        assert fleet["residency"]["budget_bytes"] == int(32.0 * 2**20)
        assert set(fleet["scheduler"]["tenants"]) == {"hot", "limited"}
        assert fleet["scheduler"]["tenants"]["hot"]["weight"] == 3.0

    def test_quota_exceeded_is_typed_429(self, fleet_stack):
        server, url = fleet_stack
        image = np.zeros((3, 16, 16)).tolist()
        # Burst past the 2 req/s bucket (burst allowance 2).
        seen = []
        for _ in range(6):
            try:
                status, _ = post_json(
                    f"{url}/predict", {"input": image, "model": "limited"}
                )
                seen.append(status)
            except urllib.error.HTTPError as error:
                seen.append(error.code)
                if error.code == 429:
                    body = json.load(error)
                    assert body["error"]["kind"] == "quota_exceeded"
                    assert int(error.headers["Retry-After"]) >= 1
        assert 429 in seen
        assert 200 in seen

    def test_metrics_tenant_families(self, fleet_stack):
        server, url = fleet_stack
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
            text = response.read().decode()
        assert 'repro_tenant_state{model="hot",state="resident"}' in text
        assert 'repro_tenant_weight{model="hot"} 3' in text
        assert "repro_fleet_budget_bytes" in text
        assert "repro_fleet_charged_bytes" in text
        assert 'repro_shed_total{model="limited",reason="quota"}' in text
        assert 'repro_tenant_resident_bytes{model="hot"}' in text

    def test_delete_model_releases_ledger_bytes(self, fleet_stack):
        server, url = fleet_stack
        status, _ = post_json(
            f"{url}/models",
            {"model": "patternnet", "name": "doomed", "seed": 7, "weight": 2.0},
        )
        assert status == 200
        server.predict(np.zeros((3, 16, 16)), "doomed", timeout=30)
        before = server.residency.total_charged()
        charged = server.describe_model("doomed")["bytes"]
        assert charged > 0
        request = urllib.request.Request(f"{url}/models/doomed", method="DELETE")
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
        assert server.residency.total_charged() == before - charged
        assert "doomed" not in get_json(f"{url}/models")[1]
