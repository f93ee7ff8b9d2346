"""Tests for the stdlib JSON serving endpoint."""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import runtime
from repro.runtime.blas import blas_info
from repro.serving import ModelServer, serve_http


@pytest.fixture(scope="module")
def stack():
    """A running ModelServer + HTTP server on an ephemeral port."""
    server = ModelServer(max_batch=8, max_latency_ms=10.0)
    served = server.load_registry("patternnet", n=2, patterns=4, seed=0)
    server.warmup()
    httpd = serve_http(server, port=0)
    yield server, served, httpd.url
    httpd.shutdown()
    httpd.server_close()
    server.stop()


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


class TestRoutes:
    def test_healthz(self, stack):
        _, _, url = stack
        status, body = get_json(url + "/healthz")
        assert status == 200
        assert body == {
            "status": "ok", "models": ["patternnet"], "blas": blas_info(),
        }

    def test_metrics_report_blas_threads(self, stack):
        _, _, url = stack
        info = blas_info()
        with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
            text = response.read().decode()
        assert "# TYPE repro_blas_threads gauge" in text
        if info["threads"] is None:
            assert "\nrepro_blas_threads{" not in text
        else:
            assert (
                f'repro_blas_threads{{library="{info["library"]}"}} '
                f'{info["threads"]}\n'
            ) in text

    def test_unmanaged_blas_reports_nulls_and_no_sample(self, stack, monkeypatch):
        from repro.runtime import blas

        _, _, url = stack
        monkeypatch.setattr(blas, "_controls", lambda: None)
        _, body = get_json(url + "/healthz")
        assert body["blas"] == {"library": None, "threads": None}
        with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
            text = response.read().decode()
        assert "# TYPE repro_blas_threads gauge" in text
        assert "\nrepro_blas_threads{" not in text

    def test_models_listing(self, stack):
        _, served, url = stack
        status, body = get_json(url + "/models")
        assert status == 200
        assert body["patternnet"]["input_shape"] == [3, 16, 16]
        assert body["patternnet"]["compiled"] is True
        assert body["patternnet"]["setting"].startswith("n=2")

    def test_predict_single_image(self, stack):
        server, served, url = stack
        x = np.random.default_rng(1).normal(size=(1, 3, 16, 16))
        reference = runtime.predict(served.model, x)
        status, body = post_json(url + "/predict", {"input": x[0].tolist()})
        assert status == 200
        assert body["model"] == "patternnet"
        np.testing.assert_allclose(
            np.array(body["outputs"]), reference, rtol=1e-4, atol=1e-5
        )

    def test_predict_multi_image(self, stack):
        server, served, url = stack
        x = np.random.default_rng(2).normal(size=(3, 3, 16, 16))
        reference = runtime.predict(served.model, x)
        status, body = post_json(
            url + "/predict", {"inputs": [img.tolist() for img in x]}
        )
        assert status == 200
        np.testing.assert_allclose(
            np.array(body["outputs"]), reference, rtol=1e-4, atol=1e-5
        )

    def test_stats_route_reflects_traffic(self, stack):
        _, _, url = stack
        status, body = get_json(url + "/stats")
        assert status == 200
        snap = body["patternnet"]
        assert snap["requests"] >= 1
        assert set(snap) >= {"p50_ms", "p95_ms", "p99_ms", "mean_batch", "queue_depth"}

    def test_concurrent_clients_coalesce(self, stack):
        server, served, url = stack
        x = np.random.default_rng(3).normal(size=(16, 3, 16, 16))
        reference = runtime.predict(served.model, x)
        before = served.stats.batches

        def client(i):
            return post_json(url + "/predict", {"input": x[i].tolist()})

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(client, range(16)))
        outputs = np.stack([np.array(body["outputs"][0]) for _, body in results])
        np.testing.assert_allclose(outputs, reference, rtol=1e-4, atol=1e-5)
        # 16 concurrent requests landed in fewer than 16 flushes.
        assert served.stats.batches - before < 16


class TestErrors:
    def test_unknown_path_404(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(url + "/nope")
        assert excinfo.value.code == 404

    def test_unknown_model_404(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(url + "/predict", {"model": "nope", "input": [[[0.0]]]})
        assert excinfo.value.code == 404

    def test_missing_input_400(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(url + "/predict", {"oops": 1})
        assert excinfo.value.code == 400

    def test_bad_shape_400(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(url + "/predict", {"input": [[0.0, 1.0]]})
        assert excinfo.value.code == 400

    def test_multi_image_validated_before_any_submit(self, stack):
        """One bad image rejects the whole request up front — no model
        forwards are burned on its valid siblings."""
        server, served, url = stack
        requests_before = served.stats.requests
        good = np.zeros((3, 16, 16)).tolist()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(url + "/predict", {"inputs": [good, [[0.0, 1.0]]]})
        assert excinfo.value.code == 400
        assert served.stats.requests == requests_before

    def test_malformed_json_400(self, stack):
        _, _, url = stack
        request = urllib.request.Request(
            url + "/predict",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
