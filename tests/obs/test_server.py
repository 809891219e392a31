"""HTTP ops endpoint: routes, content types, liveness codes, flight download."""

from __future__ import annotations

import json
import unittest
import urllib.error
import urllib.request

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import OpsServer


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestOpsServer(unittest.TestCase):
    def _server(self, **kwargs) -> OpsServer:
        srv = OpsServer(port=0, **kwargs).start()
        self.addCleanup(srv.stop)
        return srv

    def test_ephemeral_port_and_url(self):
        srv = self._server()
        self.assertIsInstance(srv.port, int)
        self.assertGreater(srv.port, 0)
        self.assertEqual(srv.url, f"http://127.0.0.1:{srv.port}")

    def test_metrics_route_content_type(self):
        reg = MetricsRegistry()
        reg.counter("demo_total", help="demo").inc(3)
        srv = self._server(metrics_text_fn=reg.prometheus_text)
        status, headers, body = _get(srv.url + "/metrics")
        self.assertEqual(status, 200)
        self.assertIn("text/plain; version=0.0.4", headers["Content-Type"])
        self.assertIn(b"demo_total 3", body)

    def test_healthz_codes(self):
        srv = self._server(health_fn=lambda: {"ok": True, "note": "fine"})
        status, _, body = _get(srv.url + "/healthz")
        self.assertEqual(status, 200)
        self.assertTrue(json.loads(body)["ok"])

        sick = self._server(health_fn=lambda: {"ok": False, "why": "pool broken"})
        with self.assertRaises(urllib.error.HTTPError) as ctx:
            _get(sick.url + "/healthz")
        self.assertEqual(ctx.exception.code, 503)
        self.assertFalse(json.loads(ctx.exception.read())["ok"])

    def test_statusz_json_and_html(self):
        payload = {"jobs": [{
            "job": "job-000001", "kind": "mil", "state": "done",
            "priority": 1, "queued_s": 0.001, "exec_s": 0.01,
            "total_s": 0.011, "cache_hit": True,
            "phases": {"queue": 0.001, "run": 0.01},
        }]}
        srv = self._server(status_fn=lambda: payload)
        status, headers, body = _get(srv.url + "/statusz")
        self.assertEqual(status, 200)
        self.assertIn("application/json", headers["Content-Type"])
        self.assertEqual(json.loads(body)["jobs"][0]["job"], "job-000001")

        status, headers, body = _get(srv.url + "/statusz?format=html")
        self.assertIn("text/html", headers["Content-Type"])
        text = body.decode()
        self.assertIn("job-000001", text)
        self.assertIn("<table>", text)
        self.assertIn("run=10.00ms", text)  # phases render as k=..ms

    def test_flight_route_serves_ring(self):
        fr = FlightRecorder()
        fr.instant("job.finish", args={"job": "j9"})
        srv = self._server(flight=fr)
        status, headers, body = _get(srv.url + "/flight")
        self.assertEqual(status, 200)
        self.assertIn("attachment", headers["Content-Disposition"])
        events = [json.loads(line) for line in body.decode().splitlines()]
        self.assertEqual(events[0]["name"], "job.finish")

    def test_flight_trigger_query_forces_dump(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            fr.instant("x")
            srv = OpsServer(port=0, flight=fr).start()
            try:
                status, headers, _ = _get(srv.url + "/flight?trigger=1")
                self.assertEqual(status, 200)
                self.assertIn("X-Flight-Dump", headers)
                self.assertEqual(fr.trigger_counts, {"manual": 1})
            finally:
                srv.stop()

    def test_flight_route_404_without_recorder(self):
        srv = self._server(flight=None)
        with self.assertRaises(urllib.error.HTTPError) as ctx:
            _get(srv.url + "/flight")
        self.assertEqual(ctx.exception.code, 404)

    def test_unknown_route_404_and_index(self):
        srv = self._server()
        status, _, body = _get(srv.url + "/")
        self.assertEqual(status, 200)
        self.assertIn(b"/metrics", body)
        with self.assertRaises(urllib.error.HTTPError) as ctx:
            _get(srv.url + "/nope")
        self.assertEqual(ctx.exception.code, 404)

    def test_provider_exception_answers_500(self):
        def boom():
            raise RuntimeError("provider bug")

        srv = self._server(health_fn=boom)
        with self.assertRaises(urllib.error.HTTPError) as ctx:
            _get(srv.url + "/healthz")
        self.assertEqual(ctx.exception.code, 500)
        self.assertIn("provider bug", json.loads(ctx.exception.read())["error"])

    def test_context_manager(self):
        with OpsServer(port=0) as srv:
            status, _, _ = _get(srv.url + "/healthz")
            self.assertEqual(status, 200)
        self.assertIsNone(srv.port)


if __name__ == "__main__":
    unittest.main()
