"""HTTP client for a running ``repro serve`` daemon.

:class:`ServeClient` is the programmatic face of the service — the
``repro submit`` / ``repro jobs`` CLI commands are thin wrappers over
it, and experiment code can point at a remote server instead of
executing in-process::

    from repro.serve.client import ServeClient
    from repro.sweep import decode_result

    client = ServeClient(port=8077)
    job = client.submit({"name": "hotspot", "scale": 0.5},
                        config=config.to_dict())
    outcome = client.wait(job["id"])
    stats = decode_result(outcome["result"])  # SimStats | FailedRun

Transport errors and non-2xx answers raise
:class:`~repro.errors.ServeClientError`; a 429 raises the more specific
:class:`~repro.errors.BackpressureError` carrying the server's
``Retry-After`` hint.  :meth:`ServeClient.submit` honours that hint
itself: it retries up to ``backpressure_retries`` times, sleeping the
server-suggested interval (capped at ``retry_after_cap`` seconds) each
time, and only raises :class:`BackpressureError` once the budget is
exhausted.  Pass ``backpressure_retries=0`` to fail fast on the first
429 (the old behaviour).

Connection-level flakiness is handled the same opt-in way: with
``connect_retries > 0``, a refused or reset connection — the daemon
restarting after a crash, or its listen backlog momentarily full — is
retried with capped exponential backoff before
:class:`~repro.errors.ServeClientError` is raised.  The default (0)
keeps the historical fail-fast behaviour: a typo'd port should not
take ``connect_retries`` sleeps to report.  Timeouts and other
transport errors are never retried — a request that may have *reached*
the server is not known to be safe to repeat.

The two retry loops share one *sleep budget* per logical call
(``retry_budget`` seconds).  Without it the loops compounded: a
submission that burned the whole connect-backoff ladder reconnecting
would then start a fresh ``backpressure_retries`` x ``retry_after_cap``
allowance on its first 429, so the worst-case wait was the *product* of
the two policies, not their sum.  Every sleep — connect backoff or
Retry-After honour — now draws from the same
:class:`_RetryBudget`; once it is dry, remaining retries are skipped
and the last error surfaces immediately.
"""

from __future__ import annotations

import http.client
import json
import time

from ..errors import BackpressureError, ServeClientError

#: Default port of ``repro serve`` (no meaning beyond "unassigned").
DEFAULT_PORT = 8077


class _RetryBudget:
    """A shared allowance of sleep seconds for one logical request.

    Both of :class:`ServeClient`'s retry loops (connect backoff and
    429 Retry-After honouring) draw from the same budget, so their
    worst-case combined wait is additive and bounded instead of
    multiplicative.  :meth:`draw` grants at most what is left; a grant
    smaller than what was asked for means the budget is dry and the
    caller should stop retrying.
    """

    def __init__(self, total: float) -> None:
        self.total = total
        self.spent = 0.0

    @property
    def remaining(self) -> float:
        return max(self.total - self.spent, 0.0)

    def draw(self, wanted: float) -> float:
        grant = min(max(wanted, 0.0), self.remaining)
        self.spent += grant
        return grant


class ServeClient:
    """Blocking JSON-over-HTTP client; one connection per request."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 30.0, backpressure_retries: int = 5,
                 retry_after_cap: float = 2.0, connect_retries: int = 0,
                 connect_backoff: float = 0.05,
                 retry_budget: float = 10.0) -> None:
        if backpressure_retries < 0:
            raise ServeClientError(
                f"backpressure_retries must be >= 0, got "
                f"{backpressure_retries}"
            )
        if retry_after_cap <= 0:
            raise ServeClientError(
                f"retry_after_cap must be > 0, got {retry_after_cap}"
            )
        if connect_retries < 0:
            raise ServeClientError(
                f"connect_retries must be >= 0, got {connect_retries}"
            )
        if connect_backoff < 0:
            raise ServeClientError(
                f"connect_backoff must be >= 0, got {connect_backoff}"
            )
        if retry_budget <= 0:
            raise ServeClientError(
                f"retry_budget must be > 0, got {retry_budget}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.backpressure_retries = backpressure_retries
        self.retry_after_cap = retry_after_cap
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.retry_budget = retry_budget
        #: Injectable for tests; every retry sleep goes through here.
        self._sleep = time.sleep

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "ServeClient":
        """Build a client from ``http://host:port`` or ``host:port``.

        The one parser of a server address on the command line
        (``--cluster``, ``--endpoint``, ``--via-server``, ``--join``).
        The port is required, and ``https://`` is refused: the client
        speaks plain HTTP only.
        """
        stripped = url.strip()
        if stripped.startswith("https://"):
            raise ServeClientError(
                f"server URL must be http://, not https://: {url!r}"
            )
        if stripped.startswith("http://"):
            stripped = stripped[len("http://"):]
        stripped = stripped.rstrip("/")
        host, sep, port_text = stripped.rpartition(":")
        if not sep or not host:
            raise ServeClientError(
                f"server URL must look like host:port, got {url!r}"
            )
        if not port_text.isdigit():
            raise ServeClientError(
                f"server URL has a non-numeric port: {url!r}"
            )
        return cls(host=host, port=int(port_text), **kwargs)

    # --- transport ---------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: dict | None = None,
                 budget: _RetryBudget | None = None) -> dict:
        """One logical request, with opt-in connect-level retries.

        Only ``ConnectionRefusedError`` / ``ConnectionResetError`` are
        retried (the request provably never completed); a timeout or
        any other transport failure raises immediately.  Backoff sleeps
        draw from ``budget`` (shared with :meth:`submit`'s 429 loop);
        when the budget runs dry, remaining retries are skipped and the
        final attempt is made immediately.
        """
        if budget is None:
            budget = _RetryBudget(self.retry_budget)
        for attempt in range(self.connect_retries):
            try:
                return self._request_once(method, path, body)
            except (ConnectionRefusedError, ConnectionResetError):
                wanted = min(self.connect_backoff * 2 ** attempt, 1.0)
                granted = budget.draw(wanted)
                if granted < wanted:
                    break
                self._sleep(granted)
        try:
            return self._request_once(method, path, body)
        except (ConnectionRefusedError, ConnectionResetError) as exc:
            raise ServeClientError(
                f"cannot reach http://{self.host}:{self.port} after "
                f"{self.connect_retries + 1} attempt(s): {exc}"
            ) from None

    def _request_once(self, method: str, path: str,
                      body: dict | None = None) -> dict:
        payload = None if body is None \
            else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload \
            else {}
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (ConnectionRefusedError, ConnectionResetError):
                # Surfaced raw so _request can decide to retry.
                raise
            except OSError as exc:
                raise ServeClientError(
                    f"cannot reach http://{self.host}:{self.port}: {exc}"
                ) from None
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {"raw": raw.decode("utf-8", "replace")}
            if response.status == 429:
                retry_after = float(
                    response.getheader("Retry-After")
                    or decoded.get("retry_after") or 1.0)
                raise BackpressureError(
                    self._error_message(response.status, decoded),
                    retry_after=retry_after, payload=decoded)
            if response.status >= 400:
                raise ServeClientError(
                    self._error_message(response.status, decoded),
                    status=response.status, payload=decoded)
            return decoded
        finally:
            connection.close()

    @staticmethod
    def _error_message(status: int, payload: dict) -> str:
        error = payload.get("error") or {}
        detail = error.get("message") or payload.get("raw") or "?"
        kind = error.get("type", "HTTPError")
        return f"server answered {status} ({kind}): {detail}"

    def _request_text(self, path: str) -> str:
        """One GET whose 200 body is plain text, not JSON."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                raw = response.read()
            except OSError as exc:
                raise ServeClientError(
                    f"cannot reach http://{self.host}:{self.port}: {exc}"
                ) from None
            if response.status >= 400:
                try:
                    decoded = json.loads(raw) if raw else {}
                except ValueError:
                    decoded = {"raw": raw.decode("utf-8", "replace")}
                raise ServeClientError(
                    self._error_message(response.status, decoded),
                    status=response.status, payload=decoded)
            return raw.decode("utf-8")
        finally:
            connection.close()

    # --- API surface -------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def metrics_prom(self) -> str:
        """The Prometheus text exposition (``?format=prom``)."""
        return self._request_text("/v1/metrics?format=prom")

    def metrics_state(self) -> dict:
        """The raw registry live-state (``?format=state``), the exact
        per-instrument dump the cluster coordinator merges."""
        return self._request("GET", "/v1/metrics?format=state")

    def steal(self, max_jobs: int) -> list[dict]:
        """Revoke up to ``max_jobs`` queued jobs from this shard.

        The coordinator's work-stealing primitive; returns the revoked
        jobs as re-submittable specs (``{id, key, workload, config}``).
        """
        return self._request("POST", "/v1/steal",
                             body={"max": max_jobs})["stolen"]

    # --- coordinator API (only answered by ``repro cluster``) --------------
    def cluster_shards(self) -> dict:
        """The coordinator's shard table (``GET /v1/cluster/shards``)."""
        return self._request("GET", "/v1/cluster/shards")

    def cluster_metrics(self) -> dict:
        """Merged cluster metrics (``GET /v1/cluster/metrics``)."""
        return self._request("GET", "/v1/cluster/metrics")

    def cluster_metrics_prom(self) -> str:
        """Cluster metrics as Prometheus text, every series carrying a
        ``shard=`` label (plus the coordinator's own series)."""
        return self._request_text("/v1/cluster/metrics?format=prom")

    def register_shard(self, payload: dict) -> dict:
        return self._request("POST", "/v1/cluster/register", body=payload)

    def heartbeat_shard(self, payload: dict) -> dict:
        return self._request("POST", "/v1/cluster/heartbeat",
                             body=payload)

    def trace(self) -> dict:
        """The merged service Chrome trace (404 if tracing is off)."""
        return self._request("GET", "/v1/trace")

    def submit(self, workload: str | dict, config: dict | None = None,
               seed: int | None = None) -> dict:
        """Submit one job; returns its status dict (202 body).

        A 429 (queue full) is retried up to ``backpressure_retries``
        times, sleeping the server's ``Retry-After`` hint — capped at
        ``retry_after_cap`` seconds — between attempts.  The final
        attempt re-raises :class:`~repro.errors.BackpressureError`
        untouched, so callers still see the server's hint.

        All sleeps — Retry-After waits *and* any connect-backoff taken
        while reconnecting between attempts — draw from one
        ``retry_budget``-second allowance for the whole call, so a 429
        that lands after an expensive reconnect cannot restart the wait
        from zero.  When the budget runs dry the current error is
        raised immediately.
        """
        spec: dict = {"workload": workload}
        if config is not None:
            spec["config"] = config
        if seed is not None:
            spec["seed"] = seed
        budget = _RetryBudget(self.retry_budget)
        for _ in range(self.backpressure_retries):
            try:
                return self._request("POST", "/v1/jobs", body=spec,
                                     budget=budget)
            except BackpressureError as exc:
                wanted = min(max(exc.retry_after, 0.0),
                             self.retry_after_cap)
                granted = budget.draw(wanted)
                if granted < wanted:
                    raise
                self._sleep(granted)
        return self._request("POST", "/v1/jobs", body=spec,
                             budget=budget)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The terminal result payload (409 -> error until terminal)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_interval: float = 0.05) -> dict:
        """Poll until the job is terminal; returns the result payload."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return self.result(job_id)
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"timed out after {timeout:.1f}s waiting for job "
                    f"{job_id} (state {status['state']!r})"
                )
            time.sleep(poll_interval)
