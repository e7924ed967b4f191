"""Test-session configuration.

Simulator invariant checks (``Simulator.check_invariants``) are opt-in in
production runs but always on under pytest: every kernel completion
re-audits frame accounting, page-table consistency, and queue emptiness,
so any test exercising the engine doubles as an invariant test.

It also provides the CLI subprocess fixtures (``repro_cli``,
``serve_daemon``) that the end-to-end checks of ``repro serve``,
``repro cluster``, ``repro submit`` and ``repro loadgen`` drive, and
``raw_http`` for checks that pin status codes, headers and bodies on
the wire.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.config

repro.config.AUTO_CHECK_INVARIANTS = True


# --- CLI subprocess helpers -------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _repro_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


@pytest.fixture()
def repro_cli(tmp_path):
    """``repro_cli(*argv)`` runs ``python -m repro *argv`` in a scratch
    directory and returns the completed process (text output)."""

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
            env=_repro_env(), capture_output=True, text=True,
            timeout=600)

    return run


class ServeDaemon:
    """One ``repro serve --port 0`` (or ``repro cluster --port 0``)
    subprocess; stderr lands in a file, and the bound port is read back
    from its ``listening on`` line."""

    def __init__(self, root: Path, flags: tuple[str, ...],
                 command: str = "serve") -> None:
        self.stderr_path = root / f"{command}.err"
        with self.stderr_path.open("w") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", command,
                 "--host", "127.0.0.1", "--port", "0", *flags],
                cwd=root, env=_repro_env(), stdout=subprocess.DEVNULL,
                stderr=stderr)
        deadline = time.monotonic() + 60
        while True:
            match = re.search(r"listening on http://[^:]+:(\d+)",
                              self.stderr())
            if match:
                self.port = int(match.group(1))
                return
            assert self.process.poll() is None, \
                f"repro {command} died during startup:\n{self.stderr()}"
            assert time.monotonic() < deadline, \
                f"repro {command} never listened:\n{self.stderr()}"
            time.sleep(0.05)

    def stderr(self) -> str:
        return self.stderr_path.read_text()

    def terminate(self, timeout: float = 120.0) -> int:
        """SIGTERM (a graceful drain); returns the exit code."""
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


@pytest.fixture()
def serve_daemon(tmp_path):
    """``serve_daemon(*flags, command="serve")`` boots a daemon in
    ``tmp_path``; any still running at teardown are SIGKILLed."""
    daemons: list[ServeDaemon] = []

    def boot(*flags: str, command: str = "serve") -> ServeDaemon:
        daemon = ServeDaemon(tmp_path, flags, command=command)
        daemons.append(daemon)
        return daemon

    yield boot
    for daemon in daemons:
        daemon.kill()


def http_exchange(port: int, method: str, path: str,
                  body: object = None) -> tuple[int, dict, bytes]:
    """One request on a fresh connection; returns ``(status, headers,
    raw body)`` with no client-side interpretation."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30)
    try:
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        connection.close()


@pytest.fixture()
def raw_http():
    """``raw_http(port, method, path, body=None)`` -> ``(status,
    headers, raw body)``."""
    return http_exchange
