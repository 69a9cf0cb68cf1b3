"""Child processes of the program under test, timed in wall-clock time.

Every child is started directly (no shell), its stdout/stderr go to
files in the work directory (a 26 MB ``--json`` document never sits in
a pipe), and it is reaped with ``os.wait4`` so its own peak RSS comes
back with its exit status.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

_LISTENING = re.compile(rb"serve: listening on http://([0-9.]+):(\d+)")


def cli_env(root: str) -> dict:
    """Environment that runs ``python -m repro`` from ``root/src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def iqb_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


class Finished(NamedTuple):
    wall_s: float
    maxrss_mb: float
    returncode: int


def _status_code(status: int) -> int:
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    return -os.WTERMSIG(status) if os.WIFSIGNALED(status) else -1


def run_timed(
    argv: Sequence[str], env: dict, stdout_path: str, timeout_s: float = 170.0
) -> Finished:
    """Run one child to completion; wall time covers launch to reap."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        deadline = start + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    # Popen must not try to reap the pid again.
    proc.returncode = _status_code(status)
    return Finished(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def http_get(
    host: str, port: int, path: str, timeout_s: float = 30.0
) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ServeProcess:
    """One ``iqb serve`` child: boot, address discovery, graceful stop."""

    def __init__(self, args: Sequence[str], env: dict, log_path: str) -> None:
        self._log_path = log_path
        self._out = open(log_path + ".out", "wb")
        self._err = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            iqb_argv(["serve", *args, "--port", "0"]),
            stdout=self._out,
            stderr=self._err,
            env=env,
        )
        self.host = ""
        self.port = 0
        self.maxrss_mb = 0.0
        self.returncode: Optional[int] = None

    def _reap(self, block: bool) -> bool:
        """Collect the child's status and peak RSS once it has exited."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
            if not pid:
                return False
            self.proc.returncode = self.returncode = _status_code(status)
            self.maxrss_mb = usage.ru_maxrss / 1024.0
            self._out.close()
            self._err.close()
        return True

    def wait_listening(self, timeout_s: float = 60.0) -> bool:
        """Read the ephemeral port from ``serve: listening on`` (stderr)."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with open(self._log_path, "rb") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                self.host, self.port = match.group(1).decode(), int(match.group(2))
                return True
            if self._reap(block=False):
                return False
            time.sleep(0.002)
        return False

    def first_200(self, path: str = "/v1/scores", timeout_s: float = 60.0) -> Optional[float]:
        """Seconds from launch to the first 200 on ``path`` (None: never)."""
        if not self.wait_listening(timeout_s):
            return None
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            try:
                status, _ = http_get(self.host, self.port, path)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        return None

    def get(self, path: str) -> Tuple[int, bytes]:
        return http_get(self.host, self.port, path)

    def stop(self, timeout_s: float = 30.0) -> bool:
        """SIGTERM, reap, and report whether the drain was clean.

        Clean means exit status 0 and a shutdown line without
        ``drain timed out``. A child that ignores SIGTERM is killed.
        """
        if not self._reap(block=False):
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + timeout_s
            while not self._reap(block=False):
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    self._reap(block=True)
                    break
                time.sleep(0.005)
        with open(self._log_path + ".out", "rb") as handle:
            tail = handle.read()
        return (
            self.returncode == 0
            and b"serve: shut down after" in tail
            and b"drain timed out" not in tail
        )
