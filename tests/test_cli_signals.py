"""Graceful-shutdown tests: SIGTERM/SIGINT drain the serving commands.

``repro serve`` and ``repro proxy`` are long-running processes; a
supervisor's TERM (or a Ctrl-C) must drain open connections through the
harness's ``drain_grace_s`` path and exit 0, not die mid-write with a
traceback.  Likewise a command whose stdout reader goes away exits
quietly.  These tests drive the real CLI in a subprocess.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spawn(command: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            command,
            "--nodes",
            "2",
            "--memory-mb",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=REPO_ROOT,
        text=True,
    )


def wait_until_serving(process: subprocess.Popen, timeout_s: float = 30.0):
    """Read stdout lines until the 'serving' banner appears."""
    lines = []
    deadline = time.monotonic() + timeout_s
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        if "serving" in line:
            return lines
    pytest.fail(
        f"process never reported serving; output so far: {lines!r}"
    )


def finish(process: subprocess.Popen, sig: int, timeout_s: float = 30.0):
    process.send_signal(sig)
    try:
        remaining = process.communicate(timeout=timeout_s)[0]
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        pytest.fail(f"process did not exit after signal {sig}")
    return remaining


@pytest.mark.slow
class TestGracefulShutdown:
    @pytest.mark.parametrize(
        "command,sig",
        [
            ("serve", signal.SIGTERM),
            ("serve", signal.SIGINT),
            ("proxy", signal.SIGTERM),
        ],
    )
    def test_signal_drains_and_exits_zero(self, command, sig):
        process = spawn(command)
        try:
            wait_until_serving(process)
            tail = finish(process, sig)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, tail
        assert signal.Signals(sig).name in tail
        assert "draining" in tail
        assert "stopped." in tail
        assert "Traceback" not in tail

    def test_duration_elapses_without_signal(self):
        """--duration exits 0 on its own, no signal involved."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "proxy",
                "--nodes",
                "2",
                "--memory-mb",
                "1",
                "--duration",
                "0.5",
            ],
            capture_output=True,
            env=env,
            cwd=REPO_ROOT,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stdout
        assert "stopped." in completed.stdout
        assert "draining" not in completed.stdout


def test_closed_stdout_pipe_exits_without_traceback():
    """A reader that goes away (``repro ... | head``) ends the command
    with exit code 1 and nothing on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "cost"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO_ROOT,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert completed.returncode == 1
    assert completed.stderr == ""
