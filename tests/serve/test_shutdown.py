"""Clean shutdown under load: SIGTERM a real serve process with a swarm
attached and verify every stream gets a goodbye and nothing leaks.

These are the serve tests that use a subprocess — signal delivery,
process-exit hygiene and a process's own resident set can't be faked
in-process.  The in-process counterparts (thread leak check, one live
fabric) live in test_service.py.
"""

import asyncio
import os
import signal

import pytest
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import ServeClient

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SUBSCRIBERS = 20
QUERIES = 50


def _spawn_serve(sock_path, scenario="pfc-storm", *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", scenario,
            "--unix", str(sock_path), "--seed", "3", "--slice-us", "500",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


def _wait_for_socket(sock_path, timeout_s=60.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(sock_path):
        if time.monotonic() > deadline:
            raise TimeoutError("serve socket never appeared")
        time.sleep(poll_s)


class TestSigtermSwarm:
    def test_sigterm_clean_shutdown_with_swarm_attached(self, tmp_path):
        sock_path = str(tmp_path / "serve.sock")
        proc = _spawn_serve(sock_path)
        try:
            _wait_for_socket(sock_path)

            async def swarm():
                subscribers = []
                for i in range(SUBSCRIBERS):
                    client = await ServeClient.connect(
                        unix_path=sock_path, tenant=f"sub-{i % 4}"
                    )
                    reply = await client.subscribe()
                    assert reply["type"] == "subscribed"
                    subscribers.append(client)

                querier = await ServeClient.connect(
                    unix_path=sock_path, tenant="querier"
                )
                statuses = {"ok": 0, "rejected": 0, "error": 0}
                for _ in range(QUERIES):
                    reply = await querier.query()
                    if reply.get("ok"):
                        statuses["ok"] += 1
                    elif reply.get("type") == "rejected":
                        statuses["rejected"] += 1
                    else:
                        statuses["error"] += 1
                # Load shedding is allowed; protocol errors are not.
                assert statuses["error"] == 0
                assert statuses["ok"] >= 1

                proc.send_signal(signal.SIGTERM)

                # Every subscriber stream must end with a terminal
                # shutdown event — that is the clean-shutdown contract.
                goodbyes = 0
                for client in subscribers:
                    while True:
                        event = await client.next_event(timeout=30.0)
                        if event["event"] == "shutdown":
                            goodbyes += 1
                            break
                assert goodbyes == SUBSCRIBERS

                for client in subscribers:
                    await client.close()
                await querier.close()

            asyncio.run(swarm())

            stdout, stderr = "", ""
            try:
                stdout, stderr = proc.communicate(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
                raise AssertionError(
                    "serve did not exit after SIGTERM\n"
                    f"stdout: {stdout}\nstderr: {stderr}"
                )
            assert proc.returncode == 0, (
                f"serve exited {proc.returncode}\n"
                f"stdout: {stdout}\nstderr: {stderr}"
            )
            # The final line only prints after stop() has joined the
            # executor and closed every socket.
            assert "shut down cleanly" in stdout
            assert "Traceback" not in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_sigint_also_shuts_down_cleanly(self, tmp_path):
        sock_path = str(tmp_path / "serve.sock")
        proc = _spawn_serve(sock_path)
        try:
            _wait_for_socket(sock_path)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30.0)
            assert proc.returncode == 0, f"stderr: {stderr}"
            assert "shut down cleanly" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestSignalDuringStartup:
    """The socket appears while episode 0 is still being built on the
    loop thread; a signal sent the moment it does used to land before
    the handlers were installed and kill the loop with KeyboardInterrupt
    (or the default SIGTERM action) instead of shutting down."""

    @pytest.mark.parametrize(
        "sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_signal_as_soon_as_the_socket_exists(self, tmp_path, sig):
        sock_path = str(tmp_path / "serve.sock")
        proc = _spawn_serve(sock_path)
        try:
            _wait_for_socket(sock_path, poll_s=0.0005)
            proc.send_signal(sig)
            stdout, stderr = proc.communicate(timeout=30.0)
            assert proc.returncode == 0, f"stderr: {stderr}"
            assert "shut down cleanly" in stdout
            assert "Traceback" not in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestResidentMemory:
    def test_rss_is_flat_after_episode_2(self, tmp_path):
        """A resident service stays at one episode's footprint: finished
        fabrics are reclaimed as the next attaches, not whenever the
        cycle collector's object counts happen to say so (2.1x by episode
        10 before)."""
        episodes = 12
        sock_path = str(tmp_path / "serve.sock")
        proc = _spawn_serve(
            sock_path, "out-of-loop-deadlock", "--episodes", str(episodes)
        )
        try:
            _wait_for_socket(sock_path)

            async def watch():
                client = await ServeClient.connect(
                    unix_path=sock_path, tenant="gate"
                )
                after_2 = None
                while True:
                    stats = (await client.stats())["stats"]
                    done = stats["episodes_completed"]
                    if after_2 is None and done >= 2:
                        after_2 = stats["rss_mb"]
                    if done == episodes:
                        await client.close()
                        return after_2, stats["rss_mb"]
                    await asyncio.sleep(0.02)

            after_2, final = asyncio.run(watch())
            assert 0 < final <= 1.25 * after_2, (after_2, final)
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30.0)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
