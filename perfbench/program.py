"""Starting, watching and stopping the program as users run it.

The service workloads launch ``python -m repro serve ...`` (or, in the
traced run, the same CLI under :mod:`perfbench.traced`) as a child
process in its own session, read the bound port from its banner, and
stop it with the ``shutdown`` RPC.  Per-process CPU time and peak
resident memory come from ``/proc``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal
import sys
import time
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple

from repro.service.client import RouteQueryClient

_BANNER = re.compile(r"^serving .* on ([0-9.]+):(\d+) ")
_READY_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 60.0
_TICKS = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [pid], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parents.items() if pp == p]
        found.extend(kids)
        frontier.extend(kids)
    return found


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of one process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _role(is_main: bool, cmdline: bytes) -> str:
    if is_main:
        return "program"
    if b"resource_tracker" in cmdline:
        return "resource-tracker"
    return "worker" if b"spawn_main" in cmdline else "child"


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Program:
    """One running instance of the route-query service.

    ``cli_args`` are the ``repro`` command-line arguments.  ``traced``
    names a layer set of :mod:`perfbench.layers` to wrap inside the
    process; its spans are written to ``spans_path`` when it exits.
    """

    def __init__(
        self,
        root: str,
        run_dir: str,
        cli_args: Sequence[str],
        traced: Optional[str] = None,
        spans_path: Optional[str] = None,
    ) -> None:
        self.root = root
        self.run_dir = run_dir
        self.cli_args = list(cli_args)
        self.traced = traced
        self.spans_path = spans_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.setup_s = 0.0
        self._stderr_path = os.path.join(run_dir, f"program-{id(self)}.err")

    async def start(self) -> None:
        """Launch and wait for the serving banner; ``setup_s`` is the
        time from launch to a bound, compiled, serving program."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.root, os.path.join(self.root, "src")]
        )
        env["TMPDIR"] = self.run_dir  # keep every write inside the checkout
        if self.traced:
            argv = [
                sys.executable, "-m", "perfbench.traced",
                "--layers", self.traced, "--spans", str(self.spans_path),
                "--", *self.cli_args,
            ]
        else:
            argv = [sys.executable, "-m", "repro", *self.cli_args]
        t0 = time.perf_counter()
        with open(self._stderr_path, "w") as err:
            self.proc = await asyncio.create_subprocess_exec(
                *argv, cwd=self.root, env=env,
                stdout=asyncio.subprocess.PIPE, stderr=err,
                start_new_session=True,
            )
        try:
            await asyncio.wait_for(self._await_banner(), _READY_TIMEOUT_S)
        except BaseException:
            await self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    async def _await_banner(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"program exited before serving: {self.stderr_tail()}"
                )
            match = _BANNER.match(line.decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
                return

    def stderr_tail(self) -> str:
        try:
            with open(self._stderr_path) as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def pids(self) -> List[int]:
        assert self.proc is not None
        return descendants(self.proc.pid)

    def cpu_by_pid(self) -> Dict[int, Tuple[str, float]]:
        """CPU seconds so far of every process of the program, with its
        role (``program``, a spawned ``worker``, or another ``child``)."""
        assert self.proc is not None
        out = {}
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read()
                out[pid] = (_role(pid == self.proc.pid, cmdline), cpu_seconds(pid))
            except OSError:
                pass  # the process has just ended
        return out

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the program's processes."""
        return sum(peak_rss_mb(pid) for pid in self.pids())

    async def client(self, timeout: float = 120.0) -> RouteQueryClient:
        return await RouteQueryClient.connect(
            "127.0.0.1", self.port, default_timeout=timeout, codec="binary"
        )

    async def stop(self) -> None:
        """Graceful ``shutdown`` RPC, then wait for every process of the
        program to end; kill the session if it does not."""
        if self.proc is None:
            return
        try:
            client = await self.client(timeout=_STOP_TIMEOUT_S)
            try:
                await client.shutdown()
            finally:
                await client.close()
            assert self.proc.stdout is not None
            await asyncio.wait_for(self.proc.stdout.read(), _STOP_TIMEOUT_S)
            rc = await asyncio.wait_for(self.proc.wait(), _STOP_TIMEOUT_S)
        except BaseException:
            await self.kill()
            raise
        self.proc = None
        if rc != 0:
            raise RuntimeError(
                f"program exited with {rc}: {self.stderr_tail()}"
            )

    async def kill(self) -> None:
        """Kill the program's whole session and reap the child."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await self.proc.wait()
        self.proc = None


@contextlib.asynccontextmanager
async def running(program: Program) -> AsyncIterator[Program]:
    """Start ``program``; stop it gracefully after the block, or kill
    it when the block raises."""
    await program.start()
    try:
        yield program
    except BaseException:
        await program.kill()
        raise
    await program.stop()
