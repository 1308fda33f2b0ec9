"""Tier processes for the benchmark: launch, scrape, measure and stop them.

A :class:`Tier` is one ``loom-repro serve`` or ``loom-repro cluster``
process tree, started the way an operator starts it (``python -m repro.cli
... --port 0 --ready-file F``) in its own session, so that stopping it can
account for every process it spawned.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Tuple

__all__ = ["Tier", "parse_prometheus", "flatten"]

_READY_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0


def _all_stats() -> Dict[int, Tuple[int, int]]:
    """``{pid: (ppid, pgrp)}`` of every live process (zombies excluded)."""
    stats = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[0] != "Z":
            stats[int(name)] = (int(fields[1]), int(fields[2]))
    return stats


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree(root_pid: int) -> List[int]:
    """``root_pid`` and all its live descendants."""
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _) in _all_stats().items():
        children.setdefault(ppid, []).append(pid)
    pids, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children.get(pid, ()))
    return pids


def peak_rss_mb(root_pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of ``root_pid`` and all its descendants."""
    return sum(_vm_hwm_kb(pid) for pid in _tree(root_pid)) / 1024.0


def _cpu_ticks(pid: int) -> int:
    """User + system CPU time of every thread ``pid`` ran, ended ones too."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return int(fields[11]) + int(fields[12])


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"series{labels}": value}`` for every sample line of a /metrics page."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            try:
                samples[series] = float(value)
            except ValueError:
                continue
    return samples


def flatten(payload, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a JSON document as ``{"a.b.c": value}``."""
    flat: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            flat.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        flat[prefix[:-1]] = float(payload)
    return flat


def _get(url: str, timeout_s: float = 30.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.read()


class Tier:
    """One running ``loom-repro serve`` / ``loom-repro cluster`` process tree.

    ``kind`` is ``"serve"`` (SQLite store, 512-entry memory tier) or
    ``"cluster"`` (``--workers 2`` with its defaults: peer cache on, one
    SQLite store and one 512-entry memory tier per worker).
    """

    def __init__(self, kind: str, workdir: str, env: Dict[str, str]) -> None:
        if kind not in ("serve", "cluster"):
            raise ValueError(f"unknown tier {kind!r}")
        self.kind = kind
        self.workdir = workdir
        self.env = env
        self.url = ""
        self.process = None
        self._log = None

    def launch(self) -> str:
        """Start the tier and return its URL once it accepts requests."""
        os.makedirs(self.workdir, exist_ok=True)
        ready_file = os.path.join(self.workdir, "ready.txt")
        if self.kind == "serve":
            store = ["--store", os.path.join(self.workdir, "serve.db")]
        else:
            store = ["--workers", "2",
                     "--store-dir", os.path.join(self.workdir, "stores")]
        self._log = open(os.path.join(self.workdir, "tier.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", self.kind, "--port", "0",
             *store, "--ready-file", ready_file],
            cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if os.path.exists(ready_file):
                with open(ready_file, encoding="utf-8") as handle:
                    url = handle.read().strip()
                if url:
                    self.url = url
                    return url
            if self.process.poll() is not None:
                raise RuntimeError(f"{self.kind} exited during start-up; "
                                   f"see {self._log.name}")
            time.sleep(0.005)
        raise RuntimeError(f"{self.kind} not ready after {_READY_TIMEOUT_S}s")

    def nodes(self) -> List[Tuple[str, str]]:
        """``(role, url)`` of every HTTP node: serve, or coordinator + workers."""
        if self.kind == "serve":
            return [("serve", self.url)]
        stats = json.loads(_get(self.url + "/stats"))
        return [("coordinator", self.url)] + [
            ("worker", url) for url in sorted(stats["shards"])]

    def scrape(self) -> Dict[str, float]:
        """``/stats`` and ``/metrics`` of every node, summed per role.

        Keys are ``"<role>:<stats.path>"`` and ``"<role>:<series{labels}>"``.
        The coordinator's embedded copy of its workers' stats is dropped:
        each worker is scraped directly.
        """
        totals: Dict[str, float] = {}
        for role, url in self.nodes():
            stats = json.loads(_get(url + "/stats"))
            stats.pop("workers", None)
            samples = flatten(stats)
            samples.update(parse_prometheus(_get(url + "/metrics").decode()))
            for key, value in samples.items():
                name = f"{role}:{key}"
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def spans(self) -> List[dict]:
        """The tier's recorded spans (the coordinator merges its workers')."""
        return json.loads(_get(self.url + "/trace"))["spans"]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        """CPU seconds the tier's processes have used so far."""
        ticks = sum(_cpu_ticks(pid) for pid in _tree(self.process.pid))
        return ticks / os.sysconf("SC_CLK_TCK")

    def close(self) -> None:
        """Stop the tier gracefully and wait until every process has ended."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None and self.url:
                try:
                    request = urllib.request.Request(
                        self.url + "/shutdown", data=b"{}", method="POST",
                        headers={"Content-Type": "application/json"})
                    urllib.request.urlopen(request, timeout=10).close()
                except OSError:
                    pass  # already going down; the signals below finish it
            try:
                self.process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._signal_group(signal.SIGTERM)
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self._signal_group(signal.SIGKILL)
                    self.process.wait()
            self._reap_group()
        finally:
            self.process = None
            if self._log is not None:
                self._log.close()

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.process.pid, signum)
        except ProcessLookupError:
            pass

    def _reap_group(self) -> None:
        """Kill and wait out any process left in the tier's session."""
        pgid = self.process.pid
        deadline = time.monotonic() + 15
        while any(group == pgid for _, group in _all_stats().values()):
            if time.monotonic() > deadline:
                raise RuntimeError(f"processes of {self.kind} would not exit")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.05)
