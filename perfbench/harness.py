"""Measurement plumbing: spans, the per-operation watchdog, the peak-RSS
sampler and the summary statistics.

Spans are recorded around calls into the engine from the benchmark's
own code (one span per layer call: name, start, end, parent span, run
id), kept in memory and written out once when the run ends. A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder. With ``enabled=False`` it only keeps
    the stack of open layer names, which the watchdog uses to name the
    layer a hung operation was in."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self.error_layer: str | None = None  # innermost layer an exception left

    @property
    def current_layer(self) -> str:
        return "/".join(name for _, name in self._stack) or "-"

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            if self.error_layer is None:
                self.error_layer = self.current_layer
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self.enabled:
                self.spans.append(
                    {"id": sid, "name": name, "parent": parent, "start": start,
                     "end": end, "run_id": self.run_id}
                )

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, list[float]]:
        """name -> self time of every span of that name."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[str, list[float]] = {}
        for s in self.spans:
            covered, cursor = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.setdefault(s["name"], []).append(s["end"] - s["start"] - covered)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class OpRunner:
    """Runs each timed operation under a watchdog: the operation runs in
    a daemon thread and the caller waits at most ``timeout_s``, and never
    past ``deadline`` (a ``time.perf_counter()`` value). A hang or an
    exception counts as one failed operation, named with the layer it
    was in, instead of stalling or aborting the run."""

    def __init__(self, tracer: Tracer, timeout_s: float, deadline: float = float("inf"),
                 settle=None):
        self.tracer = tracer
        self.timeout_s = timeout_s
        self.deadline = deadline
        self.settle = settle  # called, untimed, before each operation
        self.attempted = 0
        self.failures: list[dict] = []
        self.hung = False  # a hung op may still hold the session

    def run(self, name: str, fn):
        """Returns ``(ok, value, wall_s)``."""
        self.attempted += 1
        if self.settle is not None:
            self.settle()
        box: dict = {}
        self.tracer.error_layer = None

        def target():
            try:
                with self.tracer.span(name):
                    box["value"] = fn()
            except Exception as ex:  # the run goes on; reported as a failed op
                box["error"] = ex

        th = threading.Thread(target=target, name=f"op-{name}", daemon=True)
        t0 = time.perf_counter()
        th.start()
        th.join(max(0.0, min(self.timeout_s, self.deadline - t0)))
        wall = time.perf_counter() - t0
        if th.is_alive():
            self.hung = True
            self._fail(name, self.tracer.current_layer, f"timed out after {wall:.1f} s")
            return False, None, wall
        if "value" not in box:
            error = repr(box["error"]) if "error" in box else "ended without a result"
            self._fail(name, self.tracer.error_layer or name, error)
            return False, None, wall
        return True, box["value"], wall

    def _fail(self, op: str, layer: str, error: str) -> None:
        self.failures.append({"op": op, "layer": layer, "error": error[:500]})

    @property
    def failed(self) -> int:
        return len(self.failures)


class RssSampler:
    """Peak of the summed peak RSS (VmHWM) of this process and the Ray
    worker processes it started, sampled from /proc in a background
    thread. Worker processes are this process's descendants whose
    command line names a Ray worker; each pid is classified once."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._me = os.getpid()
        self._parent: dict[int, int] = {}
        self._is_worker: dict[int, bool] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    def _loop(self):
        while not self._stop.wait(self.interval_s):
            self.sample()

    def _descends(self, pid: int) -> bool:
        for _ in range(16):
            pid = self._parent.get(pid, 0)
            if pid == self._me:
                return True
            if pid <= 1:
                return False
        return False

    def sample(self) -> None:
        pids = [int(p) for p in os.listdir("/proc") if p.isdigit()]
        for pid in pids:
            if pid not in self._parent:
                try:
                    with open(f"/proc/{pid}/stat") as f:
                        self._parent[pid] = int(f.read().rsplit(")", 1)[1].split()[1])
                except OSError:
                    self._parent[pid] = 0
        for pid in pids:
            if pid in self._is_worker:
                continue
            if pid == self._me or not self._descends(pid):
                self._is_worker[pid] = pid == self._me
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            # raylet, gcs, ... stay undecided, as does a worker not yet
            # exec'd, and are looked at again next time
            if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
                self._is_worker[pid] = True
        total = 0
        for pid in pids:
            if not self._is_worker.get(pid):
                continue
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, total)


def descendant_pids() -> list[int]:
    """Every live process started, directly or not, by this one."""
    parent = {}
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                with open(f"/proc/{p}/stat") as f:
                    parent[int(p)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue
    found, frontier = [], [os.getpid()]
    while frontier:
        kids = [p for p, pp in parent.items() if pp in frontier]
        found += kids
        frontier = kids
    return found


def stop_processes(pids: list[int], grace_s: float) -> None:
    """Wait up to ``grace_s`` for ``pids`` to end, kill what is left and
    wait for that too. Zombies count as ended."""

    def alive(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    for sig, wait_s in ((None, grace_s), (9, 2.0)):
        if sig is not None:
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
        end = time.perf_counter() + wait_s
        while (pids := [p for p in pids if alive(p)]) and time.perf_counter() < end:
            time.sleep(0.05)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
