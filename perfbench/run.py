"""Benchmark entry point for the lasutility_ray engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--num-cpus 2]

Run from the root of a checkout. One Python process (a closed loop with
one client: each timed operation starts when the previous one ended)
owns a fresh local Ray session of ``--num-cpus`` CPUs. The session is
set up three times; ``setup_s`` is the median. A set-up whose raylet
never comes up is stopped and started again (``start_session_retrying``);
the retries are printed, and not timed. Inputs are generated
from ``--seed``; every output is checked against an oracle outside the
timed region. Each timed operation runs under a watchdog and starts
from an idle session (see ``Settler``).

End-to-end metrics, reported by every workload:

    setup_s      ray.init plus the worker warm-up, median of three set-ups
    op_p50_s     median wall time of the workload's unit of work: one
                 flagship pass, one hot-tile TIN + PIP, one resumed TIN
    rows_per_s   input rows per second of that unit (flagship docs or
                 checkpoint points), median over the units
    peak_rss_mb  peak of the summed peak RSS of this process and its Ray
                 worker processes

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
also prints the per-layer table (calls, total and self time per span)
and writes its spans under ``perfbench/.work/traces/``. Its
``trace.op_p50_s`` against the untraced runs' ``op_p50_s`` is the
tracing overhead; ``trace.span_cost_s`` is the measured cost of the
spans it recorded.

Everything a run writes stays under ``perfbench/.work/``, Ray's session
directory included unless that path is too long for a unix socket.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, ".work")
N_SETUPS = 3
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # every op ends by then, so the run ends inside 180 s
# fixed rather than Ray's default share of host memory, so the session
# is the same on every host; small, as the host's memory is shared and
# a run holds well under it
OBJECT_STORE_BYTES = 512 * 1024**2
# a session start whose raylet never registers is torn down and tried
# again, up to this many times in all, while the run is younger than
# SETUP_RETRY_UNTIL_S
SETUP_ATTEMPTS = 3
SETUP_RETRY_UNTIL_S = 60.0
# Ray's sockets live at <temp dir>/session_<date>_<time>_<us>_<pid>/
# sockets/plasma_store, and a unix socket path has at most 107 bytes.
SESSION_DIR_LEN = len("/session_2026-01-01_00-00-00_000000_")
SOCKET_LEN = len("/sockets/plasma_store")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
OP_SPANS = ("flagship", "hot_tile", "resume")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order.
    A traced run reports each on every workload; a layer the workload
    does not call reads 0."""
    from perfbench.workloads import QUERY_TABLES

    s, n = "s", "count"
    return [
        ("setup.ray_init_s", s, "lower"),
        ("setup.warmup_s", s, "lower"),
        ("checkpoint.wall_s", s, "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("checkpoint.files", n, "lower"),
        ("extract_verify.wall_s", s, "lower"),
        ("tin.wall_s", s, "lower"),
        ("tin.tiles_committed", n, "lower"),
        ("tin.hot_tiles", n, "lower"),
        ("tin.tile_bytes", "bytes", "lower"),
        ("pip_join.wall_s", s, "lower"),
        ("pip_join.rows", n, "higher"),
        ("kernel.delaunay_hot_s", s, "lower"),
        ("kernel.rasterise_hot_s", s, "lower"),
        ("kernel.delaunay_cold_p50_s", s, "lower"),
        ("manifest.finished_keys_s", s, "lower"),
        ("manifest.read_s", s, "lower"),
        ("resume.tiles_recomputed", n, "lower"),
        ("resume.useful_ratio", "ratio", "higher"),
        ("query.floor_s", s, "lower"),
        *((f"query.{q}.p50_s", s, "lower") for q in sorted(QUERY_TABLES)),
        ("op.self_s", s, "lower"),
        ("op.count", n, "higher"),
        ("op.max_s", s, "lower"),
        ("op.settle_max_s", s, "lower"),
        ("trace.op_p50_s", s, "lower"),
        ("trace.span_cost_s", s, "lower"),
    ]


def check_checkout() -> str | None:
    """The benchmark builds nothing; it needs the engine's sources at
    the checkout root."""
    for rel in ("lasutility_ray/__init__.py", "__ray_entry__.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"missing {rel}: run from the root of a full lasutility_ray checkout"
    return None


def start_session(ncpu: int, temp_dir: str | None) -> tuple[float, float]:
    """``ray.init`` then bench.py's warm-up dataset, which starts the
    workers and imports the pages corpus in them. Returns
    (init_s, warmup_s)."""
    import ray

    t0 = time.perf_counter()
    ray.init(
        address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR",
        log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir,
        _node_ip_address="127.0.0.1",
    )
    t1 = time.perf_counter()
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    from lasutility_ray.corpus.pages import synth_pages_batch

    rd.range(ncpu * 4, override_num_blocks=ncpu * 4).map_batches(
        lambda b: synth_pages_batch(b["id"]), batch_format="numpy"
    ).map_batches(lambda t: t, batch_format="pyarrow").count()
    return t1 - t0, time.perf_counter() - t1


def start_session_retrying(ncpu: int, temp_dir: str | None, stop_ray, retry_until: float,
                           log: list[str], start=start_session) -> tuple[float, float]:
    """``start(ncpu, temp_dir)``, tried again after a failure. A raylet
    can stall while it maps the object store; ``ray.init`` then gives up
    after 30 s with "The current node timed out during startup". The
    half-started session is stopped and a new one started, up to
    ``SETUP_ATTEMPTS`` in all and not after ``retry_until``; each failed
    attempt is noted in ``log``. Returns the times of the attempt that
    worked."""
    attempt = 1
    while True:
        try:
            return start(ncpu, temp_dir)
        except Exception as ex:
            log.append(f"session start attempt {attempt} failed: {ex!r}"[:300])
            print(f"perfbench: {log[-1]}", file=sys.stderr, flush=True)
            stop_ray()
            if attempt == SETUP_ATTEMPTS or time.perf_counter() > retry_until:
                raise
            attempt += 1


class Settler:
    """Returns the session to idle before each timed operation. Actors
    of an earlier Dataset can outlive it, held by reference cycles until
    a garbage collection runs, and keep their CPUs. With 2 CPUs the next
    operation then waits for Ray's own periodic GC (10-15 s). Each
    repetition should start from the state a user's first job sees, so
    the benchmark collects garbage and waits for every CPU to be free.
    The wait is reported as ``op.settle_max_s``."""

    def __init__(self, ncpu: int, limit_s: float = 30.0):
        self.ncpu = ncpu
        self.limit_s = limit_s
        self.waits: list[float] = []

    def __call__(self) -> None:
        import gc

        import ray
        from ray._private.internal_api import global_gc

        t0 = time.perf_counter()
        gc.collect()
        global_gc()
        while ray.available_resources().get("CPU", 0) < self.ncpu:
            if time.perf_counter() - t0 > self.limit_s:
                break
            time.sleep(0.05)
        self.waits.append(time.perf_counter() - t0)


def span_cost_s(n_spans: int) -> float:
    """Measured cost of recording ``n_spans`` spans with this tracer."""
    from perfbench.harness import Tracer

    probe = Tracer("probe", enabled=True)
    reps = 20_000
    t0 = time.perf_counter()
    for _ in range(reps):
        with probe.span("x"):
            pass
    return (time.perf_counter() - t0) / reps * n_spans


def layer_table(tracer) -> list[str]:
    from perfbench.harness import median

    selfs = tracer.self_times()
    lines = [f"{'span':<34}{'calls':>6}{'total_s':>12}{'self_p50_s':>12}"]
    for name in sorted(selfs):
        d = tracer.durations(name)
        lines.append(f"{name:<34}{len(d):>6}{sum(d):>12.4f}{median(selfs[name]):>12.4f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--num-cpus", type=int, default=2)
    args = ap.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 3
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )

    from perfbench.harness import (
        OpRunner, RssSampler, Tracer, descendant_pids, median, stop_processes,
    )
    from perfbench.workloads import WORKLOADS, Ctx

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work = os.path.join(WORK_ROOT, run_id)
    ray_tmp = os.path.join(WORK_ROOT, f"ray{os.getpid()}")
    pid_len = len(str(os.getpid()))
    if len(ray_tmp) + SESSION_DIR_LEN + pid_len + SOCKET_LEN > 107:
        ray_tmp = None  # too deep a checkout: Ray's default temp dir
    os.makedirs(work, exist_ok=True)

    tracer = Tracer(run_id, enabled=bool(args.trace))
    settler = Settler(args.num_cpus)
    runner = OpRunner(tracer, OP_TIMEOUT_S, deadline=t_begin + RUN_BUDGET_S, settle=settler)
    ctx = Ctx(args.seed, args.seconds, args.num_cpus, work, tracer, runner)
    workload = WORKLOADS[args.workload]()

    import ray

    def stop_ray() -> None:
        pids = descendant_pids()  # Ray's agents outlive ray.shutdown()
        ray.shutdown()
        stop_processes(pids, grace_s=5.0)

    phases: dict[str, float] = {}
    clock = [t_begin]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - clock[0]
        clock[0] = now

    try:
        workload.prepare(ctx)
        phase("prepare")
        inits, warms, setup_errors = [], [], []
        for i in range(N_SETUPS):
            if i:
                stop_ray()
            init_s, warm_s = start_session_retrying(
                args.num_cpus, ray_tmp, stop_ray, t_begin + SETUP_RETRY_UNTIL_S, setup_errors
            )
            inits.append(init_s)
            warms.append(warm_s)
        setups = [a + b for a, b in zip(inits, warms)]
        phase("setups")

        with RssSampler() as rss:
            workload.prepare_in_session(ctx)
            phase("prepare_in_session")
            workload.run(ctx)
            phase("measure")
        if not runner.hung:
            workload.verify(ctx)
            if args.trace:
                workload.trace_extras(ctx)
        phase("verify")
    finally:
        if not runner.hung:
            stop_ray()
            cleanup(ray_tmp, work)
    phase("teardown")

    for name, ok, detail in ctx.checks:
        if not ok:
            print(f"perfbench: check FAILED {name}: {detail}", file=sys.stderr)
    for f in runner.failures:
        print(f"perfbench: op FAILED {f['op']} in layer {f['layer']}: {f['error']}", file=sys.stderr)
    n_ok = sum(ok for _, ok, _ in ctx.checks)
    walls = ctx.op_walls
    print(f"checks: {n_ok} of {len(ctx.checks)} passed; ops: {runner.attempted} attempted, "
          f"{runner.failed} failed; op walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print("phases (s): " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    print(f"session starts retried: {len(setup_errors)}")
    if args.trace:
        lines = layer_table(tracer)
        print("\n".join(lines))
        layer = {name: 0.0 for name, _, _ in per_layer_metrics()}
        for span, metric in (("checkpoint", "checkpoint.wall_s"),
                             ("extract_verify", "extract_verify.wall_s"),
                             ("tin", "tin.wall_s"), ("pip_join", "pip_join.wall_s"),
                             ("manifest.finished_keys", "manifest.finished_keys_s"),
                             ("manifest.read", "manifest.read_s"),
                             ("kernel.delaunay_hot", "kernel.delaunay_hot_s"),
                             ("kernel.rasterise_hot", "kernel.rasterise_hot_s"),
                             ("kernel.delaunay_cold", "kernel.delaunay_cold_p50_s")):
            layer[metric] = median(tracer.durations(span))
        layer.update(ctx.layer)
        op_self = [v for n, vs in tracer.self_times().items() if n in OP_SPANS for v in vs]
        layer.update({
            "setup.ray_init_s": median(inits),
            "setup.warmup_s": median(warms),
            "op.self_s": median(op_self),
            "op.count": len(walls),
            "op.max_s": max(walls, default=0.0),
            "op.settle_max_s": max(settler.waits, default=0.0),
            "trace.op_p50_s": median(walls),
            "trace.span_cost_s": span_cost_s(len(tracer.spans)),
        })
        tracer.write(os.path.join(WORK_ROOT, "traces", f"{run_id}.jsonl"))
        metrics = {k: {"value": layer[k], "unit": u} for k, u, _ in per_layer_metrics()}
    else:
        values = {
            "setup_s": median(setups),
            "op_p50_s": median(walls),
            "rows_per_s": median(ctx.op_rates),
            "peak_rss_mb": rss.peak_kb / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    result = {
        "correct": bool(ctx.checks) and n_ok == len(ctx.checks),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    if runner.hung:
        # The hung op's thread is still inside Ray: a clean ray.shutdown()
        # makes Ray end this process with code 1 when that thread next
        # touches it. So kill the session's processes and leave at once.
        stop_processes(descendant_pids(), grace_s=0.0)
        cleanup(ray_tmp, work)
        os._exit(0)
    return 0


def cleanup(ray_tmp: str | None, work: str) -> None:
    if ray_tmp:
        shutil.rmtree(ray_tmp, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
