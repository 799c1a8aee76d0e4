"""DynaPipe end-to-end benchmark: seeded workloads timed whole and by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload gpt-iter --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics, measured by wrapping each
layer's public entry point from the benchmark's own files on every other
unit of work.  The run sets the workload up :data:`REPEATS` times, each
time in a fresh child process that measures for ``--seconds / REPEATS``.
Set-up time is the fastest child's; speeds take each unit's fastest
reading over children.

Every run checks the program's outputs: all children must produce the same
per-field fingerprint, and it must match the one stored in
``expected.json`` for the seed when there is one.  A mismatch names the
fields that differ and counts every unit of work as failed.  The last line
of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the seed, the machine
stamp and the check details.  If a child process fails, the run still
prints both lines, with every unit failed, and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.fingerprint import load_expected, mismatched  # noqa: E402
from perfbench.workloads import WORKLOADS, planned_units  # noqa: E402

#: Wall budget for all children of one run (the run must end within 180 s).
BUDGET_S = 170.0
#: Set-ups per run, each in its own child process.
REPEATS = 5
#: Workload size of a run (``"small"`` is for the benchmark's own tests).
SCALE = "full"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_stamp() -> dict:
    """Where and on what the run happened (no git outside a checkout)."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, to recognise a slow host."""

    def once() -> float:
        start, total = time.perf_counter(), 0
        for i in range(200_000):
            total += i * i % 7
        return (time.perf_counter() - start) * 1e3

    return statistics.median(once() for _ in range(5))


def spawn_child(
    workload: str, seed: int, trace: int, scale: str, seconds: float, deadline: float
) -> dict | None:
    """Run one child to completion; ``None`` if it failed or overran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The planner pool spills planner specs to temporary files: keep them
    # inside the checkout and remove them with the child.
    spill_dir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    env["TMPDIR"] = spill_dir
    command = [
        sys.executable, "-m", "perfbench.workloads",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--scale", scale,
    ]
    spawn_time = time.time()
    child = subprocess.Popen(
        command + ["--spawn-time", repr(spawn_time)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
        print(f"perfbench: child overran the {BUDGET_S:.0f} s budget", file=sys.stderr)
    finally:
        # The child's planner workers share its session: stop any straggler.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(spill_dir, ignore_errors=True)
    if out is None or child.returncode != 0 or not out.strip():
        return None
    return json.loads(out.strip().splitlines()[-1])


def _summed(children: list[dict], key: str) -> dict[str, float]:
    total: dict[str, float] = {}
    for child in children:
        for name, value in child["layers"][key].items():
            total[name] = total.get(name, 0.0) + value
    return total


def _fastest(children: list[dict], kind: str, key: str) -> list[float]:
    """Fastest reading of each piece of work that every child did.

    ``child[kind]`` names the work behind each reading in ``child[key]``:
    the same id is the same work (the same training iteration, or any
    replay of the same fleet).  A shared host only ever slows work down and
    its speed changes by tens of percent from second to second, so the
    fastest reading of a piece of work is its least disturbed one.
    """
    shared = set.intersection(*(set(child[kind]) for child in children))
    best: dict = {}
    for child in children:
        for work, value in zip(child[kind], child[key]):
            if work in shared:
                best[work] = min(value, best.get(work, value))
    return list(best.values())


def end_to_end(children: list[dict]) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    Set-up time is the fastest child's; speeds are means over pieces of
    work of each one's fastest reading (see :func:`_fastest`).  Means, not
    medians: pooled fleet steps are bimodal (plan ready or still planning),
    and a median flips between the modes.
    """
    return {
        "setup_s": min(child["setup_s"] for child in children),
        "iter_wall_ms": statistics.fmean(_fastest(children, "iter_work", "iter_ms")),
        "events_per_s": children[0]["unit_events"]
        / statistics.fmean(_fastest(children, "unit_work", "unit_s")),
        "sim_tokens_per_s": children[0]["deterministic"]["sim_tokens_per_s"],
        "peak_rss_mb": max(child["rss_mb"] for child in children),
    }


def per_layer(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced run, per traced unit of work.

    A unit is one iteration on the session workloads and one replay on
    ``fleet-planned``; layers a workload never enters read 0.
    """
    ms, self_ms = _summed(children, "ms"), _summed(children, "self_ms")
    calls, counts = _summed(children, "calls"), _summed(children, "counts")
    units = sum(len(child["traced_unit_s"]) for child in children)

    def per_unit(table: dict[str, float], key: str) -> float:
        return table.get(key, 0.0) / units

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    untraced = [s for child in children for s in child["unit_s"]]
    traced = [s for child in children for s in child["traced_unit_s"]]
    deterministic = children[0]["deterministic"]
    return {
        "costmodel.ms": per_unit(ms, "costmodel"),
        "costmodel.calls": per_unit(calls, "costmodel"),
        "costmodel.time_mpe_pct": deterministic["costmodel.time_mpe_pct"],
        "window_table.ms": per_unit(ms, "window_table"),
        "window_table.self_ms": per_unit(self_ms, "window_table"),
        "window_table.unique_shapes": per_unit(counts, "window_table.unique_shapes"),
        "partition.attempts": per_unit(calls, "dp"),
        "dp.ms": per_unit(ms, "dp"),
        "dp.cost_evaluations": per_unit(counts, "dp.cost_evaluations"),
        "balance.ms": per_unit(ms, "balance"),
        "schedule.ms": per_unit(ms, "schedule"),
        "schedule.calls_per_replica": ratio(
            calls.get("schedule", 0.0), counts.get("plan.replicas", 0.0)
        ),
        "simulate.ms": per_unit(ms, "simulate"),
        "simulate.calls": per_unit(calls, "simulate"),
        "order_search.ms": per_unit(ms, "order_search"),
        "order_search.permutations": per_unit(counts, "order_search.permutations"),
        "order_search.changed_frac": ratio(
            counts.get("order_search.changed", 0.0), counts.get("order_search.searches", 0.0)
        ),
        "comm_streams.ms": per_unit(ms, "comm_streams"),
        "plan.ms": per_unit(ms, "plan"),
        "plan.self_ms": per_unit(self_ms, "plan"),
        "execute.ms": per_unit(ms, "execute"),
        "execute.duration_calls": per_unit(counts, "execute.duration_calls"),
        "trainer.self_ms": per_unit(self_ms, "trainer"),
        "trainer.iter_ms_p90": statistics.median(child["iter_ms_p90"] for child in children),
        "trainer.iter_samples": sum(child["iter_samples"] for child in children),
        "fleet.loop_self_ms": per_unit(self_ms, "fleet"),
        "fleet.events": deterministic.get("fleet.events", 0),
        "fleet.makespan_s": deterministic.get("fleet.makespan_s", 0.0),
        "fleet.queue_delay_s": deterministic.get("fleet.queue_delay_s", 0.0),
        "fleet.jobs_failed": deterministic.get("fleet.jobs_failed", 0),
        "gang.ms": per_unit(ms, "gang"),
        "gang.calls": per_unit(calls, "gang"),
        "job_step.ms": per_unit(ms, "job_step"),
        "job_step.calls": per_unit(calls, "job_step"),
        "pool.wait_ms": per_unit(ms, "pool_wait"),
        "pool.plan_ms": per_unit(counts, "pool.plan_ms"),
        "plan_decode.ms": per_unit(ms, "plan_decode"),
        "trace.overhead_pct": 100.0
        * (statistics.median(traced) / statistics.median(untraced) - 1.0),
    }


def check_outputs(workload: str, seed: int, scale: str, children: list[dict]) -> dict:
    """Compare fingerprints across children and against stored values."""
    fields = children[0]["fields"]
    differing = {
        name
        for child in children[1:]
        for name in fields.keys() | child["fields"].keys()
        if fields.get(name) != child["fields"].get(name)
    }
    expected = load_expected(scale, workload, seed)
    if expected is not None:
        differing |= set(mismatched(fields, expected))
    return {"stored": expected is not None, "mismatched": sorted(differing)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    load_before, loop_before = os.getloadavg(), host_loop_ms()
    deadline = time.monotonic() + BUDGET_S
    children: list[dict] = []
    # Units the failed child was due to run, if one failed: all count as failed.
    lost = 0
    for _ in range(REPEATS):
        child = spawn_child(
            args.workload, args.seed, args.trace, SCALE, args.seconds / REPEATS, deadline
        )
        if child is None:
            print("perfbench: a child process failed", file=sys.stderr)
            lost = planned_units(args.workload, SCALE)
            break
        children.append(child)
    check = (
        check_outputs(args.workload, args.seed, SCALE, children)
        if children
        else {"stored": None, "mismatched": []}
    )
    attempted = sum(child["attempted"] for child in children) + lost
    correct = not lost and not check["mismatched"]
    failed = sum(child["failed"] for child in children) if correct else attempted
    metrics = {}
    if not lost:
        if args.trace:
            values, listed = per_layer(children), spec["per_layer"]
        else:
            values, listed = end_to_end(children), spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    stamp = machine_stamp()
    stamp.update(
        numpy=children[0]["numpy"] if children else None,
        load_before=load_before,
        load_after=os.getloadavg(),
        host_loop_ms_before=loop_before,
        host_loop_ms_after=host_loop_ms(),
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": REPEATS,
        "child_failed": bool(lost),
        "check": check,
        "fail_frac": failed / attempted,
        "children": [
            {
                "setup_s": child["setup_s"],
                "units": len(child["unit_s"]) + len(child["traced_unit_s"]),
                "iter_wall_ms": statistics.fmean(child["iter_ms"]),
            }
            for child in children
        ],
        "missing_entry_points": children[0]["layers"]["missing"]
        if args.trace and children
        else [],
        "stamp": stamp,
    }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
