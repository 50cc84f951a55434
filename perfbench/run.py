"""Benchmark entry point.  From the checkout root::

    python3 perfbench/run.py --workload compile-dnn --seed 0 --seconds 15 --trace 0

Starts ``workload.py`` in a fresh interpreter for the measured run, and
again (set-up only) for more set-up samples; ``setup_s`` is their
median.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with ``--trace 1``).

A run that stalls is killed with its whole process group at a
deadline and counts as failed.  Run outside a checkout that holds the
program's sources, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = os.path.join(HERE, "workload.py")

SETUP_SAMPLES = 3          # fresh-interpreter set-ups per run
RUN_LIMIT_S = 170.0        # the whole run, probes included
MEASURED_LIMIT_S = 130.0   # the measured child
PROBE_LIMIT_S = 30.0       # each set-up-only or import probe


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One BLAS thread: pinned outputs must not depend on the host's
    # thread count, and load stays within one process per core.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    # Temporary files (shard directories) stay inside the checkout.
    tmp = os.path.join(HERE, "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


class Child:
    """A process in its own process group, its stdout lines timestamped."""

    def __init__(self, argv: list, env: dict) -> None:
        self.lines: queue.Queue = queue.Queue()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def next_line(self, deadline: float):
        """``(t, line)``; ``line`` is None at EOF, raises on the deadline."""
        return self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))

    def stop(self) -> int:
        """Kill whatever is left of the process group and reap the child."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        code = self.proc.wait()
        self.reader.join()
        return code


def run_child(argv: list, env: dict, deadline: float, echo: bool):
    """Run ``argv`` to completion; return (ready_s, result, exit_ok).

    ``ready_s`` is the time from spawn to the child's ``READY`` line,
    ``result`` the decoded ``RESULT`` line.  At ``deadline`` (a
    ``perf_counter`` time) the child's group is killed and ``exit_ok``
    is False.
    """
    child = Child(argv, env)
    ready_s = result = None
    try:
        while True:
            t, line = child.next_line(deadline)
            if line is None:
                break
            if line == "READY" and ready_s is None:
                ready_s = t - child.started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif echo:
                print(line, flush=True)
    except queue.Empty:
        print(f"error: {' '.join(argv[1:])} passed its deadline; killed",
              file=sys.stderr)
        child.stop()
        return ready_s, None, False
    return ready_s, result, child.stop() == 0


def timed_import(env: dict, deadline: float) -> "float | None":
    """Fresh-interpreter ``import repro.distrib.worker``, spawn to exit."""
    start = time.perf_counter()
    child = Child([sys.executable, "-c", "import repro.distrib.worker"], env)
    try:
        child.proc.wait(timeout=max(0.0, deadline - start))
    except subprocess.TimeoutExpired:
        child.stop()
        return None
    elapsed = time.perf_counter() - start
    return elapsed if child.stop() == 0 else None


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    end = start + RUN_LIMIT_S

    def probe_deadline() -> float:
        return min(time.perf_counter() + PROBE_LIMIT_S, end)

    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    ready_s, result, ok = run_child(
        [sys.executable, WORKLOAD, *common, "--trace", str(args.trace)],
        env, start + MEASURED_LIMIT_S, echo=True)
    metrics = dict(result["metrics"]) if result else {}
    attempted = result["attempted"] if result else 1
    failed = result["failed"] if result else 1
    ok = ok and result is not None

    if args.trace:
        imports = [timed_import(env, probe_deadline())
                   for _ in range(SETUP_SAMPLES)]
        if None in imports:
            ok = False
        else:
            metrics["distrib.worker_import_s"] = statistics.median(imports)
        wanted = bench["per_layer"]
    else:
        setups = [ready_s]
        for _ in range(SETUP_SAMPLES - 1):
            sample, _, probe_ok = run_child(
                [sys.executable, WORKLOAD, *common, "--setup-only"],
                env, probe_deadline(), echo=False)
            setups.append(sample if probe_ok else None)
        if None in setups:
            ok = False
        else:
            metrics["setup_s"] = statistics.median(setups)
        wanted = bench["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
    if missing or not ok:
        failed = max(failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
