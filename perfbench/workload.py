"""One benchmark workload in a fresh interpreter: set up, measure, check.

``run.py`` starts this script once per run (and again, set-up only, to
sample set-up time).  From the checkout root::

    python3 perfbench/workload.py --workload compile-dnn --seed 0 --seconds 15 --trace 0
    python3 perfbench/workload.py --workload serve-botnet --seed 3 --setup-only
    python3 perfbench/workload.py --workload plan-fabric --seed 1 --print-pins

Protocol on stdout: ``READY`` once set-up is done (the parent times
set-up from process start to that line), ``host {...}`` with the host
facts, and last ``RESULT {...}`` with the raw measurements.
``--print-pins`` prints the outputs and counts that ``expected.json``
pins for the seed's input variant, instead of checking them.

Every workload maps ``--seed`` to an input variant (``seed % variants``)
and ``expected.json`` pins the outputs of each variant.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402  (lives next to this file)

perf = time.perf_counter


def jsonable(value):
    """Canonical JSON form of an output (numpy scalars to Python)."""
    return json.loads(json.dumps(
        value, sort_keys=True,
        default=lambda o: o.item() if hasattr(o, "item") else str(o)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Shared measuring loop: repeat :meth:`operation` a fixed count.

    The count is ``seconds // OP_S`` (at least one), ``OP_S`` being the
    run time budgeted per operation, so every run of a workload does the
    same work however fast the host is.  A traced run spends the same
    time on pairs of repetitions, one untraced and one traced, so one run
    gives both the per-layer breakdown and the tracing overhead on
    identical inputs.
    """

    ROOT = ""           # the root span around :meth:`operation`
    OP_S = 1.0          # run seconds per :meth:`operation`
    variants = 1

    def __init__(self, seed: int, seconds: float, trace: bool,
                 tracer: tracing.Tracer) -> None:
        self.seconds = seconds
        self.trace = trace
        self.variant = seed % self.variants
        self.tracer = tracer
        self.counts: dict = {}     # deterministic counts, pinned

    def span(self, name: str, root: bool = False):
        """A span around the benchmark's own call, while tracing."""
        if self.tracer.enabled:
            return self.tracer.span(name, root=root)
        return nullcontext()

    def pins(self) -> dict:
        """The outputs ``expected.json`` pins for this variant."""
        return self.last_outputs

    def measure(self, seconds: float, trace: bool, expected) -> dict:
        walls, traced_walls = [], []
        attempted = failed = 0
        errors: list = []
        if trace:
            reps = max(1, int(seconds / 2 // self.OP_S)) * 2
        else:
            reps = max(1, int(seconds // self.OP_S))
        for rep in range(reps):
            traced = trace and rep % 2 == 1
            gc.collect()  # every repetition starts from the same heap state
            self.tracer.enabled = traced
            try:
                wall, outputs = self.operation()
            except Exception as exc:  # a failed operation is reported, not raised
                traceback.print_exc()
                attempted += 1
                failed += 1
                errors.append(f"rep {rep}: {type(exc).__name__}: {exc}")
                break
            finally:
                self.tracer.enabled = False
            attempted += 1
            if expected is not None:
                bad = self.check(outputs, expected)
                if bad:
                    failed += 1
                    errors.extend(f"rep {rep}: {msg}" for msg in bad)
            (traced_walls if traced else walls).append(wall)
            self.last_outputs = outputs
        return {"walls": walls, "traced_walls": traced_walls,
                "attempted": attempted, "failed": failed, "errors": errors}

    @staticmethod
    def wall(walls: list) -> float:
        """``wall_s`` from the untraced repetitions' times."""
        return statistics.median(walls)

    @staticmethod
    def per_rep(roll: dict, name: str, key: str, reps: int) -> float:
        """``total_s`` or ``calls`` of span ``name``, per traced repetition."""
        return roll["names"].get(name, {}).get(key, 0) / reps

    def check(self, outputs: dict, expected: dict) -> list:
        """Messages for every pinned output that is missing or differs."""
        return [
            f"{key}: got {outputs.get(key, 'nothing')!r}, pinned {want!r}"
            for key, want in expected.items()
            if key not in outputs or outputs[key] != want
        ]


# --------------------------------------------------------------------- #
# compile-dnn / compile-mat: repro.generate, the way repro.cli builds it.
# --------------------------------------------------------------------- #
class Compile(Workload):
    """``python -m repro.cli --app APP --target TARGET --budget B --seed 0``.

    One input variant: a compile's cost follows its search trajectory
    (10 to 20 s across search seeds for the same app and budget on a
    2-CPU host), so a seeded input could not be steady within one run.
    """

    ROOT = "core.generate"
    # Three generates per 15-s run, though one takes 9 to 16 s: the
    # median of three spread less across runs than a single one.
    OP_S = 5.0
    SEED = 0
    # repro.cli's per-app dataset seed offsets.
    OFFSETS = {"ad": 7, "tc": 11, "bd": 13}

    def __init__(self, seed, seconds, trace, tracer, app, target,
                 budget) -> None:
        super().__init__(seed, seconds, trace, tracer)
        self.app, self.target, self.budget = app, target, budget

    def setup(self) -> None:
        import repro
        from repro.alchemy import DataLoader, Model
        from repro.alchemy.platforms import PlatformSpec
        from repro.distrib.runspec import APP_LOADERS

        self.repro = repro
        self.DataLoader, self.Model, self.PlatformSpec = (
            DataLoader, Model, PlatformSpec)
        with self.span("datasets.load"):
            self.dataset = APP_LOADERS[self.app](
                seed=self.SEED + self.OFFSETS[self.app])

    def operation(self):
        dataset = self.dataset

        @self.DataLoader
        def loader():
            return dataset

        spec = self.Model({
            "optimization_metric": ["f1"],
            "algorithm": [],
            "name": self.app,
            "data_loader": loader,
        })
        platform_spec = self.PlatformSpec(self.target)
        platform_spec.schedule(spec)
        start = perf()
        with self.span(self.ROOT, root=True):
            report = self.repro.generate(
                platform_spec, budget=self.budget, seed=self.SEED)
        wall = perf() - start
        best = report.best
        outputs = jsonable({
            "feasible": report.feasible,
            "family": best.algorithm,
            "config": best.best_config,
            "f1": best.objective,
            "resources": best.resources,
        })
        return wall, outputs

    def layer_metrics(self, roll: dict, reps: int) -> dict:
        def total(name):
            return self.per_rep(roll, name, "total_s", reps)

        def calls(name):
            return self.per_rep(roll, name, "calls", reps)

        fits = [n for n in roll["names"] if n.startswith("ml.")]
        evaluated = calls("core.evaluate")
        feasible = self.tracer.counts.get("core.feasible", 0) / reps
        self.counts.update({
            "core.evaluate_calls": evaluated,
            "bayesopt.suggest_calls": calls("bayesopt.suggest"),
            "ml.fit_calls": sum(calls(n) for n in fits),
        })
        return {
            "ml.dnn_fit_s": total("ml.dnn_fit"),
            "ml.bnn_fit_s": total("ml.bnn_fit"),
            "ml.other_fit_s": total("ml.other_fit"),
            "ml.fit_calls": self.counts["ml.fit_calls"],
            "backends.simulate_s": total("backends.simulate"),
            "backends.simulate_rows":
                self.tracer.counts.get("backends.rows", 0) / reps,
            "backends.lower_s": total("backends.lower"),
            "bayesopt.suggest_s": total("bayesopt.suggest"),
            "bayesopt.suggest_calls": self.counts["bayesopt.suggest_calls"],
            "core.evaluate_s": total("core.evaluate"),
            "core.evaluate_calls": evaluated,
            "core.feasible_ratio": feasible / evaluated if evaluated else 0.0,
            "core.rebuild_s": total("core.rebuild"),
        }

    def instrument(self) -> None:
        """Wrap the public calls of core, ml, backends and bayesopt."""
        from repro.backends.fpga.backend import FpgaBackend
        from repro.backends.base import CompiledPipeline
        from repro.backends.taurus.backend import TaurusBackend
        from repro.backends.tofino.backend import TofinoBackend
        from repro.bayesopt.optimizer import BayesianOptimizer
        from repro.core.evaluator import ModelEvaluator
        from repro.ml.bnn import BinarizedNetwork
        from repro.ml.kmeans import KMeans
        from repro.ml.network import NeuralNetwork
        from repro.ml.svm import LinearSVM
        from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

        tracer = self.tracer

        def feasible(args, kwargs, result, seconds):
            tracer.counts["core.feasible"] += bool(result.feasible)

        def rows(args, kwargs, result, seconds):
            tracer.counts["backends.rows"] += len(args[1])

        tracer.patch(ModelEvaluator, "evaluate", "core.evaluate", feasible)
        tracer.patch(ModelEvaluator, "rebuild", "core.rebuild")
        tracer.patch(BayesianOptimizer, "suggest", "bayesopt.suggest")
        tracer.patch(NeuralNetwork, "fit", "ml.dnn_fit")
        tracer.patch(BinarizedNetwork, "fit", "ml.bnn_fit")
        for cls in (LinearSVM, KMeans, DecisionTreeClassifier,
                    DecisionTreeRegressor):
            tracer.patch(cls, "fit", "ml.other_fit")
        for cls in (TaurusBackend, TofinoBackend, FpgaBackend):
            tracer.patch(cls, "compile_model", "backends.lower")
        tracer.patch(CompiledPipeline, "predict", "backends.simulate", rows)


# --------------------------------------------------------------------- #
# plan-fabric: plan_fabric over the benchmark's own pod spec.
# --------------------------------------------------------------------- #
class PlanFabric(Workload):
    """``plan_fabric(spec, shards=2, launcher="subprocess")`` on pod.json.

    The variant is the spec's root seed; every device of a tier still
    searches with the same seed (replicas), which ``replica_ratio``
    reports.
    """

    ROOT = "fabric.plan"
    OP_S = 12.0
    variants = 4

    def setup(self) -> None:
        from repro.fabric import FabricSpec, plan_fabric

        with open(os.path.join(HERE, "pod.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["seed"] = self.variant
        self.spec = FabricSpec.from_dict(doc)
        self.plan_fabric = plan_fabric

    def operation(self):
        start = perf()
        with self.span(self.ROOT, root=True):
            plan = self.plan_fabric(self.spec, shards=2, launcher="subprocess")
        wall = perf() - start
        outputs = {
            "plan_sha256": sha256(plan.to_json().encode()),
            # Mean hardware F1 over the plan's (device, app) entries.
            "f1": statistics.fmean(e["objective"] for e in plan.devices),
        }
        return wall, outputs

    def layer_metrics(self, roll: dict, reps: int) -> dict:
        counts = self.tracer.counts

        def total(name):
            return self.per_rep(roll, name, "total_s", reps)

        units = counts.get("distrib.units", 0)
        self.counts["distrib.tasks"] = counts.get("distrib.tasks", 0) / reps
        return {
            "distrib.tasks": self.counts["distrib.tasks"],
            "distrib.retries": counts.get("distrib.retries", 0) / reps,
            "distrib.launch_s": total("distrib.launch"),
            "distrib.unit_compute_s":
                counts.get("distrib.unit_compute_s", 0) / reps,
            "distrib.task_overhead_s":
                counts.get("distrib.task_overhead_s", 0) / reps,
            "distrib.merge_s": total("distrib.merge"),
            "distrib.replica_ratio":
                counts.get("distrib.distinct_units", 0) / units if units else 0.0,
            "fabric.place_s": total("fabric.place"),
        }

    def instrument(self) -> None:
        """Wrap run_sharded's distrib calls and fabric's placement calls."""
        import repro.distrib.driver as driver
        import repro.fabric.planner as planner
        from repro.distrib.launchers import SubprocessLauncher

        tracer = self.tracer
        counts = tracer.counts

        def sharded(args, kwargs, result, seconds):
            faults = result.stats["fault_tolerance"]
            counts["distrib.tasks"] += faults["tasks"]
            counts["distrib.retries"] += faults["retries"]

        def planned(args, kwargs, result, seconds):
            # Replicas: units with the same (seed, dataset, family, start).
            models = args[0].models
            counts["distrib.units"] += len(result)
            counts["distrib.distinct_units"] += len({
                (models[u.model_index].seed,
                 json.dumps(models[u.model_index].dataset.to_dict(),
                            sort_keys=True), u.algorithm, u.start)
                for u in result})

        def launched(args, kwargs, result, seconds):
            # Worker compute the launch wall does not cover, with
            # ``width`` tasks running at once.
            width = kwargs.get("width", 1)
            compute = sum(getattr(r, "elapsed_s", 0.0) for r in result)
            counts["distrib.unit_compute_s"] += compute
            counts["distrib.task_overhead_s"] += seconds - compute / width

        tracer.patch(planner, "run_sharded", "distrib.run_sharded", sharded)
        tracer.patch(driver, "plan_units", "distrib.plan", planned)
        tracer.patch(driver, "plan_tasks", "distrib.plan")
        tracer.patch(driver, "merge_results", "distrib.merge")
        tracer.patch(SubprocessLauncher, "launch", "distrib.launch", launched)
        for name in ("placements_for", "tier_budget", "sum_usage",
                     "check_budget", "headroom"):
            tracer.patch(planner, name, "fabric.place")


# --------------------------------------------------------------------- #
# serve-botnet: the Taurus bd DNN behind one AsyncStreamEngine.
# --------------------------------------------------------------------- #
class LatencySink:
    """Engine ``capture`` hook: per-packet latency from due time.

    The engine records batches in arrival order, so the k-th captured
    row is the k-th packet sent, due at ``t0 + k / rate``.
    """

    def __init__(self, n: int, rate: float, clock) -> None:
        self.rate = float(rate)
        self.clock = clock
        self.t0 = 0.0
        self.latency = np.zeros(n)
        self.predictions = np.zeros(n, dtype=np.int64)
        self.seen = 0

    def observe_batch(self, rows, labels, predictions, times=None) -> None:
        now = self.clock.now()
        first, count = self.seen, len(predictions)
        due = self.t0 + np.arange(first, first + count) / self.rate
        self.latency[first:first + count] = now - due
        self.predictions[first:first + count] = predictions
        self.seen += count


class ServeBotnet(Workload):
    """Unpaced capacity, then open-loop phases at 10k and 25k pkt/s.

    The stream is ``generate_botnet_flows`` looped with timestamps
    shifted by the trace span each lap (as ``fabric.deploy`` loops
    traffic), so the stateful ``FlowmarkerTracker`` sees a monotonic
    stream.  Every phase serves the first packets of that looped
    stream through a fresh engine and tracker.
    """

    ROOT = "serving.process"
    OP_S = 0.5
    variants = 8
    FLOWS = 400
    UNPACED_PACKETS = 50_000
    PIN_PACKETS = 20_000          # predictions pinned per paced phase
    RATES = {"10k": 10_000, "25k": 25_000}
    WINDOW_S = 1.0
    DEADLINE_S = 2e-3
    BATCH = 256

    def setup(self) -> None:
        import dataclasses

        from repro.backends.taurus import TaurusBackend
        from repro.datasets import load_botnet
        from repro.datasets.botnet import flow_label, generate_botnet_flows
        from repro.eval.baselines import train_baseline_dnn
        from repro.ml.metrics import f1_score
        from repro.runtime import FlowmarkerTracker
        from repro.serving import AsyncStreamEngine

        self.f1_score = f1_score
        self.Engine, self.Tracker = AsyncStreamEngine, FlowmarkerTracker
        with self.span("datasets.load"):
            dataset = load_botnet(n_train_flows=150, n_test_flows=2,
                                  seed=13 + self.variant,
                                  per_packet_test=False)
        with self.span("ml.dnn_fit"):
            net, scaler = train_baseline_dnn("bd", dataset, seed=self.variant)
        with self.span("backends.lower"):
            self.pipeline = TaurusBackend().compile_model(
                net, scaler=scaler, name="bd")
        with self.span("datasets.load"):
            flows = generate_botnet_flows(self.FLOWS,
                                          seed=1234 + self.variant)
        tagged = sorted(
            ((packet.timestamp, index, packet, flow_label(flow))
             for index, flow in enumerate(flows) for packet in flow),
            key=lambda item: (item[0], item[1]))
        base = [item[2] for item in tagged]
        base_labels = [item[3] for item in tagged]
        lap_span = base[-1].timestamp - base[0].timestamp + 1.0
        needed = max([self.UNPACED_PACKETS] + [
            self.phase_packets(rate) for rate in self.RATES.values()
            if self.trace])
        self.packets, self.labels = [], []
        lap = 0
        while len(self.packets) < needed:
            shift = lap * lap_span
            self.packets.extend(
                dataclasses.replace(p, timestamp=p.timestamp + shift)
                if shift else p for p in base)
            self.labels.extend(base_labels)
            lap += 1

    def phase_packets(self, rate: int) -> int:
        # Two fifths of the run for each open-loop phase.
        return max(self.PIN_PACKETS, int(rate * 0.4 * self.seconds))

    def engine(self, deadline: "float | None", capture=None):
        # One inference thread: with the event loop's thread that is one
        # busy thread per vCPU of the 2-vCPU host; two inference threads
        # made the pass time measure the scheduler (NOTES.md).
        return self.Engine(
            self.pipeline, self.Tracker(max_conversations=4096),
            batch_size=self.BATCH, max_latency=deadline, queue_depth=1024,
            drop_policy="block", infer_workers=1, capture=capture)

    def digest(self, predictions) -> str:
        return sha256(np.asarray(predictions, dtype=np.int64).tobytes())

    def stats_ok(self, stats, sent: int) -> list:
        bad = []
        if stats.enqueued != stats.packets + stats.dropped:
            bad.append(f"enqueued {stats.enqueued} != packets "
                       f"{stats.packets} + dropped {stats.dropped}")
        if stats.dropped or stats.packets != sent:
            bad.append(f"served {stats.packets} of {sent}, "
                       f"dropped {stats.dropped}")
        return bad

    def operation(self):
        """One unpaced pass over a fixed packet count (size-only batches)."""
        n = self.UNPACED_PACKETS
        engine = self.engine(None)
        if self.tracer.enabled:
            engine.extractor.extract = self.tracer.wrap_interval(
                engine.extractor.extract, "runtime.extract")
        packets, labels = self.packets[:n], self.labels[:n]
        start = perf()
        with self.span(self.ROOT, root=True):
            predictions = engine.process(packets, labels)
        wall = perf() - start
        stats = engine.stats
        outputs = {
            "unpaced": self.digest(predictions),
            "batches": stats.batches,
            "f1": self.f1_score(labels, list(predictions)),
            "mean_batch": stats.mean_batch,
            "deadline_flushes": stats.deadline_flushes,
            "ingress_max_depth":
                stats.summary()["queue_max_depth"].get("ingress", 0),
            "faults": self.stats_ok(stats, n),
        }
        return wall, outputs

    def check(self, outputs: dict, expected: dict) -> list:
        # The open-loop phases' pins are checked by :meth:`measure`.
        unpaced = {key: want for key, want in expected.items()
                   if key not in self.RATES}
        return outputs["faults"] + super().check(outputs, unpaced)

    def paced(self, label: str, rate: int) -> dict:
        """One open-loop phase; latency is timed from each packet's due time."""
        import asyncio

        n = self.phase_packets(rate)
        sink = LatencySink(n, rate, None)
        engine = self.engine(self.DEADLINE_S, capture=sink)
        clock = sink.clock = engine.clock
        late = np.zeros(n)
        packets, labels = self.packets, self.labels

        async def source():
            # Bursts: at each wakeup, send everything that is due.
            t0 = sink.t0 = clock.now() + 0.01
            sent = 0
            while sent < n:
                now = clock.now()
                due_end = min(n, int((now - t0) * rate) + 1) if now >= t0 else 0
                if due_end <= sent:
                    await asyncio.sleep(t0 + sent / rate - now)
                    continue
                for k in range(sent, due_end):
                    late[k] = clock.now() - (t0 + k / rate)
                    yield packets[k], labels[k]
                sent = due_end

        asyncio.run(engine.run(source()))
        stats = engine.stats
        per_window = int(rate * self.WINDOW_S)
        windows = [sink.latency[i:i + per_window]
                   for i in range(0, n - per_window + 1, per_window)
                   ] or [sink.latency]
        faults = self.stats_ok(stats, n)
        if sink.seen != n:
            faults.append(f"captured {sink.seen} of {n} packets")
        return {
            "digest": self.digest(sink.predictions[:self.PIN_PACKETS]),
            "faults": faults,
            "samples": int(sink.seen),
            "p50_ms": float(np.percentile(sink.latency, 50)) * 1e3,
            "p99_ms": statistics.median(
                float(np.percentile(w, 99)) for w in windows) * 1e3,
            "late_p99_ms": float(np.percentile(late, 99)) * 1e3,
            "mean_batch": stats.mean_batch,
            "deadline_flush_ratio":
                stats.deadline_flushes / stats.batches if stats.batches else 0.0,
            "ingress_max_depth":
                stats.summary()["queue_max_depth"].get("ingress", 0),
            "dropped": stats.dropped,
        }

    def measure(self, seconds: float, trace: bool, expected) -> dict:
        # The untraced run measures capacity only.  The traced run gives
        # it two fifths of the time (six pairs of passes at 15 s) and runs
        # the open-loop phases, whose latencies are per-layer metrics.
        if not trace:
            return super().measure(seconds, trace, expected)
        result = super().measure(0.4 * seconds, trace, expected)
        if result["failed"] and not result["walls"]:
            return result
        self.phases = {}
        for label, rate in self.RATES.items():
            result["attempted"] += 1
            try:
                phase = self.paced(label, rate)
            except Exception as exc:  # reported as a failed phase
                traceback.print_exc()
                result["failed"] += 1
                result["errors"].append(
                    f"phase {label}: {type(exc).__name__}: {exc}")
                continue
            self.phases[label] = phase
            bad = list(phase["faults"])
            want = (expected or {}).get(label)
            if expected is not None and phase["digest"] != want:
                bad.append(f"{label} predictions {phase['digest']}, "
                           f"pinned {want}")
            if bad:
                result["failed"] += 1
                result["errors"].extend(f"phase {label}: {m}" for m in bad)
        return result

    def pins(self) -> dict:
        out = {key: self.last_outputs[key] for key in ("unpaced", "batches")}
        out.update({label: phase["digest"]
                    for label, phase in self.phases.items()})
        return out

    def layer_metrics(self, roll: dict, reps: int) -> dict:
        extract_s = self.per_rep(roll, "runtime.extract", "total_s", reps)
        extracts = self.per_rep(roll, "runtime.extract", "calls", reps)
        metrics = {
            "runtime.extract_s": extract_s,
            "runtime.extract_us_per_pkt":
                extract_s / extracts * 1e6 if extracts else 0.0,
            "backends.simulate_s":
                self.per_rep(roll, "backends.simulate", "total_s", reps),
            "backends.simulate_rows":
                self.tracer.counts.get("backends.rows", 0) / reps,
            "serving.batches": self.last_outputs["batches"],
            "serving.unpaced.mean_batch": self.last_outputs["mean_batch"],
            "serving.unpaced.deadline_flush_ratio":
                self.last_outputs["deadline_flushes"]
                / max(1, self.last_outputs["batches"]),
            "serving.unpaced.pps":
                self.UNPACED_PACKETS / statistics.median(self.walls),
            "serving.ingress_max_depth": max(
                [self.last_outputs["ingress_max_depth"]]
                + [p["ingress_max_depth"] for p in self.phases.values()]),
            "serving.dropped": sum(p["dropped"] for p in self.phases.values()),
            # The unpaced wall that neither extract nor predict covers
            # (the loop's iterations include its waits on predict).
            "serving.self_s": tracing.uncovered(
                self.tracer, ("runtime.extract", "backends.simulate")) / reps,
        }
        for label, phase in self.phases.items():
            metrics[f"serving.{label}.mean_batch"] = phase["mean_batch"]
            metrics[f"serving.{label}.deadline_flush_ratio"] = (
                phase["deadline_flush_ratio"])
            for key in ("p50_ms", "p99_ms", "samples", "late_p99_ms"):
                metrics[f"loadgen.{label}.{key}"] = phase[key]
        return metrics

    def instrument(self) -> None:
        """Wrap the pipeline's predict and the event loop's iterations.

        Every engine stage runs as asyncio tasks, so the loop's
        iterations (its I/O poll and the callbacks it runs, task steps
        included) are the serving layer's time on the loop thread;
        extract is wrapped per engine, inside them.
        """
        import asyncio.base_events

        tracer = self.tracer
        tracer.patch(asyncio.base_events.BaseEventLoop, "_run_once",
                     "serving.loop")

        def rows(args, kwargs, result, seconds):
            tracer.counts["backends.rows"] += len(args[0])

        self.pipeline.predict = tracer.wrap(
            self.pipeline.predict, "backends.simulate", rows)


WORKLOADS = {
    "compile-dnn": lambda *args: Compile(
        *args, app="ad", target="taurus", budget=8),
    # Not in BENCHMARK.json: its wall time was not steady within the
    # bound on a shared host (NOTES.md).  Run it with this script.
    "compile-mat": lambda *args: Compile(
        *args, app="bd", target="tofino", budget=20),
    "plan-fabric": PlanFabric,
    "serve-botnet": ServeBotnet,
}


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its children (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        per_layer = [m["name"] for m in json.load(handle)["per_layer"]]

    tracer = tracing.Tracer()
    trace = bool(args.trace) or args.print_pins
    work = WORKLOADS[args.workload](args.seed, args.seconds, trace, tracer)
    tracer.enabled = trace
    work.setup()
    tracer.enabled = False
    print("READY", flush=True)
    if args.setup_only:
        return 0
    print("host " + json.dumps(host_facts()), flush=True)
    setup_roll = tracing.rollup(tracer)
    tracer.reset()
    if trace:
        work.instrument()

    pinned = pins[args.workload]
    variant = str(work.variant)
    expected = None if args.print_pins else pinned["outputs"][variant]
    result = work.measure(args.seconds, trace, expected)
    work.walls = result["walls"]
    errors = result["errors"]
    print("walls " + json.dumps({"untraced": result["walls"],
                                 "traced": result["traced_walls"]}),
          flush=True)

    if args.print_pins:
        # layer_metrics fills work.counts, the counts expected.json pins.
        roll = tracing.rollup(tracer)
        work.layer_metrics(roll, max(1, len(result["traced_walls"])))
        print(json.dumps({"workload": args.workload, "variant": variant,
                          "outputs": work.pins(), "counts": work.counts,
                          "errors": errors}, sort_keys=True))
        return 0

    metrics: dict = {}
    if result["walls"]:
        metrics["wall_s"] = work.wall(result["walls"])
        metrics["f1"] = work.last_outputs["f1"]
    metrics["peak_rss_mb"] = peak_rss_mb()

    if trace and result["traced_walls"]:
        roll = tracing.rollup(tracer)
        traced = result["traced_walls"]
        layers = {name: 0.0 for name in per_layer}
        reported = work.layer_metrics(roll, len(traced))
        layers.update(reported)
        # Set-up calls (dataset loads, the serving baseline's training
        # and lowering) add to their layer's totals.
        for name, value in setup_roll["names"].items():
            layers[f"{name}_s"] += value["total_s"]
            if name.startswith("ml."):
                layers["ml.fit_calls"] += value["calls"]
        unknown = sorted(set(layers) - set(per_layer))
        if unknown:
            errors.append(f"metrics missing from BENCHMARK.json: {unknown}")
        own = roll["self"]
        root_layer = work.ROOT.split(".")[0]
        if f"{root_layer}.self_s" not in reported:
            layers[f"{root_layer}.self_s"] = (
                own.get(root_layer, 0.0) / len(traced))
        layers["trace.coverage"] = roll["coverage"]
        layers["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(result["walls"]) - 1.0
            if result["walls"] else 0.0)
        if layers["trace.coverage"] < 0.95:
            errors.append(f"wrapped calls cover {layers['trace.coverage']:.3f} "
                          "of the traced wall (< 0.95)")
        for name, want in pinned.get("counts", {}).get(variant, {}).items():
            if work.counts.get(name) != want:
                errors.append(f"count {name}: got {work.counts.get(name)}, "
                              f"pinned {want}")
        metrics.update(layers)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    failed = result["failed"]
    if errors and not failed:
        failed = 1
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    print("RESULT " + json.dumps({
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
