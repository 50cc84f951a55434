"""Deploy a fabric plan onto a serving fleet, tier by tier.

The deploy path closes the loop the planner opened: every (device, app)
entry of a :class:`~repro.fabric.planner.FabricPlan` is deterministically
rebuilt into a servable pipeline (:func:`rebuild_plan_pipelines` — same
seed, same config, bit-identical weights to what the plan scored), one
:class:`~repro.control.FleetWorker` is stood up per placement, and
:func:`deploy_plan` rolls the plan out **per tier, bottom-up** through
the existing :class:`~repro.control.FleetController` regression gate —
leaves first, then spine, then core, the order a real fabric upgrade
walks so a bad build is caught at the smallest blast radius.

The rollout inherits the controller's guarantees: hitless per-worker
swap, drain of the displaced pipeline, gate verdict on fresh
micro-batches, rollback + abort on regression.  On top of those,
:func:`deploy_plan`'s report asserts the two fabric gates CI checks:
**zero drops** (lossless engines, lossless swaps) and **conservation**
(``enqueued == packets + dropped`` on every worker — nothing lost in
flight), judged by the shared :class:`~repro.control.harness.Fleet`
summary.
"""

from __future__ import annotations

import asyncio

from repro.alchemy.platforms import PlatformSpec
from repro.control import RegressionGate
from repro.control.harness import (
    Fleet,
    extractor_for,
    looping_traffic,
    wait_for_batches,
)
from repro.core.evaluator import ModelEvaluator
from repro.distrib.runspec import ModelEntry
from repro.errors import FabricError, NotServableError
from repro.fabric.planner import FabricPlan, FabricSpec
from repro.obs import get_registry, get_tracer

__all__ = [
    "extractor_for",
    "rebuild_plan_pipelines",
    "deploy_plan",
]

#: Gate used when the caller passes none: generous latency bounds (the
#: plan pipeline replaces an identical twin, so only real regressions —
#: drops, death, dried-up traffic — should abort), quick settle.
_DEFAULT_GATE = dict(latency_factor=10.0, latency_floor_s=5e-2,
                     drop_margin=0.5, min_batches=2, settle_s=10.0)


def _plan_datasets(plan: FabricPlan, spec: FabricSpec) -> dict:
    """Materialize the dataset of every app the plan places, by app name."""
    apps = {app.name: app for app in spec.apps}
    return {name: apps[name].dataset.materialize()
            for name in sorted({entry["app"] for entry in plan.devices})}


def rebuild_plan_pipelines(plan: FabricPlan,
                           datasets: "dict | None" = None) -> dict:
    """Rebuild one servable pipeline per unique (tier, app) placement.

    Devices of a tier are interchangeable replicas (same seed, same
    winning config), so one rebuild per (tier, app) serves every device
    of the tier.  The rebuild is the merge layer's rule —
    :meth:`ModelEvaluator.rebuild` under the entry's recorded seed —
    so the deployed pipeline is bit-identical to what the plan scored.
    ``datasets`` (app name -> materialized dataset) skips re-loading.
    Returns ``{"tier:app": pipeline}``.
    """
    spec = FabricSpec.from_dict(plan.spec)
    apps = {app.name: app for app in spec.apps}
    if datasets is None:
        datasets = _plan_datasets(plan, spec)
    pipelines: dict = {}
    for entry in plan.devices:
        key = f"{entry['tier']}:{entry['app']}"
        if key in pipelines:
            continue
        app = apps[entry["app"]]
        dataset = datasets[app.name]
        tier = spec.topology.tier(entry["tier"])
        platform = PlatformSpec(entry["target"])
        if tier.resources:
            platform.constrain(resources=dict(tier.resources))
        model_entry = ModelEntry(
            name=key, dataset=app.dataset, metric=app.metric,
            algorithms=app.algorithms, throughput=app.throughput,
            seed=entry["seed"],
        )
        evaluator = ModelEvaluator(
            model_entry.to_model(dataset), dataset, entry["algorithm"],
            platform.backend(), platform.constraints(),
            seed=int(entry["seed"]), train_epochs=spec.train_epochs,
        )
        _, pipeline, _ = evaluator.rebuild(dict(entry["best_config"]))
        pipelines[key] = pipeline
    return pipelines


def deploy_plan(
    plan: FabricPlan,
    packets: list,
    gate: "RegressionGate | None" = None,
    rate: float = 4000.0,
    batch_size: int = 32,
    queue_depth: int = 4096,
    warm_s: float = 20.0,
) -> dict:
    """Roll a fabric plan onto a live fleet; return the rollout report.

    One worker per (device, app) placement, bootstrapped at ``v0``
    serving its rebuilt plan pipeline and fed ``packets`` in a loop at
    ``rate`` packets/s.  Each worker's extractor follows the features
    its app was trained on (:func:`extractor_for`); an app whose
    features no packet extractor derives is refused before anything is
    rebuilt.  The rollout then walks switch tiers bottom-up,
    deploying version ``plan-<tier>-<app>`` to each tier's workers
    through the regression gate; any aborted tier stops the rollout
    (upper tiers stay on ``v0``) and the report says which gate fired.

    Report keys: ``ok``, ``tiers`` (per-tier per-app controller
    reports), ``workers`` (per-worker counters and version), ``dropped``
    (fabric-total, the zero-drop gate), ``conserved`` (``enqueued ==
    packets + dropped`` on every worker, the conservation gate),
    ``lossless`` (zero drops, conserved, and no worker died).
    """
    if not packets:
        raise FabricError("deploy_plan needs a packet trace")
    gate = gate if gate is not None else RegressionGate(**_DEFAULT_GATE)
    spec = FabricSpec.from_dict(plan.spec)
    datasets = _plan_datasets(plan, spec)
    for name, dataset in datasets.items():
        try:
            extractor_for(dataset)
        except NotServableError as exc:
            raise FabricError(f"app {name!r}: {exc}") from exc
    pipelines = rebuild_plan_pipelines(plan, datasets)
    tracer = get_tracer()
    outcome = "ok"
    try:
        with tracer.span("fabric.deploy", placements=len(plan.devices)):
            report = asyncio.run(
                _deploy(plan, spec, pipelines, datasets, packets, gate,
                        rate, batch_size, queue_depth, warm_s))
        if not report["ok"]:
            outcome = "aborted"
        return report
    except Exception:
        outcome = "error"
        raise
    finally:
        get_registry().counter(
            "repro_fabric_deploys_total",
            help="fabric plan rollouts by outcome",
            labels=("outcome",),
        ).labels(outcome=outcome).inc()


async def _deploy(plan, spec, pipelines, datasets, packets, gate, rate,
                  batch_size, queue_depth, warm_s) -> dict:
    from repro.serving import AsyncStreamEngine

    fleet = Fleet({
        f"{entry['device']}:{entry['app']}": AsyncStreamEngine(
            pipelines[f"{entry['tier']}:{entry['app']}"],
            extractor_for(datasets[entry["app"]]),
            batch_size=batch_size, queue_depth=queue_depth,
            drop_policy="block",
        )
        for entry in plan.devices
    }, gate=gate)
    for key, pipeline in pipelines.items():
        tier, _, app = key.partition(":")
        fleet.controller.register_pipeline(f"plan-{tier}-{app}", pipeline)
    fleet.start(lambda stop: looping_traffic(packets, None, stop, rate))
    report = {"ok": True, "tiers": {}}
    try:
        await wait_for_batches(fleet.workers, gate.min_batches, warm_s)
        for tier in spec.topology.switch_tiers():
            tier_apps = sorted({
                e["app"] for e in plan.devices if e["tier"] == tier.tier})
            for app in tier_apps:
                names = [f"{e['device']}:{e['app']}"
                         for e in plan.devices
                         if e["tier"] == tier.tier and e["app"] == app]
                rollout = await fleet.controller.deploy(
                    f"plan-{tier.tier}-{app}", workers=names)
                report["tiers"].setdefault(tier.tier, {})[app] = {
                    k: rollout[k] for k in
                    ("version", "ok", "aborted_at", "reason",
                     "upgraded", "rolled_back")
                }
                if not rollout["ok"]:
                    report["ok"] = False
                    break
            if not report["ok"]:
                break
    finally:
        await fleet.stop()
    summary = fleet.summary()
    report.update({key: summary[key] for key in
                   ("workers", "dropped", "conserved", "lossless")})
    return report
