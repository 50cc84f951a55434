"""The fleet harness every serving entry point shares: trace building,
extractor choice, paced looping traffic, and N engines under one
:class:`~repro.control.FleetController` with a drop/conservation verdict
(see ``docs/control.md``).
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.control.controller import FleetController, FleetWorker
from repro.datasets import APPS
from repro.datasets.botnet import flow_label
from repro.errors import ControlError, NotServableError
from repro.netsim.features import PACKET_FEATURE_NAMES
from repro.netsim.flowmarker import PAPER_SPEC

__all__ = [
    "Fleet",
    "baseline_pipeline",
    "build_trace",
    "extractor_for",
    "looping_traffic",
    "wait_for_batches",
]


def build_trace(flows) -> tuple:
    """Timestamp-sorted ``(packets, labels)`` of flows, each label the
    packet's flow's botnet/benign :func:`~repro.datasets.botnet.flow_label`
    (equal timestamps keep flow order)."""
    tagged = sorted(((p, flow_label(f)) for f in flows for p in f),
                    key=lambda item: item[0].timestamp)
    return [p for p, _ in tagged], [label for _, label in tagged]


def extractor_for(dataset):
    """A fresh extractor for the features ``dataset`` was trained on.

    Per-packet header features get a
    :class:`~repro.runtime.PacketFeatureExtractor`, flowmarker bins the
    stateful :class:`~repro.runtime.FlowmarkerTracker`; anything else
    (NSL-KDD records, say) raises :class:`~repro.errors.NotServableError`.
    """
    from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor

    names = tuple(dataset.feature_names)
    if names == PACKET_FEATURE_NAMES:
        return PacketFeatureExtractor()
    if names == PAPER_SPEC.feature_names:
        return FlowmarkerTracker(max_conversations=4096)
    raise NotServableError(
        f"dataset {dataset.name!r} is not packet-servable: its features "
        f"({', '.join(names[:4])}{', ...' if len(names) > 4 else ''}) are "
        f"neither per-packet header features nor flowmarker bins"
    )


def baseline_pipeline(app: str, seed: int):
    """Train an app's baseline DNN on its serving dataset and compile it
    for Taurus; returns ``(pipeline, dataset)`` (the dataset picks the
    extractor)."""
    from repro.backends.taurus import TaurusBackend
    from repro.eval.baselines import train_baseline_dnn

    dataset = APPS[app].serving_dataset(seed)
    net, scaler = train_baseline_dnn(app, dataset, seed=seed)
    pipeline = TaurusBackend().compile_model(net, scaler=scaler, name=app)
    return pipeline, dataset


async def looping_traffic(packets: list, labels: "list | None",
                          stop: asyncio.Event, rate: float):
    """Loop a trace as ``(packet, label)`` at ``rate`` packets/s until
    ``stop`` is set (``labels=None``: unlabeled).

    One sleep per ``rate / 100`` packets paces it without a per-packet
    timer; each lap shifts timestamps by the trace span plus one second,
    so stateful extractors see a monotonic stream.
    """
    if not packets:
        raise ControlError("looping traffic needs a non-empty trace")
    if rate <= 0:
        raise ControlError(f"rate must be > 0, got {rate}")
    if labels is None:
        labels = [None] * len(packets)
    span = (packets[-1].timestamp - packets[0].timestamp + 1.0
            if len(packets) > 1 else 1.0)
    chunk = max(1, int(rate // 100))
    pause = chunk / rate
    lap = 0
    while not stop.is_set():
        shift = lap * span
        for sent, (packet, label) in enumerate(zip(packets, labels), 1):
            if stop.is_set():
                return
            if shift:
                packet = dataclasses.replace(
                    packet, timestamp=packet.timestamp + shift)
            yield packet, label
            if sent % chunk == 0:
                await asyncio.sleep(pause)
        lap += 1


async def wait_for_batches(workers: list, min_batches: int,
                           timeout_s: float) -> None:
    """Wait (at most ``timeout_s``) until every engine has served
    ``min_batches`` micro-batches, so the regression gate has a pre-swap
    window; a worker that never fills is left for the gate to report."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if all(w.engine.stats.batches >= min_batches for w in workers):
            return
        await asyncio.sleep(0.05)


class Fleet:
    """N named engines (``engines``: name -> engine, in fleet order)
    under one :class:`FleetController`, every worker starting on ``v0``.

    Example::

        fleet = Fleet({"w0": engine0, "w1": engine1}, gate=gate)
        fleet.start(lambda stop: looping_traffic(packets, labels, stop, 4e3))
        ...                          # deploy through fleet.controller
        dead = await fleet.stop()    # {name: exception}
        assert fleet.summary()["lossless"]
    """

    def __init__(self, engines: dict, gate=None) -> None:
        self.workers = [FleetWorker(name, engine, version="v0")
                        for name, engine in engines.items()]
        self.controller = FleetController(self.workers, gate=gate)
        self.stop_event = asyncio.Event()
        self.dead: dict = {}

    def start(self, traffic) -> None:
        """Run each engine on its own ``traffic(stop_event)`` source."""
        for worker in self.workers:
            worker.attach(asyncio.create_task(
                worker.engine.run(traffic(self.stop_event)),
                name=f"fleet-{worker.name}",
            ))

    async def stop(self) -> dict:
        """End the traffic and drain the engines; returns (and keeps in
        ``dead``) ``{name: exception}`` of the workers that died."""
        self.stop_event.set()
        running = [w for w in self.workers if w.task is not None]
        results = await asyncio.gather(*(w.task for w in running),
                                       return_exceptions=True)
        self.dead = {w.name: result for w, result in zip(running, results)
                     if isinstance(result, BaseException)}
        return self.dead

    def summary(self) -> dict:
        """The drop/conservation verdict every entry point exits on.

        ``workers[name]`` is the engine's counters plus ``version`` and
        ``conserved`` (``enqueued == packets + dropped``); ``dead``,
        ``dropped`` and ``conserved`` cover the fleet, and ``lossless``
        means nobody died, everything conserved and nothing dropped.
        """
        workers = {}
        for w in self.workers:
            c = w.engine.stats.counters()
            workers[w.name] = dict(
                c, version=w.version,
                conserved=c["enqueued"] == c["packets"] + c["dropped"])
        dropped = sum(doc["dropped"] for doc in workers.values())
        conserved = all(doc["conserved"] for doc in workers.values())
        return {"workers": workers, "dead": sorted(self.dead),
                "dropped": dropped, "conserved": conserved,
                "lossless": not self.dead and conserved and dropped == 0}
