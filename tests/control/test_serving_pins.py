"""SHA-256 pins on the serving side's deterministic outputs.

The digests were computed from the per-entry-point code that the fleet
harness and the app table replaced (``cli serve``'s route builder and
packet dataset, ``bench_control``'s trace and looping source, the drift
scenario's own flow generator).  A change to trace building, lap
shifting, a baseline serving dataset, baseline training or extractor
choice changes a digest here.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.control.harness import (
    baseline_pipeline,
    build_trace,
    extractor_for,
    looping_traffic,
)
from repro.datasets import APPS
from repro.datasets.botnet import generate_botnet_flows
from repro.drift.scenario import PHASE_PRE, PHASE_SHIFTED, phase_trace


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode() + str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


SERVING_DATASETS = {
    "ad": "9da465ac0c87bccd5e21b262a6a1c173ccba6e60a9a592b8966a90be7caf3ea0",
    "tc": "907f528decaf9db065da3e8a61c9d68b3147f1b54e6f2c6ce7c1856a9200c9ef",
    "bd": "9798dd7351f9519e5dee99b28711e46b7355c573b616b6fa06f50d494f02f852",
}

#: Predictions of each ``cli serve`` baseline pipeline (seed 0) over the
#: timestamp-sorted packets of ``generate_botnet_flows(20, seed=1234)``.
SERVE_PREDICTIONS = {
    "ad": "86575b48c850f2cbb4934c018fa92c2522abccf3bf220b0fae0f6e3945819fb9",
    "tc": "e01b9150cade731770dc869c8d735c032e368f6c1b98da5752bffb9f82d53468",
    "bd": "f53093c6296da2c780852df9e45bb765d7a488b68ec1d05297e3130086824a13",
}

PHASE_TRACES = {
    (PHASE_PRE, 114): "da45fec0517f6cf836e1fa5cf62cca6726302a80b04612e9ead03fce0bc74a71",
    (PHASE_SHIFTED, 215): "ac1bf03ab3d458f7ebfb5a5d84f39be52f2f0372c53ab2c66f8812314a5c8dcd",
}

#: The first two laps of ``(timestamp, label)`` from the looping source
#: over ``build_trace(generate_botnet_flows(10, seed=99))``.
TWO_LAPS = "88e7586eed4706f87b30c7d069150924d30ce4cbd2fd37b448c6d26e8255d6ca"


@pytest.mark.parametrize("app", sorted(SERVING_DATASETS))
def test_serving_dataset_pinned(app):
    dataset = APPS[app].serving_dataset(0)
    digest = _digest(dataset.train_x, dataset.train_y,
                     dataset.test_x, dataset.test_y)
    assert digest == SERVING_DATASETS[app]


@pytest.mark.parametrize("app", sorted(SERVE_PREDICTIONS))
def test_serve_baseline_predictions_pinned(app):
    packets, _ = build_trace(generate_botnet_flows(20, seed=1234))
    assert len(packets) == 417
    pipeline, dataset = baseline_pipeline(app, 0)
    extractor = extractor_for(dataset)
    rows = np.stack([extractor.extract(p) for p in packets])
    predictions = np.asarray(pipeline.predict(rows)).astype(np.int64)
    assert len(np.unique(predictions)) > 1  # a constant output pins nothing
    assert _digest(predictions) == SERVE_PREDICTIONS[app]


@pytest.mark.parametrize("phase,seed", sorted(PHASE_TRACES))
def test_phase_trace_pinned(phase, seed):
    packets, labels = phase_trace(20, phase, seed=seed)
    digest = _digest(
        np.array([p.timestamp for p in packets]),
        np.array([p.size for p in packets]),
        np.array([p.dst_port for p in packets]),
        np.array([p.protocol for p in packets]),
        np.array(labels, dtype=np.int64),
    )
    assert digest == PHASE_TRACES[(phase, seed)]


def test_two_laps_of_looping_traffic_pinned():
    packets, labels = build_trace(generate_botnet_flows(10, seed=99))
    assert len(packets) == 149

    async def two_laps():
        stop = asyncio.Event()
        seen = []
        async for packet, label in looping_traffic(packets, labels, stop,
                                                   rate=20000.0):
            seen.append((packet.timestamp, label))
            if len(seen) == 2 * len(packets):
                stop.set()
        return seen

    seen = asyncio.run(two_laps())
    assert len(seen) == 2 * len(packets)
    assert _digest(np.array([t for t, _ in seen]),
                   np.array([label for _, label in seen],
                            dtype=np.int64)) == TWO_LAPS
