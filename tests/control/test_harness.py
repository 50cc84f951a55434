"""The shared fleet harness: trace, traffic, extractor choice, fleet."""

import asyncio

import numpy as np
import pytest

from repro.control.harness import (
    Fleet,
    build_trace,
    extractor_for,
    looping_traffic,
    wait_for_batches,
)
from repro.datasets.base import Dataset
from repro.datasets.botnet import generate_botnet_flows
from repro.errors import ControlError, NotServableError
from repro.netsim.features import PACKET_FEATURE_NAMES
from repro.runtime import PacketFeatureExtractor
from repro.serving import AsyncStreamEngine


class _ConstantPipeline:
    def predict(self, rows):
        return np.zeros(len(rows), dtype=int)


def _trace(n_flows=6, seed=3):
    return build_trace(generate_botnet_flows(n_flows, seed=seed))


def _collect(packets, labels, n, rate=50000.0):
    async def run():
        stop = asyncio.Event()
        seen = []
        async for item in looping_traffic(packets, labels, stop, rate):
            seen.append(item)
            if len(seen) == n:
                stop.set()
        return seen

    return asyncio.run(run())


class TestBuildTrace:
    def test_sorted_and_labeled_per_flow(self):
        flows = generate_botnet_flows(6, seed=3)
        packets, labels = build_trace(flows)
        assert len(packets) == len(labels) == sum(len(f) for f in flows)
        stamps = [p.timestamp for p in packets]
        assert stamps == sorted(stamps)
        assert set(labels) <= {0, 1}


class TestLoopingTraffic:
    def test_laps_shift_timestamps_monotonically(self):
        packets, labels = _trace()
        seen = _collect(packets, labels, 3 * len(packets))
        stamps = [p.timestamp for p, _ in seen]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))
        assert [label for _, label in seen] == labels * 3

    def test_unlabeled_trace_yields_none(self):
        packets, _ = _trace()
        seen = _collect(packets, None, len(packets) + 1)
        assert {label for _, label in seen} == {None}

    def test_empty_trace_and_bad_rate_rejected(self):
        packets, labels = _trace()
        with pytest.raises(ControlError, match="non-empty"):
            _collect([], [], 1)
        with pytest.raises(ControlError, match="rate"):
            _collect(packets, labels, 1, rate=0.0)


class TestExtractorForByFeatures:
    def test_packet_features_by_name_not_by_app(self):
        dataset = Dataset(np.zeros((4, 7)), np.array([0, 1, 0, 1]),
                          np.zeros((2, 7)), np.array([0, 1]),
                          feature_names=PACKET_FEATURE_NAMES,
                          name="captured")
        assert isinstance(extractor_for(dataset), PacketFeatureExtractor)

    def test_a_feature_subset_is_not_servable(self):
        dataset = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                          np.zeros((2, 2)), np.array([0, 1]),
                          feature_names=("size", "protocol"), name="pruned")
        with pytest.raises(NotServableError, match="'pruned'"):
            extractor_for(dataset)


class TestFleet:
    def _engines(self, n=2):
        return {f"w{i}": AsyncStreamEngine(
                    _ConstantPipeline(), PacketFeatureExtractor(),
                    batch_size=8, drop_policy="block")
                for i in range(n)}

    def test_healthy_fleet_is_lossless(self):
        packets, labels = _trace()

        async def run():
            fleet = Fleet(self._engines())
            fleet.start(lambda stop: looping_traffic(packets, labels, stop,
                                                     20000.0))
            await wait_for_batches(fleet.workers, 3, timeout_s=10.0)
            dead = await fleet.stop()
            return fleet, dead

        fleet, dead = asyncio.run(run())
        assert dead == {}
        summary = fleet.summary()
        assert summary["lossless"] and summary["conserved"]
        assert summary["dead"] == [] and summary["dropped"] == 0
        assert set(summary["workers"]) == {"w0", "w1"}
        for doc in summary["workers"].values():
            assert doc["version"] == "v0" and doc["batches"] >= 3
            assert doc["enqueued"] == doc["packets"] > 0

    def test_dead_worker_is_reported(self):
        packets, labels = _trace()

        async def broken(stop):
            yield packets[0], labels[0]
            raise RuntimeError("source failed")

        async def run():
            fleet = Fleet(self._engines())
            fleet.start(broken)
            await asyncio.sleep(0.05)
            return fleet, await fleet.stop()

        fleet, dead = asyncio.run(run())
        assert sorted(dead) == ["w0", "w1"]
        assert all(isinstance(exc, RuntimeError) for exc in dead.values())
        summary = fleet.summary()
        assert summary["dead"] == ["w0", "w1"]
        assert not summary["lossless"]
