"""Deploying a plan: extractor matching, rebuilds, gated rollout."""

import json
import os

import pytest

from repro.datasets import load_botnet, load_iot, load_nslkdd
from repro.datasets.botnet import generate_botnet_flows
from repro.distrib.runspec import DatasetRef
from repro.errors import FabricError, NotServableError
from repro.fabric import (
    FabricApp,
    FabricPlan,
    FabricSpec,
    deploy_plan,
    extractor_for,
    plan_fabric,
    rebuild_plan_pipelines,
)
from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor

POD_SPEC = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "fabric_pod.json")


class TestExtractorFor:
    """The extractor follows the features a pipeline was trained on."""

    def test_bd_gets_the_stateful_flow_tracker(self):
        dataset = load_botnet(n_train_flows=10, n_test_flows=2, seed=13)
        assert isinstance(extractor_for(dataset), FlowmarkerTracker)

    def test_tc_gets_per_packet_features(self):
        dataset = load_iot(n_train=40, n_test=20, seed=11)
        assert isinstance(extractor_for(dataset), PacketFeatureExtractor)

    def test_ad_is_not_packet_servable(self):
        dataset = load_nslkdd(n_train=40, n_test=20, seed=7)
        with pytest.raises(NotServableError, match="not packet-servable"):
            extractor_for(dataset)


@pytest.fixture(scope="module")
def plan(leaf_spec):
    return plan_fabric(leaf_spec)


@pytest.fixture(scope="module")
def packets():
    flows = generate_botnet_flows(30, seed=1234)
    return sorted((p for f in flows for p in f), key=lambda p: p.timestamp)


class TestRebuild:
    def test_one_pipeline_per_tier_app(self, plan):
        pipelines = rebuild_plan_pipelines(plan)
        assert set(pipelines) == {"leaf:tc"}
        assert hasattr(pipelines["leaf:tc"], "predict")

    def test_rebuild_is_deterministic(self, plan, leaf_spec):
        import numpy as np

        dataset = leaf_spec.apps[0].dataset.materialize()
        first = rebuild_plan_pipelines(plan)["leaf:tc"]
        second = rebuild_plan_pipelines(plan)["leaf:tc"]
        preds_a = first.predict(dataset.test_x)
        preds_b = second.predict(dataset.test_x)
        assert np.array_equal(preds_a, preds_b)


class TestDeployPlan:
    def test_empty_trace_rejected(self, plan):
        with pytest.raises(FabricError, match="packet trace"):
            deploy_plan(plan, [])

    def test_rollout_upgrades_every_worker_losslessly(self, plan, packets):
        report = deploy_plan(plan, packets, rate=6000.0)
        assert report["ok"], report["tiers"]
        assert report["dropped"] == 0
        assert report["conserved"]
        assert set(report["workers"]) == {"leaf0:tc", "leaf1:tc"}
        for doc in report["workers"].values():
            assert doc["version"] == "plan-leaf-tc"
            assert doc["swaps"] == 1
            assert doc["packets"] > 0

    def test_unservable_app_in_plan_fails_loudly(self, plan):
        # An 'ad' placement cannot be rebuilt into a packet pipeline.
        doctored = FabricPlan.from_dict(plan.to_dict())
        doctored.devices[0]["app"] = "ad"
        with pytest.raises((FabricError, KeyError)):
            deploy_plan(doctored, [object()])


class TestServabilityByTrainedFeatures:
    """Servability follows the dataset, not the spec's free-form app name."""

    def test_renamed_botnet_app_deploys(self, packets):
        with open(POD_SPEC, encoding="utf-8") as handle:
            doc = json.load(handle)
        for entry in doc["apps"] + doc["traffic"]["demands"]:
            if entry.get("name", entry.get("app")) == "bd":
                entry["name" if "name" in entry else "app"] = "botnet"
        plan = plan_fabric(FabricSpec.from_dict(doc))
        assert len(plan.devices) == 3
        assert {e["app"] for e in plan.devices} == {"botnet", "tc"}
        report = deploy_plan(plan, packets, rate=6000.0)
        assert report["ok"], report["tiers"]
        assert report["dropped"] == 0
        assert report["conserved"] and report["lossless"]
        for doc in report["workers"].values():
            assert doc["enqueued"] == doc["packets"] + doc["dropped"]
            assert doc["version"].startswith("plan-")

    def test_nslkdd_app_is_refused(self, make_leaf_spec, packets):
        spec = make_leaf_spec()
        spec.apps = [FabricApp(
            "tc",  # a packet app's name does not make NSL-KDD servable
            DatasetRef.for_app("ad", n_train=120, n_test=40, seed=7),
            algorithms=("decision_tree",), tiers=("leaf",),
        )]
        plan = plan_fabric(spec)
        with pytest.raises(FabricError, match="not packet-servable"):
            deploy_plan(plan, packets)
