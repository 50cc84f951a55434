"""Serializable run descriptions for distributed search.

A :func:`repro.generate` call closes over live Python objects — model
specs wrap data-loader closures, platforms wrap backend instances — so a
run cannot be handed to another process (let alone another machine) as
is.  :class:`RunSpec` is the wire format that can: a plain-JSON
description of *what to search* (target platform, constraints, models,
budgets, seeds) from which any worker rebuilds the exact same
:class:`~repro.alchemy.platforms.PlatformSpec` and datasets.

Datasets travel by reference, not by value.  A :class:`DatasetRef` names
one of three reproducible sources:

* ``app`` — a registered loader (``ad``/``tc``/``bd``) plus its keyword
  arguments; the loaders are deterministic functions of their arguments,
  so every machine materializes identical arrays,
* ``csv`` — a train/test CSV pair on a shared filesystem (the paper's
  Figure-3 file format),
* ``npz`` — an array snapshot written by :func:`save_dataset_npz`; the
  escape hatch for synthetic or in-memory datasets.

Example::

    spec = RunSpec(
        target="tofino",
        models=[ModelEntry(name="tc", metric="f1",
                           algorithms=("decision_tree",),
                           dataset=DatasetRef.for_app("tc", seed=11))],
        budget=8, seed=0,
    )
    rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    platform = rebuilt.build_platform()     # ready for repro.generate
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.alchemy.dataloader import DataLoader
from repro.alchemy.model import SUPPORTED_METRICS, Model
from repro.alchemy.platforms import PlatformSpec
from repro.datasets import APPS, load_csv_dataset
from repro.datasets.base import Dataset
from repro.errors import SpecificationError

__all__ = [
    "APP_LOADERS",
    "DatasetRef",
    "ModelEntry",
    "RunSpec",
    "save_dataset_npz",
    "load_dataset_npz",
]

#: Registered named dataset loaders a :class:`DatasetRef` may point at
#: (the compile loaders of :data:`repro.datasets.APPS`).  Each is a
#: deterministic function of its keyword arguments.
APP_LOADERS = {key: app.loader for key, app in APPS.items()}


def save_dataset_npz(dataset: Dataset, path: str) -> str:
    """Snapshot a :class:`~repro.datasets.base.Dataset` to an ``.npz`` file.

    The inverse of :func:`load_dataset_npz`; metadata is stored as JSON.
    Used to ship synthetic/in-memory datasets to shard workers that
    cannot re-derive them from a loader name.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    np.savez(
        path,
        train_x=dataset.train_x,
        train_y=dataset.train_y,
        test_x=dataset.test_x,
        test_y=dataset.test_y,
        feature_names=np.array(list(dataset.feature_names), dtype=str),
        name=np.array(dataset.name),
        metadata=np.array(json.dumps(dataset.metadata, sort_keys=True)),
    )
    return path


def load_dataset_npz(path: str) -> Dataset:
    """Load a dataset snapshot written by :func:`save_dataset_npz`."""
    with np.load(path, allow_pickle=False) as doc:
        return Dataset(
            train_x=doc["train_x"],
            train_y=doc["train_y"],
            test_x=doc["test_x"],
            test_y=doc["test_y"],
            feature_names=tuple(str(n) for n in doc["feature_names"]),
            name=str(doc["name"]),
            metadata=json.loads(str(doc["metadata"])),
        )


@dataclass(frozen=True)
class DatasetRef:
    """A JSON-able pointer to a reproducible dataset source."""

    kind: str
    app: "str | None" = None
    kwargs: tuple = ()  # sorted (key, value) pairs, hashable for frozen use
    train: "str | None" = None
    test: "str | None" = None
    name: "str | None" = None
    path: "str | None" = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def for_app(app: str, **kwargs) -> "DatasetRef":
        """Reference a registered loader, e.g. ``DatasetRef.for_app("ad", seed=7)``."""
        if app not in APP_LOADERS:
            raise SpecificationError(
                f"unknown app {app!r}; registered: {sorted(APP_LOADERS)}"
            )
        return DatasetRef(kind="app", app=app, kwargs=tuple(sorted(kwargs.items())))

    @staticmethod
    def for_csv(train: str, test: str, name: str = "csv-dataset") -> "DatasetRef":
        return DatasetRef(kind="csv", train=train, test=test, name=name)

    @staticmethod
    def for_npz(path: str) -> "DatasetRef":
        return DatasetRef(kind="npz", path=path)

    @staticmethod
    def snapshot(dataset: Dataset, path: str) -> "DatasetRef":
        """Spill ``dataset`` to ``path`` and return the reference to it."""
        return DatasetRef.for_npz(save_dataset_npz(dataset, path))

    # -- materialization ----------------------------------------------------
    def materialize(self) -> Dataset:
        """Load the referenced dataset in this process."""
        if self.kind == "app":
            return APP_LOADERS[self.app](**dict(self.kwargs))
        if self.kind == "csv":
            return load_csv_dataset(self.train, self.test, name=self.name)
        if self.kind == "npz":
            return load_dataset_npz(self.path)
        raise SpecificationError(f"unknown DatasetRef kind {self.kind!r}")

    # -- wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        if self.kind == "app":
            return {"kind": "app", "app": self.app, "kwargs": dict(self.kwargs)}
        if self.kind == "csv":
            return {"kind": "csv", "train": self.train, "test": self.test,
                    "name": self.name}
        if self.kind == "npz":
            return {"kind": "npz", "path": self.path}
        raise SpecificationError(f"unknown DatasetRef kind {self.kind!r}")

    @staticmethod
    def from_dict(doc: dict) -> "DatasetRef":
        kind = doc.get("kind")
        if kind == "app":
            return DatasetRef.for_app(doc["app"], **doc.get("kwargs", {}))
        if kind == "csv":
            return DatasetRef.for_csv(doc["train"], doc["test"],
                                      name=doc.get("name", "csv-dataset"))
        if kind == "npz":
            return DatasetRef.for_npz(doc["path"])
        raise SpecificationError(f"unknown DatasetRef kind {kind!r}")


@dataclass
class ModelEntry:
    """One scheduled model of a distributable run.

    ``seed`` is an optional explicit model-search seed; when ``None`` the
    serial derivation applies (``model_search_seed(run.seed, index)``).
    Explicit seeds let callers reproduce searches that ran at a different
    model index — e.g. folding three single-model runs into one
    distributed run without changing any trajectory.
    """

    name: str
    dataset: DatasetRef
    metric: str = "f1"
    algorithms: tuple = ()
    throughput: "float | None" = None
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.metric not in SUPPORTED_METRICS:
            raise SpecificationError(
                f"unsupported metric {self.metric!r}; supported: {SUPPORTED_METRICS}"
            )
        self.algorithms = tuple(self.algorithms)

    def to_model(self, dataset: Dataset) -> Model:
        """Build the Alchemy :class:`~repro.alchemy.model.Model` spec."""

        @DataLoader
        def loader():
            return dataset

        return Model(
            name=self.name,
            optimization_metric=[self.metric],
            algorithm=list(self.algorithms),
            data_loader=loader,
            throughput=self.throughput,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dataset": self.dataset.to_dict(),
            "metric": self.metric,
            "algorithms": list(self.algorithms),
            "throughput": self.throughput,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ModelEntry":
        return ModelEntry(
            name=doc["name"],
            dataset=DatasetRef.from_dict(doc["dataset"]),
            metric=doc.get("metric", "f1"),
            algorithms=tuple(doc.get("algorithms", ())),
            throughput=doc.get("throughput"),
            seed=doc.get("seed"),
        )


@dataclass
class RunSpec:
    """Everything a shard worker needs to reproduce its slice of a search.

    The scalar knobs mirror :func:`repro.generate`; ``starts`` is the
    distributed extension — each (model, family) search is repeated with
    ``starts`` independently seeded multi-start trajectories, and the
    merge keeps the best.  ``n_workers``/``batch_size``/``executor``
    apply *within* each shard.

    Model fusion is deliberately unsupported: fusing crosses model
    boundaries, which is exactly the coupling sharding removes.
    """

    target: str
    models: list
    performance: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    budget: int = 20
    warmup: int = 5
    train_epochs: int = 30
    seed: int = 0
    starts: int = 1
    n_workers: int = 1
    batch_size: "int | None" = None
    cache_dir: "str | None" = None
    executor: str = "thread"

    def __post_init__(self) -> None:
        if not self.models:
            raise SpecificationError("RunSpec needs at least one model")
        names = [entry.name for entry in self.models]
        if len(names) != len(set(names)):
            raise SpecificationError(f"duplicate model names: {names}")
        if self.budget < 1:
            raise SpecificationError(f"budget must be >= 1, got {self.budget}")
        if self.starts < 1:
            raise SpecificationError(f"starts must be >= 1, got {self.starts}")
        if self.n_workers < 1:
            raise SpecificationError(f"n_workers must be >= 1, got {self.n_workers}")

    # -- reconstruction -----------------------------------------------------
    def build_platform(self, datasets: "dict | None" = None) -> PlatformSpec:
        """Rebuild the :class:`PlatformSpec` this spec describes.

        ``datasets`` optionally maps model index -> materialized
        :class:`Dataset` to avoid re-loading (workers memoize loads).
        Models are scheduled in list order, which is what aligns the
        serial ``generate`` model-seed derivation with shard planning.
        """
        platform = PlatformSpec(self.target)
        if self.performance:
            platform.constrain(performance=dict(self.performance))
        if self.resources:
            platform.constrain(resources=dict(self.resources))
        for index, entry in enumerate(self.models):
            dataset = (datasets or {}).get(index)
            if dataset is None:
                dataset = entry.dataset.materialize()
            platform.schedule(entry.to_model(dataset))
        return platform

    # -- wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "models": [entry.to_dict() for entry in self.models],
            "performance": dict(self.performance),
            "resources": dict(self.resources),
            "budget": self.budget,
            "warmup": self.warmup,
            "train_epochs": self.train_epochs,
            "seed": self.seed,
            "starts": self.starts,
            "n_workers": self.n_workers,
            "batch_size": self.batch_size,
            "cache_dir": self.cache_dir,
            "executor": self.executor,
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunSpec":
        return RunSpec(
            target=doc["target"],
            models=[ModelEntry.from_dict(m) for m in doc["models"]],
            performance=dict(doc.get("performance", {})),
            resources=dict(doc.get("resources", {})),
            budget=int(doc.get("budget", 20)),
            warmup=int(doc.get("warmup", 5)),
            train_epochs=int(doc.get("train_epochs", 30)),
            seed=int(doc.get("seed", 0)),
            starts=int(doc.get("starts", 1)),
            n_workers=int(doc.get("n_workers", 1)),
            batch_size=doc.get("batch_size"),
            cache_dir=doc.get("cache_dir"),
            executor=doc.get("executor", "thread"),
        )
