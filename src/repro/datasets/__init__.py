"""Synthetic datasets standing in for the paper's proprietary/remote data.

* :mod:`repro.datasets.nslkdd` — intrusion-detection records (the NSL-KDD
  substitute) for the anomaly-detection application,
* :mod:`repro.datasets.iot` — IoT device traffic for traffic classification,
* :mod:`repro.datasets.botnet` — P2P botnet vs benign flows with FlowLens
  flowmarkers for botnet detection,
* :mod:`repro.datasets.loaders` — CSV round-trip helpers compatible with the
  Alchemy ``@DataLoader`` contract.

Every generator takes an explicit seed, so the whole evaluation is
reproducible bit-for-bit.  :data:`APPS` is the one table of the three
built-in applications.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.datasets.base import Dataset
from repro.datasets.botnet import (
    BENIGN_PROFILES,
    BOTNET_PROFILES,
    generate_botnet_flows,
    load_botnet,
    load_botnet_packets,
    partial_marker_dataset,
)
from repro.datasets.iot import IOT_PROFILES, load_iot
from repro.datasets.loaders import load_csv_dataset, save_csv_dataset
from repro.datasets.nslkdd import load_nslkdd


@dataclass(frozen=True)
class App:
    """One built-in application.  ``seed_offset`` keeps each app's data
    independent for one run seed; ``loader`` builds the compile dataset,
    ``serving_loader`` the dataset its baseline serving pipeline trains
    on; ``stream_labeled``: the botnet replay carries its ground truth."""

    model_name: str
    seed_offset: int
    loader: Callable
    serving_loader: Callable
    stream_labeled: bool

    def load(self, seed: int, **kwargs) -> Dataset:
        """The compile dataset for run seed ``seed``."""
        return self.loader(seed=seed + self.seed_offset, **kwargs)

    def serving_dataset(self, seed: int) -> Dataset:
        """The baseline serving dataset for run seed ``seed``."""
        return self.serving_loader(seed=seed + self.seed_offset)


#: app key -> :class:`App`.  ``ad`` compiles on NSL-KDD connection
#: records but serves on per-packet features of the botnet stream.
APPS = {
    "ad": App("anomaly_detection", 7, load_nslkdd,
              partial(load_botnet_packets, 150, 40), stream_labeled=True),
    "tc": App("traffic_classification", 11, load_iot, load_iot,
              stream_labeled=False),
    "bd": App("botnet_detection", 13, load_botnet,
              partial(load_botnet, n_train_flows=150, n_test_flows=2,
                      per_packet_test=False),
              stream_labeled=True),
}

__all__ = [
    "APPS",
    "App",
    "Dataset",
    "load_nslkdd",
    "load_iot",
    "IOT_PROFILES",
    "load_botnet",
    "load_botnet_packets",
    "generate_botnet_flows",
    "partial_marker_dataset",
    "BOTNET_PROFILES",
    "BENIGN_PROFILES",
    "load_csv_dataset",
    "save_csv_dataset",
]
