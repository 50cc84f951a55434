"""Exception hierarchy for the Homunculus reproduction.

All library-raised errors derive from :class:`HomunculusError` so callers can
catch one base type at the API boundary.
"""

from __future__ import annotations


class HomunculusError(Exception):
    """Base class for all errors raised by this library."""


class SpecificationError(HomunculusError):
    """An Alchemy program is malformed (bad model spec, loader, or schedule)."""


class ConstraintError(HomunculusError):
    """A platform or network constraint is malformed or unsatisfiable."""


class DesignSpaceError(HomunculusError):
    """A design-space definition is invalid (bad bounds, unknown parameter)."""


class InfeasibleError(HomunculusError):
    """No feasible model configuration exists within the search budget."""


class BackendError(HomunculusError):
    """A backend failed to generate or simulate code for a candidate model."""


class DatasetError(HomunculusError):
    """A dataset is malformed or a loader returned an unexpected structure."""


class TrainingError(HomunculusError):
    """Model training failed (e.g. divergence or shape mismatch)."""


class DistributionError(HomunculusError):
    """A distributed search shard failed, stalled, or returned bad results."""


class ControlError(HomunculusError):
    """A serving-fleet control-plane operation is invalid or failed."""


class AdaptationError(HomunculusError):
    """A drift detector or the retrain-and-redeploy loop cannot proceed."""


class NotServableError(ControlError):
    """A pipeline was trained on features no packet extractor derives,
    so it cannot serve a live packet stream."""


class DeployConflict(ControlError):
    """A fleet mutation raced a rollout already in progress (HTTP 409)."""


class FabricError(HomunculusError):
    """A fabric topology, traffic matrix, or deployment plan is invalid."""


class PlacementError(FabricError):
    """A placement exceeds a device budget; the message names the device
    and the exhausted resource."""
