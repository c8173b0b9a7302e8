"""Sample weight computation for pre-processing bias mitigation.

Given a partition of the training rows into groups and binary labels, each
(group, label) cell's weights are rescaled so that group membership and
label become statistically independent under the weighted distribution:

    w'_i = w_i * (mass(label d) * mass(group g)) / (total mass * mass(cell g,d))

for row i in group g with label d, masses being prior-weight sums.  Summed
over cells this conserves total mass exactly, and every group's weighted
favorable rate afterwards equals the global favorable rate.

Three partitions are offered: a single attribute's two groups, a fold of
single-attribute passes (each pass consuming the previous pass's weights),
and the simultaneous multi-attribute partition by sensitivity level, where
a row's level is the sum of per-attribute level weights over the
attributes on whose unprivileged side it falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import GroupAssignment, _read_only
from .errors import ConfigError, DataError, UnreachableCellError, check_fields


@dataclass(frozen=True)
class SampleWeights:
    """Non-negative per-row weights with strictly positive total."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError("weights must be a 1-D vector")
        if not np.isfinite(values).all():
            raise DataError("weights contain NaN or infinite values")
        if (values < 0).any():
            raise DataError("weights must be non-negative")
        with np.errstate(over="ignore"):  # finite weights can overflow their sum
            total = values.sum()
        if total <= 0.0:
            raise DataError("zero total weight")
        if total == np.inf:
            raise DataError("total weight overflows")
        object.__setattr__(self, "values", _read_only(values.copy()))

    @classmethod
    def unit(cls, n_rows: int) -> "SampleWeights":
        return cls(np.ones(n_rows, dtype=np.float64))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def total(self) -> float:
        return float(self.values.sum())


def check_level_sum(largest: int) -> None:
    """Levels are summed in int64, which wraps without an error: a row on
    the unprivileged side of every attribute must still get its own level."""
    if largest > np.iinfo(np.int64).max:
        raise ConfigError(f"level weights can sum to {largest}, above the int64 maximum {np.iinfo(np.int64).max}")


@dataclass(frozen=True)
class LevelWeightConfig:
    """Ordered map from attribute name to its positive integer level weight."""

    entries: dict[str, int]

    def __post_init__(self):
        check_fields(self)
        if not self.entries:
            raise ConfigError("level weight config needs at least one attribute")
        for name, weight in self.entries.items():
            if weight < 1:
                raise ConfigError(f"level weight for {name!r} must be a positive integer, got {weight!r}")
        check_level_sum(sum(self.entries.values()))

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self.entries)


def compute_sensitivity_levels(
    groups: Sequence[GroupAssignment], config: LevelWeightConfig
) -> np.ndarray:
    """Per-row int64 sensitivity levels: each configured attribute's level
    weight summed over the attributes on whose unprivileged side the row
    falls.

    Every configured attribute must have a row-aligned assignment with the
    privileged side already set.
    """
    by_name = {g.attribute_name: g for g in groups}
    selected = []
    for name in config.attributes:
        if name not in by_name:
            raise ConfigError(f"no group assignment for configured attribute {name!r}")
        selected.append(by_name[name])
    n = len(selected[0])
    if any(len(g) != n for g in selected):
        raise DataError("group assignments are not row-aligned")
    # Exact: check_level_sum keeps every row's sum within int64
    weights = np.array(list(config.entries.values()), dtype=np.int64)
    return weights @ np.array([assignment.unprivileged_indicator() for assignment in selected])


def reweight(labels, partition, prior: SampleWeights) -> SampleWeights:
    """Rescale weights so labels are independent of the partition groups.

    ``partition`` is a vector of integer (or bool) group ids; any other
    dtype is a DataError.  Each row's multiplier comes from
    :func:`cell_multipliers`, with the rows as its items.
    """
    labels = np.asarray(labels)
    partition = np.asarray(partition)
    # Checked before the integer cast, which would truncate 0.5 and parse "1"
    if partition.dtype.kind not in "biu":
        raise DataError(f"partition must hold integer group ids, got dtype {partition.dtype}")
    partition = partition.astype(np.int64, copy=False)
    weights = prior.values
    n = weights.shape[0]
    if labels.shape != (n,) or partition.shape != (n,):
        raise DataError("labels, partition, and weights must be row-aligned")
    # Checked before the integer cast, which would read "1" as 1 and 0.5 as 0
    if not ((labels == 0) | (labels == 1)).all():
        raise DataError("labels must be 0 or 1")
    labels = labels.astype(np.int64, copy=False)
    return SampleWeights(weights * cell_multipliers(labels, partition, weights))


def cell_multipliers(labels, partition, weights) -> np.ndarray:
    """Each item's multiplier under the module docstring's formula: the
    one-partition case of :func:`stacked_cell_multipliers`.  Raises its
    UnreachableCellError."""
    multipliers, reasons = stacked_cell_multipliers(labels, partition[None], weights)
    if reasons[0] is not None:
        raise UnreachableCellError(reasons[0])
    return multipliers[0]


def distinct_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for int64 ``ids``: the sorted
    distinct ids, and each id's index among them in the shape of ``ids``.
    Ids spanning no more values than there are ids are counted, not sorted:
    a bincount marks the ids present and its running sum ranks them."""
    if ids.size:
        low = int(ids.min())
        # Python ints: the span of two int64 ids can overflow int64
        if int(ids.max()) - low < ids.size:
            offset = ids - low
            present = np.bincount(offset.ravel()) > 0
            return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[offset]
    return np.unique(ids, return_inverse=True)


def stacked_cell_multipliers(labels, partitions, weights) -> tuple[np.ndarray, list]:
    """Each item's multiplier under the module docstring's formula, for
    every row of ``partitions`` (points x items) at once.

    Item i has int64 label ``labels[i]`` (0 or 1), prior mass
    ``weights[i]`` and, in point p, int64 group id ``partitions[p, i]``.
    Two bincounts over all points give every (point, group, label) cell's
    item count and mass, and the formula one multiplier per cell.  Items
    are training rows, or cells of rows sharing a group and a label with
    their row count as mass: under the unit prior every mass is an
    integer-valued double, which sums exactly in any grouping, so cells get
    their rows' multipliers bit for bit.  Each point's masses sum in item
    order, as a point on its own would, so every row is bit for bit that
    point's own multipliers.

    Returns the (points, items) multipliers and, per point, None or the
    reason its first cell (groups in sorted order, label 0 first) that must
    carry mass but has no items or zero prior weight is unreachable; such a
    point's row of multipliers is meaningless.
    """
    n_points, n_items = partitions.shape
    # Cell c = 2 * group index + label, after 2 * n_groups cells per earlier
    # point, the groups of all points numbered in sorted id order: a point's
    # own groups keep their order, and the others are cells of no mass,
    # which add exact zeros to its sums
    ids, group = distinct_ids(partitions)
    n_groups = ids.shape[0]
    cell = (2 * group.reshape(n_points, n_items) + labels + 2 * n_groups * np.arange(n_points)[:, None]).ravel()
    size = 2 * n_groups * n_points
    count = np.bincount(cell, minlength=size).reshape(n_points, n_groups, 2)
    item_mass = np.broadcast_to(weights, (n_points, n_items)).ravel()
    mass = np.bincount(cell, weights=item_mass, minlength=size).reshape(n_points, n_groups, 2)
    demand = mass.sum(axis=2)[:, :, None] * mass.sum(axis=1)[:, None, :]
    empty = count == 0
    unreachable = ((empty & (demand > 0.0)) | (~empty & (mass <= 0.0))).reshape(n_points, -1)
    reasons: list = [None] * n_points
    for p in np.flatnonzero(unreachable.any(axis=1)).tolist():
        g, d = divmod(int(unreachable[p].argmax()), 2)
        reasons[p] = (f"unreachable cell: group {ids[g]} has no rows with label {d}" if empty[p, g, d]
                      else f"unreachable cell: group {ids[g]}, label {d} has zero prior weight")
    # Where a point is reachable its non-empty cells are those with mass
    multiplier = np.divide(demand, weights.sum() * mass, out=np.zeros_like(mass), where=mass > 0.0)
    return np.take(multiplier.reshape(-1), cell).reshape(n_points, n_items), reasons


def reweight_single_attribute(
    labels, group: GroupAssignment, prior: SampleWeights
) -> SampleWeights:
    """Reweight with the attribute's two membership groups as the partition."""
    return reweight(labels, group.membership, prior)


def reweight_sequential(
    labels, groups: Sequence[GroupAssignment], prior: SampleWeights
) -> SampleWeights:
    """Chain single-attribute passes, each feeding the next as its prior."""
    if not groups:
        raise ConfigError("sequential reweighting needs at least one attribute")
    weights = prior
    for group in groups:
        weights = reweight_single_attribute(labels, group, weights)
    return weights


def m3fair(
    labels,
    groups: Sequence[GroupAssignment],
    config: LevelWeightConfig,
    prior: SampleWeights,
) -> SampleWeights:
    """Simultaneous multi-attribute reweighting over sensitivity levels.

    With a single configured attribute this reduces exactly to
    :func:`reweight_single_attribute` (the level partition has the same
    two fibers as the membership partition).
    """
    return reweight(labels, compute_sensitivity_levels(groups, config), prior)


def save_weights_csv(weights: SampleWeights, path) -> None:
    """Single-column CSV, one weight per training row (header ``weight``),
    in a directory made if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("weight\n")
        handle.writelines(f"{value!r}\n" for value in weights.values.tolist())

