"""Which attributes actually change between software versions.

An attribute is "operational" when its value distribution shifts between
consecutive releases by more than a small A12 effect.  This module counts
those shifts across version histories and projects datasets onto the most
changed attribute subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DatasetError
from .metrics import SMALL_EFFECT, a12

EPSILON = 1e-12


@dataclass(frozen=True)
class AttributeChange:
    attribute: str
    changed: int
    total: int

    @property
    def percent(self) -> float:
        return 100.0 * self.changed / self.total if self.total else 0.0


@dataclass(frozen=True)
class ChangeStats:
    """Per-attribute counts of version pairs whose distributions shifted."""

    total: int
    changes: tuple[AttributeChange, ...]


def _shift(old: Dataset, new: Dataset, attr: str) -> float | None:
    """|A12 - 0.5| between one attribute's observed values in two versions;
    None when either side has no values."""
    xs, ys = old.column(attr), new.column(attr)
    xs, ys = xs[~np.isnan(xs)], ys[~np.isnan(ys)]
    if len(xs) == 0 or len(ys) == 0:
        return None
    return abs(a12(xs, ys) - 0.5)


def check_threshold(threshold: float):
    """ConfigError unless ``threshold`` is in (0, 0.5]; see
    ``change_frequency``."""
    if not 0 < threshold <= 0.5:
        raise ConfigError(f"threshold must be a finite number > 0 and "
                          f"<= 0.5, got {threshold}")


def check_fraction(fraction: float):
    """ConfigError unless ``fraction`` is in (0, 1]; see ``top_changed``."""
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")


def change_frequency(version_sequences: list[list[Dataset]],
                     threshold: float = SMALL_EFFECT) -> ChangeStats:
    """Count, over every adjacent version pair in every sequence, how often
    each attribute's distribution shifts by more than a small effect.

    Attributes are pooled by name across sequences; a pair where either side
    has no observed values for an attribute cannot register a change.  A
    ``threshold`` outside (0, 0.5] is a ConfigError: at 0 every pair with
    data counts as a change, even two identical versions, and since
    ``|a12 - 0.5|`` never exceeds 0.5, above it no pair can.
    """
    check_threshold(threshold)
    total = 0
    changed: dict[str, int] = {}
    for sequence in version_sequences:
        if len(sequence) < 2:
            raise DatasetError("each version sequence needs >= 2 versions")
        first = sequence[0]
        for ds in sequence[1:]:
            if ds.attributes != first.attributes:
                raise DatasetError(
                    f"attribute mismatch inside sequence: {first.name} vs {ds.name}")
        for attr in first.attributes:
            changed.setdefault(attr, 0)
        for old, new in zip(sequence, sequence[1:]):
            total += 1
            for attr in first.attributes:
                shift = _shift(old, new, attr)
                if shift is not None and shift >= threshold:
                    changed[attr] += 1
    stats = tuple(AttributeChange(attribute=a, changed=c, total=total)
                  for a, c in sorted(changed.items()))
    return ChangeStats(total=total, changes=stats)


def top_changed(old: Dataset, new: Dataset, fraction: float = 0.25) -> tuple[str, ...]:
    """The ceil(fraction * |attributes|) attributes, at least one, whose
    distributions moved most between two versions, ranked by |A12 - 0.5|
    descending with name as the tie-break."""
    if old.attributes != new.attributes:
        raise DatasetError(f"attribute mismatch: {old.name} vs {new.name}")
    check_fraction(fraction)
    scored = []
    for attr in old.attributes:
        shift = _shift(old, new, attr)
        scored.append((-(shift or 0.0), attr))
    scored.sort()
    keep = max(1, math.ceil(fraction * len(old.attributes) - EPSILON))
    return tuple(attr for _, attr in scored[:keep])


def project(ds: Dataset, attrs) -> Dataset:
    """Restrict a dataset to an attribute subset; rows, labels and effort
    are untouched."""
    attrs = tuple(attrs)
    for attr in attrs:
        if attr not in ds.attributes:
            raise DatasetError(f"{ds.name}: unknown attribute {attr!r}")
    cols = [ds.attributes.index(a) for a in attrs]
    return Dataset(name=ds.name, version=ds.version, attributes=attrs,
                   values=ds.values[:, cols], labels=ds.labels,
                   effort=ds.effort)
