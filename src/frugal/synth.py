"""Seeded synthetic corpora shaped like the real inputs: multi-version
defect tables with code-metric columns and a loc effort proxy, plus a
flat issue table with a days-to-close label.

Everything is driven by ``numpy.random.default_rng`` so a corpus is fully
reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset

ATTRIBUTES = ("wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm",
              "lcom3", "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc",
              "max_cc", "avg_cc")
_UNIT_COLS = {"lcom3", "dam", "mfa", "cam"}       # stay in [0, 1]
_MISS_RATE = 0.01

ISSUE_ATTRIBUTES = ("priority", "severity", "comments", "watchers",
                    "description_length", "reporter_commits", "code_churn",
                    "files_touched")


def _metric_columns(rng: np.random.Generator, rows: int,
                    scales: np.ndarray) -> np.ndarray:
    values = np.empty((rows, len(ATTRIBUTES)))
    for j, attr in enumerate(ATTRIBUTES):
        if attr in _UNIT_COLS:
            values[:, j] = rng.beta(2.0, 2.0 * scales[j], size=rows)
        elif attr == "loc":
            values[:, j] = np.maximum(
                1, np.round(rng.gamma(2.0, 80.0 * scales[j], size=rows)))
        elif attr == "avg_cc":
            values[:, j] = rng.gamma(2.0, scales[j], size=rows)
        else:
            values[:, j] = np.round(rng.gamma(2.0, 3.0 * scales[j],
                                              size=rows))
    return values


def _bug_counts(rng: np.random.Generator, values: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    mu = values.mean(axis=0)
    sd = values.std(axis=0)
    sd[sd == 0] = 1.0
    z = (values - mu) / sd @ weights
    lam = np.exp(0.9 * z - 0.8)
    return rng.poisson(np.clip(lam, 0.0, 12.0)).astype(float)


def make_version(project: str, version: str, rows: int,
                 rng: np.random.Generator, scales: np.ndarray,
                 weights: np.ndarray) -> Dataset:
    values = _metric_columns(rng, rows, scales)
    labels = _bug_counts(rng, values, weights)
    effort = values[:, ATTRIBUTES.index("loc")].copy()
    mask = rng.random(values.shape) < _MISS_RATE
    mask[:, ATTRIBUTES.index("loc")] = False
    values[mask] = np.nan
    names = tuple(f"{project}.Class{i:03d}" for i in range(rows))
    return Dataset(name=f"{project}-{version}", version=version,
                   attributes=ATTRIBUTES, values=values, labels=labels,
                   effort=effort, row_names=names)


def make_project(name: str, seed: int, versions: int = 3,
                 rows: int = 120) -> list[Dataset]:
    """Version-ordered datasets with raw bug-count labels.

    A per-project subset of attributes drifts in scale from version to
    version, so adjacent versions disagree on those distributions.
    """
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.6, 1.6, size=len(ATTRIBUTES))
    weights = np.zeros(len(ATTRIBUTES))
    weights[rng.choice(len(ATTRIBUTES), size=4, replace=False)] = \
        rng.uniform(0.5, 1.0, size=4)
    drifting = rng.choice(len(ATTRIBUTES), size=6, replace=False)
    out = []
    for v in range(versions):
        n = int(rows * (1.0 + 0.2 * v))
        out.append(make_version(name, f"{v + 1}.0", n, rng, scales, weights))
        scales = scales.copy()
        scales[drifting] *= rng.uniform(1.25, 1.9, size=len(drifting))
    return out


def make_corpus(names: tuple[str, ...] = ("ant", "beam", "calcite", "druid"),
                seed: int = 7, versions: int = 3,
                rows: int = 120) -> dict[str, list[Dataset]]:
    rng = np.random.default_rng(seed)
    return {name: make_project(name, int(rng.integers(1, 2 ** 31)),
                               versions=versions, rows=rows)
            for name in names}


def make_issue_dataset(seed: int = 11, rows: int = 400,
                       name: str = "issues") -> Dataset:
    """Flat issue table whose label is days until the issue closed."""
    rng = np.random.default_rng(seed)
    values = np.column_stack([
        rng.integers(1, 6, size=rows).astype(float),          # priority
        rng.integers(1, 4, size=rows).astype(float),          # severity
        rng.poisson(4.0, size=rows).astype(float),            # comments
        rng.poisson(2.0, size=rows).astype(float),            # watchers
        np.round(rng.gamma(2.0, 180.0, size=rows)),           # description
        rng.poisson(30.0, size=rows).astype(float),           # reporter
        np.round(rng.gamma(1.5, 40.0, size=rows)),            # churn
        rng.integers(1, 25, size=rows).astype(float),         # files
    ])
    mu = values.mean(axis=0)
    sd = values.std(axis=0)
    sd[sd == 0] = 1.0
    slowness = ((values - mu) / sd) @ np.array(
        [0.5, 0.3, 0.6, -0.2, 0.2, -0.4, 0.5, 0.3])
    days = np.maximum(0.0, np.round(rng.gamma(1.2, 40.0, size=rows)
                                    * np.exp(0.4 * slowness), 1))
    mask = rng.random(values.shape) < _MISS_RATE
    values[mask] = np.nan
    return Dataset(name=name, version="", attributes=ISSUE_ATTRIBUTES,
                   values=values, labels=days, effort=None)
