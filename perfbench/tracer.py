"""Tracing from outside the program: timing wrappers installed over frugal's
public functions for the length of a traced pass, then removed.

A wrapper replaces every module-level binding of its function in every
loaded ``frugal`` module (``metrics.popt`` is also ``fft.popt``, ``rig.popt``
and ``cli.popt``), so calls made through any of those names are counted.
Each call becomes a span (name, start, end, parent) kept in memory; a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import frugal.dataset
import frugal.metrics

# (module, function) pairs; a dotted function is a class attribute.
TRACED = (
    ("cli", "main"),
    ("dataset", "load_csv"), ("dataset", "binarize"), ("dataset", "merge"),
    ("dataset", "Dataset.subset"),
    ("fft", "grow"), ("fft", "build_tree"), ("fft", "discretize"),
    ("fft", "score_range"), ("fft", "tree_score"), ("fft", "route_dataset"),
    ("fft", "rank_for_popt"),
    ("metrics", "popt"), ("metrics", "Confusion.from_predictions"),
    ("metrics", "dis2heaven"), ("metrics", "effort_order_from_predictions"),
    ("metrics", "effort_order_from_scores"), ("metrics", "a12"),
    ("metrics", "mann_whitney"), ("metrics", "recall_at_20"),
    ("baselines", "nb_train"), ("baselines", "nb_score_dataset"),
    ("baselines", "lr_train"), ("baselines", "lr_score_dataset"),
    ("operational", "top_changed"), ("operational", "change_frequency"),
    ("operational", "project"),
    ("rig", "run"), ("rig", "fit_learner"), ("rig", "evaluate"),
    ("rig", "cross_val_splits"), ("rig", "compare"), ("rig", "write_reports"),
)
NAMES = tuple(f"{module}.{func}" for module, func in TRACED)

# Functions whose row throughput is counted: name -> rows of one call.
ROWS = {
    "dataset.load_csv": lambda args, result: len(result),
    "baselines.nb_score_dataset": lambda args, result: len(args[1]),
}


def frugal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "frugal" or name.startswith("frugal."))
            and m is not None]


def bindings() -> dict[tuple[int, str], object]:
    """Every module attribute of frugal plus the traced class attributes,
    keyed by (id of owner, attribute name); used to check restoration."""
    out = {}
    for module in frugal_modules():
        for attr, value in vars(module).items():
            out[(id(module), attr)] = value
    for cls in (frugal.dataset.Dataset, frugal.metrics.Confusion):
        for attr, value in vars(cls).items():
            out[(id(cls), attr)] = value
    return out


def same_bindings(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(
        after[key] is value for key, value in before.items())


@dataclass
class PassStats:
    """Counters and self times of one traced pass."""
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(NAMES, 0))
    self_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(NAMES, 0.0))
    rows: dict[str, int] = field(default_factory=lambda: dict.fromkeys(ROWS, 0))
    distinct_searches: int = 0
    spans: list[tuple[int, int, int, float, float]] = field(
        default_factory=list)     # (span, parent, name index, start, end)

    def counters(self) -> dict:
        return {"calls": dict(self.calls), "rows": dict(self.rows),
                "distinct_searches": self.distinct_searches}

    @property
    def distinct_ratio(self) -> float:
        """Distinct (row subset, exit class, range) searches within one
        ``grow`` per ``score_range`` call; 1.0 when nothing was scored."""
        calls = self.calls["fft.score_range"]
        return self.distinct_searches / calls if calls else 1.0


class Tracer:
    """Installs the wrappers; ``install``/``remove`` bracket each traced
    pass, and ``remove`` returns that pass's numbers."""

    def __init__(self):
        self.stats = PassStats()
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []    # [span id, child seconds]
        self._next_span = 0
        self._searches: set = set()     # score_range keys of the open grow

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.stats = PassStats()
        modules = frugal_modules()
        by_name = {m.__name__: m for m in modules}
        for index, (module_name, func) in enumerate(TRACED):
            owner = by_name[f"frugal.{module_name}"]
            if "." in func:
                cls_name, attr = func.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, index))
                else:
                    wrapped = self._wrap(raw, index)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, func)
            wrapper = self._wrap(original, index)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> PassStats:
        """Restores every binding and returns the finished pass's stats."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._stack.clear()
        self._close_grow()      # searches made outside any grow
        return self.stats

    def _wrap(self, fn, index: int):
        name = NAMES[index]
        rows = ROWS.get(name)
        closes_grow = name == "fft.grow"
        notes_search = name == "fft.score_range"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self.stats
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            if notes_search:
                self._note_search(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats.calls[name] += 1
                stats.self_s[name] += duration - frame[1]
                stats.spans.append((span, parent, index, start, end))
                if closes_grow:
                    self._close_grow()
            if rows is not None:
                stats.rows[name] += rows(args, result)
            return result

        return traced

    def _note_search(self, rng, data, exit_class, fn, subset=None):
        rows = None if subset is None else hash(subset.tobytes())
        self._searches.add((id(data), fn.kind, bool(exit_class), rng, rows))

    def _close_grow(self):
        # Grows do not nest, so the open set belongs to the grow that ends.
        self.stats.distinct_searches += len(self._searches)
        self._searches.clear()
