"""Property test of the front end's error contract: every subcommand, fed
mutated CSV, config and model files, ends with exit 0, 2, 3, 4 or 5, prints
exactly one ``error:`` line on stderr when it fails, and never raises."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from frugal.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

_VERSIONS = [
    "name,version,wmc,cbo,loc,bug\n"
    + "".join(f"m.{chr(65 + i)},{v},{i + 1},{(3 * i + k) % 7},{100 + 9 * i + k},"
              f"{int(i >= 4) * (1 + (i + k) % 3)}\n" for i in range(8))
    for k, v in enumerate(("1.0", "1.1", "1.2"))
]
_CSV_NAMES = [f"v{k}.csv" for k in range(len(_VERSIONS))]

# Spliced into CSV text: separators, quotes, missing markers, non-numbers,
# bytes that are not UTF-8 and a cell past the csv module's 131072-character
# field limit.
_CSV_TOKENS = [b",", b"\n", b'"', b"?", b"", b"nan", b"inf", b"-1e999", b"x",
               b"\xff", b"\xc3", b"wmc", b"bug", b"1" * 131073]

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.sampled_from([math.inf, -math.inf, math.nan, 2.5,
                                   "four", "", "3", [], [1], {}, {"a": 1}]))
# grow enumerates 2^depth policies, so the depths that train stay small;
# 13 and 10**6 lie above fft.MAX_DEPTH and must be refused before any
# training.  Bins and repeats stay small to keep the cross-validation loops
# short.
_ABOVE_CAP = st.sampled_from([13, 10 ** 6])
_DEPTH = st.one_of(st.integers(-2, 5), st.floats(-10, 5.9), _ABOVE_CAP, _JUNK)
_DEPTH_FLAG = st.one_of(st.integers(-1, 5), _ABOVE_CAP)
_CONFIG_VALUES = {
    "projects": st.one_of(_JUNK, st.dictionaries(
        st.sampled_from(["alpha", "beta"]),
        st.one_of(st.lists(st.sampled_from(_CSV_NAMES + ["ghost.csv", ".", 5]),
                           max_size=4),
                  st.sampled_from(_CSV_NAMES), _JUNK),
        max_size=2)),
    "learners": st.one_of(st.lists(st.sampled_from(["fft", "nb", "sl", "svm",
                                                    1, None]), max_size=3),
                          _JUNK),
    "scores": st.one_of(st.lists(st.sampled_from(["d2h", "popt", "auc", 1,
                                                  [1]]), max_size=2), _JUNK),
    "attribute_sets": st.one_of(st.lists(st.sampled_from(["full", "top25",
                                                          "x"]), max_size=2),
                                _JUNK),
    "depth": _DEPTH,
    "mode": st.one_of(st.sampled_from(["version", "cv", "loo"]), _JUNK),
    "bins": st.one_of(st.integers(-1, 5), _JUNK),
    "repeats": st.one_of(st.integers(-1, 2), _JUNK),
    "seed": st.one_of(st.integers(-3, 2 ** 70), _JUNK),
    "top_fraction": st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                              _JUNK),
    "label": st.one_of(st.sampled_from(["bug", "loc", "nope"]), _JUNK),
    "effort": st.one_of(st.sampled_from(["loc", "wmc", "bug", "nope"]), _JUNK),
    "positive_if": st.one_of(st.sampled_from([">0", "<2", ">1", "> 1e999",
                                              "x"]), _JUNK),
    "exclude": st.one_of(st.lists(st.sampled_from(["name", "version", "wmc",
                                                   "bug"]), max_size=3),
                         _JUNK),
    "typo": _JUNK,
}
_MODEL_VALUES = {
    "depth": st.one_of(st.integers(-1, 3), _JUNK),
    "policy": st.one_of(st.sampled_from(["10", "01", "100", "101", "010",
                                         "22", "1", ""]), _JUNK),
    "truncated": _JUNK,
    "score": _JUNK,
    "train_score": _JUNK,
    "nodes": _JUNK,
    "final_leaf": _JUNK,
}
_NODE_VALUES = {
    "attribute": st.one_of(st.sampled_from(["wmc", "cbo", "rfc"]), _JUNK),
    "op": st.one_of(st.sampled_from([">", "<=", "=="]), _JUNK),
    "cut": st.one_of(st.floats(allow_nan=True, allow_infinity=True), _JUNK),
    "class": st.one_of(st.sampled_from(["false", "true", 0, 1]), _JUNK),
    "support": st.one_of(st.integers(-1, 10 ** 30), _JUNK),
}
_MODEL = {
    "depth": 2, "policy": "101", "truncated": False, "score": "dis2heaven",
    "train_score": 0.0,
    "nodes": [{"attribute": "wmc", "op": ">", "cut": 4.5, "class": True,
               "support": 4},
              {"attribute": "cbo", "op": "<=", "cut": 3.0, "class": False,
               "support": 2}],
    "final_leaf": {"class": True, "support": 2},
}


@st.composite
def _spliced(draw, data):
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 8)))
    token = draw(st.one_of(st.sampled_from(_CSV_TOKENS),
                           st.text(max_size=4).map(str.encode)))
    return data[:start] + token + data[end:]


@st.composite
def _mutated(draw, base, values):
    obj = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(values)))
        if draw(st.booleans()) and key in obj:
            del obj[key]
        else:
            obj[key] = draw(values[key])
    return obj


@st.composite
def _model(draw):
    model = draw(_mutated(_MODEL, _MODEL_VALUES))
    if isinstance(model.get("nodes"), list) and draw(st.booleans()):
        i = draw(st.integers(0, len(model["nodes"])))
        if i < len(model["nodes"]):
            model["nodes"][i] = draw(_mutated(model["nodes"][i],
                                              _NODE_VALUES))
        elif isinstance(model.get("final_leaf"), dict):
            model["final_leaf"] = draw(_mutated(
                model["final_leaf"],
                {k: _NODE_VALUES[k] for k in ("class", "support")}))
    return model


_DATA_FLAGS = st.lists(st.sampled_from([
    "--effort=loc", "--effort=nope", "--score=popt", "--score=auc",
    "--positive-if=<2", "--positive-if=x", "--format=json",
    "--exclude=name,version,cbo"]), max_size=3)


@st.composite
def _invocation(draw, command):
    """(files, argv) with ``{dir}`` standing for the directory the files
    are written to."""
    files = {name: text.encode() for name, text in zip(_CSV_NAMES, _VERSIONS)}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(_CSV_NAMES))
        files[name] = draw(_spliced(files[name]))
    csvs = draw(st.one_of(
        st.just(_CSV_NAMES),
        st.lists(st.sampled_from(_CSV_NAMES * 3 + ["ghost.csv"]), min_size=1,
                 max_size=4)))
    paths = [f"{{dir}}/{name}" for name in csvs]
    depth = [f"--depth={draw(_DEPTH_FLAG)}"]
    if command == "fit":
        argv = ["fit", *paths, *draw(_DATA_FLAGS), *depth]
    elif command == "eval":
        top = draw(st.one_of(st.none(), st.floats(0.01, 1),
                             st.floats(allow_nan=True, allow_infinity=True)))
        argv = ["eval", *paths, *draw(_DATA_FLAGS), *depth]
        if top is not None:
            argv.append(f"--top-changed={top}")
    elif command == "eval-model":
        files["model.json"] = json.dumps(draw(_model())).encode()
        argv = ["eval", *paths[:draw(st.integers(1, 2))], "--model",
                "{dir}/model.json", *draw(_DATA_FLAGS)]
    elif command == "rig":
        base = {"projects": {"alpha": _CSV_NAMES}, "learners": ["fft", "nb"],
                "scores": ["d2h"], "effort": "loc", "depth": 2, "bins": 3,
                "repeats": 1, "mode": draw(st.sampled_from(["version", "cv"]))}
        files["rig.json"] = json.dumps(
            draw(_mutated(base, _CONFIG_VALUES))).encode()
        argv = ["rig", "--config", "{dir}/rig.json", "--out-dir",
                "{dir}/reports"]
        seed = draw(st.one_of(st.none(), st.integers(-3, 3)))
        if seed is not None:
            argv.append(f"--seed={seed}")
    else:
        argv = ["changefreq", *paths,
                f"--threshold={draw(st.floats(allow_nan=True, allow_infinity=True))}",
                *draw(st.lists(st.just(",".join(paths)).map(
                    lambda seq: f"--sequence={seq}"), max_size=2))]
    return files, argv


@pytest.mark.parametrize("command", ["fit", "eval", "eval-model", "rig",
                                     "changefreq"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_subcommand_exits_with_a_documented_code(command, data):
    files, argv = data.draw(_invocation(command))
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in EXIT_CODES
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
