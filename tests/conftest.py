import numpy as np
import pytest

from frugal.dataset import Dataset, LabelRule, binarize
from frugal import synth


def make_dataset(attributes, rows, labels, effort=None, name="toy",
                 version="", binary=True):
    """Terse dataset builder for tests; None marks a missing cell."""
    values = np.array([[np.nan if v is None else float(v) for v in row]
                       for row in rows], dtype=float)
    values = values.reshape(len(rows), len(attributes))
    if binary:
        labels_arr = np.array(labels, dtype=bool)
    else:
        labels_arr = np.array(labels, dtype=float)
    return Dataset(name=name, version=version, attributes=tuple(attributes),
                   values=values, labels=labels_arr,
                   effort=None if effort is None
                   else np.array(effort, dtype=float),
                   metadata={})


def one_row(attributes, row):
    """An attribute->value dict (None missing) as a one-row dataset."""
    return make_dataset(attributes, [[row[a] for a in attributes]],
                        labels=[False])


def dataset_rows(ds):
    """Dataset -> oracle form: list of attribute->value dicts, None missing."""
    out = []
    for i in range(len(ds)):
        row = {}
        for j, attr in enumerate(ds.attributes):
            v = ds.values[i, j]
            row[attr] = None if np.isnan(v) else float(v)
        out.append(row)
    return out


@pytest.fixture
def six_rows():
    """Six rows where a <= 3.5 captures exactly the positive class."""
    return make_dataset(
        attributes=("a", "b"),
        rows=[[1, 5], [2, 1], [3, 4], [4, 2], [5, 6], [6, 3]],
        labels=[True, True, True, False, False, False],
        effort=[10, 20, 30, 40, 50, 60],
        name="six")


@pytest.fixture
def eight_rows():
    """Mixed 8-row table with one missing cell; used for tree traces and
    the naive-bayes posterior checks."""
    return make_dataset(
        attributes=("x", "y", "z"),
        rows=[[1, 10, 3],
              [2, 40, 1],
              [3, 15, 4],
              [4, 50, 1],
              [5, 20, 5],
              [6, 60, None],
              [7, 25, 2],
              [8, 70, 6]],
        labels=[True, False, True, False, True, False, True, False],
        effort=[100, 200, 50, 400, 150, 600, 80, 900],
        name="eight")


@pytest.fixture
def twelve_rows():
    """Noisier 12-row table where no single cut is clean; exercises policy
    selection."""
    return make_dataset(
        attributes=("p", "q", "r"),
        rows=[[3, 7, 2], [1, 9, 6], [4, 2, 5], [8, 1, 1],
              [2, 8, 4], [9, 3, 9], [5, 5, 3], [7, 4, 8],
              [6, 6, 7], [10, 10, 10], [11, 2, 2], [12, 11, 4]],
        labels=[True, True, False, False, True, False,
                True, False, True, False, False, True],
        effort=[12, 25, 8, 40, 16, 55, 9, 70, 22, 110, 35, 60],
        name="twelve")


@pytest.fixture
def five_rows_lr():
    """Tiny two-class table for the logistic-gradient checks."""
    return make_dataset(
        attributes=("u", "v"),
        rows=[[0.5, 2.0], [1.5, 1.0], [2.5, 3.5], [3.0, 0.5], [4.5, 2.5]],
        labels=[False, False, True, True, True],
        name="five")


@pytest.fixture
def popt_fixture():
    """The pinned ranking: efforts 10,20,30,40,100 and defects 1,1,0,0,1."""
    return ([1.0, 1.0, 0.0, 0.0, 1.0], [10.0, 20.0, 30.0, 40.0, 100.0])


@pytest.fixture(scope="session")
def corpus():
    """Binarized synthetic multi-version corpus, small enough for fast rigs."""
    raw = synth.make_corpus(names=("ant", "beam", "calcite", "druid"),
                            seed=7, versions=3, rows=90)
    rule = LabelRule.bug_counts()
    return {name: [binarize(v, rule) for v in versions]
            for name, versions in raw.items()}


@pytest.fixture(scope="session")
def issue_data():
    return synth.make_issue_dataset(seed=11, rows=260)


@pytest.fixture
def toy_csv(tmp_path):
    """Defect-table CSV in the versioned-project format."""
    text = (
        "name,version,name,wmc,cbo,loc,bug\n"
        "org.App,1.0,App,5,4,120,0\n"
        "org.Core,1.0,Core,12,9,340,2\n"
        "org.Util,1.0,Util,3,?,80,0\n"
        "org.Net,1.0,Net,9,7,210,1\n"
    )
    path = tmp_path / "proj-1.0.csv"
    path.write_text(text)
    return path
