import json
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import REPO_ROOT
from multifair import data, experiment
from multifair.cli import main
from multifair.data import (
    Dataset,
    GroupAssignment,
    SplitSpec,
    _above_train_means,
    binarize_by_mean,
    load_csv,
    privileged_side,
    save_csv,
    set_privileged,
    split,
)
from multifair.errors import ConfigError, DataError, DegenerateAttributeError
from multifair.experiment import DatasetConfig, ExperimentConfig
from multifair.metrics import PredictionSet
from multifair.reweighting import SampleWeights, reweight
from multifair.synth import planted_bias_dataset
from oracles import set_privileged as set_privileged_oracle


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def many_categories(labels="pq"):
    """CSV text with a 300-category text column ``t``, a numeric column
    ``x`` and the label ``y`` (``labels[1]`` on every third line), each
    data line three times, so that the fast route parses its distinct
    lines."""
    return "t,x,y\n" + "".join(f"c{k % 300},{k % 5},{labels[k % 3 == 0]}\n" for k in range(900))


class TestLoadCsv:
    def test_three_row_schema(self, tmp_path):
        p = write(tmp_path / "t.csv", "age,sex,income\n25,Male,>50K\n30,Female,<=50K\n41,Male,>50K\n")
        ds = load_csv(p, "income", ">50K")
        assert ds.n_rows == 3
        assert ds.column_names == ("age", "sex=Male", "sex=Female")
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.column("age").tolist() == [25.0, 30.0, 41.0]

    def test_label_outside_declared_pair(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="label value outside declared pair"):
            load_csv(p, "y", "a")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "y", "1")

    def test_unknown_label_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\n1,0\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(p, "z", "1")

    def test_row_arity_mismatch(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\n1,0\n1,2,3\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            load_csv(p, "y", "1")

    def test_missing_numeric_cell_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\n1,0\n,1\n")
        with pytest.raises(DataError, match="missing numeric value"):
            load_csv(p, "y", "1")

    @pytest.mark.parametrize("text, message", [
        ("x,y\nnan,0\n2,1\n", "non-finite numeric value 'nan' in column 'x', data row 1"),
        # beside a 300-category column, whose indicators the fast routes
        # never build for a file with a non-finite number
        (many_categories("01").replace("\nc7,2,", "\nc7,1e400,", 1),
         "non-finite numeric value '1e400' in column 'x', data row 8"),
    ])
    def test_non_finite_numeric_cell_rejected(self, tmp_path, text, message):
        p = write(tmp_path / "t.csv", text)
        with pytest.raises(DataError, match=message):
            load_csv(p, "y", "1")

    def test_duplicate_header(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,x,y\n1,2,0\n")
        with pytest.raises(DataError, match="duplicate column names"):
            load_csv(p, "y", "1")

    def test_one_hot_first_appearance_order(self, tmp_path):
        p = write(tmp_path / "t.csv", "color,y\nred,1\nblue,0\nred,1\ngreen,0\n")
        ds = load_csv(p, "y", "1")
        assert ds.column_names == ("color=red", "color=blue", "color=green")
        assert ds.column("color=red").tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_reload_is_order_stable(self, tmp_path):
        text = "a,b,y\nx,1.5,1\ny,2.5,0\nx,0.5,1\n"
        p1 = write(tmp_path / "t1.csv", text)
        p2 = write(tmp_path / "t2.csv", text)
        d1 = load_csv(p1, "y", "1")
        d2 = load_csv(p2, "y", "1")
        assert d1.column_names == d2.column_names
        assert np.array_equal(d1.features, d2.features)

    def test_quoted_fields(self, tmp_path):
        p = write(tmp_path / "t.csv", 'place,y\n"New York, NY",1\nBoston,0\n')
        ds = load_csv(p, "y", "1")
        assert "place=New York, NY" in ds.column_names

    def test_comma_space_values_stripped(self, tmp_path):
        p = write(tmp_path / "t.csv", "x, sex, y\n1, Male, >50K\n2, Female, <=50K\n")
        ds = load_csv(p, "y", ">50K")
        assert ds.column_names == ("x", "sex=Male", "sex=Female")

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((10, 3)), rng.binomial(1, 0.5, 10), ("a", "b", "c"))
        save_csv(ds, tmp_path / "t.csv")
        back = load_csv(tmp_path / "t.csv", "label", "1")
        assert back.column_names == ds.column_names
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


def load_outcome(loader, path):
    """What a loader makes of a file: names, feature bytes and labels, or
    the exception it raised."""
    try:
        ds = loader(path, "y", "p")
    except Exception as exc:
        return type(exc), str(exc)
    return ds.column_names, ds.features.tobytes(), ds.labels.tolist()


# numbers that JSON and float() read alike
JSON_NUMBER_CELLS = ["1", "2.5", " 3 ", "1e3", "0.1", "1E5", "-0.0", "-0e0", "1e-400",
                     "9007199254740993", "18446744073709551617", "\t6\t", "-2.5e-05"]
# ... and numbers that only float() reads as written (orjson reads -0 as int 0)
NUMBER_CELLS = [*JSON_NUMBER_CELLS, '"4"', "-0", "01", ".5", "5.", "+1"]
TEXT_CELLS = ["a", " b ", '"a,b"', '"a\nb"', '"a\r\nb"', '"a""b"', 'a"b', "é", ""]
ODD_CELLS = ["", "1_000", "١٢", "nan", "-inf", "#c", ' "1.5"', "0x1", "a", "1e400"]


@st.composite
def csv_texts(draw, repeats=False):
    """Headered CSV text with label column ``y``: numeric, text and mixed
    columns, quoting, padding, blank and whitespace-only lines, every line
    ending, occasional ragged rows, and 1-3 label values.  With
    ``repeats``, the rows (each with its blank line, if any) are drawn
    from a pool of 1-3, so that lines repeat."""
    kinds = draw(st.lists(st.sampled_from(["number", "text", "mixed"]), min_size=1, max_size=3))
    labels = draw(st.lists(st.sampled_from(["p", "q", " q", '"p"', "r"]),
                           min_size=1, max_size=3, unique=True))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def data_lines():
        row = []
        for kind in kinds:
            odd = kind == "mixed" or draw(st.integers(0, 9)) == 0
            row.append(draw(st.sampled_from(
                ODD_CELLS if odd else NUMBER_CELLS if kind == "number" else TEXT_CELLS)))
        row.append(draw(st.sampled_from(labels)))
        if draw(st.integers(0, 19)) == 0:
            row.append("")  # trailing comma
        return [",".join(row), *draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1))]

    if repeats:
        pool = [data_lines() for _ in range(draw(st.integers(1, 3)))]
        rows = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8))
    else:
        rows = [data_lines() for _ in range(draw(st.integers(1, 6)))]
    lines = [",".join([f"c{j}" for j in range(len(kinds))] + ["y"])]
    lines.extend(line for row in rows for line in row)
    return draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def numeric_csv_texts(draw):
    """Headered CSV text whose feature columns are all numeric, so that
    load_csv tries orjson on it: cells are mostly numbers that JSON reads,
    the label column ``y`` may be any column, and now and then a cell,
    a blank line or a trailing comma makes the file take another path."""
    n_cols = draw(st.integers(1, 4))
    label_at = draw(st.integers(0, n_cols))
    labels = draw(st.lists(st.sampled_from(["p", "q", " q", "r", "0", "-0", ""]),
                           min_size=1, max_size=3, unique=True))
    # a lone \r ends a line only for the csv module: drawn less often
    end = draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]))

    def cell():
        if draw(st.integers(0, 29)) == 0:
            return draw(st.sampled_from(NUMBER_CELLS + ODD_CELLS + ["true", "null", "[1]"]))
        return draw(st.sampled_from(JSON_NUMBER_CELLS))

    def line():
        row = [cell() for _ in range(n_cols)]
        row.insert(label_at, draw(st.sampled_from(labels)))
        if draw(st.integers(0, 29)) == 0:
            row.append("")  # trailing comma
        return ",".join(row)

    header = [f"c{j}" for j in range(n_cols)]
    header.insert(label_at, "y")
    lines = [",".join(header), *(line() for _ in range(draw(st.integers(1, 8))))]
    if draw(st.integers(0, 19)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    return end.join(lines) + draw(st.sampled_from(["", end]))


ADVERSARIAL_FILES = [
    "x,y\n1,p\n   \n2,q\n",  # whitespace-only line
    "x,y\n1,p\n\t\n2,q\n",
    "x,y\n1,p\n#2,q\n",  # '#' is not a comment
    "c,y\n#a,p\nb,q\n",
    'c,y\n"a,b",p\nc,q\n',  # quoted comma
    'c,y\n"a\nb",p\nc,q\n',  # quoted newline
    'c,y\r\n"a\r\nb",p\r\nc,q\r\n',  # quoted CRLF stays CRLF
    'c,y\r"a\rb",p\rc,q\r',
    'c,y\n"a""b",p\nc,q\n',  # "" escape
    "x,y\r\n1,p\r\n2,q\r\n",  # CRLF
    "x,y\r1,p\r2,q\r",  # CR
    "\ufeffx,y\n1,p\n2,q\n",  # BOM
    "\ufeffy,x\np,1\nq,2\n",  # BOM glued to the label name
    'x,y\n "1.5",p\n2,q\n',  # a quote after a space is text
    'x,y\n"1.5",p\n2,q\n',
    'c,y\na"b,p\nc,q\n',  # a quote inside a cell is literal
    '"x\nz",y\n1,p\n2,q\n',  # quoted multi-line header
    '"c\nd",y\na,p\nb,p\n',  # ... whose second line reads as a data row
    "x,y,\n1,p,\n2,q,\n",  # trailing comma everywhere
    "x,y\n1,p,\n2,q\n",  # trailing comma on a data row
    "c,y\né,p\nü,q\n",  # non-ASCII text
    "x , y \n 1 , p \n 2 ,q\n",  # padding
    # raw spellings that differ only by padding merge into one category,
    # which keeps the row of its earliest spelling
    "x,c,y\n1, b ,p\n2,a, q\n3,b,p \n4, a,q\n",
    "c,y\nb,p\n a,q\na,p\n b,q\n",  # stripped order differs from raw code order
    "c,d,y\n a,x ,p\nb,x,q\na, y,p\n b ,y,q\nb,x ,p\n",
    "x,y\n1, q\n2,p\n3,q\n4, p\n",  # label spellings, negative first
    "x,y\n1,p \n2, p\n3,q\n4, p \n",  # three raw label spellings, two labels
    "x,y\n1,p \n2, p\n3,q\n4, r\n",  # ... and a third label after the merge
    "x,y\n1,p\n2,q,3\n",  # ragged row
    "x,y\n1,p,3\n2,q,4\n",  # every row wider than the header
    "x,x,y\n1,2,p\n",  # duplicate header names
    "y\np\nq\n",  # no feature column
    "x,y\n1,p\n,q\n",  # empty numeric cell
    "x,y\n1,p\na,q\n",  # later text in a column whose first cell is numeric
    "x,y\n1_000,p\n2,q\n",  # only float() reads underscores
    "x,y\n١٢,p\n3,q\n",  # only float() reads non-ASCII digits
    "x,y\n1,p\n2,q\n3,r\n",  # third label value
    "x,y\nnan,p\n2,q\n",
    "x,y\n1,p\n-inf,q\n",
    # repeated lines: each distinct line is parsed once
    "c,x,y\na,1,p\nb,2,q\na,1,p\nb,2,q\na,1,p\n",
    "c,x,y\r\na,1,p\r\nb,2,q\r\na,1,p\r\nb,2,q\r\n",
    "c,x,y\ra,1,p\rb,2,q\ra,1,p\rb,2,q\r",
    "c,x,y\na,1,p\nb,2,q\na,1,p\nb,2,q",  # the last repeat has no line end
    "x,y\n1,p\n\n1,p\n2,q\n\n2,q\n",  # blank lines between repeats
    "x,y\r\n1,p\r\n\r\n1,p\r\n2,q\r\n\r\n2,q\r\n",
    "x,y\r1,p\r\r1,p\r2,q\r\r2,q\r",
    "x,y\n1,p\n  \n1,p\n  \n",  # repeated whitespace-only lines
    'c,y\na,p\n"b,c",q\na,p\n"b,c",q\n',  # a quoted cell in a file that repeats
    'c,y\n"a\nb",p\nc,q\n"a\nb",p\nc,q\n',  # ... spanning lines that repeat
    'c,y\na,p\nb",q\nb",q\n',  # a literal quote on a repeated line
    "c,d,y\nb,u,q\na,v,p\na,v,p\nb,w,q\nc,v,p\n",  # a category first seen on a repeated line
    "c,d,y\na,u,p\nb,u,q\na,u,p\nc,w,q\nb,w,q\n",
    "c,y\n a ,p\nb,q\n a ,p\nb,q\n",  # padded spellings on repeated lines
    "c,y\na,p\n a,q\na,p\n a,q\n",  # ... that merge
    "c,y\n b,p\na,q\n b,p\nb,q\na,q\n",
    "x,y\n1,p\n2,q\n1,p\n2,q,3\n2,q,3\n",  # a ragged row only on a repeated line
    "x,y\n1,p\n2,q\nnan,p\nnan,p\n",  # nan only on a repeated line
    "x,y\n1,p\n2,q\n1,r\n1,r\n",  # a third label only on a repeated line
    # all-numeric files, which orjson parses
    "x,y\n-0,p\n2,q\n",  # orjson reads the integer -0 as 0
    "x,y\n-0 ,p\n2,q\n",
    "y,x\np,2\nq,-0",  # ... as the last token
    "y,x\np,-0\nq,-0.0\n",
    "x,y\n1e-0,p\n-0e-05,q\n0,p\n",  # an exponent -0 is not the integer -0
    "x,y\n1.5e-05,p\n-0.25,q\n",
    "x,y\n1,p\ntrue,q\n",  # JSON words that are not numbers
    "x,y\n1,p\nfalse,q\n",
    "x,y\n1,p\nnull,q\n",
    "x,z,y\n0,1,p\n[1,2],q\n",
    "x,y\n1,\"p\"\n2,p\n",  # a quoted label
    "x,y\n1,p\r2,q\r\n3,q\r\n",  # a lone CR ends a line
    "x,y\n1,p\r2\n",
    "x,y\n1,p\r\n2,q\r\n",
    "x,y\r\n1,p\r\n2,q",
    "x,y,z\n1,p,2\n3,q,4\n",  # the label between numbers
    "y,x,z\np,1,2\nq,3,4\n",
    "x,y\n1,\n2,q\n",  # an empty label cell
    "y,x\n,1\nq,2\n",
    "x,y\n1,p\n2,q,3\n3,p\n",  # a comma too many
    "x,y\n1,p\n2,q,3\n4\n",  # as many commas as lines need, but not on every line
    "x,y,z\n1,p,2\n3,q,4,5\n6,p\n",
    "y,x\np,1\n,2,3\n4\n",
    "x,y\n1,p\n2,q\n ",  # a whitespace-only last line
    "x,y\n01,p\n.5,q\n5.,p\n+1,q\n",  # numbers only float() reads
    "x,y\n1e400,p\n2,q\n",
    "x,y\n18446744073709551617,p\n9007199254740993,q\n",
    "x,y\n\t1\t,p\n 2 ,q\n",
    "x,y\n1\x0c,p\n2,q\n",  # whitespace float() strips and JSON does not
    "x,y\n1,p\x0c\n2,p\n",
    "x,y\n1,p\n{},q\n",  # a JSON object, which np.fromiter cannot convert
    "x,z,w,y\n1,2,3,p\n4,{},5,q\n",
    "x,z,w,y\n1,2,3,p\n4,[],5,q\n",  # inner JSON arrays
    "x,z,w,y\n1,2,3,p\n4,[1],5,q\n",
    # JSON words many blocks into the file under the small-block test
    "x,y\n" + "".join(f"{i},p\n" for i in range(60)) + "true,q\n",
    "x,y\n" + "".join(f"{i},p\n" for i in range(60)) + "null,q\n",
    "x,z,y\n0.0,0.0,p\n1,-0,q\n",  # float zeros before an integer -0
    "x,z,y\n0,1,p\n2,0,q\n0,0,p\n",  # integer zeros and no -0
]


def with_adversarial_examples(**arguments):
    def decorate(test):
        for text in reversed(ADVERSARIAL_FILES):
            test = example(text=text, **arguments)(test)
        return test
    return decorate


class TestFastPathMatchesCsvPath:
    """load_csv reads most files with one np.loadtxt pass; whatever path a
    file takes, the result must be the csv-module path's, error included."""

    @pytest.fixture(scope="class")
    def csv_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "t.csv"

    def check(self, path, text):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)

    @with_adversarial_examples()
    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_structured(self, csv_file, text):
        self.check(csv_file, text)

    @given(text=csv_texts(repeats=True))
    @settings(max_examples=300, deadline=None)
    def test_repeated_lines(self, csv_file, text):
        self.check(csv_file, text)

    @given(text=numeric_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_numeric(self, csv_file, text):
        self.check(csv_file, text)

    @with_adversarial_examples(block_bytes=16)
    @given(text=numeric_csv_texts(), block_bytes=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_numeric_in_small_blocks(self, csv_file, text, block_bytes):
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
            self.check(csv_file, text)

    @given(text=st.text(alphabet=',"\n\r\t a1.#_pqé', max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_raw_characters(self, csv_file, text):
        self.check(csv_file, "x,y\n" + text)


def test_fast_path_reads_the_repository_inputs(tmp_path, monkeypatch, loadtxt_sources,
                                               numeric_parses):
    planted = tmp_path / "planted.csv"
    save_csv(planted_bias_dataset(300, n_noise=20, seed=3), planted)
    inputs = [
        (REPO_ROOT / "data" / "synthetic.csv", "outcome", "yes"),
        (REPO_ROOT / "data" / "census_surrogate.csv", "income", ">50K"),
        (planted, "label", "1"),
    ]
    expected = [data._load_rows(*args) for args in inputs]

    def fail(*args):
        raise AssertionError("fell back to the csv-module path")

    # a loader that always fell back would pass every other loading test
    monkeypatch.setattr(data, "_load_rows", fail)
    routes = []
    for args, want in zip(inputs, expected):
        loadtxt_sources.clear()
        numeric_parses.clear()
        got = load_csv(*args)
        assert got.column_names == want.column_names
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.labels, want.labels)
        routes.append((list(numeric_parses), [len(source) for source in loadtxt_sources]))
    # all-numeric files are parsed by orjson; the census file, with text
    # columns and repeated lines, by one loadtxt call on its distinct lines
    assert routes == [([True], []), ([], [5544]), ([True], [])]


@pytest.mark.parametrize("text, twin, first_names", [
    ("t,x,y\na,1,p\n a,2,q\nb,3,p\n", "t,x,y\na,1,p\na,2,q\nb,3,p\n", ("t=a", "t=b", "x")),
    # one padded cell in a 300-category column
    (many_categories().replace("\nc7,", "\n c7,", 1), many_categories(), ("t=c0", "t=c1")),
])
def test_two_spellings_of_one_category_take_the_csv_module_path(tmp_path, monkeypatch, text,
                                                                 twin, first_names):
    path, twin_path = write(tmp_path / "t.csv", text), write(tmp_path / "twin.csv", twin)
    expected = load_outcome(data._load_rows, path)
    real, calls = data._load_rows, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(data, "_load_rows", counted)
    assert load_outcome(load_csv, path) == expected
    assert expected[0][:len(first_names)] == first_names
    assert len(calls) == 1
    # the unpadded twin takes a fast route to the same dataset
    assert load_outcome(load_csv, twin_path) == expected
    assert len(calls) == 1


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """What each ``np.loadtxt`` call reads: a file handle or a list of lines."""
    real, sources = np.loadtxt, []

    def spy(source, *args, **kwargs):
        sources.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


@pytest.fixture
def numeric_parses(monkeypatch):
    """Whether each try of the all-numeric path parsed its file."""
    real, parsed = data._numeric_rows, []

    def spy(*args):
        rows = real(*args)
        parsed.append(rows is not None)
        return rows

    monkeypatch.setattr(data, "_numeric_rows", spy)
    return parsed


def test_repeated_lines_are_parsed_once(loadtxt_sources, numeric_parses):
    census = (REPO_ROOT / "data" / "census_surrogate.csv", "income", ">50K")
    got, want = load_csv(*census), data._load_rows(*census)
    # 32561 data lines, 5544 distinct
    assert [len(source) for source in loadtxt_sources] == [5544]
    assert got.column_names == want.column_names
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()

    loadtxt_sources.clear()
    # no line repeats and every column but the label is numeric
    load_csv(REPO_ROOT / "data" / "synthetic.csv", "outcome", "yes")
    assert loadtxt_sources == [] and numeric_parses == [True]


# pieces of data lines: text and multi-byte UTF-8, and less often a quote
# or a byte that is not UTF-8 (a stray 0xff, a lead byte with no continuation)
LINE_PIECES = [b"a", b"1", b",", b"p", b" ", "\u00e9".encode(), "\u2192".encode()] * 4 + [b'"', b"\xff", b"\xc3"]
# line ends, a lone \r less often
LINE_ENDS = [b"\n"] * 3 + [b"\r\n"] * 2 + [b"\r"]


# ... and the pieces of one cell
CELL_PIECES = [piece for piece in LINE_PIECES if piece != b","]
# A text reader decodes this many bytes at a time: the handle that reads
# the header and the first row decodes the first chunk, so only the routes
# read a byte past it
DECODE_CHUNK = 8192


@st.composite
def raw_csv_files(draw):
    """CSV bytes after an ``x,y`` header: lines drawn from a small pool, so
    they repeat, with every kind of line end (mostly the header's), blank
    lines among them, and maybe no end on the last.  Three in four pool
    lines are two cells, as the header is, so that most files get past the
    first row to ``_repeated_lines``; nine in ten of their ``y`` cells
    are ``p`` or ``q``, so that many keyed files are read as a table of
    distinct lines.  In half the files the first line repeats past the
    first decode chunk, and in half of those a line with a byte that is
    not UTF-8 follows, which only the routes read."""
    cell = st.lists(st.sampled_from(CELL_PIECES), max_size=3).map(b"".join)
    end = draw(st.sampled_from(LINE_ENDS))

    def line():
        if draw(st.integers(0, 3)):
            label = draw(st.sampled_from([b"p", b"q"])) if draw(st.integers(0, 9)) else draw(cell)
            body = draw(cell) + b"," + label
        else:
            body = draw(st.lists(st.sampled_from(LINE_PIECES), max_size=4).map(b"".join))
        return body + (end if draw(st.integers(0, 4)) else draw(st.sampled_from(LINE_ENDS)))

    pool = [line() for _ in range(draw(st.integers(1, 4)))]
    lines = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(0, 40)))]
    if lines and draw(st.booleans()):
        past = DECODE_CHUNK // len(lines[0]) + draw(st.integers(1, 3))
        lines[:1] = [lines[0]] * past
        if draw(st.booleans()):
            stray = draw(st.sampled_from([b"\xff", b"\xc3"])) + draw(st.sampled_from(pool))
            lines.insert(draw(st.integers(past, len(lines))), stray)
    body = b"".join(lines)
    if draw(st.booleans()):
        body = body.rstrip(b"\r\n")
    return b"x,y" + end + body


class TestRepeatedLinesMatchCsvPath:
    """``_repeated_lines`` keys the data lines as bytes and hands each
    distinct line once to loadtxt, which decodes it, or sends the file to
    a route that parses it whole.
    Whichever route a file takes, load_csv gives what the csv-module path
    gives, error included.  The probe is drawn small so that files of a
    few lines cross it."""

    @pytest.fixture(scope="class")
    def csv_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("bytes_reader") / "t.csv"

    @given(raw=raw_csv_files(), probe_bytes=st.integers(1, 80))
    @settings(max_examples=400, deadline=None)
    @example(raw=b"x,y\n" + b"a,p\n" * 5 + b"a,p\r", probe_bytes=8)  # a lone \r last
    @example(raw=b"x,y\n" + b"a,p\n" * 5 + b"a,p\ra,p\n", probe_bytes=8)  # past the probe
    @example(raw=b"x,y\r" + b"a,p\n" * 5, probe_bytes=8)  # in the header
    @example(raw=b"x,y\n" + b"a,p\n" * 5 + b"\xff,p\n", probe_bytes=8)
    # the same, with the first data line ending at byte 8192: the text
    # handle that reads the header and first row decodes 8 KiB at a time,
    # so here the routes are the first to decode the lines after it
    @example(raw=b"x" + b" " * 8184 + b",y\n" + b"a,p\n" * 5 + b"\xff,p\n", probe_bytes=8)
    # the probe counts bytes: a probe of 4 stops after the first line, which
    # has 6 bytes but 4 characters
    @example(raw=b"x,y\n" + "\u2192,p\n".encode() * 5, probe_bytes=4)
    def test_same_outcome_as_the_csv_module_path(self, csv_file, raw, probe_bytes):
        self.check(csv_file, raw, probe_bytes)

    @staticmethod
    def check(csv_file, raw, probe_bytes):
        csv_file.write_bytes(raw)
        with mock.patch.object(data, "_PROBE_BYTES", probe_bytes):
            assert load_outcome(load_csv, csv_file) == load_outcome(data._load_rows, csv_file)

    def test_random_draws_reach_the_routes(self, csv_file, monkeypatch):
        # A property passes whatever a branch it never reaches does.  At a
        # fixed seed, the drawn files alone, with no explicit example, must
        # reach _repeated_lines, its keyed route, it with a byte that is not
        # UTF-8 past the first decode chunk, and the keyed parse that loads
        # a table of distinct lines.
        real, routes, draws, tables = data._repeated_lines, [], [], []

        def spy(*args):
            lines, raw = real(*args), draws[-1]
            # (keyed, holds a byte that is not UTF-8, which decoding drops)
            routes.append((lines is not None, raw.decode(errors="ignore").encode() != raw))
            return lines

        def table_spy(*args):
            loaded = real_table(*args)
            tables.append(loaded[1] is not None)
            return loaded

        real_table = data.load_csv_table
        monkeypatch.setattr(data, "_repeated_lines", spy)
        monkeypatch.setattr(data, "load_csv_table", table_spy)

        @seed(0)
        @settings(max_examples=200, deadline=None, database=None)
        @given(raw=raw_csv_files(), probe_bytes=st.integers(1, 80))
        def drawn(raw, probe_bytes):
            draws.append(raw)
            self.check(csv_file, raw, probe_bytes)

        drawn()
        assert len(draws) == 200
        shares = {
            "reached": len(routes) / 200,
            "keyed": sum(keyed for keyed, _ in routes) / 200,
            "reached with a stray byte": sum(stray for _, stray in routes) / 200,
            "loaded as a table": sum(tables) / 200,
        }
        # 0.575, 0.19, 0.185 and 0.035 at this seed
        assert shares["reached"] >= 0.4 and shares["keyed"] >= 0.1, shares
        assert shares["reached with a stray byte"] >= 0.05, shares
        assert shares["loaded as a table"] >= 0.03, shares

    @pytest.mark.parametrize("lines, position", [
        # repeated lines, the bad one inside the probe
        (b"1,a,p\n2,b,q\n" * 4000 + b"3,\xff,p\n" + b"1,a,p\n2,b,q\n" * 4000, 7048),
        # repeated lines, the bad one past the probe: one of the distinct lines
        (b"1,a,p\n2,b,q\n" * 8000 + b"3,\xff,p\n" + b"1,a,p\n2,b,q\n" * 4000, 5896),
        # no line repeats, the bad one past the probe
        (b"".join(b"%d,a,p\n" % i for i in range(20000)) + b"3,\xff,p\n", 482),
    ])
    def test_an_undecodable_data_line_fails_at_load(self, tmp_path, capsys, lines, position):
        # the position counts from the start of the 8 KiB block the text
        # reader was decoding, as it always has
        path = tmp_path / "t.csv"
        path.write_bytes(b"x,t,y\n" + lines)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": {"path": str(path), "label_column": "y", "positive_label": "p"},
                                      "sensitive_attributes": ["x"]}), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error [load] 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte\n"
        )


def test_lines_that_repeat_only_after_the_probe_are_parsed_whole(tmp_path, loadtxt_sources,
                                                                 numeric_parses):
    rows = [f"{i},{'pq'[i % 3 == 0]}\n" for i in range(10_000)]
    assert len("".join(rows)) > data._PROBE_BYTES
    path = write(tmp_path / "t.csv", "x,y\n" + "".join(rows + rows[:50]))
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert loadtxt_sources == [] and numeric_parses == [True]


@pytest.mark.parametrize("text", [
    "x,y\n1,p\n\n1,p\n2,q\n",  # loadtxt skips a blank line that the line index counts
    'c,y\n"a\nb",p\n"a\nb",p\n',  # a quoted cell can span lines
    "t,y\ra,p\ra,p\ra,p\rb,q\r",  # a lone \r ends a text line, not a byte line
])
def test_repeats_with_a_blank_line_or_a_quote_are_parsed_whole(tmp_path, loadtxt_sources, text):
    path = write(tmp_path / "t.csv", text)
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert len(loadtxt_sources) == 1 and hasattr(loadtxt_sources[0], "read")


def test_a_quoted_header_keeps_the_distinct_line_route(tmp_path, loadtxt_sources):
    # R's write.csv quotes the header; only the data lines are searched for quotes
    path = write(tmp_path / "t.csv", '"t","y"\n' + "a,p\nb,q\n" * 50)
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert [len(source) for source in loadtxt_sources] == [2]


def census_with_a_unique_column(path):
    """data/census_surrogate.csv with a unique integer second column, as the
    real census file's fnlwgt: text columns, and no line repeats."""
    header, *rows = (REPO_ROOT / "data" / "census_surrogate.csv").read_text(encoding="utf-8").splitlines()
    weights = np.random.default_rng(0).permutation(len(rows)) + 12285
    lines = [f"{row.split(',', 1)[0]},{weight},{row.split(',', 1)[1]}" for row, weight in zip(rows, weights.tolist())]
    age, rest = header.split(",", 1)
    return write(path, "\n".join([f"{age},fnlwgt,{rest}", *lines]) + "\n")


def test_text_files_without_repeats_are_parsed_whole(tmp_path, loadtxt_sources, numeric_parses):
    # Deduping every text file's lines would spare the probe, but on this
    # file it took about 1.5 times as long as the one whole-file pass
    # (medians of 40 interleaved loads each)
    path = census_with_a_unique_column(tmp_path / "census_fnlwgt.csv")
    got, want = load_csv(path, "income", ">50K"), data._load_rows(path, "income", ">50K")
    assert len(loadtxt_sources) == 1 and hasattr(loadtxt_sources[0], "read")
    assert numeric_parses == []
    assert got.column_names == want.column_names and got.column_names[:2] == ("age", "fnlwgt")
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_fast_path_codes_text_cells_without_a_python_call_per_cell():
    path = REPO_ROOT / "data" / "census_surrogate.csv"
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        ds = load_csv(path, "income", ">50K")
    finally:
        sys.setprofile(previous)
    # three text or label cells per row: one Python call per cell would be ~98k
    assert calls < ds.n_rows // 100


@pytest.mark.parametrize("text", [
    "x,y\r\n1,p\r\n2,p",  # the last line has no line end
    "y,x,z\np,-0.0,2\nq,3,-0e0\n",
    "x,y,z\n1,-0,2\n3,p,4\n",  # the label -0 is not a number
    "x,z,y\n0,1,p\n2,0,q\n0,0,p\n",  # integer zeros and no -0
    "x,y\n1,p\n1,p\n2,q\n",  # the first data line twice: most lines are distinct
    "x,y\n1,p\n2,q\n1,p\n2,q\n",  # half the lines repeat
])
def test_numeric_files_take_the_numeric_path(tmp_path, monkeypatch, loadtxt_sources,
                                             numeric_parses, text):
    path = write(tmp_path / "t.csv", text)
    expected = load_outcome(data._load_rows, path)
    monkeypatch.setattr(data, "_load_rows", None)
    assert load_outcome(load_csv, path) == expected
    assert loadtxt_sources == [] and numeric_parses == [True]


def test_numeric_lines_that_mostly_repeat_are_parsed_once(tmp_path, loadtxt_sources,
                                                        numeric_parses):
    path = write(tmp_path / "t.csv", "x,y\n1,p\n2,q\n1,p\n2,q\n1,p\n")
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert numeric_parses == [] and [len(source) for source in loadtxt_sources] == [2]


@pytest.mark.parametrize("cell", ["true", "false", "null", "{}", "[]", "[1]"])
def test_json_values_that_are_not_numbers_leave_the_numeric_path(tmp_path, numeric_parses,
                                                                  cell):
    path = write(tmp_path / "t.csv", f"x,z,w,y\n1,2,3,p\n4,{cell},5,q\n")
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    # null would reach the csv-module path even if the block were parsed:
    # np.fromiter reads it as NaN, which the finiteness check refuses
    assert numeric_parses == [False]


def test_a_bad_utf8_label_after_the_probe_fails_as_on_the_csv_module_path(tmp_path):
    rows = "".join(f"{i},p\n" for i in range(20_000)).encode()
    assert len(rows) > data._PROBE_BYTES
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,y\n" + rows + b"1,\xff\n")
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert load_outcome(load_csv, path)[0] is UnicodeDecodeError


def test_numeric_path_parses_without_a_python_call_per_row(tmp_path):
    path = tmp_path / "planted.csv"
    save_csv(planted_bias_dataset(40_000, n_noise=2, seed=3), path)  # 1.9 MB, 15 blocks
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        ds = load_csv(path, "label", "1")
    finally:
        sys.setprofile(previous)
    assert "_numeric_block" in calls and "loadtxt" not in calls
    # the calls are a few per block of data lines; one per row would be 40k
    assert len(calls) < ds.n_rows // 100


class TestDatasetInvariants:
    def test_rejects_nan_features(self):
        with pytest.raises(DataError, match="NaN or infinite"):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), ("a",))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError, match="0 or 1"):
            Dataset(np.ones((2, 1)), np.array([0, 2]), ("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="duplicate"):
            Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "a"))

    @pytest.mark.parametrize("rows, message", [
        ([True, False, True], "integer row indices, got dtype bool"),  # once rows 1, 0, 1
        ([0.0, 1.9], "integer row indices, got dtype float64"),  # once truncated to 0, 1
        ([0, -1], r"row indices must lie in 0\.\.2"),  # once wrapped to row 2
        ([0, 3], r"row indices must lie in 0\.\.2"),
    ])
    def test_take_rejects_what_is_not_a_row_index(self, rows, message):
        ds = Dataset(np.arange(3.0)[:, None], np.array([0, 1, 0]), ("a",))
        with pytest.raises(DataError, match=message):
            ds.take(rows)
        assert ds.take(np.array([2, 0], dtype=np.uint8)).column("a").tolist() == [2.0, 0.0]

    def test_immutable_after_construction(self):
        ds = Dataset(np.ones((2, 1)), np.array([0, 1]), ("a",))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_callers_array_stays_writable(self):
        features = np.ones((2, 1))
        ds = Dataset(features, np.array([0, 1]), ("a",))
        assert np.shares_memory(ds.features, features)  # a view, not a copy
        assert features.flags.writeable and not ds.features.flags.writeable


def byte_cells(features, labels):
    """Test oracle: the rows grouped by exact (feature bytes, label)
    equality, one Python dict lookup per row, cells in first-appearance
    order."""
    index, first, cell = {}, [], []
    for i, (row, label) in enumerate(zip(features, labels)):
        key = (row.tobytes(), int(label))
        if key not in index:
            index[key] = len(first)
            first.append(i)
        cell.append(index[key])
    return first, cell


CELL_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]


@st.composite
def cell_problems(draw):
    """Small matrices of a few values, so rows repeat, keys tie (0.0 and
    -0.0) and the key's terms are huge or subnormal."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from(CELL_VALUES), min_size=1, max_size=4, unique_by=float.hex))
    features = draw(arrays(np.float64, (n, d), elements=st.sampled_from(values)))
    labels = draw(arrays(np.int64, n, elements=st.sampled_from([0, 1])))
    return features, labels


class TestCells:
    @settings(max_examples=300, deadline=None)
    @given(cell_problems())
    @example((np.array([[0.0], [-0.0], [0.0], [-0.0]]), np.array([1, 1, 1, 1])))
    @example((np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, -1e308]]), np.array([0, 0, 0])))
    @example((np.array([[5e-324], [0.0], [-5e-324], [5e-324], [0.0]]), np.array([1, 0, 1, 1, 0])))
    def test_cells_are_the_exact_byte_partition(self, problem):
        # RuntimeWarnings are errors in this suite, so an overflowing key fails here
        features, labels = problem
        first, cell = Dataset(features, labels, tuple(f"c{j}" for j in range(features.shape[1]))).cells
        assert (first.tolist(), cell.tolist()) == byte_cells(features, labels)
        assert (np.diff(first) > 0).all()
        assert (first[cell] <= np.arange(labels.shape[0])).all()

    def test_census_surrogate_training_split_has_5051_cells(self):
        ds = load_csv(REPO_ROOT / "data" / "census_surrogate.csv", "income", ">50K")
        train, _ = split(ds, SplitSpec())
        first, cell = train.cells
        assert (train.n_rows, first.shape[0]) == (26049, 5051)
        assert (first.tolist(), cell.tolist()) == byte_cells(train.features, train.labels)

    @pytest.mark.parametrize("n_noise", [3, 30])  # 30: the key stops after 16 columns
    def test_distinct_rows_are_their_own_cells(self, n_noise):
        ds = planted_bias_dataset(300, n_noise=n_noise, seed=1)
        first, cell = ds.cells
        assert first.tolist() == cell.tolist() == list(range(300))
        assert not first.flags.writeable and not cell.flags.writeable

    def test_rows_equal_on_their_first_16_columns(self):
        rng = np.random.default_rng(3)
        features = np.column_stack([np.zeros((60, 16)), rng.choice([0.0, -0.0, 1.0], (60, 3))])
        labels = rng.integers(0, 2, 60)
        first, cell = Dataset(features, labels, tuple(f"c{j}" for j in range(19))).cells
        assert (first.tolist(), cell.tolist()) == byte_cells(features, labels)
        assert first.shape[0] < 60


SPLIT_SPECS = [SplitSpec(), SplitSpec(0.5, 0), SplitSpec(0.9, 7)]


def side_bytes(side):
    """A split side as its names, feature and label bytes and cells, which
    must be _row_cells of its rows."""
    first, cell = side.cells
    want_first, want_cell = data._row_cells(side.features, side.labels)
    assert (first.dtype, cell.dtype) == (want_first.dtype, want_cell.dtype)
    assert (first.tobytes(), cell.tobytes()) == (want_first.tobytes(), want_cell.tobytes())
    return side.column_names, side.features.tobytes(), side.labels.tobytes(), first.tobytes(), cell.tobytes()


def split_outcome(dataset, lines, spec):
    """split(dataset, spec, lines), then the split of its training side as
    the grid does it (a fifth held out, the same seed): [train, test] and
    [sub-train, validation] as side_bytes, up to the DataError that a split
    raised, if any."""
    outcome = []
    try:
        train, test = split(dataset, spec, lines)
        outcome.append([side_bytes(train), side_bytes(test)])
        outcome.append([side_bytes(side) for side in split(train, SplitSpec(0.2, spec.seed))])
    except DataError as exc:
        outcome.append((type(exc), str(exc)))
    return outcome


def file_split_outcome(path, label_column, positive_label, spec, from_table):
    """split_outcome of a file, split from the loader's table or from
    load_csv's expanded rows, or the exception that loading raised."""
    try:
        if from_table:
            table, lines = data.load_csv_table(path, label_column, positive_label)
        else:
            table, lines = load_csv(path, label_column, positive_label), None
    except Exception as exc:
        return type(exc), str(exc)
    return split_outcome(table, lines, spec)


@st.composite
def tables_with_lines(draw):
    """A table of a few values, so that rows repeat and 0.0 and -0.0 cells
    tie, and 2-40 data rows, each one a row of the table."""
    features, labels = draw(cell_problems())
    lines = draw(arrays(np.intp, draw(st.integers(2, 40)), elements=st.integers(0, labels.shape[0] - 1)))
    return Dataset(features, labels, tuple(f"c{j}" for j in range(features.shape[1]))), lines


class TestSplitFromTable:
    """split on load_csv_table's (table, lines) gives split(load_csv(...))
    byte for byte, and so does the grid's split of its training side,
    which takes its cells from the training side's: every side's cells are
    _row_cells of its rows."""

    @pytest.fixture(scope="class")
    def csv_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("table") / "t.csv"

    @given(text=csv_texts(repeats=True))
    # two distinct lines that parse to one row: the line index alone keeps them apart
    @example(text="x,c,y\n1,a,p\n1.0,a,p\n1,a,p\n1.0,a,q\n1.0,a,p\n")
    @settings(max_examples=150, deadline=None)
    def test_repeated_lines(self, csv_file, text):
        with open(csv_file, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        for spec in SPLIT_SPECS:
            got = file_split_outcome(csv_file, "y", "p", spec, True)
            assert got == file_split_outcome(csv_file, "y", "p", spec, False)

    @settings(max_examples=150, deadline=None)
    @given(table_lines=tables_with_lines())
    @example(table_lines=(Dataset(np.array([[0.0], [-0.0], [0.0]]), np.array([1, 1, 1]), ("c0",)),
                          np.array([0, 1, 2, 1, 0, 2, 2, 1, 1, 0])))
    def test_planted_duplicate_rows(self, table_lines):
        table, lines = table_lines
        for spec in SPLIT_SPECS:
            assert split_outcome(table, lines, spec) == split_outcome(table.take(lines), None, spec)

    def test_one_row_read_two_ways_is_one_cell(self, tmp_path):
        path = write(tmp_path / "t.csv", "x,c,y\n1,a,p\n1.0,a,p\n1,a,p\n1.0,a,q\n1.0,a,p\n")
        table, lines = data.load_csv_table(path, "y", "p")
        assert (table.n_rows, lines.tolist()) == (3, [0, 1, 0, 2, 1])
        train, _ = split(table, SplitSpec(0.2, 0), lines)
        assert train.cells[0].shape[0] == 2

    @pytest.mark.parametrize("spec", SPLIT_SPECS)
    def test_census_surrogate(self, spec):
        census = (REPO_ROOT / "data" / "census_surrogate.csv", "income", ">50K")
        got = file_split_outcome(*census, spec, True)
        assert isinstance(got, list) and len(got) == 2 and all(isinstance(level, list) for level in got)
        assert got == file_split_outcome(*census, spec, False)

    def test_the_test_side_sorts_its_own_rows_when_read(self, monkeypatch):
        ds = Dataset(np.array([[1.0], [1.0], [2.0], [1.0]]), np.array([0, 0, 1, 0]), ("a",))
        train, test = split(ds, SplitSpec(0.5, 0))
        sorted_rows, real_row_cells = [], data._row_cells

        def row_cells(features, labels):
            sorted_rows.append(features.shape[0])
            return real_row_cells(features, labels)

        monkeypatch.setattr(data, "_row_cells", row_cells)
        train.cells
        assert sorted_rows == []
        test.cells
        assert sorted_rows == [2]


CLI_JOBS = {
    "census run": ("census_surrogate_m3fair.json", "run"),
    "census grid": ("census_surrogate_m3fair.json", "grid"),
    "census weights": ("census_surrogate_m3fair.json", "weights"),
    "synthetic grid": ("synthetic_m3fair.json", "grid"),
    "synthetic run": ("synthetic_m3fair.json", "run"),
    "synthetic detect": ("synthetic_m3fair.json", "detect"),
    "synthetic weights": ("synthetic_m3fair.json", "weights"),
    "wide detect": (None, "detect"),
}


@pytest.mark.parametrize("job", CLI_JOBS)
def test_each_job_sorts_the_loaded_rows_once(job, tmp_path, monkeypatch, capsys):
    """Every CLI job runs _row_cells exactly once, on the rows the loader
    returned: the table of distinct lines on the census surrogate (5544 of
    32561 lines), every row elsewhere.  The training split's cells come
    from them, and the grid's sub-training and winner's cells from those."""
    name, command = CLI_JOBS[job]
    if name is None:  # the wide detect benchmark's shape: 201 numeric columns, more than the key's 16
        csv_path = tmp_path / "wide.csv"
        save_csv(planted_bias_dataset(600, n_noise=200, rate_gap=0.3, seed=0), csv_path)
        payload = {"dataset": {"path": str(csv_path), "label_column": "label", "positive_label": "1"},
                   "sensitive_attributes": ["planted"], "detection": {"top_n": 10}}
    else:
        payload = json.loads((REPO_ROOT / "configs" / name).read_text())
        payload["dataset"]["path"] = str(REPO_ROOT / payload["dataset"]["path"])
    payload["report_path"] = str(tmp_path / "report")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    dataset = payload["dataset"]
    table, _ = data.load_csv_table(dataset["path"], dataset["label_column"], dataset["positive_label"])

    sorted_rows, real_row_cells = [], data._row_cells

    def row_cells(features, labels):
        sorted_rows.append((features.tobytes(), labels.tobytes()))
        return real_row_cells(features, labels)

    monkeypatch.setattr(data, "_row_cells", row_cells)
    output = ["--output", str(tmp_path / ("weights.csv" if command == "weights" else "out"))]
    assert main([command, "--config", str(config), *output]) == 0, capsys.readouterr().err
    assert sorted_rows == [(table.features.tobytes(), table.labels.tobytes())]


def test_census_split_expands_no_rows_and_sorts_only_the_distinct_lines(monkeypatch):
    """The pipeline's load and split build no 32561-row matrix, and the
    training cells sort no more rows than the 5544 distinct lines."""
    built, sorted_rows = [], []
    real_post_init, real_row_cells = Dataset.__post_init__, data._row_cells

    def post_init(self):
        real_post_init(self)
        built.append(self.n_rows)

    def row_cells(features, labels):
        sorted_rows.append(features.shape[0])
        return real_row_cells(features, labels)

    monkeypatch.setattr(Dataset, "__post_init__", post_init)
    monkeypatch.setattr(data, "_row_cells", row_cells)
    config = ExperimentConfig(
        DatasetConfig(str(REPO_ROOT / "data" / "census_surrogate.csv"), "income", ">50K"),
        ("sex=Male", "race=White"),
    )
    train, _ = experiment._load_split(config)
    assert train.cells[0].shape[0] == 5051
    assert sorted(built) == [5544, 6512, 26049]  # the table, test and train
    assert sorted_rows == [5544]


def test_census_grid_sorts_only_the_distinct_lines(monkeypatch):
    """The grid's sub-split takes its cells from the training split's,
    which come from the loader's table: the sub-training cells, and the
    winner's training cells, so _row_cells runs once, on its 5544 rows,
    not on 20840."""
    sorted_rows = []
    real_row_cells = data._row_cells

    def row_cells(features, labels):
        sorted_rows.append(features.shape[0])
        return real_row_cells(features, labels)

    monkeypatch.setattr(data, "_row_cells", row_cells)
    levels = {"sex=Male": 1, "race=White": 2}
    config = ExperimentConfig(
        DatasetConfig(str(REPO_ROOT / "data" / "census_surrogate.csv"), "income", ">50K"),
        tuple(levels), method="m3fair", split=SplitSpec(0.2, 42), level_weights=levels,
    )
    result = experiment.grid_search(config, experiment.GridSearchConfig(dict.fromkeys(levels, (1, 2))))
    assert [point.status for point in result.points] == ["ok"] * 4
    assert sorted_rows == [5544]


def test_census_run_sorts_nothing_as_long_as_the_training_split(tmp_path, monkeypatch, capsys):
    """A run of the committed census m3fair config groups its 26049
    training rows' levels, splits its 32561 lines and ranks its 6512 test
    scores without sorting: no np.unique or np.sort call gets an array of
    26049 or more items, and no argsort is stable."""
    sizes, kinds = [], []
    for name in ("unique", "sort"):
        def spy(values, *args, real=getattr(np, name), **kwargs):
            sizes.append(np.size(values))
            return real(values, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)

    def argsort(values, *args, real=np.argsort, **kwargs):
        kinds.append(kwargs.get("kind", args[1] if len(args) > 1 else None))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    monkeypatch.chdir(REPO_ROOT)
    payload = json.loads((REPO_ROOT / "configs" / "census_surrogate_m3fair.json").read_text())
    payload["report_path"] = str(tmp_path / "report")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config)]) == 0, capsys.readouterr().err
    assert all(size < 26049 for size in sizes), sorted(sizes)
    assert kinds and "stable" not in kinds, kinds


BINARY_CHECKS = {
    "Dataset": lambda values: Dataset(np.zeros((4, 1)), values, ("a",)),
    "GroupAssignment": lambda values: GroupAssignment("a", values),
    "reweight": lambda values: reweight(values, [0, 0, 1, 1], SampleWeights.unit(4)),
    "PredictionSet": lambda values: PredictionSet(np.full(4, 0.5), values),
}


@pytest.mark.parametrize("check", BINARY_CHECKS)
@pytest.mark.parametrize("values", [
    [0, 1, 1, 0],
    [0.0, 1.0, 1.0, 0.0],
    [False, True, True, False],
    np.array([0, 1, 1, 0], dtype=np.int8),
    np.array([0, 1, 1, 0], dtype=object),
    ["0", "1", "1", "0"],
    np.array([b"0", b"1", b"1", b"0"]),
    np.array([0, "1", 1, 0], dtype=object),
    [0, 0.5, 1, 0],
    [0, None, 1, 0],
    [0, 2, 1, 0],
    [0, -1, 1, 0],
    [0, np.nan, 1, 0],
], ids=repr)
def test_binary_checks_accept_what_isin_accepts(check, values):
    # the equality test ((x == 0) | (x == 1)).all() must keep the verdict of
    # the sort-based np.isin(x, (0, 1)).all() that it replaced
    if np.isin(np.asarray(values), (0, 1)).all():
        BINARY_CHECKS[check](values)
    else:
        with pytest.raises(DataError, match="0 or 1$"):
            BINARY_CHECKS[check](values)


class TestBinarizeByMean:
    def test_strictly_above_mean(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0], [6.0]]), np.array([0, 1, 0, 1]), ("v",))
        group = binarize_by_mean(ds, "v")  # mean is 3; only 6 exceeds it
        assert group.membership.tolist() == [0, 0, 0, 1]

    def test_binary_column_maps_to_itself(self):
        ds = Dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1]), ("v",))
        assert binarize_by_mean(ds, "v").membership.tolist() == [0, 0, 1, 1]

    def test_constant_column_degenerate(self):
        ds = Dataset(np.full((4, 1), 5.0), np.array([0, 1, 0, 1]), ("v",))
        with pytest.raises(DegenerateAttributeError, match="degenerate"):
            binarize_by_mean(ds, "v")

    @given(st.integers(1, 9), st.integers(min_value=1, max_value=9))
    def test_idempotent_on_binary_unequal_groups(self, ones, zeros):
        if ones == zeros:
            zeros += 1
        values = np.array([1.0] * ones + [0.0] * zeros)
        labels = (np.arange(len(values)) % 2).astype(int)
        ds = Dataset(values[:, None], labels, ("v",))
        group = binarize_by_mean(ds, "v")
        assert np.array_equal(group.membership, values.astype(np.int8))

    def test_column_whose_sum_overflows(self, monkeypatch):
        # 1e308 on every fourth of 200 rows: the plain sum is inf, and the
        # threshold is the kernel's scaled mean, about 2.5e307, bit for bit
        rng = np.random.default_rng(7)
        values = np.column_stack([rng.normal(size=200), np.where(np.arange(200) % 4 == 0, 1e308, 0.0)])
        ds = Dataset(values, np.arange(200) % 2, ("x", "big"))
        thresholds, real = [], data.binarize_by_threshold

        def spy(dataset, column, threshold):
            thresholds.append(threshold)
            return real(dataset, column, threshold)

        monkeypatch.setattr(data, "binarize_by_threshold", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            group = binarize_by_mean(ds, "big")
        means, (above,) = _above_train_means(ds, ("big",))
        assert thresholds == [pytest.approx(2.5e307, rel=1e-15)]
        assert float.hex(thresholds[0]) == float.hex(means[0])
        assert np.array_equal(group.membership, above[0])


# Signed zeros, the largest finite doubles (whose sums overflow) and the
# smallest subnormal, among ordinary values
KERNEL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, sys.float_info.max, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def kernel_splits(draw):
    """A training and an other split over the same columns, some of them
    constant on the training split, and the columns asked for, in any order."""
    d = draw(st.integers(1, 5))
    names = tuple(f"c{j}" for j in range(d))
    train_values = draw(arrays(np.float64, (draw(st.integers(1, 300)), d), elements=KERNEL_VALUES))
    for j in draw(st.sets(st.integers(0, d - 1))):
        train_values[:, j] = train_values[0, j]  # a constant column
    other_values = draw(arrays(np.float64, (draw(st.integers(1, 30)), d), elements=KERNEL_VALUES))
    columns = draw(st.permutations(names))[:draw(st.integers(1, d))]

    def dataset(values):
        return Dataset(values, np.arange(values.shape[0]) % 2, names)

    return dataset(train_values), dataset(other_values), columns


def exact_mean(values) -> float:
    """The mean of ``values`` in rational arithmetic, rounded once."""
    return float(sum(map(Fraction, values.tolist())) / len(values))


class TestAboveTrainMeans:
    """The one binarization kernel: the k means are bit for bit each
    column's own mean where that sum is finite, and each split's
    memberships the per-column compare."""

    @staticmethod
    def check(train, other, columns):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [float(train.column(name).mean()) for name in columns]
        means, (train_above, other_above) = _above_train_means(train, columns, other)
        assert all(type(mean) is float for mean in means)
        for name, mean, plain in zip(columns, means, expected):
            if math.isfinite(plain):
                assert float.hex(mean) == float.hex(plain)
            else:
                # the plain sum overflowed: the scaled mean is within a few
                # roundings of max |x| of the exact mean
                values = train.column(name)
                scale = float(np.abs(values).max())
                assert abs(mean - exact_mean(values)) <= 1e-13 * scale
        for dataset, above in ((train, train_above), (other, other_above)):
            assert above.dtype == bool and above.shape == (len(columns), dataset.n_rows)
            for row, name, mean in zip(above, columns, means):
                assert np.array_equal(row, dataset.column(name) > mean)

    @given(kernel_splits())
    @settings(max_examples=200, deadline=None)
    def test_means_and_memberships_match_each_column(self, splits):
        self.check(*splits)

    def test_census_sized_columns(self):
        # many of the pairwise sum's 128-element blocks
        rng = np.random.default_rng(5)
        train = Dataset(rng.normal(size=(26049, 3)) * [1.0, 1e300, 1e-300], np.arange(26049) % 2, ("a", "b", "c"))
        other = Dataset(rng.normal(size=(6512, 3)), np.arange(6512) % 2, ("a", "b", "c"))
        self.check(train, other, ("c", "a", "b"))

    def test_column_whose_sum_overflows(self):
        # 1e308 on every fourth row: the plain sum is inf, the mean 2.5e307
        rng = np.random.default_rng(7)
        values = np.column_stack([rng.normal(size=200), np.where(np.arange(200) % 4 == 0, 1e308, 0.0)])
        train = Dataset(values, np.arange(200) % 2, ("x", "big"))
        with np.errstate(all="raise"):
            means, (above,) = _above_train_means(train, ("x", "big"))
        assert float.hex(means[0]) == float.hex(float(train.column("x").mean()))
        assert means[1] == pytest.approx(2.5e307, rel=1e-15)
        assert np.array_equal(above[1], np.arange(200) % 4 == 0)

    def test_only_the_training_split_without_others(self):
        train = Dataset(np.array([[1.0, 5.0], [3.0, 5.0]]), np.array([0, 1]), ("a", "b"))
        means, above = _above_train_means(train, ("b", "a"))
        assert means == [5.0, 2.0]
        assert [rows.tolist() for rows in above] == [[[False, False], [False, True]]]

    @pytest.mark.parametrize("in_other", [False, True])
    def test_unknown_column_named_as_column_does(self, in_other):
        known = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), ("a", "b"))
        lacking = Dataset(np.array([[1.0], [3.0]]), np.array([0, 1]), ("a",))
        train, other = (known, lacking) if in_other else (lacking, known)
        with pytest.raises(DataError, match="^unknown column 'b'$"):
            lacking.column("b")
        with pytest.raises(DataError, match="^unknown column 'b'$"):
            _above_train_means(train, ("a", "b"), other)


class TestSetPrivileged:
    def _ds(self, labels):
        labels = np.asarray(labels)
        return Dataset(np.arange(len(labels), dtype=float)[:, None], labels, ("x",))

    def test_higher_base_rate_wins(self):
        ds = self._ds([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])
        group = GroupAssignment("g", np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0]))
        assert set_privileged(group, ds).privileged_value == 1  # rates 0.6 vs 0.2

    def test_group_zero_can_be_privileged(self):
        ds = self._ds([0, 0, 0, 0, 0, 1, 1, 1, 1, 0])
        group = GroupAssignment("g", np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0]))
        assert set_privileged(group, ds).privileged_value == 0  # rates 0.0 vs 0.8

    def test_tie_breaks_toward_one(self):
        ds = self._ds([1, 0, 1, 0])
        group = GroupAssignment("g", np.array([1, 1, 0, 0]))
        assert set_privileged(group, ds).privileged_value == 1

    def test_empty_group_rejected(self):
        ds = self._ds([1, 0])
        group = GroupAssignment("g", np.array([1, 1]))
        with pytest.raises(DataError, match="non-empty"):
            set_privileged(group, ds)

    @pytest.mark.parametrize("membership", [[1, 0, 1], [1, 0, 1, 0, 1]])
    def test_group_not_row_aligned_rejected(self, membership):
        ds = self._ds([1, 0, 1, 0])
        group = GroupAssignment("g", np.array(membership))
        with pytest.raises(DataError, match="^group assignment not row-aligned with the dataset$"):
            set_privileged(group, ds)

    @staticmethod
    def outcome(rule, membership, labels):
        """The privileged side ``rule`` picks, or its error's type and message."""
        group = GroupAssignment("g", np.array(membership))
        ds = Dataset(np.zeros((len(labels), 1)), np.array(labels), ("x",))
        try:
            return rule(group, ds).privileged_value
        except DataError as exc:
            return type(exc), str(exc)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    @example(rows=[(1, 1), (1, 0)])  # one side empty
    @example(rows=[(1, 1), (1, 0), (0, 1), (0, 0)])  # equal base rates
    def test_matches_the_oracle(self, rows):
        membership, labels = zip(*rows)
        assert self.outcome(set_privileged, membership, labels) == self.outcome(
            set_privileged_oracle, membership, labels
        )

    def test_rates_that_round_to_one_double_tie_toward_one(self):
        # label_counts[side, label]: side 0 has 2^27 positives of 2^27 + 1
        # rows, side 1 has 2^27 - 1 of 2^27.  Side 0's rate is higher, but
        # both round to the same double, so the rule ties them to side 1.
        n = 2**27
        counts = np.array([[1, n], [1, n - 1]])
        assert Fraction(n, n + 1) > Fraction(n - 1, n)
        assert n / (n + 1) == (n - 1) / n
        assert privileged_side(counts) == 1
        assert privileged_side(np.array([counts, counts[::-1]])).tolist() == [1, 1]


class TestSplit:
    def _ds(self, n):
        rng = np.random.default_rng(n)
        return Dataset(rng.standard_normal((n, 2)), rng.binomial(1, 0.5, n), ("a", "b"))

    def test_floor_fraction(self):
        train, test = split(self._ds(10), SplitSpec(0.3, 42))
        assert train.n_rows == 7 and test.n_rows == 3

    def test_test_side_at_least_one(self):
        train, test = split(self._ds(10), SplitSpec(0.05, 7))
        assert train.n_rows == 9 and test.n_rows == 1

    def test_deterministic(self):
        ds = self._ds(50)
        a = split(ds, SplitSpec(0.25, 3))
        b = split(ds, SplitSpec(0.25, 3))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    @given(st.integers(2, 200), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_exhaustive_reproducible(self, n, fraction, seed):
        ds = Dataset(np.arange(n, dtype=float)[:, None], (np.arange(n) % 2), ("id",))
        spec = SplitSpec(fraction, seed)
        train, test = split(ds, spec)
        ids = np.concatenate([train.column("id"), test.column("id")])
        assert sorted(ids.tolist()) == list(range(n))
        train2, test2 = split(ds, spec)
        assert np.array_equal(train.column("id"), train2.column("id"))
        assert np.array_equal(test.column("id"), test2.column("id"))

    @given(n=st.integers(2, 300), fraction=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1),
           with_lines=st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(n=2, fraction=0.5, seed=0, with_lines=False)  # one row a side
    @example(n=2, fraction=0.5, seed=3, with_lines=True)
    @example(n=50, fraction=0.001, seed=1, with_lines=False)  # n_test raised to 1
    @example(n=50, fraction=0.001, seed=1, with_lines=True)
    @example(n=50, fraction=0.99, seed=2, with_lines=False)  # n_test == n - 1
    @example(n=50, fraction=0.99, seed=2, with_lines=True)
    def test_sides_are_the_sorted_halves_of_the_permutation(self, n, fraction, seed, with_lines):
        n_test = max(1, math.floor(n * fraction))
        perm = np.random.default_rng(seed).permutation(n)
        want = np.sort(perm[n_test:]), np.sort(perm[:n_test])
        ids = np.arange(n)
        if with_lines:  # the loader's (table, lines): data line i is table row lines[i]
            lines = np.random.default_rng(seed + 1).integers(0, max(1, n // 3), n)
            table = Dataset(np.arange(lines.max() + 1, dtype=float)[:, None], np.zeros(lines.max() + 1), ("id",))
            sides, ids = split(table, SplitSpec(fraction, seed), lines), lines
        else:
            sides = split(Dataset(ids[:, None].astype(float), ids % 2, ("id",)), SplitSpec(fraction, seed))
        for side, rows in zip(sides, want):
            assert side.column("id").tobytes() == ids[rows].astype(float).tobytes()

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0, 1)
        with pytest.raises(ConfigError):
            SplitSpec(1.0, 1)
