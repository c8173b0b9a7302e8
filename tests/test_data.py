import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import REPO_ROOT
from multifair import data
from multifair.data import (
    Dataset,
    GroupAssignment,
    SplitSpec,
    binarize_by_mean,
    load_csv,
    privileged_side,
    save_csv,
    set_privileged,
    split,
)
from multifair.errors import ConfigError, DataError, DegenerateAttributeError
from multifair.metrics import PredictionSet
from multifair.reweighting import SampleWeights, reweight
from multifair.synth import planted_bias_dataset
from oracles import set_privileged as set_privileged_oracle


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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

    def test_non_finite_numeric_cell_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\nnan,0\n2,1\n")
        with pytest.raises(DataError, match="non-finite numeric value 'nan' in column 'x', data row 1"):
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


NUMBER_CELLS = ["1", "2.5", " 3 ", '"4"', "-0", "1e3", "0.1"]
TEXT_CELLS = ["a", " b ", '"a,b"', '"a\nb"', '"a\r\nb"', '"a""b"', 'a"b', "é", ""]
ODD_CELLS = ["", "1_000", "١٢", "nan", "-inf", "#c", ' "1.5"', "0x1", "a"]


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
]


def with_adversarial_examples(test):
    for text in reversed(ADVERSARIAL_FILES):
        test = example(text=text)(test)
    return test


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

    @with_adversarial_examples
    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_structured(self, csv_file, text):
        self.check(csv_file, text)

    @given(text=csv_texts(repeats=True))
    @settings(max_examples=300, deadline=None)
    def test_repeated_lines(self, csv_file, text):
        self.check(csv_file, text)

    @given(text=st.text(alphabet=',"\n\r\t a1.#_pqé', max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_raw_characters(self, csv_file, text):
        self.check(csv_file, "x,y\n" + text)


def test_fast_path_reads_the_repository_inputs(tmp_path, monkeypatch):
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
    for args, want in zip(inputs, expected):
        got = load_csv(*args)
        assert got.column_names == want.column_names
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.labels, want.labels)


def test_two_spellings_of_one_category_take_the_csv_module_path(tmp_path, monkeypatch):
    path = write(tmp_path / "t.csv", "t,x,y\na,1,p\n a,2,q\nb,3,p\n")
    expected = load_outcome(data._load_rows, path)
    real, calls = data._load_rows, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(data, "_load_rows", counted)
    assert load_outcome(load_csv, path) == expected
    assert expected[0] == ("t=a", "t=b", "x")
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


def test_repeated_lines_are_parsed_once(loadtxt_sources):
    census = (REPO_ROOT / "data" / "census_surrogate.csv", "income", ">50K")
    got, want = load_csv(*census), data._load_rows(*census)
    # 32561 data lines, 5544 distinct
    assert [len(source) for source in loadtxt_sources] == [5544]
    assert got.column_names == want.column_names
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()

    loadtxt_sources.clear()
    load_csv(REPO_ROOT / "data" / "synthetic.csv", "outcome", "yes")  # no line repeats
    assert len(loadtxt_sources) == 1 and hasattr(loadtxt_sources[0], "read")


def test_lines_that_repeat_only_after_the_probe_are_parsed_whole(tmp_path, loadtxt_sources):
    rows = [f"{i},{'pq'[i % 3 == 0]}\n" for i in range(10_000)]
    assert len("".join(rows)) > data._PROBE_BYTES
    path = write(tmp_path / "t.csv", "x,y\n" + "".join(rows + rows[:50]))
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert len(loadtxt_sources) == 1 and hasattr(loadtxt_sources[0], "read")


@pytest.mark.parametrize("text", [
    "x,y\n1,p\n\n1,p\n2,q\n",  # loadtxt skips a blank line that the line index counts
    'c,y\n"a\nb",p\n"a\nb",p\n',  # a quoted cell can span lines
])
def test_repeats_with_a_blank_line_or_a_quote_are_parsed_whole(tmp_path, loadtxt_sources, text):
    path = write(tmp_path / "t.csv", text)
    assert load_outcome(load_csv, path) == load_outcome(data._load_rows, path)
    assert len(loadtxt_sources) == 1 and hasattr(loadtxt_sources[0], "read")


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

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0, 1)
        with pytest.raises(ConfigError):
            SplitSpec(1.0, 1)
