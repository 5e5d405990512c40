"""Byte layout of the CSV writers, against a csv.writer reference, and the
bulk CSV reader, against the csv.reader row loop it falls back to."""
import csv
import gzip
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwavesim import io
from qwavesim.encoding import QuantumRegisterState, StateLayout
from qwavesim.errors import ScenarioError, ValidationError

# signed zeros, the smallest subnormal, exponent and fixed forms, and non-finite values
SPECIAL = [-0.0, 0.0, 5e-324, 1e-5, 0.1, 1e16, 123456789.0, -2.5, float("inf"), float("nan")]


def _reference(path, header, rows):
    """What the writers produced row by row: csv.writer cells of repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, int) else repr(float(c)) for c in row])


def _field_rows(times, fields):
    return [[t, k, v] for t, row in zip(times, fields) for k, v in enumerate(row)]


@pytest.mark.parametrize("block", [3, 2048])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_field_csv_bytes_match_the_csv_writer_reference(tmp_path, monkeypatch, dtype, block):
    monkeypatch.setattr(io, "_ROWS_PER_WRITE", block)
    fields = np.array([SPECIAL, SPECIAL[::-1], np.linspace(-1.0, 1.0, len(SPECIAL))], dtype=dtype)
    times = [np.float64(0.0), 0.1, np.float32(1e16)]
    io.write_field_csv(tmp_path / "new.csv", times, fields)
    _reference(tmp_path / "ref.csv", ["time", "dof", "value"], _field_rows(times, fields))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.startswith(b"time,dof,value\r\n") and data.endswith(b"\r\n")
    assert b"np." not in data


def test_single_snapshot_field_csv_matches_the_reference(tmp_path):
    # the form presim writes: one time, one field
    field = np.array(SPECIAL)
    io.write_field_csv(tmp_path / "new.csv", [np.float64(0.375)], [field])
    _reference(tmp_path / "ref.csv", ["time", "dof", "value"], _field_rows([0.375], [field]))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_energy_csv_bytes_match_the_csv_writer_reference(tmp_path):
    times = np.linspace(0.0, 1.0, len(SPECIAL))
    for energy in (SPECIAL, np.array(SPECIAL, dtype=np.float32)):
        io.write_energy_csv(tmp_path / "new.csv", times, energy)
        _reference(tmp_path / "ref.csv", ["time", "energy"], zip(times, energy))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("block", [3, 16, 2048])
def test_state_bytes_match_the_csv_writer_reference(tmp_path, monkeypatch, block):
    monkeypatch.setattr(io, "_ROWS_PER_WRITE", block)
    real = np.array([-0.0, 0.0, 5e-324, 1e-5, 0.1, 0.25, -0.3, 0.0, 1e-9, 0.2, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
    imag = np.array([0.0, -0.0, 1e-5, 5e-324, -0.1, 0.0, 0.2, 0.4, 0.0, -0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
    amps = real + 1j * imag
    amps[-1] = np.sqrt(1.0 - np.vdot(amps, amps).real)
    layout = StateLayout(num_physical=5, block_dim=8, arity=2)
    state = QuantumRegisterState(amplitudes=amps, scale=123456789.0, layout=layout)
    io.write_state(tmp_path / "state.csv", state)
    rows = [[i, a.real, a.imag] for i, a in enumerate(state.amplitudes)]
    _reference(tmp_path / "ref.csv", ["index", "real", "imag"], rows)
    assert (tmp_path / "state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    sidecar = {
        "layout": {"arity": 2, "augmented": False, "block_dim": 8, "num_physical": 5},
        "scale": 123456789.0,
    }
    assert (tmp_path / "state.csv.json").read_text() == json.dumps(sidecar, indent=2) + "\n"
    back = io.read_state(tmp_path / "state.csv")
    assert np.array_equal(back.amplitudes.view(np.uint64), state.amplitudes.view(np.uint64))


# ---------------------------------------------------------------------------
# the bulk reader against the row loop

HEADER = ["index", "real", "imag"]

# spellings float() and loadtxt both read, to the same bits
ODD = ["1.", ".5", "+3", "-0", "-0.0", "1E-7", "5e-324", "4.9e-324", "2.2250738585072011e-308",
       "123456789012345678901234567890", "0.100000000000000005551115123125782702",
       "1e999", "-1e-999", "nan", "-inf", "Infinity", " 1.5", "2.5 ", "\t3", "\xa04"]
# cells the row loop refuses or reads where loadtxt does not
JUNK = ["1_0", '"1.5"', '""', "", " ", "#", "2#", "3 # x", "abc", "0x10", "1e", "--1", "\u0661",
        "1 2"]
TERMINATORS = ["\r\n", "\n", "\r"]


CELLS = st.one_of(
    st.floats().map(repr), st.integers(-(10**20), 10**20).map(str), st.sampled_from(ODD)
)
ROWS = st.lists(CELLS, min_size=3, max_size=3).map(",".join)


@st.composite
def _junk_row(draw):
    cells = draw(st.lists(CELLS, min_size=3, max_size=3))
    cells[draw(st.integers(0, 2))] = draw(st.sampled_from(JUNK))
    return ",".join(cells)


DEFECTS = st.one_of(
    _junk_row(),
    st.lists(CELLS, min_size=0, max_size=5).map(",".join),  # the wrong width, or blank
    st.sampled_from(["", " ", "\t", "#", "# 0,1,2", '"0","1","2"', '"0\n",1,2', "0,1,2,"]),
)


@st.composite
def _tables(draw):
    """Header and rows as file text: clean rows, with at most one defect among them."""
    lines = draw(st.lists(ROWS, max_size=8))
    defect = draw(st.none() | DEFECTS)
    if defect is not None:
        lines.insert(draw(st.integers(0, len(lines))), defect)
    ends = draw(st.lists(st.sampled_from(TERMINATORS), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    text = ",".join(HEADER) + ends[0] + "".join(l + e for l, e in zip(lines, ends[1:]))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(path):
    try:
        return io._read_table(path, HEADER)
    except ScenarioError as exc:
        return str(exc)


@given(text=_tables())
def test_bulk_parse_matches_the_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text.encode())
    bulk = _outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_bulk_rows", lambda path, width: None)
        loop = _outcome(path)
    if isinstance(loop, str):
        assert bulk == loop
    else:
        assert len(bulk) == len(loop) == 3
        for a, b in zip(bulk, loop):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("end", TERMINATORS)
@pytest.mark.parametrize("final", [True, False])
def test_clean_tables_take_the_bulk_parse(tmp_path, monkeypatch, end, final):
    rows = ["0,0.1,-0.0", "1,5e-324,1E-7", "2,.5,+3"]
    text = end.join(["index,real,imag", *rows]) + (end if final else "")
    (tmp_path / "t.csv").write_bytes(text.encode())

    def row_loop(path, width):
        raise AssertionError("a clean table fell back to the row loop")

    monkeypatch.setattr(io, "_csv_rows", row_loop)
    index, real, imag = io._read_table(tmp_path / "t.csv", HEADER)
    assert index.tolist() == [0.0, 1.0, 2.0]
    assert real.tolist() == [0.1, 5e-324, 0.5]
    assert imag.view(np.uint64).tolist() == np.array([-0.0, 1e-7, 3.0]).view(np.uint64).tolist()


@pytest.mark.parametrize(
    "body",
    ["0,1,2\n\n", "0,1,2\n \n", "# 0,1,2\n", "0,1,2#\n", '"0",1,2\n', "1_0,1,2\n", "0,1\n"],
)
def test_tables_loadtxt_reads_differently_go_to_the_row_loop(tmp_path, body):
    (tmp_path / "t.csv").write_text("index,real,imag\n" + body)
    assert io._bulk_rows(tmp_path / "t.csv", 3) is None


def test_header_only_table_is_empty_and_quiet(tmp_path):
    (tmp_path / "t.csv").write_text("index,real,imag\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = io._read_table(tmp_path / "t.csv", HEADER)
    assert [c.shape for c in columns] == [(0,), (0,), (0,)]


@example(lines=["ab", "c"], ends=["\r\n", "\r\n"], final=False, chunk=3)  # "ab\r" | "\nc"
@given(
    lines=st.lists(st.text(alphabet="a1,.é ", max_size=4), max_size=8),
    ends=st.lists(st.sampled_from(TERMINATORS), min_size=8, max_size=8),
    final=st.booleans(),
    chunk=st.integers(1, 9),
)
def test_line_count_is_what_csv_reader_sees(tmp_path_factory, lines, ends, final, chunk):
    # a chunk of a few bytes splits many CRLFs between two reads
    text = "".join(line + end for line, end in zip(lines, ends))
    if not final:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("lines") / "t.csv"
    path.write_bytes(text.encode())
    with open(path, newline="", encoding="utf-8") as fh:
        seen = sum(1 for _ in csv.reader(fh))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_LINE_CHUNK", chunk)
        assert io._count_lines(path) == seen


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
@pytest.mark.parametrize("row", ["0,1,2{}", "0,1{},2", "{}0,1,2"])
def test_a_separator_byte_loadtxt_strips_goes_to_the_row_loop(tmp_path, sep, row):
    # loadtxt strips the ASCII separators 0x1c to 0x1f around a cell as
    # whitespace; float() refuses them, so the row loop names the line
    (tmp_path / "t.csv").write_text("index,real,imag\n1,2,3\n" + row.format(sep) + "\n")
    with pytest.raises(ScenarioError, match="line 3: non-numeric cell"):
        io._read_table(tmp_path / "t.csv", HEADER)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_plain_table_named_like_a_compressed_file_reads_as_text(tmp_path, suffix):
    # loadtxt would open these names through a decompressor
    text = "index,real,imag\r\n0,0.1,-0.0\r\n1,5e-324,1E-7\r\n2,.5,+3\r\n"
    (tmp_path / "t.csv").write_text(text, newline="")
    (tmp_path / f"t.csv{suffix}").write_text(text, newline="")
    plain = io._read_table(tmp_path / "t.csv", HEADER)
    named = io._read_table(tmp_path / f"t.csv{suffix}", HEADER)
    for a, b in zip(plain, named):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_a_gzipped_state_is_refused_as_not_utf8(tmp_path):
    layout = StateLayout(num_physical=2, block_dim=2)
    state = QuantumRegisterState(amplitudes=np.array([0.6, 0.8j]), scale=1.0, layout=layout)
    io.write_state(tmp_path / "state.csv", state)
    path = tmp_path / "state.csv.gz"
    path.write_bytes(gzip.compress((tmp_path / "state.csv").read_bytes()))
    (tmp_path / "state.csv.gz.json").write_bytes((tmp_path / "state.csv.json").read_bytes())
    with pytest.raises(ScenarioError) as refused:
        io.read_state(path)
    assert str(refused.value) == f"{path}: line 1: not valid UTF-8"


def test_a_byte_past_the_header_read_that_is_not_utf8_names_its_line(tmp_path):
    # the header read decodes only the file's first few KiB; the bad byte sits
    # far past them, where the bulk parse meets it and hands over to the row loop
    rows = [f"{k},0.0,0.0" for k in range(4000)]
    rows[3000] = "3000,0.0,0.0\udcff"
    text = "\r\n".join(["index,real,imag", *rows]) + "\r\n"
    (tmp_path / "t.csv").write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ScenarioError) as refused:
        io._read_table(tmp_path / "t.csv", HEADER)
    assert str(refused.value) == f"{tmp_path / 't.csv'}: line 3002: not valid UTF-8"


def test_a_bad_sidecar_is_refused_before_the_table_is_parsed(tmp_path, monkeypatch):
    (tmp_path / "state.csv").write_text("index,real,imag\n0,1.0,0.0\n")
    (tmp_path / "state.csv.json").write_text('{"scale": 1.0}')

    def parse(path, header):
        raise AssertionError("the table was parsed")

    monkeypatch.setattr(io, "_read_table", parse)
    with pytest.raises(ScenarioError, match="bad state sidecar: missing the required key layout"):
        io.read_state(tmp_path / "state.csv")
    (tmp_path / "state.csv.json").unlink()
    with pytest.raises(ScenarioError, match="missing file: .*state.csv.json"):
        io.read_state(tmp_path / "state.csv")


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"num_physical": 5, "block_dim": 16, "arity": 1},
         "layout.block_dim 16 is not 8, the next power of two of layout.num_physical 5"),
        ({"num_physical": 5, "block_dim": 4, "arity": 1},
         "physical dimension must fit the padded block"),
        ({"num_physical": 5, "block_dim": 8, "arity": 2**61},
         "layout.block_dim 8 x layout.arity 2305843009213693952 = total_dim "
         "18446744073709551616 amplitudes cannot be allocated"),
    ],
)
def test_a_sidecar_layout_no_writer_produces_is_refused(tmp_path, counts, message):
    (tmp_path / "state.csv").write_text("index,real,imag\n0,1.0,0.0\n")
    layout = dict(counts, augmented=False)
    (tmp_path / "state.csv.json").write_text(json.dumps({"scale": 1.0, "layout": layout}))
    with pytest.raises(ValidationError) as refused:
        io.read_state(tmp_path / "state.csv")
    assert message in str(refused.value)


@pytest.mark.parametrize(
    "text", ['{"dt": 0.001, "dt": 0.1}', '[{"t_final": 1, "dt": 0.001, "dt": 0.1}]']
)
def test_read_json_refuses_a_repeated_key(tmp_path, text):
    # json.loads alone would keep the last value and run with dt = 0.1
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as refused:
        io.read_json(path)
    assert str(refused.value) == f"{path}: the key 'dt' appears more than once in one object"
