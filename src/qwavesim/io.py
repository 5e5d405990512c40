"""External file formats: CSV tables and JSON records.

Every writer formats floats as ``repr(float(x))``, the shortest string that
reads back to the same float64, and emits JSON keys in sorted order, so a
rerun with the same inputs produces byte-identical files. CSV rows end in
CRLF (``\r\n``), the terminator of Python's csv module; no cell is ever
quoted. The CSV writers format a block of rows into one string and write it
in one call.

Formats (one line each, documented fully in the README):
  state              index,real,imag  (+ .json sidecar: scale and layout)
  trajectory         time,dof,value   (long form)
  energy             time,energy
  source samples     time,value       (read only)
  initial field      dof,value        (read only)
  measurement        JSON {value, stderr, shots, mode, strings}
  circuit            JSON {register, gates, min_rotation_angle}

The CSV readers check the header through csv.reader, then parse the table
in bulk, in one np.loadtxt call on the path, which numpy reads in chunks in
C; its values are bit-equal to float() of each cell. A table that call
refuses or reads differently (a blank line, a quoted cell, a spelling such
as 1_0), or a file named like a compressed one, is read again row by row
through csv.reader, which accepts it as before or names its first bad line.
They refuse a byte that is not UTF-8, a row with the wrong number of cells
or a cell that is not a finite number with ScenarioError; read_state and
read_initial_csv also refuse indices outside the vector, fractional or
repeated, and read_source_csv refuses times that do not strictly increase.
read_state reads the sidecar first and refuses a layout no writer produces
or whose amplitudes cannot be allocated before it parses the table.
"""
from __future__ import annotations

import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .encoding import QuantumRegisterState, StateLayout, next_power_of_two
from .errors import ScenarioError
from .initcircuit import GateCircuit
from .measurement import EstimateResult


# rows formatted per write: bounds the memory of one joined string, so the
# writers' peak memory does not grow with the snapshot or state size
_ROWS_PER_WRITE = 2048


def _floats(values) -> list[float]:
    """Python floats, so that ``!r`` gives the float repr, not ``np.float64(...)``."""
    return np.asarray(values, dtype=np.float64).tolist()


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    """The JSON value in path; a missing or malformed file or a repeated key raise ScenarioError."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"missing file: {p}")

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioError(f"{p}: the key {key!r} appears more than once in one object")
            obj[key] = value
        return obj

    try:
        return json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except UnicodeDecodeError:
        raise _utf8_error(p) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON in {p}: {exc}") from exc


def _utf8_error(path: Path) -> ScenarioError:
    """The ScenarioError naming the line of the first byte of path that is not UTF-8.

    A decoder reads the file in chunks, so the offset of its error is found
    again in the raw bytes; lines end as csv.reader ends them (CRLF, LF or a
    lone CR).
    """
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.split(rb"\r\n|\r|\n", raw[: exc.start]))
        return ScenarioError(f"{path}: line {line}: not valid UTF-8")
    return ScenarioError(f"{path}: not valid UTF-8")  # the file changed since it was read


# ---------------------------------------------------------------------------
# JSON objects from outside the program

_FMAX = float(np.finfo(np.float64).max)
_REQUIRED = object()  # the default of a getter whose key must be present


def integer(value, where: str) -> int:
    """An integer: 3 and 3.0 pass; 3.7, true and "3" are refused, not truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def finite(value, where: str) -> float:
    """A finite float; booleans, strings, NaN, infinities and out-of-range integers are refused."""
    in_range = isinstance(value, (int, float)) and -_FMAX <= value <= _FMAX
    if isinstance(value, bool) or not in_range:
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def positive(value, where: str) -> float:
    """A finite positive float; booleans, strings and integers past float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= _FMAX:
        raise ScenarioError(f"{where} must be a finite positive number, got {value!r}")
    return float(value)


def finite_array(value, where: str) -> np.ndarray:
    """A float array of the shape of a (nested) list, each entry read through finite."""
    table = np.asarray(value, dtype=object)
    return np.array([finite(v, where) for v in table.flat]).reshape(table.shape)


def list_of(rule):
    """The rule for a JSON list whose k-th item is read through rule at the path ``where[k]``."""

    def each(values, where: str) -> list:
        if not isinstance(values, list):
            raise ScenarioError(f"{where} must be a list, got {type(values).__name__}")
        return [rule(v, f"{where}[{k}]") for k, v in enumerate(values)]

    return each


class JsonObject:
    """A JSON object from a scenario file or a state sidecar, read key by key.

    The one rule for JSON from outside the program: get reads a key through
    a rule (finite, positive, integer, finite_array, list_of(...) or
    JsonObject) that refuses a value of another type, so a number must be a
    JSON number, not a string or a boolean, and an integer may be 3 or 3.0
    but not 3.7. An absent key takes the default or, with none, is refused;
    a default of None also admits null. close() refuses every key that get
    was not asked for, so a misspelled key is never ignored; read_json has
    already refused a repeated key. Each refusal is a ScenarioError naming
    the key by its dotted path, such as ``sources[0].time_function.sigma``.
    """

    def __init__(self, value, where: str = ""):
        if not isinstance(value, dict):
            kind = type(value).__name__
            raise ScenarioError(f"{where or 'the top level'} must be a JSON object, got {kind}")
        self.where = where  # the dotted path of this object; "" at the top level
        self._value = value
        self._asked: set[str] = set()

    def path(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key

    def get(self, key: str, rule=None, default=_REQUIRED):
        """The value of key (or default, when key is absent) read through rule(value, path)."""
        self._asked.add(key)
        if key not in self._value and default is _REQUIRED:
            raise ScenarioError(f"missing the required key {self.path(key)}")
        value = self._value.get(key, default)
        if rule is None or value is None and default is None:
            return value
        return rule(value, self.path(key))

    def close(self) -> None:
        """Refuse every key of this object that get was not asked for."""
        unknown = [self.path(key) for key in sorted(set(self._value) - self._asked)]
        if unknown:
            raise ScenarioError(f"unknown {'' if self.where else 'top-level '}keys {unknown}")


# ---------------------------------------------------------------------------
# states


def write_state(path, state: QuantumRegisterState) -> None:
    path = Path(path)
    amps = state.amplitudes
    with open(path, "w", newline="") as fh:
        fh.write("index,real,imag\r\n")
        for start in range(0, amps.size, _ROWS_PER_WRITE):
            block = amps[start : start + _ROWS_PER_WRITE]
            rows = zip(range(start, start + block.size), _floats(block.real), _floats(block.imag))
            fh.write("".join([f"{i},{re!r},{im!r}\r\n" for i, re, im in rows]))
    sidecar = {
        "scale": state.scale,
        "layout": {
            "num_physical": state.layout.num_physical,
            "block_dim": state.layout.block_dim,
            "arity": state.layout.arity,
            "augmented": state.layout.augmented,
        },
    }
    write_json(str(path) + ".json", sidecar)


def read_state(path) -> QuantumRegisterState:
    """Read a state written by write_state; malformed rows or sidecar raise ScenarioError.

    Every row must carry an integer index in [0, total_dim) that no other
    row repeats; indices without a row hold zero amplitude. The sidecar is
    read and checked before the table is parsed: its block_dim must be the
    next power of two of its num_physical, as write_state writes it, and the
    total_dim amplitudes of its layout must be allocatable.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"missing file: {path}")
    layout, scale = _read_sidecar(path)
    amps = _allocate(path, layout)
    index, real, imag = _read_table(path, ["index", "real", "imag"])
    index = _index_column(path, index, layout.total_dim, "index")
    amps.real[index] = real
    amps.imag[index] = imag
    return QuantumRegisterState(amplitudes=amps, scale=scale, layout=layout)


def _read_sidecar(path: Path) -> tuple[StateLayout, float]:
    """The layout and scale in the JSON sidecar of the state at path."""
    sidecar = read_json(str(path) + ".json")
    try:
        sidecar = JsonObject(sidecar)
        spec = sidecar.get("layout", JsonObject)
        counts = {key: spec.get(key, integer) for key in ("num_physical", "block_dim", "arity")}
        augmented = spec.get("augmented")
        if not isinstance(augmented, bool):
            raise ScenarioError(f"{spec.path('augmented')} must be true or false, got {augmented!r}")
        spec.close()
        scale = sidecar.get("scale", finite)
        sidecar.close()
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: bad state sidecar: {exc}") from None
    layout = StateLayout(**counts, augmented=augmented)
    block = next_power_of_two(layout.num_physical)
    if layout.block_dim != block:
        raise ScenarioError(
            f"{path}.json: layout.block_dim {layout.block_dim} is not {block}, the next power "
            f"of two of layout.num_physical {layout.num_physical}"
        )
    return layout, scale


def _allocate(path: Path, layout: StateLayout) -> np.ndarray:
    """The zero amplitudes of layout; a total_dim that cannot be allocated raises ScenarioError."""
    total = layout.total_dim
    if total <= np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize:
        try:
            return np.zeros(total, dtype=np.complex128)
        except MemoryError:
            pass
    augmented = " x 2 (layout.augmented)" if layout.augmented else ""
    raise ScenarioError(
        f"{path}.json: layout.block_dim {layout.block_dim} x layout.arity {layout.arity}"
        f"{augmented} = total_dim {total} amplitudes cannot be allocated"
    )


def _read_table(path, header: list[str]) -> list[np.ndarray]:
    """Columns of finite numbers from a CSV file with the given header.

    A missing file, a byte that is not UTF-8, another header, a row with
    another number of cells, or a cell that is not a finite number raises
    ScenarioError naming the line.
    The header is read through csv.reader, then the table below it is parsed
    in one np.loadtxt call on the path; a file that call refuses or reads
    differently from csv.reader, or whose name loadtxt would decompress,
    goes through the row loop instead, which accepts it as before or names
    its first bad line.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"missing file: {path}")
    width = len(header)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if next(csv.reader(fh), None) != header:
                raise ScenarioError(f"{path}: expected header {','.join(header)}")
        # loadtxt opens a name ending in .gz, .bz2, .xz or .lzma as compressed
        table = None if path.suffix in _COMPRESSED else _bulk_rows(path, width)
        if table is None:  # also where a byte that is not UTF-8 ends the bulk parse
            table = _csv_rows(path, width)
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    finite = np.isfinite(table)
    if not finite.all():  # one flat pass; the rows are reduced only to name the line
        row = int(np.argmin(finite.all(axis=1)))
        raise ScenarioError(f"{path}: line {row + 2}: cells must be finite numbers")
    return list(table.T)


_COMPRESSED = {".gz", ".bz2", ".xz", ".lzma"}
# bytes per read when counting lines: bounds the counter's memory, not the file's size
_LINE_CHUNK = 1 << 16


def _bulk_rows(path: Path, width: int) -> np.ndarray | None:
    """The table below a CSV file's one header line, or None for the row loop.

    loadtxt reads the path in chunks in C. It opens the file with universal
    newlines, so its lines are the lines csv.reader sees (CRLF, LF or a lone
    CR end one), and it converts each cell with CPython's own
    string-to-double, so its values are bit-equal to float(). It refuses
    quoted cells, comment marks and spellings like 1_0 that float() accepts,
    and it skips blank lines where the row loop names them; the table is
    kept only if it has one row of ``width`` cells for every line after the
    header, as _count_lines counts them.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2,
                               dtype=np.float64, encoding="utf-8")
    except ValueError:  # UnicodeDecodeError included
        return None
    lines = _count_lines(path)
    return table if lines is not None and table.shape == (lines - 1, width) else None


def _count_lines(path: Path) -> int | None:
    """The lines of a file as csv.reader splits them: CRLF, LF or a lone CR ends one.

    The raw bytes are read _LINE_CHUNK at a time. A CRLF is one terminator
    even where a chunk ends between its two bytes, and a last line without a
    terminator counts. No byte of a multi-byte UTF-8 character is CR or LF,
    so the count is that of the decoded text. None where a byte 0x1c to 0x1f
    occurs: loadtxt strips those as whitespace around a cell, and float()
    refuses them.
    """
    lines = 0
    last = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_LINE_CHUNK):
            raw = np.frombuffer(chunk, dtype=np.uint8)
            if np.count_nonzero(raw - np.uint8(0x1C) < 4):
                return None
            lf, cr = raw == ord("\n"), raw == ord("\r")
            # an LF ends a line, and so does a CR that no LF follows
            lines += np.count_nonzero(lf) + np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & lf[1:])
            if last == b"\r" and lf[0]:
                lines -= 1  # the CR ending the previous chunk was half of this CRLF
            last = chunk[-1:]
    return int(lines) + (last not in (b"", b"\r", b"\n"))


def _csv_rows(path: Path, width: int) -> np.ndarray:
    """The table after the header through csv.reader, one row at a time.

    A row with another number of cells or a cell float() refuses raises
    ScenarioError naming its line.
    """
    cells = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line in reader:
            if len(line) != width:
                raise ScenarioError(
                    f"{path}: line {reader.line_num}: expected {width} cells, got {len(line)}"
                )
            try:
                cells.extend(map(float, line))
            except ValueError:
                raise ScenarioError(
                    f"{path}: line {reader.line_num}: non-numeric cell in {','.join(line)!r}"
                ) from None
    return np.asarray(cells, dtype=np.float64).reshape(-1, width)


def _index_column(path, column: np.ndarray, total: int, name: str) -> np.ndarray:
    """A table column as int64 indices, each an integer in [0, total) on one row only.

    A violation raises ScenarioError naming the line (for a repeat, the line
    of the second occurrence).
    """
    bad = (column != np.floor(column)) | (column < 0) | (column >= total)
    if np.any(bad):
        row = int(np.argmax(bad))
        why = "out of range" if not 0 <= column[row] < total else "fractional"
        raise ScenarioError(
            f"{path}: line {row + 2}: {name} {column[row]:g} is not an integer "
            f"in [0, {total}) ({why})"
        )
    index = column.astype(np.int64)
    if np.any(np.bincount(index, minlength=total) > 1):
        first = np.zeros(index.size, dtype=bool)
        first[np.unique(index, return_index=True)[1]] = True
        row = int(np.argmin(first))
        raise ScenarioError(f"{path}: line {row + 2}: {name} {index[row]} appears more than once")
    return index


def read_initial_csv(path, size: int) -> np.ndarray:
    """A field vector of the given size from ``dof,value`` rows.

    Every row must carry an integer dof in [0, size) that no other row
    repeats; dofs without a row hold zero.
    """
    dof, value = _read_table(path, ["dof", "value"])
    w = np.zeros(size)
    w[_index_column(path, dof, size, "dof")] = value
    return w


# ---------------------------------------------------------------------------
# time series


def write_field_csv(path, times, fields) -> None:
    """Long-form ``time,dof,value`` rows, one snapshot after another."""
    with open(path, "w", newline="") as fh:
        fh.write("time,dof,value\r\n")
        for t, row in zip(times, fields):
            t = repr(float(t))
            row = np.asarray(row, dtype=np.float64)
            for start in range(0, row.size, _ROWS_PER_WRITE):
                rows = enumerate(_floats(row[start : start + _ROWS_PER_WRITE]), start)
                fh.write("".join([f"{t},{k},{v!r}\r\n" for k, v in rows]))


def write_energy_csv(path, times, energy) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time,energy\r\n")
        fh.write("".join([f"{t!r},{e!r}\r\n" for t, e in zip(_floats(times), _floats(energy))]))


def read_source_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """An interpolation table of ``time,value`` rows; the times must strictly increase."""
    times, values = _read_table(path, ["time", "value"])
    back = np.diff(times) <= 0
    if np.any(back):
        line = int(np.argmax(back)) + 3  # the header is line 1, so row r + 1 is line r + 3
        raise ScenarioError(f"{path}: line {line}: time must exceed the previous row's")
    return times, values


# ---------------------------------------------------------------------------
# measurement and circuits


def write_measurement_json(path, result: EstimateResult, extra: dict | None = None) -> None:
    payload = {
        "value": result.value,
        "stderr": result.stderr,
        "shots": result.shots,
        "mode": result.mode,
        "strings": [
            {
                "letters": s.letters,
                "coefficient": s.coeff,
                "expectation": e,
            }
            for s, e in zip(result.observable.strings, result.string_expectations)
        ],
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def write_circuit_json(path, circuit: GateCircuit) -> None:
    payload = {
        "register": {
            "component_qubits": circuit.n_component_qubits,
            "radial_qubits": circuit.n_radial_qubits,
            "angular_qubits": circuit.n_angular_qubits,
        },
        "n_qubits": circuit.n_qubits,
        "min_rotation_angle": circuit.min_rotation_angle,
        "gates": [
            {
                "kind": g.kind,
                "qubits": list(g.qubits),
                "angle": g.angle,
            }
            for g in circuit.gates
        ],
    }
    write_json(path, payload)
