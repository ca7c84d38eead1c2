"""Document formats: model specs, parameter bundles, scenarios, certificates.

Everything is plain JSON plus CSV tables.  Floats are printed with 17
significant digits (:func:`fmt`) so that documents round-trip bit-exactly and
repeated runs produce byte-identical outputs.  One writer, ``_write_rows``
behind :func:`process_to_csv` and :func:`table_to_csv`, writes every CSV
table, a chunk of rows at a time.  It reads only the heads of runs of equal
bits down each column, formats their distinct values in one ``%`` pass, and
gives each text its separator (the first column also its row key), so a row
is its label and one text per value.

The loaders only parse: each rule of a model, a parameter table or a scenario
is checked once, by the library object or function it constrains, which the
loader calls (see :func:`load_model`, :func:`load_params` and
:func:`load_scenario`).  Every number a document holds meets one rule,
``deflators._numbers`` and its one cell ``_cell`` (through :func:`_field`, or
``_full`` for a parameter table), and every loader refuses a key it does not
read, each naming it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .deflators import DeflatorParams, _cell, _full, _numbers
from .errors import SpaceValidationError
from .jumpdiff import JumpDiffusionScenario
from .market import MarketModel
from .prob_core import FiniteFilteredSpace


def fmt(x) -> str:
    """Canonical float rendering: 17 significant digits, round-trip exact."""
    x = float(x)
    if math.isfinite(x):
        return format(x, ".17g")
    return '"nan"' if x != x else '"inf"' if x > 0 else '"-inf"'


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, canonical float rendering."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  "{k}": {dumps_canonical(obj[k], indent + 2).lstrip()}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(_scalar(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 2).lstrip()}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _scalar(obj)


def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt(v)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


CSV_CHUNK_ATOMS = 2048  # records formatted per write: bounds the text held in memory


def _write_rows(fh, labels, keys, values):
    """Append CSV rows to the open text file ``fh``, formatting each distinct value once.

    ``values`` is (records, rows, columns).  Row k of record i reads
    ``labels[i] + keys[k]`` followed by the record's cells joined by commas,
    each cell rendered by :func:`fmt`.  Records are written a chunk at a time,
    each as ``labels[i].join`` of an empty text and its rows' texts.
    """
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape[1:]
    labels = [str(label) for label in labels]
    col = np.arange(n_rows * n_cols) % n_cols
    lead = np.where(col == 0, np.repeat(np.asarray(keys, dtype=object), n_cols), "")
    for lo in range(0, len(values), CSV_CHUNK_ATOMS):
        chunk = values[lo:lo + CSV_CHUNK_ATOMS]
        texts, cells = _cell_texts(chunk, lead, col < n_cols - 1)
        if n_cols > 1:  # one text per row
            rows = texts[cells].reshape(-1, n_cols).tolist()
            texts = np.fromiter(map("".join, rows), dtype=object, count=len(rows))
            cells = np.arange(len(rows)).reshape(len(chunk), n_rows, 1)
        lines = np.zeros((len(chunk), n_rows + 1), dtype=np.intp)  # column 0 reads ""
        lines[:, 1:] = cells[:, :, 0] + 1
        texts = np.concatenate([np.array([""], dtype=object), texts])
        fh.write("".join(map(str.join, labels[lo:lo + CSV_CHUNK_ATOMS], texts[lines].tolist())))


def _cell_texts(chunk, lead, inner):
    """The distinct cell texts of a chunk (records, rows, columns) and each cell's index.

    Cell position p (row-major) reads ``lead[p]``, the value by :func:`fmt`
    and a comma where ``inner[p]``, else a line break.  Values are told apart
    by bit pattern (-0.0 and 0.0 stay apart), and only the heads of runs of
    equal bits down each position are looked at: their distinct finite values
    take one ``%`` pass, each distinct (position, value) pair one text.
    """
    bits = np.ascontiguousarray(chunk.reshape(len(chunk), -1).T).view(np.uint64)
    head = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=head[:, 1:])
    starts = np.flatnonzero(head)
    distinct, value = np.unique(bits.reshape(-1)[starts], return_inverse=True)
    distinct = distinct.view(np.float64)
    formatted = ("%.17g\n" * len(distinct)) % tuple(distinct.tolist())
    base = np.array(formatted.splitlines(True), dtype=object)
    odd = ~np.isfinite(distinct)
    base[odd] = [fmt(v) + "\n" for v in distinct[odd].tolist()]
    pairs, text = np.unique(value * len(bits) + starts // len(chunk), return_inverse=True)
    place = pairs % len(bits)
    texts = lead[place] + base[pairs // len(bits)]
    comma = inner[place]
    texts[comma] = [t[:-1] + "," for t in texts[comma].tolist()]
    cells = np.repeat(text, np.diff(starts, append=bits.size)).reshape(bits.shape).T
    return texts, cells.reshape(chunk.shape)


def process_to_csv(path, outcomes, X):
    """Write a process table as (atom id, time, value) rows; values render as in :func:`fmt`."""
    X = np.asarray(X, dtype=float)
    with open(path, "w") as fh:
        fh.write("atom,time,value\n")
        _write_rows(fh, outcomes, [f",{n}," for n in range(X.shape[1])], X[:, :, None])


def table_to_csv(path, header, tables):
    """Write ``(label, values)`` pairs, ``values`` 2-D, as rows ``label,v_0,...,v_m``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for label, values in tables:
            _write_rows(fh, [label] * len(values), [","], np.asarray(values)[:, None, :])


def process_from_csv(path, outcomes, horizon) -> np.ndarray:
    """Read a process table written by :func:`process_to_csv`.

    Every (atom, time) cell must appear exactly once with a finite value; a
    failure raises :class:`SpaceValidationError` naming the row (by line).
    The body is parsed by whole columns (``_process_columns``); a table that
    fails any check there is read again row by row (``_process_rows``), which
    names the first bad row.
    """
    index = {str(name): i for i, name in enumerate(outcomes)}
    header, *lines = _text(path).split("\n")  # not splitlines: only a line break ends a row
    if not header.lower().startswith("atom"):
        raise SpaceValidationError("process table must carry an atom,time,value header")
    X = _process_columns(lines, index, len(outcomes), horizon)
    return _process_rows(lines, outcomes, index, horizon) if X is None else X


def _process_columns(lines, index, n_atoms, horizon):
    """The table of the body ``lines``, or None unless every check passes.

    Its rows are split once into three columns, which ``map(int, ...)`` and
    ``map(float, ...)`` convert exactly as the row loop does; shape, range,
    finiteness, repeated and missing cells are checked on the whole arrays.
    """
    rows = [line for line in map(str.strip, lines) if line]
    if set(map(str.count, rows, repeat(","))) != {2}:  # some row is not three cells
        return None
    cells = ",".join(rows).split(",")
    try:
        atom = np.fromiter(map(index.__getitem__, cells[0::3]), np.intp, len(rows))
        time = np.fromiter(map(int, cells[1::3]), np.int64, len(rows))
        value = np.fromiter(map(float, cells[2::3]), float, len(rows))
    except (KeyError, ValueError, OverflowError):  # an unknown atom, a word, a huge time
        return None
    size = n_atoms * (horizon + 1)
    if len(rows) != size or not (((time >= 0) & (time <= horizon)).all()
                                 and np.isfinite(value).all()):
        return None
    cell = atom * (horizon + 1) + time
    seen = np.zeros(size, dtype=bool)
    seen[cell] = True
    if not seen.all():  # as many rows as cells, so some cell appears twice
        return None
    X = np.empty(size)
    X[cell] = value
    return X.reshape(n_atoms, horizon + 1)


def _process_rows(lines, outcomes, index, horizon) -> np.ndarray:
    """The table of the body ``lines``, read one row at a time: the first bad row
    raises :class:`SpaceValidationError` naming it."""
    X = np.full((len(outcomes), horizon + 1), np.nan)
    for row, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise SpaceValidationError(f"row {row}: malformed process row {line!r}")
        name, n, v = parts
        if name not in index:
            raise SpaceValidationError(f"row {row}: unknown atom id {name!r}")
        try:
            n, v = int(n), float(v)
        except ValueError:
            raise SpaceValidationError(
                f"row {row}: time must be an integer and value a number, got {line!r}"
            ) from None
        if not 0 <= n <= horizon:
            raise SpaceValidationError(f"row {row}: time {n} outside 0..{horizon}")
        if not math.isfinite(v):
            raise SpaceValidationError(f"row {row}: value {v!r} of ({name}, {n}) is not finite")
        if not math.isnan(X[index[name], n]):
            raise SpaceValidationError(f"row {row}: cell ({name}, {n}) appears twice")
        X[index[name], n] = v
    if np.any(np.isnan(X)):
        i, n = np.argwhere(np.isnan(X))[0]
        raise SpaceValidationError(
            f"process table misses (atom, time) cells, first ({outcomes[i]}, {n})")
    return X


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model: space, random time, and the checked market of its price table, if any."""

    space: FiniteFilteredSpace
    tau: np.ndarray
    market: MarketModel | None


def model_to_dict(space, tau, S=None, assets=()) -> dict:
    doc = {
        "outcomes": [{"id": o, "prob": float(p)} for o, p in zip(space.outcomes, space.probs)],
        "horizon": int(space.horizon),
        "partitions": [space.filtration.block_ids[n].tolist()
                       for n in range(space.horizon + 1)],
        "tau": np.asarray(tau, dtype=int).tolist(),
    }
    if S is not None:
        S = np.asarray(S, dtype=float)
        if S.ndim == 2:
            S = S[None]
        names = list(assets) if assets else [f"S{i}" for i in range(S.shape[0])]
        doc["assets"] = {"names": names, "values": S.tolist()}
    return doc


def load_model(source) -> ModelDocument:
    """Parse a model document (path or dict) into its space, tau and checked market.

    Parsing, the number rule (:func:`_field`), unknown keys and the outcome-id rule raise
    :class:`SpaceValidationError`.  The shape and range of ``tau`` are :func:`build_survival`'s
    rules, and the price rules are :class:`MarketModel`'s (:class:`ContractViolationError`).
    """
    doc = _read(source)
    _known(doc, ("outcomes", "horizon", "partitions", "tau", "assets"), "model document")
    try:
        outcomes = [o["id"] for o in doc["outcomes"]]
        probs = _field([o["prob"] for o in doc["outcomes"]], "prob", False, 1)
        horizon = _field(doc["horizon"], "horizon", True, 0)
        partitions = _field(doc["partitions"], "partitions", True, None)
        tau = _field(doc["tau"], "tau", True, None)
    except (KeyError, TypeError) as exc:
        raise SpaceValidationError(f"malformed model document: {exc}") from exc
    _known(sorted(set().union(*doc["outcomes"])), ("id", "prob"), "an outcome")
    if partitions.shape != (horizon + 1, len(outcomes)):
        raise SpaceValidationError("partitions must list horizon+1 rows of one block id per atom")
    space = FiniteFilteredSpace.from_partitions(outcomes, probs, partitions)
    seen = set()
    for name in map(str, space.outcomes):  # ids must read back from CSV rows as written
        if "," in name or "\n" in name or "\r" in name or name != name.strip() or name in seen:
            raise SpaceValidationError(f"outcome id {name!r} cannot round-trip through a CSV "
                                       "table: no comma, line break, edge whitespace or repeat")
        seen.add(name)
    market = None
    if "assets" in doc and doc["assets"]:
        try:
            S, assets = doc["assets"]["values"], tuple(doc["assets"].get("names", ()))
        except (KeyError, TypeError) as exc:  # no values, or assets not an object
            raise SpaceValidationError(f"malformed asset table: {exc}") from exc
        _known(doc["assets"], ("names", "values"), "asset table")
        market = MarketModel.from_prices(space, _field(S, "asset values", False, None),
                                         assets=assets)
    return ModelDocument(space=space, tau=tau, market=market)


def load_params(source, n_atoms, horizon) -> DeflatorParams:
    """Parse a parameter document; absent tables default to the null choice.

    Each table meets the one table rule, ``deflators._full``, at shape (n_atoms,
    horizon + 1), else :class:`AdmissibilityError` names it; its route checks the rest.
    """
    doc = _read(source)
    tables = [f.name for f in fields(DeflatorParams) if f.name != "route"]
    _known(doc, ("route", *tables), "parameter document")
    return DeflatorParams(route=doc.get("route", "additive"), **{
        key: _full((n_atoms, horizon + 1), doc[key], key)
        for key in tables if doc.get(key) is not None})


def _known(doc, keys, what) -> None:
    """Refuse a document key that the loader does not read, naming it."""
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise SpaceValidationError(f"{what} has unknown fields {unknown}")


def _field(x, name, integral, ndim):
    """``x`` by the one number rule, :func:`deflators._numbers`: a float, or an int of any
    size if ``integral``, where ``ndim`` is 0 (its range is its reader's rule), else an array
    of ``ndim`` axes (any if None).  A refusal raises :class:`SpaceValidationError` naming
    ``name`` and its first bad value."""
    kind = ("a number", "an integer")[integral]
    if ndim == 0:
        value = _cell(x, integral)
        if value is None:
            raise SpaceValidationError(f"{name} must be {kind}, got {x!r}")
        return value
    try:
        values = _numbers(x, integral)
        if ndim is None or values.ndim == ndim:
            return values
    except ValueError as exc:  # its text is the first cell refused, or "ragged rows"
        bad = exc.args[0]
    if ndim is not None:  # a list of floats: the first in its place that is no number
        bad = repr(next(c for c in x if _cell(c, integral) is None))
    raise SpaceValidationError(f"{name} must be {kind}, got {bad}")


# a scenario's float fields: the model's, None where required, then the suite's, with defaults
_MODEL_FIELDS = {"sigma": None, "zeta": None, "mu": None, "lambda": None, "a": None,
                 "S0": 1.0, "horizon": 1.0, "dt": 2.0 ** -10}
_SUITE_FIELDS = {"psi2": 1.0, "phi_o": 0.25, "phi_pr": 0.0, "theta": 0.7}


def load_scenario(source) -> tuple:
    """Parse a scenario document; returns (scenario, extras dict).

    Checked here, naming the field: every field is known, the float fields
    are numbers, and the integer fields integers.  Every other rule is
    :mod:`jumpdiff`'s: the model fields :class:`JumpDiffusionScenario`'s,
    ``keep_paths`` :func:`simulate_suite`'s, psi2 :func:`solve_drift`'s, and
    the suite parameters :func:`check_deflator`'s and :func:`check_wealth`'s.
    """
    doc = _read(source)
    missing = [k for k, default in _MODEL_FIELDS.items() if default is None and k not in doc]
    if missing:
        raise SpaceValidationError(f"scenario misses fields {missing}")
    _known(doc, (*_MODEL_FIELDS, *_SUITE_FIELDS, "n_paths", "seed", "keep_paths"), "scenario")
    model = {k: _field(doc.get(k, default), k, False, 0) for k, default in _MODEL_FIELDS.items()}
    sc = JumpDiffusionScenario(
        lam=model.pop("lambda"), **model,
        n_paths=_field(doc.get("n_paths", 100_000), "n_paths", True, 0),
        seed=_field(doc.get("seed", 0), "seed", True, 0),
    )
    extras = {k: _field(doc.get(k, default), k, False, 0) for k, default in _SUITE_FIELDS.items()}
    extras["keep_paths"] = _field(doc.get("keep_paths", 4), "keep_paths", True, 0)
    return sc, extras


def _text(path) -> str:
    """The text of a document; an unreadable one raises :class:`SpaceValidationError`."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, undecodable bytes
        reason = getattr(exc, "strerror", None) or exc
        raise SpaceValidationError(f"cannot read {path}: {reason}") from exc


def _read(source) -> dict:
    """The JSON object of a document (a path, or the dict itself)."""
    if isinstance(source, dict):
        return source
    try:
        doc = json.loads(_text(source))
    except json.JSONDecodeError as exc:
        raise SpaceValidationError(f"invalid JSON in {source}: {exc}") from exc
    if not isinstance(doc, dict):  # a list or a number has no fields to read
        raise SpaceValidationError(f"{source} must hold a JSON object, got {type(doc).__name__}")
    return doc
