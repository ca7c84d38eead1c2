"""Document formats: model specs, parameter bundles, scenarios, certificates.

Everything is plain JSON plus CSV tables.  Floats are printed with 17
significant digits (:func:`fmt`) so that documents round-trip bit-exactly and
repeated runs produce byte-identical outputs.  One writer, ``_write_rows``
behind :func:`process_to_csv` and :func:`table_to_csv`, writes every CSV
table, a chunk of rows at a time.  It reads only the heads of runs of equal
bits down each column, formats their distinct values in one ``%`` pass, and
gives each text its separator (the first column also its row key), so a row
is its label and one text per value.  One reader, :func:`process_from_csv`,
reads a process table in one pass: the body is split once into three columns,
each converted whole, and each row rule is a mask over the rows, so a refusal
names the first bad row and the first rule it breaks.

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


_ROW_RULES = (  # the rules of a process-table row, in the order a row is checked
    "malformed process row {line!r}",
    "unknown atom id {name!r}",
    "time must be an integer and value a number, got {line!r}",
    "time {time} outside 0..{horizon}",
    "value {value!r} of ({name}, {time}) is not finite",
    "cell ({name}, {time}) appears twice",
)


def process_from_csv(path, outcomes, horizon) -> np.ndarray:
    """Read a process table written by :func:`process_to_csv`.

    Every (atom, time) cell must appear exactly once with a finite value.  The
    body is read in one pass: split once into three columns, up to its first
    row that is not three cells, each column converted whole (:func:`_column`),
    and each rule of :data:`_ROW_RULES` a mask over the rows.  A time or value
    is a number only as written: :func:`_unwritten` refuses an ``_`` or a
    non-ASCII character, which ``int`` and ``float`` take.  A failure
    raises :class:`SpaceValidationError` naming the first bad row in file
    order (by line: the header is row 1, and blank lines count) with the
    first rule it breaks, or else the first missing cell.
    """
    index = {str(name): i for i, name in enumerate(outcomes)}
    header, *lines = _text(path).split("\n")  # not splitlines: only a line break ends a row
    if not header.lower().startswith("atom"):
        raise SpaceValidationError("process table must carry an atom,time,value header")
    body = list(filter(None, map(str.strip, lines)))
    commas = list(map(str.count, body, repeat(",")))  # rows 0..n-1 are three cells each
    n = len(body) if commas.count(2) == len(body) else min(map(commas.index, set(commas) - {2}))
    text = ",".join(body)
    cells = text.split(",")  # the first 3n cells are those of rows 0..n-1
    atom, unknown = _column(cells[0:3 * n:3], index.__getitem__, np.intp)
    times, values = cells[1:3 * n:3], cells[2:3 * n:3]
    time, time_refused = _column(times, int, np.int64)
    value, value_refused = _column(values, float, float)
    numbers = time_refused | value_refused
    if not text.isascii() or "_" in text:  # else no time or value holds one either
        numbers |= _unwritten(times) | _unwritten(values)
    cell = atom * (horizon + 1) + time  # any value on a row that breaks an earlier rule
    order = np.argsort(cell, kind="stable")  # a repeat sorts after the first row of its cell
    twice = np.zeros(n, dtype=bool)
    twice[order[1:][np.diff(cell[order]) == 0]] = True
    masks = (unknown, numbers, (time < 0) | (time > horizon),
             ~np.isfinite(value), twice)
    i, rule = min([(n, 0)] + [(int(mask.argmax()), rule) for rule, mask in enumerate(masks, 1)
                              if mask.any()])  # the first bad row, and its first rule
    if i < len(body):
        name, t, v = body[i].split(",") if rule else (None, None, None)
        if rule > 2:  # the row reads as an atom id, an integer and a number
            t, v = int(t), float(v)
        row = [r for r, line in enumerate(lines, start=2) if line.strip()][i]
        raise SpaceValidationError(f"row {row}: " + _ROW_RULES[rule].format(
            line=body[i], name=name, time=t, value=v, horizon=horizon))
    X = np.full((len(outcomes), horizon + 1), np.nan)
    X.reshape(-1)[cell] = value
    if np.isnan(X).any():
        i, t = np.argwhere(np.isnan(X))[0]
        raise SpaceValidationError(
            f"process table misses (atom, time) cells, first ({outcomes[i]}, {t})")
    return X


def _column(cells, read, dtype):
    """``cells`` converted by ``read`` to ``dtype``, and the mask of those it refuses (a
    KeyError or ValueError): only a column whose whole conversion raises is converted
    again, cell by cell.  An integer past ``dtype`` reads as -1, outside 0..T."""
    try:
        return np.fromiter(map(read, cells), dtype, len(cells)), np.zeros(len(cells), bool)
    except (KeyError, ValueError, OverflowError):  # an unknown atom, a word, a huge time
        pass
    values, refused = np.zeros(len(cells), dtype), np.zeros(len(cells), bool)
    for k, text in enumerate(cells):
        try:
            values[k] = read(text)
        except (KeyError, ValueError):
            refused[k] = True
        except OverflowError:
            values[k] = -1
    return values, refused


def _unwritten(cells):
    """The mask of ``cells`` that hold an ``_`` or a non-ASCII character: ``int`` and
    ``float`` read them (``1_0``, ``١``), but no table that :func:`process_to_csv` writes
    holds them.  A column that holds neither is passed on one look at its joined text."""
    text = "".join(cells)
    if text.isascii() and "_" not in text:
        return np.zeros(len(cells), bool)
    return np.fromiter((not c.isascii() or "_" in c for c in cells), bool, len(cells))


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


# a scenario's fields: the model's, the first five required and the rest defaulting as
# JumpDiffusionScenario's do, then the suite's floats, with the document's own defaults
_MODEL_FIELDS = ("sigma", "zeta", "mu", "lambda", "a", "S0", "horizon", "dt", "n_paths", "seed")
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
    missing = [k for k in _MODEL_FIELDS[:5] if k not in doc]
    if missing:
        raise SpaceValidationError(f"scenario misses fields {missing}")
    _known(doc, (*_MODEL_FIELDS, *_SUITE_FIELDS, "keep_paths"), "scenario")
    model = {k: _field(doc[k], k, k in ("n_paths", "seed"), 0) for k in _MODEL_FIELDS if k in doc}
    sc = JumpDiffusionScenario(lam=model.pop("lambda"), **model)
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
