"""Document formats: model specs, parameter bundles, scenarios, certificates.

Everything is plain JSON plus CSV tables.  Floats are printed with 17
significant digits (:func:`fmt`) so that documents round-trip bit-exactly and
repeated runs produce byte-identical outputs.  One writer, ``_write_rows``
behind :func:`process_to_csv` and :func:`table_to_csv`, writes every CSV
table, a chunk of rows at a time.  It reads only the heads of runs of equal
bits down each column, formats their distinct values in one ``%`` pass, and
gives each text its separator (the first column also its row key), so a row
is its label and one text per value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .deflators import DeflatorParams
from .errors import SpaceValidationError
from .jumpdiff import MAX_EXPONENT, JumpDiffusionScenario, solve_drift
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
    """
    index = {str(name): i for i, name in enumerate(outcomes)}
    X = np.full((len(outcomes), horizon + 1), np.nan)
    with open(path) as fh:
        header = fh.readline()
        if not header.lower().startswith("atom"):
            raise SpaceValidationError("process table must carry an atom,time,value header")
        for row, line in enumerate(fh, start=2):
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
    """A parsed model: space, random time, optional price table."""

    space: FiniteFilteredSpace
    tau: np.ndarray
    S: np.ndarray | None
    assets: tuple


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
    """Parse a model document (path or dict); all validation errors are raised."""
    doc = _read(source)
    try:
        outcomes = [o["id"] for o in doc["outcomes"]]
        probs = [float(o["prob"]) for o in doc["outcomes"]]
        horizon = _integral(doc["horizon"], "horizon")
        partitions = np.asarray(doc["partitions"])
        tau = doc["tau"]
        if not set(map(type, tau)) <= {int}:  # not all plain ints: check one at a time
            tau = [_integral(t, "tau") for t in tau]
        tau = np.array(tau, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpaceValidationError(f"malformed model document: {exc}") from exc
    if partitions.shape != (horizon + 1, len(outcomes)):
        raise SpaceValidationError("partitions must list horizon+1 rows of one block id per atom")
    if not (partitions.dtype.kind in "iu" or partitions.dtype.kind == "f" and np.all(
            np.isfinite(partitions) & (partitions == np.floor(partitions)))):
        raise SpaceValidationError("partition block ids must be integers")
    space = FiniteFilteredSpace.from_partitions(outcomes, probs, partitions)
    seen = set()
    for name in map(str, space.outcomes):  # ids must read back from CSV rows as written
        if "," in name or "\n" in name or "\r" in name or name != name.strip() or name in seen:
            raise SpaceValidationError(f"outcome id {name!r} cannot round-trip through a CSV "
                                       "table: no comma, line break, edge whitespace or repeat")
        seen.add(name)
    if tau.shape != (space.n_atoms,):
        raise SpaceValidationError("tau must give one value per atom")
    if np.any((tau < 0) | (tau > horizon)):
        raise SpaceValidationError("tau out of range")
    S, assets = None, ()
    if "assets" in doc and doc["assets"]:
        try:
            S = np.asarray(doc["assets"]["values"], dtype=float)
            assets = tuple(doc["assets"].get("names", ()))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise SpaceValidationError(f"malformed asset table: {exc}") from exc
        if S.ndim == 2:
            S = S[None]
        if S.shape[1:] != (space.n_atoms, horizon + 1):
            raise SpaceValidationError("asset table has wrong shape")
        if not np.all(np.isfinite(S)):
            i, atom, n = np.argwhere(~np.isfinite(S))[0]
            name = assets[i] if i < len(assets) else f"S{i}"
            raise SpaceValidationError(
                f"asset table value {float(S[i, atom, n])!r} of (asset {name}, atom "
                f"{outcomes[atom]}, time {n}) is not finite")
        if not space.filtration.is_adapted(S, tol=1e-12):
            raise SpaceValidationError("asset table is not adapted")
    return ModelDocument(space=space, tau=tau, S=S, assets=assets)


def _table(doc, key, n_atoms, horizon):
    if key not in doc or doc[key] is None:
        return None
    v = doc[key]
    if isinstance(v, (int, float)):
        arr = np.full((n_atoms, horizon + 1), float(v))
    else:
        try:
            arr = np.asarray(v, dtype=float)
        except (TypeError, ValueError) as exc:  # a word, or ragged rows
            raise SpaceValidationError(f"table {key!r} is not a table of numbers: {exc}") from exc
        if arr.shape != (n_atoms, horizon + 1):
            raise SpaceValidationError(
                f"table {key!r} must be {n_atoms} x {horizon + 1} or a constant")
    if not np.isfinite(arr).all():
        atom, n = np.argwhere(~np.isfinite(arr))[0]
        raise SpaceValidationError(
            f"table {key!r} value {float(arr[atom, n])!r} of (atom {atom}, time {n}) is not finite")
    return arr


def load_params(source, n_atoms, horizon) -> DeflatorParams:
    """Parse a parameter document; absent tables default to the null choice."""
    doc = _read(source)
    tables = {f.name: _table(doc, f.name, n_atoms, horizon)
              for f in fields(DeflatorParams) if f.name != "route"}
    return DeflatorParams(route=doc.get("route", "additive"), **tables)


def _integral(v, name) -> int:
    """An integer value; an integral float such as 7.0 is accepted, 7.5 or true is not."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
        raise SpaceValidationError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _integer(doc, key, default) -> int:
    """The integer field ``key`` of ``doc``, by the rule of :func:`_integral`."""
    return _integral(doc.get(key, default), key)


def load_scenario(source) -> tuple:
    """Parse a scenario document; returns (scenario, extras dict).

    Every field is checked before anything is drawn: the model fields by
    :class:`JumpDiffusionScenario`, and here the integer fields, the finite
    suite parameters ``psi2``, ``phi_o``, ``phi_pr`` and ``theta``,
    ``keep_paths`` in [0, n_paths], a market price of risk
    (:func:`solve_drift`) whose square does not overflow, and exponents of
    the wealth and the deflator within ``MAX_EXPONENT``: theta^2 sigma^2
    and |theta (mu - zeta lam)| for ``theta``, |psi2 - 1| lam for ``psi2``,
    each times the horizon.  A failure names the field.
    """
    doc = _read(source)
    required = ("sigma", "zeta", "mu", "lambda", "a")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SpaceValidationError(f"scenario misses fields {missing}")
    try:
        sc = JumpDiffusionScenario(
            sigma=float(doc["sigma"]), zeta=float(doc["zeta"]), mu=float(doc["mu"]),
            lam=float(doc["lambda"]), a=float(doc["a"]),
            S0=float(doc.get("S0", 1.0)), horizon=float(doc.get("horizon", 1.0)),
            dt=float(doc.get("dt", 2.0 ** -10)),
            n_paths=_integer(doc, "n_paths", 100_000), seed=_integer(doc, "seed", 0),
        )
        extras = {name: float(doc.get(name, default)) for name, default in
                  (("psi2", 1.0), ("phi_o", 0.25), ("phi_pr", 0.0), ("theta", 0.7))}
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpaceValidationError(f"malformed scenario: {exc}") from exc
    for name, value in extras.items():
        if not math.isfinite(value):
            raise SpaceValidationError(f"{name} must be finite")
    extras["keep_paths"] = _integer(doc, "keep_paths", 4)
    if not 0 <= extras["keep_paths"] <= sc.n_paths:
        raise SpaceValidationError(f"keep_paths must lie in [0, n_paths = {sc.n_paths}]")
    theta, psi2 = extras["theta"], extras["psi2"]
    bounds = (("theta", theta * theta * sc.sigma * sc.sigma, "theta^2 sigma^2"),
              ("theta", abs(theta * (sc.mu - sc.zeta * sc.lam)), "|theta (mu - zeta lam)|"),
              ("psi2", abs(psi2 - 1.0) * sc.lam, "|psi2 - 1| lam"))
    for name, rate, formula in bounds:
        if not rate * sc.horizon <= MAX_EXPONENT:
            raise SpaceValidationError(
                f"{name} = {extras[name]:.3g}: {formula} times the horizon must not exceed "
                f"{MAX_EXPONENT:g}")
    if psi2 > 0.0:  # else the suite reports psi2 as a constraint violation
        solve_drift(sc, psi2)
    return sc, extras


def _read(source):
    if isinstance(source, dict):
        return source
    try:
        with open(source) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpaceValidationError(f"no such file: {source}") from exc
    except json.JSONDecodeError as exc:
        raise SpaceValidationError(f"invalid JSON in {source}: {exc}") from exc
