"""Document formats: model specs, parameter bundles, scenarios, certificates.

Everything is plain JSON plus CSV process tables.  Floats are printed with 17
significant digits so that documents round-trip bit-exactly and repeated runs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .deflators import DeflatorParams
from .errors import SpaceValidationError
from .jumpdiff import JumpDiffusionScenario
from .prob_core import FiniteFilteredSpace


def fmt(x) -> str:
    """Canonical float rendering: 17 significant digits, round-trip exact."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v != v:
        return '"nan"'
    if v == float("inf"):
        return '"inf"'
    if v == float("-inf"):
        return '"-inf"'
    return format(v, ".17g")


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


CSV_CHUNK_ATOMS = 2048  # atoms formatted per write: bounds the text held in memory


def process_to_csv(path, outcomes, X, *, header=("atom", "time", "value")):
    """Write a process table as (atom id, time, value) rows, a chunk of atoms per write.

    Values render as in :func:`fmt`: ``.17g``, or a quoted word when not finite.
    """
    X = np.asarray(X, dtype=float)
    outcomes = list(outcomes)
    exact = "".join(f"{{0}},{n},{{{n + 1}:.17g}}\n" for n in range(X.shape[1]))
    plain = exact.replace(":.17g", "")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(outcomes), CSV_CHUNK_ATOMS):
            chunk = X[lo:lo + CSV_CHUNK_ATOMS]
            pairs = zip(outcomes[lo:lo + CSV_CHUNK_ATOMS], chunk.tolist())
            if np.all(np.isfinite(chunk)):
                fh.write("".join([exact.format(name, *row) for name, row in pairs]))
            else:
                fh.write("".join([plain.format(name, *map(fmt, row)) for name, row in pairs]))


def process_from_csv(path, outcomes, horizon) -> np.ndarray:
    """Read a process table written by :func:`process_to_csv`."""
    index = {name: i for i, name in enumerate(outcomes)}
    X = np.full((len(outcomes), horizon + 1), np.nan)
    with open(path) as fh:
        header = fh.readline()
        if not header.lower().startswith("atom"):
            raise SpaceValidationError("process table must carry an atom,time,value header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise SpaceValidationError(f"malformed process row: {line!r}")
            name, n, v = parts
            if name not in index:
                raise SpaceValidationError(f"unknown atom id {name!r}")
            n = int(n)
            if not 0 <= n <= horizon:
                raise SpaceValidationError(f"time {n} outside 0..{horizon}")
            X[index[name], n] = float(v)
    if np.any(np.isnan(X)):
        raise SpaceValidationError("process table misses (atom, time) cells")
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
        horizon = int(doc["horizon"])
        partitions = doc["partitions"]
        tau = np.asarray(doc["tau"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceValidationError(f"malformed model document: {exc}") from exc
    if len(partitions) != horizon + 1:
        raise SpaceValidationError("partitions must list horizon+1 rows")
    space = FiniteFilteredSpace.from_partitions(outcomes, probs, partitions)
    if tau.shape != (space.n_atoms,):
        raise SpaceValidationError("tau must give one value per atom")
    if np.any((tau < 0) | (tau > horizon)):
        raise SpaceValidationError("tau out of range")
    S, assets = None, ()
    if "assets" in doc and doc["assets"]:
        block = doc["assets"]
        S = np.asarray(block["values"], dtype=float)
        if S.ndim == 2:
            S = S[None]
        assets = tuple(block.get("names", ()))
        if S.shape[1:] != (space.n_atoms, horizon + 1):
            raise SpaceValidationError("asset table has wrong shape")
        for comp in S:
            if not space.filtration.is_adapted(comp, tol=1e-12):
                raise SpaceValidationError("asset table is not adapted")
    return ModelDocument(space=space, tau=tau, S=S, assets=assets)


def _table(doc, key, n_atoms, horizon):
    if key not in doc or doc[key] is None:
        return None
    v = doc[key]
    if isinstance(v, (int, float)):
        return np.full((n_atoms, horizon + 1), float(v))
    arr = np.asarray(v, dtype=float)
    if arr.shape != (n_atoms, horizon + 1):
        raise SpaceValidationError(
            f"table {key!r} must be {n_atoms} x {horizon + 1} or a constant")
    return arr


def load_params(source, n_atoms, horizon) -> DeflatorParams:
    """Parse a parameter document; absent tables default to the null choice."""
    doc = _read(source)
    route = doc.get("route", "additive")
    return DeflatorParams(
        route=route,
        K_F=_table(doc, "K_F", n_atoms, horizon),
        Z_F=_table(doc, "Z_F", n_atoms, horizon),
        Z_QF=_table(doc, "Z_QF", n_atoms, horizon),
        phi_o=_table(doc, "phi_o", n_atoms, horizon),
        phi_pr=_table(doc, "phi_pr", n_atoms, horizon),
        phi=_table(doc, "phi", n_atoms, horizon),
        V_F=_table(doc, "V_F", n_atoms, horizon),
    )


def load_scenario(source) -> tuple:
    """Parse a scenario document; returns (scenario, extras dict)."""
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
            n_paths=int(doc.get("n_paths", 100_000)), seed=int(doc.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise SpaceValidationError(f"malformed scenario: {exc}") from exc
    extras = {
        "psi2": float(doc.get("psi2", 1.0)),
        "phi_o": float(doc.get("phi_o", 0.25)),
        "phi_pr": float(doc.get("phi_pr", 0.0)),
        "theta": float(doc.get("theta", 0.7)),
        "keep_paths": int(doc.get("keep_paths", 4)),
    }
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
