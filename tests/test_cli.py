"""CLI contract: exit codes, certificates, determinism."""

import copy
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from horizon_deflators import build_survival, modelio, trees
from horizon_deflators import enlargement as enl
from horizon_deflators.cli import main


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    space, tau, S = trees.two_period_demo()
    model = modelio.model_to_dict(space, tau, S)
    modelio.write_json(root / "model.json", model)
    modelio.write_json(root / "params_phi.json", {"route": "measure-change", "phi": 0.5})
    modelio.write_json(root / "params_empty.json", {})
    modelio.write_json(root / "params_bad.json", {"route": "measure-change", "phi": -2.0})
    modelio.write_json(root / "scenario.json", {
        "sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5,
        "n_paths": 4000, "seed": 3, "dt": 2.0 ** -8})
    modelio.write_json(root / "scenario_bad.json", {
        "sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 1.5})
    return root, model


def run(*argv):
    return main([str(a) for a in argv])


def test_verify_demo_exits_zero(docs, tmp_path):
    root, _ = docs
    assert run("verify", "--model", root / "model.json", "--out", tmp_path) == 0
    report = json.loads((tmp_path / "verify-report.json").read_text())
    assert report["ok"]
    assert report["invariants"]["m_martingale"] == 0.0
    # the report lists exactly the registry that build_survival checks
    assert list(report["invariants"]) == list(enl.SURVIVAL_INVARIANTS)
    assert len(enl.SURVIVAL_INVARIANTS) == 12


def test_verify_fails_closed_on_nan_survival(docs, tmp_path, capsys, monkeypatch):
    root, _ = docs
    build = enl.build_survival

    def with_nan(space, tau, **kwargs):
        rts = build(space, tau, **kwargs)
        G = rts.G.copy()
        G[0, 1] = np.nan
        return replace(rts, G=G)

    monkeypatch.setattr(enl, "build_survival", with_nan)
    assert run("verify", "--model", root / "model.json", "--out", tmp_path) == 1
    report = json.loads((tmp_path / "verify-report.json").read_text())
    assert report["invariants"]["gtilde_dominates"] == "inf"
    assert "gtilde_dominates" in report["failing"] and not report["ok"]
    assert "fails with residual inf" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["verify", "deflate", "decompose"])
def test_tolerance_must_be_finite_and_non_negative(docs, capsys, command, value):
    root, _ = docs
    argv = {"verify": ["verify", "--model", root / "model.json"],
            "deflate": ["deflate", "--model", root / "model.json",
                        "--params", root / "params_phi.json"],
            "decompose": ["decompose", "--model", root / "model.json",
                          "--input", root / "model.json"]}[command]
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--tol", value)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_rejects_bad_probs(docs, tmp_path):
    root, model = docs
    bad = copy.deepcopy(model)
    bad["outcomes"][0]["prob"] = 0.15  # mass 0.9
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2


def test_verify_rejects_nan_prob(docs, tmp_path, capsys):
    root, model = docs
    bad = copy.deepcopy(model)
    bad["outcomes"][0]["prob"] = float("nan")
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2
    assert "atom probabilities must be finite" in capsys.readouterr().err
    assert not (tmp_path / "verify-report.json").exists()


def test_verify_rejects_non_refining(docs, tmp_path):
    root, model = docs
    bad = copy.deepcopy(model)
    bad["partitions"][1] = [0, 1, 0, 1]
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2


def test_verify_rejects_tau_out_of_range(docs, tmp_path):
    root, model = docs
    bad = copy.deepcopy(model)
    bad["tau"] = [2, 1, 3, 0]
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2


@pytest.mark.parametrize("field,value,message", [
    ("tau", [1.7, 2, 2, 0], "tau must be an integer, got 1.7"),
    ("tau", [1, 2, 2, True], "tau must be an integer, got True"),
    ("tau", [1, "2", 2, 0], "tau must be an integer"),
    ("horizon", 2.5, "horizon must be an integer, got 2.5"),
    ("horizon", True, "horizon must be an integer"),
])
def test_verify_rejects_non_integer_model_field(docs, tmp_path, capsys, field, value, message):
    root, model = docs
    bad = copy.deepcopy(model)
    bad[field] = value
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "verify-report.json").exists()


def test_verify_accepts_integral_float_tau_and_horizon(docs, tmp_path):
    root, model = docs
    doc = copy.deepcopy(model)
    doc["tau"] = [float(t) for t in doc["tau"]]
    doc["horizon"] = float(doc["horizon"])
    modelio.write_json(tmp_path / "model.json", doc)
    assert run("verify", "--model", tmp_path / "model.json", "--out", tmp_path) == 0


def test_verify_rejects_duplicate_atom_id(docs, tmp_path, capsys):
    root, model = docs
    bad = copy.deepcopy(model)
    bad["outcomes"][2]["id"] = bad["outcomes"][0]["id"]
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2
    assert "duplicate atom id 'w1'" in capsys.readouterr().err


def test_verify_missing_file(tmp_path):
    assert run("verify", "--model", tmp_path / "nope.json", "--out", tmp_path) == 2


def test_deflate_demo_certificate(docs, tmp_path):
    root, _ = docs
    assert run("deflate", "--model", root / "model.json",
               "--params", root / "params_phi.json", "--out", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["admissible"] and cert["classify"] == "martingale"
    space, tau, _ = trees.two_period_demo()
    Z = modelio.process_from_csv(tmp_path / "Z.csv", space.outcomes, 2)
    assert np.allclose(Z[:, 1], [0.75, 1.25, 1.0, 1.0])
    assert np.allclose(Z[:, 2], [0.75, 1.25, 1.0, 1.0])


def test_deflate_rejects_boundary(docs, tmp_path):
    root, _ = docs
    code = run("deflate", "--model", root / "model.json",
               "--params", root / "params_bad.json", "--out", tmp_path)
    assert code == 1


def test_deflate_empty_params_emits_base(docs, tmp_path):
    root, _ = docs
    assert run("deflate", "--model", root / "model.json",
               "--params", root / "params_empty.json", "--out", tmp_path) == 0
    space, _, _ = trees.two_period_demo()
    Z = modelio.process_from_csv(tmp_path / "Z.csv", space.outcomes, 2)
    assert np.allclose(Z[:, 1], [0.75, 0.75, 1.5, 1.0])


def test_decompose_basis_element(docs, tmp_path):
    root, _ = docs
    space, tau, _ = trees.two_period_demo()
    rts = build_survival(space, tau)
    modelio.process_to_csv(tmp_path / "ng.csv", space.outcomes, rts.N_G)
    assert run("decompose", "--model", root / "model.json",
               "--input", tmp_path / "ng.csv", "--out", tmp_path) == 0
    phi = modelio.process_from_csv(tmp_path / "phi.csv", space.outcomes, 2)
    assert np.allclose(phi[:2, 1], 1.0)  # identified on the up-block only
    M_F = modelio.process_from_csv(tmp_path / "M_F.csv", space.outcomes, 2)
    assert np.max(np.abs(M_F)) <= 1e-12
    report = json.loads((tmp_path / "decompose-report.json").read_text())
    assert report["ok"]


def test_decompose_rejects_non_adapted(docs, tmp_path):
    root, _ = docs
    space, _, _ = trees.two_period_demo()
    bad = np.arange(12.0).reshape(4, 3)  # not adapted to the enlarged blocks
    modelio.process_to_csv(tmp_path / "bad.csv", space.outcomes, bad)
    assert run("decompose", "--model", root / "model.json",
               "--input", tmp_path / "bad.csv", "--out", tmp_path) == 2


def test_decompose_rejects_non_martingale(docs, tmp_path):
    root, _ = docs
    space, _, _ = trees.two_period_demo()
    drift = np.tile(np.array([0.0, 1.0, 2.0]), (4, 1))
    modelio.process_to_csv(tmp_path / "drift.csv", space.outcomes, drift)
    assert run("decompose", "--model", root / "model.json",
               "--input", tmp_path / "drift.csv", "--out", tmp_path) == 1


def test_simulate_exit_codes(docs, tmp_path):
    root, _ = docs
    assert run("simulate", "--scenario", root / "scenario_bad.json",
               "--out", tmp_path) == 2
    assert run("simulate", "--scenario", root / "scenario.json",
               "--out", tmp_path) == 0
    summary = json.loads((tmp_path / "simulate-summary.json").read_text())
    assert summary["ok"] and summary["m_identity_residual"] <= 5 * 2.0 ** -8
    assert (tmp_path / "paths.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("mu", math.nan), ("S0", math.nan), ("horizon", math.inf), ("dt", math.inf),
    ("seed", -1), ("seed", 7.5), ("keep_paths", 5), ("keep_paths", -1),
    ("psi2", math.nan), ("phi_o", math.inf), ("phi_pr", math.nan), ("theta", math.nan),
])
def test_simulate_rejects_scenario_field(tmp_path, capsys, field, value):
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5,
           "n_paths": 3, "dt": 2.0 ** -6, field: value}
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json",
               "--out", tmp_path) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "simulate-summary.json").exists()


@pytest.mark.parametrize("field,overrides", [
    ("mu", {"mu": 1e300}), ("mu", {"mu": -1e300}), ("sigma", {"sigma": 1e200}),
    ("psi2", {"psi2": 1e300}),
    # mu cancels sigma^2/2, so the drift is about 0 but exp(sigma W) overflows
    ("sigma^2", {"sigma": 1e10, "mu": 5e19}),
    # psi1 is finite, but psi2^N overflows in the deflator
    ("psi2", {"psi2": 1e300, "zeta": 0.0}),
    # the wealth exponent theta sigma W + (theta (mu - zeta lam) - theta^2 sigma^2 / 2) t
    ("theta", {"theta": 1e300}), ("theta", {"theta": 1e200}),
])
def test_simulate_rejects_overflowing_drift_or_price_of_risk(tmp_path, capsys, field,
                                                             overrides):
    # each value is finite, but exp(sigma W + drift t) or psi1^2 would
    # overflow: exit 2 naming the field, before any path is drawn and without
    # a numpy warning
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5,
           "n_paths": 2000, **overrides}
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json",
               "--out", tmp_path) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "simulate-summary.json").exists()


def test_simulate_rejects_keep_paths_above_path_override(docs, tmp_path, capsys):
    root, _ = docs
    assert run("simulate", "--scenario", root / "scenario.json", "--paths", "3",
               "--out", tmp_path) == 2
    assert "keep_paths" in capsys.readouterr().err


NON_FINITE = (math.nan, math.inf, -math.inf)
MISSING = object()
# field: (valid values, values the input contract rejects)
SCENARIO_FIELDS = {
    "sigma": (st.floats(0.05, 0.5), (*NON_FINITE, 0.0, -0.2, 1e200, MISSING)),
    "zeta": (st.floats(-0.5, 0.5), (*NON_FINITE, -1.0, -3.0, MISSING)),
    "mu": (st.floats(-0.2, 0.2), (*NON_FINITE, 1e300, -1e300, MISSING)),
    "lambda": (st.floats(0.5, 12.0), (*NON_FINITE, 0.0, -2.0, 1e6, MISSING)),
    "a": (st.floats(0.1, 0.9), (*NON_FINITE, 0.0, 1.0, 1.5, MISSING)),
    "n_paths": (st.integers(1, 500), (0, -5, 2.5, 2**33)),
    "dt": (st.sampled_from([2.0 ** -6, 2.0 ** -5, 2.0 ** -4]),
           (*NON_FINITE, 0.0, -(2.0 ** -6), 1e-9)),
    "S0": (st.floats(0.5, 2.0), (*NON_FINITE, 0.0, -1.0)),
    "horizon": (st.floats(0.25, 2.0), (*NON_FINITE, 0.0, -1.0)),
    "seed": (st.integers(0, 2**70), (-1, 7.5, True, "7")),
    "psi2": (st.floats(0.5, 2.0), (*NON_FINITE, 0.0, -1.0, 1e300)),
    "phi_o": (st.floats(-0.5, 0.4), (*NON_FINITE, -1.0, -2.0)),
    "phi_pr": (st.floats(-0.5, 0.5), (*NON_FINITE, -1.0)),
    "theta": (st.floats(-1.0, 1.0), (*NON_FINITE, 1e300)),
    "keep_paths": (st.integers(0, 4), (-1, 1.5)),
}
ALWAYS_GIVEN = ("sigma", "zeta", "mu", "lambda", "a", "n_paths", "dt")


@st.composite
def scenario_documents(draw):
    """A scenario document and whether the input contract must reject it.

    The five required fields, n_paths and dt are always given (so a valid
    example runs in milliseconds); the others are given or left to their
    defaults.  Up to two fields are then replaced by a rejected value.
    """
    doc = {k: draw(good) for k, (good, _) in SCENARIO_FIELDS.items()
           if k in ALWAYS_GIVEN or draw(st.booleans())}
    flaws = draw(st.lists(st.sampled_from(sorted(SCENARIO_FIELDS)), max_size=2, unique=True))
    for k in flaws:
        doc[k] = draw(st.sampled_from(SCENARIO_FIELDS[k][1]))
        if doc[k] is MISSING:
            del doc[k]
    return doc, bool(flaws) or doc.get("keep_paths", 4) > doc["n_paths"]


@settings(max_examples=80, deadline=None)
@given(scenario_documents())
def test_simulate_fuzzed_scenarios_exit_cleanly(example):
    doc, invalid = example
    event("rejected by the contract" if invalid else "runs the suite")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        code = run("simulate", "--scenario", path, "--out", Path(tmp) / "out")
    assert code in (0, 1, 2)
    if invalid:
        assert code == 2, doc
    else:
        assert code in (0, 1), doc


def test_simulate_low_path_warning(docs, tmp_path, capsys):
    root, _ = docs
    code = run("simulate", "--scenario", root / "scenario.json",
               "--paths", "500", "--out", tmp_path)
    err = capsys.readouterr().err
    assert "power is low" in err
    assert code in (0, 1)  # statistics at 500 paths may wobble; warning is the contract


def test_outputs_byte_identical(docs, tmp_path):
    root, _ = docs
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("verify", "--model", root / "model.json", "--out", out) == 0
        assert run("deflate", "--model", root / "model.json",
                   "--params", root / "params_phi.json", "--out", out) == 0
        assert run("simulate", "--scenario", root / "scenario.json", "--out", out) == 0
    for name in ("verify-report.json", "certificate.json", "Z.csv",
                 "simulate-summary.json", "paths.csv", "survival_m.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_deflate_with_full_tables(docs, tmp_path):
    # an additive-route document with explicit tables and a route override
    root, _ = docs
    space, tau, _ = trees.two_period_demo()
    phi_o = np.zeros((4, 3))
    phi_o[:, 1] = [0.25, 0.25, -0.5, -0.5]
    modelio.write_json(tmp_path / "params.json", {
        "route": "additive",
        "K_F": np.zeros((4, 3)).tolist(),
        "phi_o": phi_o.tolist(),
        "V_F": 0.0,
    })
    assert run("deflate", "--model", root / "model.json",
               "--params", tmp_path / "params.json", "--out", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["route"] == "additive" and cert["classify"] == "martingale"
    # the route flag overrides the document's route
    assert run("deflate", "--model", root / "model.json",
               "--params", tmp_path / "params.json",
               "--route", "multiplicative", "--out", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["route"] == "multiplicative"


def test_verify_accepts_irregular_random_time(docs, tmp_path):
    # survival invariants hold with no positivity hypotheses on G
    rng = np.random.default_rng(50)
    space = trees.random_space(rng, max_horizon=5, max_atoms=32)
    tau = trees.random_tau(rng, space)
    modelio.write_json(tmp_path / "model.json", modelio.model_to_dict(space, tau))
    assert run("verify", "--model", tmp_path / "model.json", "--out", tmp_path) == 0


def test_model_document_round_trip(docs, tmp_path):
    root, model = docs
    doc = modelio.load_model(root / "model.json")
    again = modelio.model_to_dict(doc.space, doc.tau, doc.S, doc.assets)
    modelio.write_json(tmp_path / "again.json", again)
    assert (tmp_path / "again.json").read_bytes() == (root / "model.json").read_bytes()


def test_out_env_variable(docs, tmp_path, monkeypatch):
    root, _ = docs
    monkeypatch.setenv("HORIZON_DEFLATORS_OUT", str(tmp_path / "envout"))
    assert run("verify", "--model", root / "model.json") == 0
    assert (tmp_path / "envout" / "verify-report.json").exists()
