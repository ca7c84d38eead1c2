"""CLI contract: exit codes, certificates, determinism."""

import copy
import json

import numpy as np
import pytest

from horizon_deflators import build_survival, modelio, trees
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
