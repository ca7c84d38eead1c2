"""CLI contract: exit codes, certificates, determinism."""

import copy
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle
from horizon_deflators import (AdmissibilityError, FiniteFilteredSpace, SpaceValidationError,
                               build_survival, cli, modelio, trees)
from horizon_deflators import deflators as dfl
from horizon_deflators import enlargement as enl
from horizon_deflators import jumpdiff as jd
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


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
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


@pytest.mark.parametrize("p", [1e-8, 1e-16, 1e-17, 1e-300])
def test_verify_two_atom_model_at_every_probability(tmp_path, capsys, p):
    # it exited 1 at p = 1e-300 with "fails with residual 1": the levels of
    # D_opt and m rounded p away, and the compensator got it back as 0
    space = FiniteFilteredSpace.from_partitions(["a", "b"], [p, 1.0 - p], [[0, 0], [0, 1]])
    modelio.write_json(tmp_path / "model.json", modelio.model_to_dict(space, [1, 0]))
    assert run("verify", "--model", tmp_path / "model.json", "--out", tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "verify-report.json").read_text())
    assert report["ok"] and max(report["invariants"].values()) <= 1e-15


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
    # a JSON NaN literal: modelio.write_json writes the text "nan", which is no number
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2
    assert "atom probabilities must be finite" in capsys.readouterr().err
    assert not (tmp_path / "verify-report.json").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_deflate_rejects_non_finite_price_at_load(docs, tmp_path, capsys, bad):
    root, model = docs
    doc = copy.deepcopy(model)
    doc["assets"]["values"][0][2][1] = bad
    (tmp_path / "bad.json").write_text(json.dumps(doc))  # a NaN or Infinity literal
    out = tmp_path / "out"
    out.mkdir()
    code = run("deflate", "--model", tmp_path / "bad.json",
               "--params", root / "params_phi.json", "--out", out)
    assert code == 2
    assert f"value {bad!r} of (asset S0, atom w3, time 1) is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cell,value,message", [
    ("prob", "0.25", "prob must be a number, got '0.25'"),
    ("prob", True, "prob must be a number, got True"),
    ("prob", [0.25], "prob must be a number, got [0.25]"),
    ("price", True, "asset values must be a number, got True"),
    ("price", "2", "asset values must be a number, got '2'"),
], ids=["text-prob", "bool-prob", "list-prob", "bool-price", "text-price"])
def test_verify_refuses_a_model_number_that_is_not_one(docs, tmp_path, capsys, cell, value,
                                                       message):
    # "0.25", true and "2" were read as the numbers 0.25, 1 and 2
    root, model = docs
    doc = copy.deepcopy(model)
    if cell == "prob":
        doc["outcomes"][0]["prob"] = value
    else:
        doc["assets"]["values"][0][0][0 if value is True else 1] = value  # w1's 1, or its 2
    modelio.write_json(tmp_path / "bad.json", doc)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "deflate", "decompose"])
@pytest.mark.parametrize("flaw,message", [
    ("moved", "price process is not adapted: at time 1 it is not constant on the block of "
              "atom w1"),
    ("names", "asset names must be one per asset: 2 name(s), 1 asset(s)"),
])
def test_tree_commands_refuse_a_price_table_before_writing(docs, tmp_path, capsys, command,
                                                           flaw, message):
    # a price moved by 1e-14 within its block is not adapted, as the oracles
    # need; asset names must be one per asset
    root, model = docs
    doc = copy.deepcopy(model)
    if flaw == "moved":
        doc["assets"]["values"][0][0][1] += 1e-14  # (asset S0, atom w1, time 1)
    else:
        doc["assets"]["names"] = ["A", "B"]
    modelio.write_json(tmp_path / "bad.json", doc)
    space, tau, _ = trees.two_period_demo()
    modelio.process_to_csv(tmp_path / "N_G.csv", space.outcomes, build_survival(space, tau).N_G)
    argv = {"verify": ["verify"],
            "deflate": ["deflate", "--params", root / "params_phi.json"],
            "decompose": ["decompose", "--input", tmp_path / "N_G.csv"]}[command]
    out = tmp_path / "out"
    out.mkdir()
    assert run(*argv, "--model", tmp_path / "bad.json", "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert list(out.iterdir()) == []


UNREADABLE = [(option, kind) for option in ("--model", "--params", "--scenario", "--input")
              for kind in ("missing", "directory", "undecodable")] + [("--out", "file")]


@pytest.mark.parametrize("option,kind", UNREADABLE)
def test_unreadable_file_exits_two_naming_its_path(docs, tmp_path, capsys, option, kind):
    root, _ = docs
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    elif kind != "missing":
        bad.write_bytes(b"\xff\xfe\x00\x81")  # not UTF-8
    model = root / "model.json"
    argv = {"--model": ["verify", "--model", bad],
            "--params": ["deflate", "--model", model, "--params", bad],
            "--scenario": ["simulate", "--scenario", bad],
            "--input": ["decompose", "--model", model, "--input", bad],
            "--out": ["verify", "--model", model]}[option]
    out = bad if option == "--out" else tmp_path / "out"
    assert run(*argv, "--out", out) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "deflate"])
def test_out_at_a_file_is_refused_before_any_work(docs, tmp_path, capsys, monkeypatch, command):
    # it used to run the whole command, then fail to make the directory: at the
    # file itself, or at a path below it
    def work(*args, **kwargs):
        raise AssertionError("the command started its work")
    monkeypatch.setattr(jd, "simulate", work)
    monkeypatch.setattr(jd, "simulate_suite", work)
    monkeypatch.setattr(enl, "build_survival", work)
    root, _ = docs
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {"simulate": ["simulate", "--scenario", root / "scenario.json"],
            "deflate": ["deflate", "--model", root / "model.json",
                        "--params", root / "params_phi.json"]}[command]
    for out, reason in ((afile, "File exists"), (afile / "sub", "Not a directory")):
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err == f"error: output directory {out}: {reason}\n"


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
    # NumPy's "Python int too large to convert to C long"
    ("tau", [1, 2, 2, 2 ** 70], "tau must be an integer, got 1180591620717411303424"),
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


@pytest.mark.parametrize("field,value,message", [
    ("partitions", None, "partitions must be an integer, got None"),
    ("partitions", 5, "partitions must list horizon+1 rows of one block id per atom"),
    ("partitions", [None] * 3, "partitions must be an integer, got None"),
    ("partitions", [[0] * 4, [0, 0, 1, 1], [0, 1, 2, 2.5]],
     "partitions must be an integer, got 2.5"),
    ("partitions", [[0] * 4, [0, 0, 1, 1], [0, 1, 2, "3"]],
     "partitions must be an integer, got '3'"),
    # a bool was read as the block id 1, and ragged rows gave NumPy's message
    ("partitions", [[0] * 4, [0, 0, 1, 1], [0, True, 2, 3]],
     "partitions must be an integer, got True"),
    ("partitions", [[0] * 4, [0, 0, 1, 1], [0, 1, 2]],
     "partitions must be an integer, got ragged rows"),
    ("assets", {"values": "x"}, "asset values must be a number, got 'x'"),
    ("assets", [1, 2], "malformed asset table"),
    ("assets", {"names": ["S"]}, "malformed asset table"),
], ids=["none", "scalar", "rows-of-none", "fractional-id", "string-id", "bool-id",
        "ragged", "string-values", "list-block", "no-values"])
def test_verify_rejects_malformed_partitions_or_assets(docs, tmp_path, capsys, field, value,
                                                       message):
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


@pytest.mark.parametrize("flaw,message", [
    # the price table went unread: deflate said "no price table, so no oracle ran", exit 0
    ("asset", "model document has unknown fields ['asset']"),
    # the assets took their default names
    ("name", "asset table has unknown fields ['name']"),
    ("weight", "an outcome has unknown fields ['weight']"),
])
def test_load_model_refuses_keys_it_does_not_read(docs, tmp_path, capsys, flaw, message):
    root, model = docs
    doc = copy.deepcopy(model)
    if flaw == "asset":
        doc["asset"] = doc.pop("assets")
    elif flaw == "name":
        doc["assets"]["name"] = doc["assets"].pop("names")
    else:
        doc["outcomes"][1]["weight"] = 1.0
    modelio.write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "out"
    out.mkdir()
    assert run("deflate", "--model", tmp_path / "bad.json", "--params", root / "params_phi.json",
               "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert list(out.iterdir()) == []


def test_an_integer_past_the_int64_range_reads_as_its_float_in_every_document(docs, tmp_path):
    # a price or Z_F cell 2^70 was refused as "not numbers only", while a scenario field
    # read it as its float
    root, model = docs
    doc = copy.deepcopy(model)
    doc["assets"]["values"] = [[[2 ** 70] * 3] * 4]  # one constant asset is adapted
    (tmp_path / "model.json").write_text(json.dumps(doc))
    (tmp_path / "params.json").write_text(json.dumps({"route": "multiplicative",
                                                      "Z_F": [[2 ** 70] * 3] * 4}))
    (tmp_path / "scenario.json").write_text(json.dumps({**README_SCENARIO, "S0": 2 ** 70}))
    assert "1180591620717411303424" in (tmp_path / "params.json").read_text()
    read = 1.1805916207174113e21
    assert np.all(modelio.load_model(tmp_path / "model.json").market.S == read)
    assert np.all(modelio.load_params(tmp_path / "params.json", 4, 2).Z_F == read)
    assert modelio.load_scenario(tmp_path / "scenario.json")[0].S0 == read


def test_verify_rejects_duplicate_atom_id(docs, tmp_path, capsys):
    root, model = docs
    bad = copy.deepcopy(model)
    bad["outcomes"][2]["id"] = bad["outcomes"][0]["id"]
    modelio.write_json(tmp_path / "bad.json", bad)
    assert run("verify", "--model", tmp_path / "bad.json", "--out", tmp_path) == 2
    assert "duplicate atom id 'w1'" in capsys.readouterr().err


@pytest.mark.parametrize("ids,bad_id", [(["w1,x"], "w1,x"), ([" w1"], " w1"), ([1, "1"], "1")],
                         ids=["comma", "leading-space", "int-and-str"])
@pytest.mark.parametrize("command", ["verify", "deflate", "decompose"])
def test_tree_commands_reject_ids_a_table_cannot_round_trip(docs, tmp_path, capsys, ids, bad_id,
                                                            command):
    # a comma splits the id's rows, the reader strips a leading space, and the
    # ids 1 and "1" write the same rows: each is refused at load, before any
    # table is written
    root, model = docs
    assert run("deflate", "--model", root / "model.json", "--params", root / "params_phi.json",
               "--out", tmp_path / "z") == 0
    bad = copy.deepcopy(model)
    for outcome, atom_id in zip(bad["outcomes"], ids):
        outcome["id"] = atom_id
    modelio.write_json(tmp_path / "bad.json", bad)
    extra = {"verify": [], "deflate": ["--params", root / "params_phi.json"],
             "decompose": ["--input", tmp_path / "z" / "Z.csv"]}[command]
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run(command, "--model", tmp_path / "bad.json", *extra, "--out", out) == 2
    assert f"outcome id {bad_id!r} cannot round-trip through a CSV table" in \
        capsys.readouterr().err
    assert list(out.iterdir()) == []


# sha256 of every file the README commands write for the demo model (deflate
# on each route, decompose on the measure-change Z): a byte that changes fails
# here, where comparing two runs of the same code would not see it
README_DIGESTS = {
    "verify/survival_G.csv":
        "7841c54334ab6ecd44ec3c2a3294173bc9076b3115d36822b13680aeb9a6a122",
    "verify/survival_G_tilde.csv":
        "d881064586fc3c6eff22b93f424f2659260f867a16abe3a4591076a4a9643ecd",
    "verify/survival_N_G.csv":
        "aeba7637a0b5be8135df3d39bdc9082ba4dda0208a34704141fc196b034b1327",
    "verify/survival_Z_bar.csv":
        "f2b530e273e123647b4c66a255a04033ac172bd05cc5edda7b77bb99d259ed24",
    "verify/survival_m.csv":
        "da86af8c386919620b0012c4685c0294245ff4ff8a17ab71f2b5dca961484cd9",
    "verify/verify-report.json":
        "293ebc94d168a65b4c625e0e1c7ce95cad2750fe5da852970c80e8deb5016ef1",
    "deflate-additive/Z.csv":
        "06f6e47ac03bdf7936e4cc9a4e1a77cc6616e77e5c1a874834026f90375542f5",
    "deflate-additive/certificate.json":
        "60907f45a11e0cdc4d73b8e7db423184da7e0dec69c5db4505995b240442e02a",
    "deflate-additive/factor_base.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-additive/factor_decay.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-additive/factor_default_exponential.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-additive/factor_progressive_exponential.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-additive/factor_survival_discount.csv":
        "06f6e47ac03bdf7936e4cc9a4e1a77cc6616e77e5c1a874834026f90375542f5",
    "deflate-multiplicative/Z.csv":
        "127c53489d0180cdf7faa4e59224a6fc8ca9755752e906fef4aa4b2a64c30579",
    "deflate-multiplicative/certificate.json":
        "665fd79bc9ae74f569fc1e2a01755558b53da311673ef5b8ead750d122dd7838",
    "deflate-multiplicative/factor_base.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-multiplicative/factor_default_exponential.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-multiplicative/factor_progressive_exponential.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-multiplicative/factor_survival_discount.csv":
        "127c53489d0180cdf7faa4e59224a6fc8ca9755752e906fef4aa4b2a64c30579",
    "deflate-measure-change/Z.csv":
        "02d059291e9fc0c8dc392fc2aa1fae6667ef0101d36a0fa400b75ea4ef16bc3e",
    "deflate-measure-change/certificate.json":
        "e6cdeaeec39f96854535a41769849b729038efe5089c0e04036c2d978ee9b921",
    "deflate-measure-change/factor_base.csv":
        "fe2f7e93186efe77ec13dd72311b0f459e08e87554e8d84d25d8c093141562c8",
    "deflate-measure-change/factor_default_exponential.csv":
        "02d059291e9fc0c8dc392fc2aa1fae6667ef0101d36a0fa400b75ea4ef16bc3e",
    "decompose/M_F.csv":
        "621bcfe30681a5996e3bcc5ee03e99ba77cc7c894865febde73ecdedd1e3a201",
    "decompose/decompose-report.json":
        "6b81ae6eac613c38b58281d51034999f707124b85d6f99188cfda2cb374e8e3a",
    "decompose/phi.csv":
        "b352febc23e54b49321d45e76b70160a89ddbbcfe2cf31615f880fbe0d45daeb",
}


def test_readme_outputs_match_pinned_digests(tmp_path):
    space, tau, S = trees.two_period_demo()
    modelio.write_json(tmp_path / "model.json", modelio.model_to_dict(space, tau, S))
    modelio.write_json(tmp_path / "params.json", {"route": "measure-change", "phi": 0.5})
    model = ["--model", tmp_path / "model.json"]
    runs = {"verify": ["verify", *model]}
    for route in ("additive", "multiplicative", "measure-change"):
        runs[f"deflate-{route}"] = ["deflate", *model, "--params", tmp_path / "params.json",
                                    "--route", route]
    runs["decompose"] = ["decompose", *model,
                         "--input", tmp_path / "deflate-measure-change" / "Z.csv"]
    got = {}
    for name, argv in runs.items():
        assert run(*argv, "--out", tmp_path / name) == 0, name
        for path in sorted((tmp_path / name).iterdir()):
            got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == README_DIGESTS


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


@pytest.mark.parametrize("route, key", [("multiplicative", "Z_F"), ("measure-change", "Z_QF"),
                                        ("additive", "phi_o")])
@pytest.mark.parametrize("text, value", [("NaN", "nan"), ("Infinity", "inf"),
                                         ("-Infinity", "-inf")])
@pytest.mark.parametrize("constant", [True, False])
def test_deflate_refuses_non_finite_parameter_tables(docs, tmp_path, capsys, route, key, text,
                                                     value, constant):
    # Python's json reads NaN and Infinity; such a table used to be certified
    root, _ = docs
    table = text if constant else json.dumps([[0.5] * 3, [0.5, 1.0, 0.5], [0.5] * 3,
                                              [0.5] * 3]).replace("1.0", text)
    (tmp_path / "params.json").write_text(f'{{"route": "{route}", "{key}": {table}}}')
    code = run("deflate", "--model", root / "model.json",
               "--params", tmp_path / "params.json", "--out", tmp_path / "out")
    cell = "(0, 0)" if constant else "(1, 1)"
    assert code == 2
    err = capsys.readouterr()
    assert f"input error: {key} must be finite, got {value} at cell {cell}" in err.err
    assert not err.out and not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("table", [[["a", 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]],
                                   [[1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]]],
                         ids=["word", "ragged"])
def test_deflate_refuses_a_table_that_is_not_numbers(docs, tmp_path, capsys, table):
    # either document used to raise a bare ValueError out of main
    root, _ = docs
    modelio.write_json(tmp_path / "params.json", {"route": "multiplicative", "Z_F": table})
    code = run("deflate", "--model", root / "model.json",
               "--params", tmp_path / "params.json", "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr()
    assert err.err == ("input error: Z_F must be a number or a table of numbers: "
                       "no bool, no text, no ragged rows\n")
    assert not err.out and not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("route", [["additive"], {"additive": 1}], ids=["list", "object"])
def test_deflate_refuses_a_route_that_is_not_a_name(docs, tmp_path, capsys, route):
    # a route that cannot be hashed used to raise a bare TypeError out of main
    root, _ = docs
    modelio.write_json(tmp_path / "params.json", {"route": route})
    code = run("deflate", "--model", root / "model.json",
               "--params", tmp_path / "params.json", "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr()
    assert err.err == f"input error: unknown route {route!r}\n"
    assert not err.out and not (tmp_path / "out" / "certificate.json").exists()


def test_deflate_refuses_a_driver_that_is_not_a_martingale(docs, tmp_path, capsys):
    root, _ = docs
    modelio.write_json(tmp_path / "params.json",
                       {"route": "additive", "K_F": [[0.0, 0.1, 0.2]] * 4})
    code = run("deflate", "--model", root / "model.json",
               "--params", tmp_path / "params.json", "--out", tmp_path / "out")
    assert code == 2
    assert "error: transport input is not a martingale" in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("Z_F", [1.0, 1e300])
def test_deflate_certificate_fails_closed_on_overflowing_sums(tmp_path, Z_F):
    # the price drifts by 5e9 per step, so Z is no deflator at any scale of
    # Z_F; at 1e300 the oracles' node sums overflow, which must read inf
    space = FiniteFilteredSpace.from_partitions(("u", "d"), (0.75, 0.25), [[0, 0], [0, 1]])
    S = np.array([[1.0, 1.0 + 1e10], [1.0, 1.0 - 1e10]])
    modelio.write_json(tmp_path / "model.json", modelio.model_to_dict(space, [1, 1], S))
    modelio.write_json(tmp_path / "params.json", {"route": "multiplicative", "Z_F": Z_F})
    assert run("deflate", "--model", tmp_path / "model.json", "--params",
               tmp_path / "params.json", "--out", tmp_path / "out") == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["verify_lmd"]["ok"] is False and cert["verify_deflator"]["ok"] is False
    if Z_F > 1.0:
        assert cert["verify_lmd"]["residual"] == cert["verify_deflator"]["excess"] == "inf"


def test_deflate_certificate_notes_an_oracle_that_does_not_run(tmp_path, capsys):
    # verify_deflator's node polytope stops at 3 assets; on 4 the certificate says so
    space = FiniteFilteredSpace.from_partitions(("u", "d"), (0.75, 0.25), [[0, 0], [0, 1]])
    S = np.array([[[1.0, 1.25], [1.0, 0.25]]] * 4)  # four martingales
    modelio.write_json(tmp_path / "model.json", modelio.model_to_dict(space, [1, 1], S))
    modelio.write_json(tmp_path / "params.json", {"route": "multiplicative", "Z_F": 1.0})
    assert run("deflate", "--model", tmp_path / "model.json", "--params",
               tmp_path / "params.json", "--out", tmp_path) == 0
    assert capsys.readouterr().out.strip().endswith(
        "; verify_lmd accepts Z (residual 0), verify_deflator not run")
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verify_deflator"] == {"ok": None,
                                       "note": "node polytope oracle supports d <= 3, got 4"}


def test_deflate_stdout_states_the_oracle_verdicts(docs, tmp_path, capsys):
    # exit 0 covers the parameters; the closing line names each oracle's verdict
    root, model = docs
    assert run("deflate", "--model", root / "model.json",
               "--params", root / "params_phi.json", "--out", tmp_path / "demo") == 0
    assert capsys.readouterr().out.strip().endswith(
        "; verify_lmd rejects Z (residual 1.5), verify_deflator rejects Z (excess inf)")
    space = FiniteFilteredSpace.from_partitions(("u", "d"), (0.75, 0.25), [[0, 0], [0, 1]])
    S = np.array([[1.0, 1.25], [1.0, 0.25]])  # a martingale, so Z = 1 deflates it
    modelio.write_json(tmp_path / "model.json", modelio.model_to_dict(space, [1, 1], S))
    modelio.write_json(tmp_path / "params.json", {"route": "multiplicative", "Z_F": 1.0})
    assert run("deflate", "--model", tmp_path / "model.json", "--params",
               tmp_path / "params.json", "--out", tmp_path / "ok") == 0
    assert capsys.readouterr().out.strip().endswith(
        "; verify_lmd accepts Z (residual 0), verify_deflator accepts Z (excess 0)")
    no_prices = {k: v for k, v in model.items() if k != "assets"}
    modelio.write_json(tmp_path / "no_prices.json", no_prices)
    assert run("deflate", "--model", tmp_path / "no_prices.json",
               "--params", root / "params_phi.json", "--out", tmp_path / "none") == 0
    assert capsys.readouterr().out.strip().endswith("; no price table, so no oracle ran")


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


@pytest.mark.parametrize("row,message", [
    ('w2,1,"nan"', "row 6: time must be an integer and value a number"),
    ("w2,0.5,0", "row 6: time must be an integer and value a number"),
    ("w2,1,abc", "row 6: time must be an integer and value a number"),
    ("w2,1,nan", "row 6: value nan of (w2, 1) is not finite"),
    ("w2,1,-inf", "row 6: value -inf of (w2, 1) is not finite"),
    ("w2,1,0.5\nw2,1,4", "row 7: cell (w2, 1) appears twice"),
], ids=["quoted-nan", "fractional-time", "word", "nan", "infinite", "duplicate"])
def test_decompose_rejects_malformed_input_row(docs, tmp_path, capsys, row, message):
    root, _ = docs
    space, tau, _ = trees.two_period_demo()
    modelio.process_to_csv(tmp_path / "ng.csv", space.outcomes, build_survival(space, tau).N_G)
    lines = (tmp_path / "ng.csv").read_text().splitlines()
    assert lines[5] == "w2,1,0.5"
    lines[5] = row
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    assert run("decompose", "--model", root / "model.json",
               "--input", tmp_path / "bad.csv", "--out", tmp_path) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "decompose-report.json").exists()


def test_simulate_exit_codes(docs, tmp_path):
    root, _ = docs
    assert run("simulate", "--scenario", root / "scenario_bad.json",
               "--out", tmp_path) == 2
    assert run("simulate", "--scenario", root / "scenario.json",
               "--out", tmp_path) == 0
    summary = json.loads((tmp_path / "simulate-summary.json").read_text())
    assert summary["ok"] and summary["m_identity_residual"] <= 5 * 2.0 ** -8
    assert (tmp_path / "paths.csv").exists()


@pytest.mark.parametrize("horizon,dt", [(1.0, 2.0 ** -12), (0.6484375, 2.0 ** -6)],
                         ids=["crosses-a-chunk", "horizon-off-grid"])
def test_simulate_paths_csv_matches_per_cell_writer(tmp_path, horizon, dt):
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "n_paths": 300,
           "seed": 11, "horizon": horizon, "dt": dt, "keep_paths": 3, "phi_pr": -0.1}
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path) in (0, 1)
    sc, extras = modelio.load_scenario(doc)
    bundle = jd.simulate(sc, keep_paths=extras["keep_paths"])
    psi1 = jd.solve_drift(sc, extras["psi2"])
    oracle.write_paths(tmp_path / "ref.csv", bundle, jd.deflator_grid, psi1, extras["psi2"],
                       extras["phi_o"], extras["phi_pr"])
    assert (tmp_path / "paths.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def _first_breach(doc):
    """The first path whose deflator breaches psi2 (1 + beta T1), as build_deflator finds it."""
    sc, extras = modelio.load_scenario(doc)
    b = jd.simulate(sc, keep_paths=extras["keep_paths"])
    hit_t1 = ~b.from_second_jump & (b.tau <= sc.horizon)
    return int(np.flatnonzero(hit_t1 & (extras["phi_o"] >= extras["psi2"]
                                        * (1.0 + sc.beta * b.t1)))[0])


@pytest.mark.parametrize("fields,message", [
    ({"psi2": 0.0}, "scenario constraint violation: psi2 must be strictly positive"),
    ({"phi_o": -1.0}, "scenario constraint violation: phi_o must exceed -1 before the first jump"),
    ({"phi_pr": -1.0}, "scenario constraint violation: phi_pr must exceed -1 at the default date"),
    ({"phi_pr": 0.2}, "scenario constraint violation: phi_pr must not exceed 0: above, E[Z_t] > 1 "
                      "once default can occur, so Z is no supermartingale deflator"),
    ({"psi2": 1e-9, "phi_o": 0.5},
     "scenario constraint violation: phi_o at the first jump breaches psi2 (1 + beta T1) on path"),
    ({"zeta": 0.5, "theta": -2.0},
     "scenario constraint violation: theta = -2 is inadmissible: 1 + theta zeta must be positive"),
    # the deflator's parameters are checked before the strategy's
    ({"psi2": 0.0, "zeta": 0.5, "theta": -2.0},
     "scenario constraint violation: psi2 must be strictly positive"),
    ({"phi_o": -1.0, "zeta": 0.5, "theta": -2.0},
     "scenario constraint violation: phi_o must exceed -1 before the first jump"),
], ids=["psi2", "phi_o", "phi_pr", "phi_pr-positive", "path", "theta", "psi2-first",
        "phi_o-first"])
def test_simulate_names_each_inadmissible_suite_parameter(tmp_path, capsys, fields, message):
    # each is a constraint of the deflator or of the wealth strategy, met only
    # once the paths are drawn: exit 2 with the constraint's message, no summary
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "n_paths": 500,
           "seed": 3, "dt": 2.0 ** -6, **fields}
    if message.endswith("on path"):
        message += f" {_first_breach(doc)}"
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "simulate-summary.json").exists()


@pytest.mark.parametrize("psi2,chunk", [(0.49, 3), (0.494, 7)], ids=["in-head", "past-head"])
def test_simulate_names_the_smallest_breaching_path_across_chunks(tmp_path, capsys,
                                                                 monkeypatch, psi2, chunk):
    # chunks of 8 paths on 8 workers: the chunks before `chunk` hold no breach of
    # psi2 (1 + beta T1), `chunk` holds the first, and many later chunks hold more;
    # whichever chunk finishes first, the error names the smallest offending path,
    # found by the head's check (the first 39 paths) or past it by the chunks'
    monkeypatch.setattr(jd, "_ROWS", 8)
    monkeypatch.setattr(jd, "_workers", lambda: 8)
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "n_paths": 500,
           "seed": 3, "dt": 2.0 ** -6, "psi2": psi2, "phi_o": 0.5}
    first = _first_breach(doc)
    assert first // 8 == chunk
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path) == 2
    assert capsys.readouterr().err == ("scenario constraint violation: phi_o at the first jump "
                                       f"breaches psi2 (1 + beta T1) on path {first}\n")
    assert not (tmp_path / "simulate-summary.json").exists()


@pytest.mark.parametrize("dt", [0.3, 2.0])
def test_simulate_kept_paths_end_at_the_horizon(tmp_path, dt):
    # a dt that does not divide the horizon used to put a last paths.csv row past
    # it (t = 1.2 at dt 0.3, t = 2 at dt 2), where no jump was drawn; the grid now
    # ends at the horizon, and the last row there agrees with the report grid
    doc = {**README_SCENARIO, "n_paths": 50, "dt": dt, "keep_paths": 3}
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path) in (0, 1)
    table = np.loadtxt(tmp_path / "paths.csv", delimiter=",", skiprows=1)
    sc, _ = modelio.load_scenario(doc)
    b = jd.simulate(sc)
    for i in range(3):
        last = table[table[:, 0] == i][-1]
        assert last[1] == sc.horizon == b.report_times[-1]
        assert last[3] == b.N[i, -1]


DEMO_IDS = ("w1", "w2", "w3", "w4")  # the atoms of trees.two_period_demo
README_SCENARIO = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "seed": 7}


@pytest.mark.parametrize("keep,n_paths", [(4, 2), (-1, 100)])
def test_simulate_checks_keep_paths_against_the_path_override(tmp_path, capsys, keep, n_paths):
    # the message names the full n_paths, not the size of the head the suite draws first
    modelio.write_json(tmp_path / "scenario.json", {**README_SCENARIO, "keep_paths": keep})
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--paths", n_paths,
               "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (f"input error: keep_paths must lie in "
                                       f"[0, n_paths = {n_paths}]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [2 ** 63 - 1, 2 ** 63, 2 ** 70])
def test_simulate_reads_a_seed_past_int64_alike_from_the_document_and_the_command_line(
        tmp_path, seed):
    # a scalar integer field is an int of any size; only integer arrays are int64
    modelio.write_json(tmp_path / "seeded.json", {**README_SCENARIO, "seed": seed})
    modelio.write_json(tmp_path / "plain.json", README_SCENARIO)
    codes = [run("simulate", "--scenario", tmp_path / "seeded.json", "--paths", 200,
                 "--out", tmp_path / "doc"),
             run("simulate", "--scenario", tmp_path / "plain.json", "--paths", 200,
                 "--seed", seed, "--out", tmp_path / "flag")]
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    summary = (tmp_path / "doc" / "simulate-summary.json").read_bytes()
    assert summary == (tmp_path / "flag" / "simulate-summary.json").read_bytes()
    assert json.loads(summary)["scenario"]["seed"] == seed


def test_simulate_summary_holds_the_suite_table(tmp_path):
    # the summary's nulls and hypotheses are jumpdiff's table, and its z-score
    # count and critical value are what jumpdiff computes from that table
    modelio.write_json(tmp_path / "scenario.json", {**README_SCENARIO, "n_paths": 2000})
    run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path)
    summary = json.loads((tmp_path / "simulate-summary.json").read_text())
    assert ({name: result["null"] for name, result in summary["results"].items()}
            == {name: null for name, _, null, *_ in jd.SUITE})
    sc, extras = modelio.load_scenario(tmp_path / "scenario.json")
    _, _, n_z, z_crit, _ = jd.simulate_suite(sc, jd.solve_drift(sc, extras["psi2"]),
                                             extras["psi2"], theta=extras["theta"],
                                             phi_o=extras["phi_o"])
    assert (summary["alpha"], summary["n_zscores"], summary["z_crit"]) == (jd.SUITE_ALPHA, n_z,
                                                                           z_crit)
    assert n_z == 240 and f"{z_crit:.3f}" == "4.097"


@pytest.mark.parametrize("seed", [7, 424242])
def test_simulate_tests_a_negative_default_leg_as_a_supermartingale(tmp_path, seed):
    # with phi_pr < 0 the deflator is a martingale times 1 + phi_pr 1{tau <= t},
    # which falls at the default date: its means drop below 1, and the suite
    # tests it as the supermartingale it is
    modelio.write_json(tmp_path / "scenario.json",
                       {**README_SCENARIO, "seed": seed, "phi_pr": -0.2})
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--paths", "20000",
               "--out", tmp_path) == 0
    leg = json.loads((tmp_path / "simulate-summary.json").read_text())["results"][
        "deflator_with_default_leg"]
    assert leg["null"] == "supermartingale" and not leg["rejected"]
    assert max(leg["means"]) < 1.0 and max(leg["zscores"]) < -100.0


def test_simulate_regression_survives_huge_price_feature(tmp_path):
    # the contract admits mu = 400, so S reaches about e^400 and S^2 overflows;
    # the regression z-scores of the nulls that use S as a feature stay finite
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 400, "lambda": 2, "a": 0.5, "psi2": 1,
           "seed": 7, "n_paths": 3000, "dt": 0.0078125}
    modelio.write_json(tmp_path / "scenario.json", doc)
    run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path)
    summary = json.loads((tmp_path / "simulate-summary.json").read_text())
    five = ("m", "N_G", "survival_exponential", "transported_brownian", "transported_poisson")
    assert not set(five) & set(summary["rejected"])
    assert all(summary["results"][name]["max_abs_z"] < summary["z_crit"] for name in five)
    # the five nulls do not depend on mu, and S is the mu = 0.03 price times
    # exp(399.97 t), a constant per report time: the regression z-scores match
    regression_z = {}
    for mu in (400, 0.03):
        sc, _ = modelio.load_scenario({**doc, "mu": mu})
        b = jd.simulate(sc)
        tests = jd.suite_tests(b, jd.solve_drift(sc, 1.0), 1.0, theta=0.7)[0]
        reports = jd.mc_suite({name: tests[name] for name in five}, b.report_times)
        regression_z[mu] = {name: rep.regression_z for name, rep in reports.items()}
    for name in five:
        assert np.allclose(regression_z[400][name], regression_z[0.03][name],
                           rtol=1e-8, atol=0.0), name


@pytest.mark.parametrize("seed", range(100, 110))
def test_simulate_rejects_wrong_processes(tmp_path, monkeypatch, seed):
    # four processes that are not martingales, each in place of one null of
    # the README suite at 100k paths; the suite must reject every one at its
    # family-wise critical value, on every seed
    path_processes, lmd_rows = jd._path_processes, jd._lmd_times_price
    calls = []

    def wrong_processes(sc, quad, t, t1, tau, from_second, W, N):
        # (time, path) rows: t is a column of report times against rows of per-path values
        out = path_processes(sc, quad, t, t1, tau, from_second, W, N)
        # N_G without its compensator
        out["N_G"] = (from_second & (tau <= t)).astype(float)
        # m with lam 10% too high in its Lebesgue part
        out["m"] = out["m"] + 0.1 * sc.lam * sc.beta * jd._i1(sc.beta, np.minimum(t, t1))
        calls.append(len(t1))
        return out

    def damped_poisson(b):
        # jump factor 1 + beta T1 / (1 + beta T1) in place of 1 + beta T1
        sc, t1 = b.scenario, b.t1[:, None]
        return b.first_jump_stopped() * (1.0 + sc.beta * t1 / (1.0 + sc.beta * t1)) \
            - sc.lam * b.stopped_times()

    # the suite pass calls the row kernels by their module names, once per chunk of paths
    monkeypatch.setattr(jd, "_path_processes", wrong_processes)
    monkeypatch.setattr(jd, "_transported_poisson", damped_poisson)
    monkeypatch.setattr(jd, "_lmd_times_price",  # psi1 10% off
                        lambda b, psi1, psi2: lmd_rows(b, 1.1 * psi1, psi2))
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "psi2": 1.0,
           "seed": seed, "n_paths": 100_000, "keep_paths": 0}
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path) == 1
    # every path's report rows came from the wrong kernel, the head's twice
    assert sum(calls) == 100_000 + 2 * jd.MIN_SAMPLES - 1
    summary = json.loads((tmp_path / "simulate-summary.json").read_text())
    wrong = ("N_G", "deflated_price_drift", "m", "transported_poisson")
    assert set(wrong) <= set(summary["rejected"])
    assert all(summary["results"][name]["max_abs_z"] > summary["z_crit"] for name in wrong)


def test_simulate_without_a_default_rejects_the_default_driven_nulls(tmp_path, capsys):
    # lambda * n_paths = 1e-3: no path defaults, so m, N_G, survival_exponential
    # and transported_poisson are one deterministic curve away from their start.
    # Each column holds one repeated value, so its standard error is 0: they
    # reject at every report time, simulate exits 1, and a warning names each.
    # No path moves off the common increment, so no regression step is used.
    doc = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 1e-6, "a": 0.5,
           "n_paths": 1000, "seed": 3, "dt": 0.0625}
    sc, _ = modelio.load_scenario(doc)
    assert np.all(jd.simulate(sc).tau > sc.horizon)
    modelio.write_json(tmp_path / "scenario.json", doc)
    assert run("simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path) == 1
    summary = json.loads((tmp_path / "simulate-summary.json").read_text())
    four = ["N_G", "m", "survival_exponential", "transported_poisson"]
    assert summary["rejected"] == four
    assert all(summary["results"][name]["max_abs_z"] == "inf" for name in four)
    times = ", ".join(f"{t:g}" for t in summary["report_times"])
    steps = ", ".join(f"{s:g} -> {t:g} (0 paths)"
                      for s, t in zip(summary["report_times"], summary["report_times"][1:]))
    warnings = [f"{name}: zero standard error with mean != start {start} at t = {times}: "
                "z = +-inf under the martingale null; regression skipped where fewer than "
                f"20 paths move off the common increment or feature value: t = {steps}"
                for name, start in (("m", 1), ("transported_poisson", 0), ("N_G", 0),
                                    ("survival_exponential", 1))]
    assert summary["warnings"] == warnings
    err = capsys.readouterr().err
    assert all(f"warning: {w}" in err for w in warnings)


def test_simulate_does_not_import_scipy(tmp_path):
    # simulate draws and tests with numpy alone: importing scipy would add to
    # the start-up of every simulate call
    modelio.write_json(tmp_path / "scenario.json", {
        "sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "n_paths": 2000})
    code = ("import sys\n"
            "from horizon_deflators.cli import main\n"
            f"main(['simulate', '--scenario', {str(tmp_path / 'scenario.json')!r}, "
            f"'--out', {str(tmp_path)!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(jd.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert (tmp_path / "simulate-summary.json").exists()
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.fixture
def fresh_malloc_policy():
    # main sets the malloc policy once per process: clear that record on both sides, so the
    # test's own calls set it and a patched library stands for no later call
    cli._keep_chunk_memory.cache_clear()
    yield
    cli._keep_chunk_memory.cache_clear()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_simulate_keeps_its_chunk_memory_resident_between_calls(tmp_path, fresh_malloc_policy):
    # glibc trimmed the heap after each 8192-path chunk, and the next chunk faulted its
    # temporaries back in: 5k-40k minor faults per 100k-path call, under 400 with the policy
    import resource  # POSIX only, like the policy
    modelio.write_json(tmp_path / "scenario.json", {
        "sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "seed": 7})
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run("simulate", "--scenario", tmp_path / "scenario.json", "--paths", 100_000,
                   "--out", tmp_path) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[1] < 2000, faults


class _LibcWithoutMallopt:
    """A C library with no ``mallopt``, as on macOS or Windows."""


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: _LibcWithoutMallopt()],
                         ids=["no-library", "no-mallopt"])
def test_the_cli_runs_alike_where_libc_has_no_mallopt(docs, tmp_path, capsys, monkeypatch,
                                                      fresh_malloc_policy, cdll):
    root, _ = docs
    commands = (("verify", "--model", root / "model.json"),
                ("simulate", "--scenario", root / "scenario.json", "--paths", 2000))
    loads = []

    def patched(name):
        loads.append(name)
        return cdll(name)

    runs = {}
    for label in ("plain", "patched"):
        if label == "patched":
            cli._keep_chunk_memory.cache_clear()
            monkeypatch.setattr(ctypes, "CDLL", patched)
        codes = [run(*argv, "--out", tmp_path / label) for argv in commands]
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / label).iterdir())}
        runs[label] = (codes, capsys.readouterr(), files)
    assert loads == [None]
    assert runs["patched"] == runs["plain"] and runs["plain"][0] == [0, 0]
    assert {"verify-report.json", "simulate-summary.json", "paths.csv"} <= set(runs["plain"][2])


def test_simulate_rejects_keep_paths_above_path_override(docs, tmp_path, capsys):
    root, _ = docs
    assert run("simulate", "--scenario", root / "scenario.json", "--paths", "3",
               "--out", tmp_path) == 2
    assert "keep_paths" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--paths", "0", "n_paths"), ("--paths", "-5", "n_paths"),
    ("--dt", "0", "dt"), ("--dt", "-0.5", "dt")])
def test_simulate_rejects_zero_or_negative_override(docs, tmp_path, capsys, flag, value, field):
    # an override of 0 is an error, not a fall-back to the document's value
    root, _ = docs
    assert run("simulate", "--scenario", root / "scenario.json", flag, value,
               "--out", tmp_path) == 2
    assert f"input error: {field} must" in capsys.readouterr().err
    assert not (tmp_path / "simulate-summary.json").exists()


def _cli_subprocess(code, tmp_path):
    src = str(Path(jd.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300, cwd=tmp_path)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_simulate_outputs_do_not_depend_on_the_worker_count(tmp_path):
    # the README scenario at 20,000 paths (3 chunks), once on one CPU (inline,
    # with no pool; the affinity is set before numpy loads) and once on all
    modelio.write_json(tmp_path / "scenario.json", {
        "sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "seed": 7})
    runs = []
    for label, pin in (("pinned", True), ("unpinned", False)):
        code = ("import os, sys\n"
                + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if pin else "")
                + "from horizon_deflators.cli import main\n"
                f"sys.exit(main(['simulate', '--scenario', 'scenario.json', '--paths', "
                f"'20000', '--out', {label!r}]))\n")
        done = _cli_subprocess(code, tmp_path)
        runs.append((done.returncode, done.stdout, done.stderr))
    assert runs[0] == runs[1] and runs[0][0] == 0
    for name in ("simulate-summary.json", "paths.csv"):
        assert ((tmp_path / "pinned" / name).read_bytes()
                == (tmp_path / "unpinned" / name).read_bytes()), name


def test_simulate_within_one_chunk_starts_no_pool(tmp_path):
    # 2,000 paths fit one chunk: every map runs inline
    modelio.write_json(tmp_path / "scenario.json", {
        "sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5, "n_paths": 2000,
        "dt": 2.0 ** -6})
    done = _cli_subprocess(
        "import sys, threading\n"
        "from horizon_deflators.cli import main\n"
        "main(['simulate', '--scenario', 'scenario.json', '--out', 'out'])\n"
        "print('concurrent.futures' in sys.modules, threading.enumerate() == "
        "[threading.main_thread()])\n", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False True"


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
    "phi_pr": (st.floats(-0.5, 0.0), (*NON_FINITE, -1.0, 0.25)),
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


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from([2**70, -(2**70)]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 5), st.floats(-1.0, 2.0), st.text(max_size=2)),
             max_size=5),
    st.dictionaries(st.sampled_from(["id", "prob", "names", "values"]),
                    st.integers(-1, 3), max_size=2),
)


def _json_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


@st.composite
def model_documents(draw):
    """The demo model (with its price table) with one or two nodes replaced or deleted."""
    space, tau, S = trees.two_period_demo()
    doc = modelio.model_to_dict(space, tau, S)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        if not path:
            return draw(JUNK)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JUNK)
        else:
            del parent[path[-1]]
    return doc


@st.composite
def table_rows(draw):
    """The rows of the demo's N_G table with a few rows dropped, repeated or garbled."""
    space, tau, _ = trees.two_period_demo()
    N_G = build_survival(space, tau).N_G
    rows = [f"{o},{n},{modelio.fmt(N_G[i, n])}" for i, o in enumerate(space.outcomes)
            for n in range(N_G.shape[1])]
    field = st.one_of(st.sampled_from(["w1", "w9", "0", "2", "3", "-1", "0.5", "1e400",
                                       "nan", '"nan"', "inf", "", " ", "abc"]),
                      st.floats(allow_nan=True, allow_infinity=True).map(repr))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["drop", "repeat", "field", "width"]))
        if action == "drop":
            del rows[k]
        elif action == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[k])
        elif action == "field":
            parts = rows[k].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(field)
            rows[k] = ",".join(parts)
        else:
            rows[k] = rows[k] + "," + draw(field) if draw(st.booleans()) else \
                rows[k].rsplit(",", 1)[0]
        if not rows:
            break
    return rows


@settings(max_examples=150, deadline=None)
@given(model_documents(), table_rows())
def test_tree_commands_fuzzed_inputs_exit_cleanly(model, rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "model.json").write_text(json.dumps(model))
        (tmp / "table.csv").write_text("atom,time,value\n" + "\n".join(rows) + "\n")
        modelio.write_json(tmp / "params.json", {"route": "measure-change", "phi": 0.5})
        codes = [run("verify", "--model", tmp / "model.json", "--out", tmp / "out"),
                 run("deflate", "--model", tmp / "model.json", "--params", tmp / "params.json",
                     "--out", tmp / "out"),
                 run("decompose", "--model", tmp / "model.json", "--input", tmp / "table.csv",
                     "--out", tmp / "out")]
    event(f"exit codes {codes}")
    assert set(codes) <= {0, 1, 2}, (model, rows, codes)


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
    again = modelio.model_to_dict(doc.space, doc.tau, doc.market.S, doc.market.assets)
    modelio.write_json(tmp_path / "again.json", again)
    assert (tmp_path / "again.json").read_bytes() == (root / "model.json").read_bytes()


@pytest.mark.parametrize("text, read, error, message", [
    ("time,value\nw1,0,1\n", lambda path: modelio.process_from_csv(path, DEMO_IDS, 2),
     SpaceValidationError, "process table must carry an atom,time,value header"),
    ("atom,time,value\nw1,3,1\n", lambda path: modelio.process_from_csv(path, DEMO_IDS, 2),
     SpaceValidationError, "row 2: time 3 outside 0..2"),
    # a table's rule is the library's, which deflate reports as an input error
    ('{"phi_o": [[0, 0, 0]]}', lambda path: modelio.load_params(path, 4, 2), AdmissibilityError,
     "phi_o must be a number or a table of shape (4, 3), got shape (1, 3)"),
    ('{"sigma": 0.2, "a": 0.5}', modelio.load_scenario, SpaceValidationError,
     "scenario misses fields ['zeta', 'mu', 'lambda']"),
    (json.dumps({**README_SCENARIO, "dt": "fine"}), modelio.load_scenario, SpaceValidationError,
     "dt must be a number, got 'fine'"),
    ('{"horizon": 2,', modelio.load_model, SpaceValidationError,
     "invalid JSON in {path}: Expecting property name enclosed in double quotes: "
     "line 1 column 15 (char 14)"),
], ids=["csv-header", "csv-time", "params-shape", "scenario-fields", "scenario-malformed",
        "json"])
def test_each_document_refusal_names_its_rule(tmp_path, text, read, error, message):
    path = tmp_path / "document"
    path.write_text(text)
    with pytest.raises(error, match=f"^{re.escape(message.format(path=path))}$"):
        read(path)


@pytest.mark.parametrize("doc, read, message", [
    ({**README_SCENARIO, "sigma": True}, modelio.load_scenario, "sigma must be a number, got True"),
    ({**README_SCENARIO, "sigma": "0.2"}, modelio.load_scenario,
     "sigma must be a number, got '0.2'"),
    ({**README_SCENARIO, "theta": False}, modelio.load_scenario,
     "theta must be a number, got False"),
    ({**README_SCENARIO, "lambda": 10 ** 400}, modelio.load_scenario,
     f"lambda must be a number, got {10 ** 400}"),
    ({**README_SCENARIO, "mu": [0.03]}, modelio.load_scenario, "mu must be a number, got [0.03]"),
    ({**README_SCENARIO, "phi_0": 0.5}, modelio.load_scenario,
     "scenario has unknown fields ['phi_0']"),
    ({"route": "additive", "phi_0": 0.5, "Phi": 1}, lambda path: modelio.load_params(path, 4, 2),
     "parameter document has unknown fields ['phi_0', 'Phi']"),
    (5, lambda path: modelio.load_params(path, 4, 2), "{path} must hold a JSON object, got int"),
    ([README_SCENARIO], modelio.load_scenario, "{path} must hold a JSON object, got list"),
], ids=["bool", "text", "false", "huge-int", "list", "scenario-key", "params-key",
        "params-number", "scenario-list"])
def test_loaders_refuse_unknown_keys_and_values_that_are_not_numbers(tmp_path, doc, read,
                                                                     message):
    # true read as 1.0, "0.2" as 0.2 and false as 0.0; a misspelt key ran with the
    # default of the key meant; a document that is a number raised a bare TypeError
    path = tmp_path / "document.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpaceValidationError, match=f"^{re.escape(message.format(path=path))}$"):
        read(path)


def _scenario(doc):
    """The scenario of a document, built without the loader."""
    return jd.JumpDiffusionScenario(sigma=doc["sigma"], zeta=doc["zeta"], mu=doc["mu"],
                                    lam=doc["lambda"], a=doc["a"], n_paths=doc["n_paths"],
                                    seed=doc["seed"])


def _suite(doc, build=False):
    """``simulate``'s library call on a scenario document, with psi1 = 0 and the CLI's
    defaults, or ``build_deflator`` on its paths."""
    sc, psi2, phi_o = _scenario(doc), doc.get("psi2", 1.0), doc.get("phi_o", 0.25)
    if build:
        return jd.build_deflator(jd.simulate(sc), 0.0, psi2, phi_o=phi_o)
    return jd.simulate_suite(sc, 0.0, psi2, theta=doc.get("theta", 0.7), phi_o=phi_o)


def _build(doc):
    """``build_multiplicative`` on the demo with the document's ``phi_o``."""
    space, tau, _ = trees.two_period_demo()
    return dfl.build_multiplicative(1.0, doc["phi_o"], None, build_survival(space, tau))


def _validate(doc):
    """``validate`` of the document's parameters on the demo."""
    space, tau, _ = trees.two_period_demo()
    return dfl.validate(dfl.DeflatorParams(**doc), build_survival(space, tau))


NOT_NUMBERS = "phi_o must be a number or a table of numbers: no bool, no text, no ragged rows"
WORD = [["a", 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]]
RAGGED = [[1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]]
ONE_BOOL = [[0, 0, 0], [0, True, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("command, doc, call, error, message", [
    # the README scenario at 5,000 paths: the wealth underflowed to 0, and the suite passed
    ("simulate", {"theta": 200.0}, _suite, SpaceValidationError,
     "theta = 200: theta^2 sigma^2 times the horizon must not exceed 512"),
    ("simulate", {"theta": 200.0},
     lambda doc: jd.check_wealth(_scenario(doc), doc["theta"]),
     SpaceValidationError, "theta = 200: theta^2 sigma^2 times the horizon must not exceed 512"),
    # psi2^N overflowed, and three nulls were rejected
    ("simulate", {"psi2": 300.0}, _suite, SpaceValidationError,
     "psi2 = 300: |psi2 - 1| lam times the horizon must not exceed 512"),
    ("simulate", {"psi2": 300.0},
     lambda doc: jd.solve_drift(_scenario(doc), doc["psi2"]),
     SpaceValidationError, "psi2 = 300: |psi2 - 1| lam times the horizon must not exceed 512"),
    # no path meets the path rule at lambda 1e-6: 1 - inf * 0 made Z NaN, with a RuntimeWarning
    ("simulate", {"phi_o": math.inf, "lambda": 1e-6, "n_paths": 1000}, _suite,
     SpaceValidationError, "phi_o must be finite"),
    ("simulate", {"phi_o": math.inf, "lambda": 1e-6, "n_paths": 1000},
     lambda doc: _suite(doc, build=True), SpaceValidationError, "phi_o must be finite"),
    # a bare ValueError, or a bool read as 1
    *[("deflate", {"route": "multiplicative", "phi_o": table}, call, AdmissibilityError,
       NOT_NUMBERS) for table in (WORD, RAGGED, ONE_BOOL) for call in (_build, _validate)],
], ids=["theta-suite", "theta-wealth", "psi2-suite", "psi2-drift", "phi_o-suite",
        "phi_o-deflator", *(f"{table}-{check}" for table in ("word", "ragged", "bool")
                            for check in ("build", "validate"))])
def test_the_library_refuses_each_input_the_cli_refuses(docs, tmp_path, capsys, command, doc,
                                                        call, error, message):
    # each input used to pass the library, or fail it otherwise, while the CLI refused it
    root, _ = docs
    doc = {**README_SCENARIO, "n_paths": 5000, **doc} if command == "simulate" else doc
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))  # inf as Infinity, which JSON readers accept
    inputs = (["--scenario", path] if command == "simulate"
              else ["--model", root / "model.json", "--params", path])
    assert run(command, *inputs, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(doc)


def test_out_env_variable(docs, tmp_path, monkeypatch):
    root, _ = docs
    monkeypatch.setenv("HORIZON_DEFLATORS_OUT", str(tmp_path / "envout"))
    assert run("verify", "--model", root / "model.json") == 0
    assert (tmp_path / "envout" / "verify-report.json").exists()
