"""Each output check accepts a real CLI output and rejects a corrupted copy.

    python3 -m pytest clibench/test_checks.py

Small inputs from the benchmark's own generator; every corruption edits one
value of a file the CLI wrote.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from horizon_deflators import cli  # noqa: E402


def _run(*argv):
    return cli.main([str(a) for a in argv])


def _nudge_csv(path: Path, row: int, factor: float = 1.0 + 1e-6, add: float = 1e-6):
    lines = path.read_text().splitlines()
    key, _, value = lines[row].rpartition(",")
    lines[row] = f"{key},{float(value) * factor + add!r}"
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _rejects(check, corrupt, good: Path, tmp_path: Path):
    bad = tmp_path / "corrupt"
    shutil.copytree(good, bad)
    corrupt(bad)
    assert checks.digests(bad) != checks.digests(good)
    with pytest.raises(checks.CheckFailed):
        check(bad)


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("verify")
    rng = np.random.default_rng(3)
    tree = inputs.Tree.random(rng, 2, 5)
    tau = inputs.free_tau(rng, tree)
    model = inputs.write_json(d / "model.json", inputs.model_doc(tree, tau))
    code = _run("verify", "--model", model, "--out", d / "out")
    return code, d / "out", tree, tau


@pytest.mark.parametrize("corrupt", [
    lambda d: _nudge_csv(d / "survival_G.csv", 40),
    lambda d: _nudge_csv(d / "survival_G_tilde.csv", 7),
    lambda d: _nudge_csv(d / "survival_Z_bar.csv", 100),
    lambda d: _edit_json(d / "verify-report.json", lambda r: r.update(failing=["m_martingale"])),
    lambda d: (d / "survival_N_G.csv").unlink(),
])
def test_verify_check(verify_out, tmp_path, corrupt):
    code, out, tree, tau = verify_out
    check = lambda d: checks.check_verify(code, d, tree, tau)  # noqa: E731
    check(out)
    _rejects(check, corrupt, out, tmp_path)


def test_verify_rejects_nonzero_exit(verify_out):
    _, out, tree, tau = verify_out
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(1, out, tree, tau)


@pytest.fixture(scope="module")
def deflate_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("deflate")
    rng = np.random.default_rng(4)
    tree = inputs.Tree.random(rng, 3, 3)
    tau = inputs.regular_tau(rng, tree)
    S, Z_F = inputs.priced_market(rng, tree, 2)
    model = inputs.write_json(d / "model.json", inputs.model_doc(tree, tau, S))
    expected = inputs.expected_deflator(tree, tau, Z_F)
    outs = {}
    for route, doc in inputs.route_params(tree, tau, Z_F).items():
        params = inputs.write_json(d / f"{route}.json", doc)
        outs[route] = (_run("deflate", "--model", model, "--params", params,
                            "--out", d / route), d / route)
    dec = _run("decompose", "--model", model, "--input", d / "multiplicative" / "Z.csv",
               "--out", d / "decompose")
    return tree, expected, outs, (dec, d / "decompose")


@pytest.mark.parametrize("route", ["additive", "multiplicative", "measure-change"])
@pytest.mark.parametrize("corrupt", [
    lambda d: _nudge_csv(d / "Z.csv", 30, factor=1.0 + 1e-8, add=0.0),
    lambda d: _edit_json(d / "certificate.json",
                         lambda c: c["verify_deflator"].update(ok=False)),
    lambda d: _edit_json(d / "certificate.json", lambda c: c["verify_lmd"].update(ok=False)),
    lambda d: _edit_json(d / "certificate.json", lambda c: c.update(admissible=False)),
])
def test_deflate_check(deflate_out, tmp_path, route, corrupt):
    tree, expected, outs, _ = deflate_out
    code, out = outs[route]
    check = lambda d: checks.check_deflate(code, d, tree, route, expected)  # noqa: E731
    check(out)
    _rejects(check, corrupt, out, tmp_path)


@pytest.mark.parametrize("corrupt", [
    lambda d: _nudge_csv(d / "M_F.csv", 9),
    lambda d: _edit_json(d / "decompose-report.json",
                         lambda r: r.update(reassembly_residual=1e-3)),
])
def test_decompose_check(deflate_out, tmp_path, corrupt):
    tree, _, _, (code, out) = deflate_out
    check = lambda d: checks.check_decompose(code, d, tree)  # noqa: E731
    check(out)
    _rejects(check, corrupt, out, tmp_path)


def test_martingale_residual_reads_nan_as_failure():
    tree = inputs.Tree(2, 2, np.full(4, 0.25))
    X = np.ones((4, 3))
    X[1, 2] = np.nan
    assert tree.martingale_residual(X) == float("inf")


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("simulate")
    sc = inputs.scenario_doc(7, 2000, 2.0 ** -6)
    path = inputs.write_json(d / "scenario.json", sc)
    return _run("simulate", "--scenario", path, "--out", d / "out"), d / "out", sc


def _set_scenario(key, value):
    return lambda d: _edit_json(d / "simulate-summary.json",
                                lambda s: s["scenario"].update({key: value}))


@pytest.mark.parametrize("corrupt", [
    _set_scenario("beta", 2.0000001),
    _set_scenario("psi1", -0.1500001),
    _set_scenario("n_paths", 1999),
    lambda d: _edit_json(d / "simulate-summary.json",
                         lambda s: s.update(m_identity_residual=1e-2)),
    lambda d: _edit_json(d / "simulate-summary.json",
                         lambda s: s.update(rejected=["m"], ok=False)),
])
def test_simulate_check(simulate_out, tmp_path, corrupt):
    code, out, sc = simulate_out
    check = lambda d: checks.check_simulate(code, d, sc)  # noqa: E731
    check(out)
    _rejects(check, corrupt, out, tmp_path)


def test_m_identity_bound_scales_with_dt_squared():
    b1 = checks.m_identity_bound(2.0, 2.0, 2.0 ** -6, 1.0)
    b2 = checks.m_identity_bound(2.0, 2.0, 2.0 ** -7, 1.0)
    assert 3.9 < b1 / b2 < 4.1
