"""Tests of the benchmark itself: the schema of BENCHMARK.json, a smoke run
of every workload through `run.py`, and a negative control per output check.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_spec_fields():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_spec_workloads_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(workloads.SMOKE)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_spec_metrics():
    seen = set()
    for group, has_bound in (("end_to_end", True), ("per_layer", False)):
        for m in SPEC[group]:
            keys = {"name", "unit", "better"} | ({"bound"} if has_bound else set())
            assert set(m) == keys, m
            assert NAME.match(m["name"]) and m["name"] not in seen
            seen.add(m["name"])
            assert UNIT.match(m["unit"])
            assert m["better"] in ("lower", "higher")
            if has_bound:
                assert 0 < m["bound"] <= 0.25
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "op_s", "peak_rss_mib"}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_per_layer_names_are_traced_functions():
    import afdeconv
    import importlib

    for m in SPEC["per_layer"]:
        module, _, rest = m["name"].partition(".")
        layer, _, kind = rest.rpartition(".")
        assert kind in ("calls", "s") and module in spans.MODULES
        assert m["unit"] == ("count" if kind == "calls" else "s")
        if (module, layer) in (("cli", "self"), ("estimator", "FieldPlan")):
            continue
        mod = importlib.import_module(f"afdeconv.{module}")
        assert layer in spans.public_functions(mod, afdeconv), m["name"]


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)])
    tracer.phase = "op0"
    outer()
    totals = tracer.totals()["op0"]
    assert totals["m.inner"]["calls"] == 3 and totals["m.outer"]["calls"] == 1
    name, parent, start, end, phase = tracer.spans[0]
    total = totals["m.inner"]["s"] + totals["m.outer"]["s"]
    assert math.isclose(total, end - start, rel_tol=1e-9)
    layers = spans.per_layer(tracer.totals(), ["op0"])
    assert layers["m.inner.calls"] == 3


def test_call_counts_must_repeat():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: None)
    for phase, calls in (("op0", 4), ("op1", 2), ("op2", 2), ("op3", 3)):
        tracer.phase = phase
        for _ in range(calls):
            inner()
    phases = ["op0", "op1", "op2", "op3"]
    assert spans.per_layer(tracer.totals(), phases[:3])["m.inner.calls"] == 4
    with pytest.raises(ValueError, match="m.inner"):
        spans.per_layer(tracer.totals(), phases)


# ----------------------------------------------------------------------
# Smoke runs through run.py
# ----------------------------------------------------------------------

def _run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_smoke_run(workload):
    proc = _run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_traced_run():
    proc = _run_bench("--workload", "estimate-singular", "--seed", "5",
                      "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    metrics = line["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, value in metrics.items():
        if name.endswith(".calls"):
            assert isinstance(value["value"], int), name
    assert metrics["estimator.FieldPlan.calls"]["value"] == 1
    assert metrics["model.load_csv.s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "lemma-suite", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path,
                      script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Negative controls: each check rejects a perturbed output
# ----------------------------------------------------------------------

SEED = 5


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    from afdeconv import cli

    out = {}
    for name, workload in workloads.SMOKE.items():
        workdir = tmp_path_factory.mktemp(name)
        workload.setup(workdir, SEED)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(workload.argv(workdir, workdir / "out", SEED)) == 0
        out[name] = (workload, workdir, workdir / "out")
    return out


@pytest.fixture
def perturbed(smoke_outputs, tmp_path):
    """Copy a workload's output directory so a test can damage it."""
    def copy(name):
        workload, workdir, outdir = smoke_outputs[name]
        target = tmp_path / "out"
        shutil.copytree(outdir, target)
        return workload, workdir, target
    return copy


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _fails(workload, workdir, outdir, pattern):
    fails = workload.check(workdir, outdir, SEED)
    assert any(pattern in f for f in fails), fails


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_unperturbed_outputs_pass(smoke_outputs, name):
    workload, workdir, outdir = smoke_outputs[name]
    assert workload.check(workdir, outdir, SEED) == []


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_missing_output_fails_the_check(perturbed, name):
    workload, workdir, outdir = perturbed(name)
    for path in outdir.glob("*.csv"):
        path.unlink()
    fails = worker.checked(workload, workdir, outdir, SEED)
    assert len(fails) == 1 and "FileNotFoundError" in fails[0], fails


def _set(rows, i, col, value):
    rows[i][col] = repr(value)
    return rows


class TestRateLadderCheck:

    def test_rejects_rising_mise(self, perturbed):
        w, wd, out = perturbed("rate-ladder")
        _edit_csv(out / "rate_report.csv",
                  lambda r: _set(r, 1, "mise_mean", 2 * float(r[0]["mise_mean"])))
        _fails(w, wd, out, "does not fall strictly")

    def test_rejects_wrong_slope(self, perturbed):
        w, wd, out = perturbed("rate-ladder")

        def flatten(rows):
            for r in rows:
                r["mise_mean"] = repr(float(r["mise_mean"]) * float(r["n"]) ** 0.35)
            return rows
        _edit_csv(out / "rate_report.csv", flatten)
        _fails(w, wd, out, "refitted slope")

    def test_rejects_wrong_sample_size(self, perturbed):
        w, wd, out = perturbed("rate-ladder")
        _edit_csv(out / "rate_report.csv",
                  lambda r: _set(r, 2, "n", 1.001 * float(r[2]["n"])))
        _fails(w, wd, out, "n column")

    def test_rejects_missing_point(self, perturbed):
        w, wd, out = perturbed("rate-ladder")
        _edit_csv(out / "rate_report.csv", lambda r: r[:-1])
        _fails(w, wd, out, "ladder")


class TestEstimateSingularCheck:

    def test_rejects_wrong_levels(self, perturbed):
        w, wd, out = perturbed("estimate-singular")
        path = out / "estimate_summary.txt"
        path.write_text(re.sub(r"J1=(\d+)", lambda m: f"J1={int(m[1]) + 1}",
                               path.read_text()))
        _fails(w, wd, out, "closed form")

    def test_rejects_mise_above_zero_estimate(self, perturbed):
        w, wd, out = perturbed("estimate-singular")
        path = out / "estimate_summary.txt"
        path.write_text(re.sub(r"mise: .*", "mise: 1.5", path.read_text()))
        _fails(w, wd, out, "MISE")

    def test_rejects_missing_row(self, perturbed):
        w, wd, out = perturbed("estimate-singular")
        _edit_csv(out / "coefficients.csv", lambda r: r[:-1])
        _fails(w, wd, out, "rows")

    def test_rejects_reordered_index(self, perturbed):
        w, wd, out = perturbed("estimate-singular")

        def swap(rows):
            rows[3]["k2"], rows[4]["k2"] = rows[4]["k2"], rows[3]["k2"]
            return rows
        _edit_csv(out / "coefficients.csv", swap)
        _fails(w, wd, out, "each index")

    def test_rejects_perturbed_coefficient(self, perturbed):
        w, wd, out = perturbed("estimate-singular")

        def nudge(rows):
            last = [r for r in rows if (r["j1"], r["j2"]) == (rows[-1]["j1"], rows[-1]["j2"])]
            top = max(last, key=lambda r: abs(float(r["beta_hat"])))
            value = float(top["beta_hat"])
            top["beta_hat"] = repr(value * (1 + 1e-7))
            return rows
        _edit_csv(out / "coefficients.csv", nudge)
        _fails(w, wd, out, "differs from the quadrature")


class TestLemmaSuiteCheck:

    def test_rejects_wide_lemma1_spread(self, perturbed):
        w, wd, out = perturbed("lemma-suite")
        _edit_csv(out / "lemma1.csv",
                  lambda r: _set(r, 0, "ratio2", 20 * float(r[0]["ratio2"])))
        _fails(w, wd, out, "ratio2 spread")

    def test_rejects_wide_lemma1_fourth_spread(self, perturbed):
        w, wd, out = perturbed("lemma-suite")
        _edit_csv(out / "lemma1.csv",
                  lambda r: _set(r, 0, "ratio4", 40 * float(r[0]["ratio4"])))
        _fails(w, wd, out, "ratio4 spread")

    def test_rejects_missing_level(self, perturbed):
        w, wd, out = perturbed("lemma-suite")
        _edit_csv(out / "lemma1.csv", lambda r: [x for x in r if x["j1"] != "4"])
        _fails(w, wd, out, "covers levels")

    def test_rejects_wrong_variance_law(self, perturbed):
        w, wd, out = perturbed("lemma-suite")

        def flatten(rows):
            for r in rows:
                r["variance"] = repr(float(r["variance"]) * float(r["N"]) ** 0.3)
            return rows
        _edit_csv(out / "lemma2.csv", flatten)
        _fails(w, wd, out, "variance slope")

    def test_rejects_tail_exceedance(self, perturbed):
        w, wd, out = perturbed("lemma-suite")
        _edit_csv(out / "lemma3.csv", lambda r: _set(r, 0, "exceed_frequency", 0.02))
        _fails(w, wd, out, "exceedance")


# ----------------------------------------------------------------------
# The oracle against closed-form facts
# ----------------------------------------------------------------------

def test_oracle_meyer_is_orthonormal():
    points = (np.arange(1024) + 0.5) / 1024
    eta = oracle.ShiftEvaluator(points)
    rows = [eta(level, k) for level in (2, 3, 4) for k in range(oracle.level_shifts(level))]
    gram = np.array(rows) @ np.array(rows).T / points.size
    assert np.allclose(gram, np.eye(len(rows)), atol=1e-12)


def test_oracle_level_rule_of_the_singular_workload():
    w = workloads.WORKLOADS["estimate-singular"]
    assert oracle.level_rule(w.M, w.N, w.alpha, w.sigma, workloads.NU) == (8, 10)
    assert oracle.rate_exponent(1.0, 1.0) == pytest.approx(0.4)
