"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each operation is one in-process call of `afdeconv.cli.main`, the entry a
user runs.  Each check compares the operation's output files with
`oracle` (closed forms computed apart from the package) or with a property
the method must have; none compares with a stored copy of earlier output.
A check returns a list of failure messages, empty when the output passes.
`setups` is how many set-ups `run.py` times in one untraced run.

`WORKLOADS` holds the full sizes; `SMOKE` holds small sizes that go through
the same set-up, operation and checks in a few seconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import oracle

# Shared model settings: Meyer basis with lowest levels m10 = m20 = 3, the
# regular-smooth kernel of degree nu = 1 and the tensor-sinusoid signal of
# smoothness s1 = s2 = 1 and unit L2 norm.
M0 = 3
NU = 1.0
S1 = 1.0
SIGNAL_NORM2 = 1.0


def _base_config(seed: int, beta: float, alpha: float, sigma: float) -> dict:
    return {
        "kernel": {"name": "regular-smooth", "nu": NU},
        "design": {"t": {"beta": beta, "x0": 0.5}, "x": {"beta": beta, "x0": 0.5}},
        "noise": {"alpha": alpha, "kind": "gaussian-fgn", "sigma": sigma},
        "wavelet": {"family": "meyer", "m10": M0, "m20": M0},
        "function": {"name": "tensor-sinusoid", "s1": S1, "s2": S1},
        "seed": seed,
    }


def _write_config(workdir: Path, cfg: dict) -> Path:
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary_values(path: Path) -> dict[str, str]:
    """`key: value` lines of a summary file; repeated keys keep the last."""
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class RateLadder:
    """`bench-rate` over an N = M ladder with uniform designs."""

    ladder: tuple[int, ...] = (128, 256, 512, 1024)
    replicates: int = 5
    alpha: float = 0.5
    sigma: float = 0.05
    grid: int = 512
    slope_tolerance: float = 0.2
    setups: int = 25

    name = "rate-ladder"

    def setup(self, workdir: Path, seed: int) -> None:
        cfg = _base_config(seed, beta=0.0, alpha=self.alpha, sigma=self.sigma)
        cfg["bench"] = {"ladder": [[n, n] for n in self.ladder],
                        "replicates": self.replicates, "grid": self.grid}
        _write_config(workdir, cfg)

    def argv(self, workdir: Path, outdir: Path, op_seed: int) -> list[str]:
        return ["bench-rate", "--config", str(workdir / "config.yaml"),
                "--out", str(outdir), "--threads", "1", "--seed", str(op_seed)]

    def check(self, workdir: Path, outdir: Path, seed: int) -> list[str]:
        rows = _read_rows(outdir / "rate_report.csv")
        fails = []
        sizes = [(int(r["N"]), int(r["M"])) for r in rows]
        if sizes != [(n, n) for n in self.ladder]:
            return [f"rate_report.csv ladder {sizes} is not {list(self.ladder)}"]
        n_eff = np.array([M * N ** self.alpha for N, M in sizes])
        mise = np.array([float(r["mise_mean"]) for r in rows])
        n_col = np.array([float(r["n"]) for r in rows])
        if not np.allclose(n_col, n_eff, rtol=1e-12, atol=0.0):
            fails.append(f"n column {n_col.tolist()} is not M*N^alpha {n_eff.tolist()}")
        if not np.all(np.isfinite(mise)) or np.any(mise <= 0):
            return fails + [f"MISE values not positive and finite: {mise.tolist()}"]
        if np.any(np.diff(mise) >= 0):
            fails.append(f"MISE does not fall strictly along the ladder: {mise.tolist()}")
        slope = oracle.loglog_slope(n_eff, mise)
        d = oracle.rate_exponent(S1, NU)
        if abs(slope + d) > self.slope_tolerance:
            fails.append(f"refitted slope {slope:.4f} is not within "
                         f"{self.slope_tolerance} of -d = {-d:.4f}")
        return fails


@dataclass(frozen=True)
class EstimateSingular:
    """`estimate` on a CSV observation file from singular designs."""

    N: int = 2048
    M: int = 2048
    beta: float = 0.3
    alpha: float = 0.5
    sigma: float = 0.05
    grid: int = 512
    samples_per_block: int = 2
    tolerance: float = 1e-9
    setups: int = 2

    name = "estimate-singular"

    def setup(self, workdir: Path, seed: int) -> None:
        from afdeconv import model as md

        f = md.make_test_function("tensor-sinusoid", s1=S1, s2=S1)
        kernel = md.make_kernel("regular-smooth", nu=NU)
        design = md.DesignDensity(beta=self.beta, x0=0.5)
        noise = md.NoiseSpec(alpha=self.alpha, kind="gaussian-fgn", sigma=self.sigma)
        obs = md.simulate_observations(f, kernel, design, design, noise,
                                       N=self.N, M=self.M, seed=seed)
        path = workdir / "observations.csv"
        md.save_csv(obs, path)
        # The checks' own copy of the inputs; the CSV round-trips exactly.
        np.savez(workdir / "reference.npz", t=obs.t, x=obs.x, Y=obs.Y)
        cfg = _base_config(seed, beta=self.beta, alpha=self.alpha, sigma=self.sigma)
        cfg["estimate"] = {"observations": str(path), "grid": self.grid}
        _write_config(workdir, cfg)

    def argv(self, workdir: Path, outdir: Path, op_seed: int) -> list[str]:
        return ["estimate", "--config", str(workdir / "config.yaml"),
                "--out", str(outdir), "--seed", str(op_seed)]

    def check(self, workdir: Path, outdir: Path, seed: int) -> list[str]:
        J1, J2 = oracle.level_rule(self.M, self.N, self.alpha, self.sigma, NU, m0=M0)
        summary = _summary_values(outdir / "estimate_summary.txt")
        if summary.get("levels") != f"J1={J1} J2={J2}":
            return [f"levels {summary.get('levels')!r}, closed form gives "
                    f"J1={J1} J2={J2}"]
        fails = []
        mise = float(summary.get("mise", "nan"))
        if not 0.0 < mise < SIGNAL_NORM2:
            fails.append(f"MISE {mise} is not below ||f||^2 = {SIGNAL_NORM2}")
        table = np.loadtxt(outdir / "coefficients.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        expected_rows = 2 ** J1 * 2 ** J2
        if table.shape[0] != expected_rows:
            return fails + [f"coefficients.csv has {table.shape[0]} rows, "
                            f"expected 2^J1 * 2^J2 = {expected_rows}"]
        index = table[:, :4].astype(np.int64)
        expected_index = np.array(
            [(j1, k1, j2, k2)
             for j1 in range(M0 - 1, J1) for j2 in range(M0 - 1, J2)
             for k1 in range(oracle.level_shifts(j1, M0))
             for k2 in range(oracle.level_shifts(j2, M0))], dtype=np.int64)
        if not np.array_equal(index, expected_index):
            return fails + ["coefficients.csv does not list each index "
                            "(j1,k1,j2,k2) once in block order"]
        return fails + self._check_quadrature(workdir, table, seed)

    def _check_quadrature(self, workdir: Path, table: np.ndarray, seed: int) -> list[str]:
        """A sample of each block, plus its largest |beta_hat|, against
        (MN)^{-1} sum_{i,l} U(t_i, x_l) Y_il / (h1(t_i) h2(x_l))."""
        with np.load(workdir / "reference.npz") as ref:
            t, x, Y = ref["t"], ref["x"], ref["Y"]
        YW = Y / np.outer(oracle.design_density(t, self.beta, 0.5),
                          oracle.design_density(x, self.beta, 0.5))
        u = oracle.ShiftEvaluator(t, divisor=oracle.power_symbol(NU), m0=M0)
        eta = oracle.ShiftEvaluator(x, m0=M0)
        rng = np.random.default_rng(seed)
        scale = 1.0 / (self.N * self.M)
        fails = []
        j1_col, j2_col = table[:, 0], table[:, 2]
        for j1 in np.unique(j1_col).astype(int):
            for j2 in np.unique(j2_col).astype(int):
                block = table[(j1_col == j1) & (j2_col == j2)]
                beta_hat = block[:, 4]
                top = float(np.max(np.abs(beta_hat)))
                picks = {int(np.argmax(np.abs(beta_hat)))}
                picks.update(rng.choice(len(block), size=self.samples_per_block,
                                        replace=False).tolist())
                for row in sorted(picks):
                    k1, k2 = int(block[row, 1]), int(block[row, 3])
                    ref_value = scale * (u(j1, k1) @ YW @ eta(j2, k2))
                    err = abs(beta_hat[row] - ref_value)
                    if not err <= self.tolerance * top:
                        fails.append(
                            f"beta_hat({j1},{k1};{j2},{k2}) = {beta_hat[row]:.17g} "
                            f"differs from the quadrature {ref_value:.17g} by "
                            f"{err:.3g} > {self.tolerance:g} * {top:.3g}")
        return fails


@dataclass(frozen=True)
class LemmaSuite:
    """`verify-lemmas` 1, 2 and 3 on singular designs."""

    levels1: tuple[int, ...] = (3, 4, 5, 6, 7)
    N_ladder: tuple[int, ...] = (128, 256, 512, 1024, 2048)
    beta: float = 0.3
    alpha: float = 0.6
    sigma: float = 1.0
    replicates: int | None = None
    spread2_max: float = 8.0
    spread4_max: float = 16.0
    slope_tolerance: float = 0.15
    exceedance_max: float = 0.01
    setups: int = 25

    name = "lemma-suite"

    def setup(self, workdir: Path, seed: int) -> None:
        cfg = _base_config(seed, beta=self.beta, alpha=self.alpha, sigma=self.sigma)
        cfg["verify"] = {"lemmas": [1, 2, 3], "levels1": list(self.levels1),
                         "N_ladder": list(self.N_ladder)}
        if self.replicates is not None:
            cfg["verify"]["replicates"] = self.replicates
        _write_config(workdir, cfg)

    def argv(self, workdir: Path, outdir: Path, op_seed: int) -> list[str]:
        return ["verify-lemmas", "--config", str(workdir / "config.yaml"),
                "--out", str(outdir), "--seed", str(op_seed)]

    def check(self, workdir: Path, outdir: Path, seed: int) -> list[str]:
        fails = []
        lemma1 = _read_rows(outdir / "lemma1.csv")
        levels = sorted({int(r["j1"]) for r in lemma1})
        if levels != list(self.levels1):
            fails.append(f"lemma1.csv covers levels {levels}, not {list(self.levels1)}")
        for col, bound in (("ratio2", self.spread2_max), ("ratio4", self.spread4_max)):
            ratios = np.array([float(r[col]) for r in lemma1])
            spread = ratios.max() / ratios.min() if ratios.min() > 0 else math.inf
            if not spread <= bound:
                fails.append(f"lemma 1 {col} spread {spread:.4g} exceeds {bound}")
        lemma2 = _read_rows(outdir / "lemma2.csv")
        ns = [int(r["N"]) for r in lemma2]
        if ns != list(self.N_ladder):
            fails.append(f"lemma2.csv ladder {ns} is not {list(self.N_ladder)}")
        else:
            var = np.array([float(r["variance"]) for r in lemma2])
            slope = oracle.loglog_slope(ns, var) if np.all(var > 0) else math.nan
            if not abs(slope + self.alpha) <= self.slope_tolerance:
                fails.append(f"lemma 2 variance slope {slope:.4f} is not within "
                             f"{self.slope_tolerance} of -alpha = {-self.alpha}")
        lemma3 = _read_rows(outdir / "lemma3.csv")
        freq = [float(r["exceed_frequency"]) for r in lemma3]
        if not freq or not max(freq) <= self.exceedance_max:
            fails.append(f"lemma 3 exceedance frequencies {freq} exceed "
                         f"{self.exceedance_max}")
        return fails


WORKLOADS = {w.name: w for w in (RateLadder(), EstimateSingular(), LemmaSuite())}

SMOKE = {w.name: w for w in (
    RateLadder(ladder=(96, 192, 384), replicates=2, setups=2),
    EstimateSingular(N=256, M=256),
    LemmaSuite(levels1=(3, 4, 5), N_ladder=(128, 256, 512), replicates=200, setups=2),
)}
