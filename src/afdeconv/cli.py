"""Configuration-driven command line interface.

Subcommands: simulate, estimate, verify-lemmas, bench-rate, report.
Each run validates its YAML config, writes the resolved config and a
manifest next to its outputs, and is bit-reproducible for a fixed seed.

Exit codes: 0 success, 2 config/validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import analysis as an
from . import estimator as es
from . import model as md
from . import wavelets as wv

__all__ = ["main", "ConfigError", "load_config", "validate_config",
           "cmd_simulate", "cmd_estimate", "cmd_verify", "cmd_bench_rate",
           "cmd_report"]


class ConfigError(ValueError):
    """Invalid run configuration; message lists the offending fields."""


_DEFAULTS = {
    "kernel": {"name": "regular-smooth", "nu": 1.0},
    "design": {"t": {"beta": 0.0, "x0": 0.5}, "x": {"beta": 0.0, "x0": 0.5}},
    "noise": {"alpha": 1.0, "kind": "gaussian-fgn", "sigma": 1.0},
    "wavelet": {"family": "meyer", "m10": 3, "m20": 3},
    "function": {"name": "tensor-sinusoid"},
    "estimator": {"gamma": 4.0, "mu": 4.0, "besov_radius": 1.0,
                  "J1": None, "J2": None},
    "seed": 0,
}
# the config's other top-level sections, each read by one subcommand
_SECTIONS = ("simulate", "estimate", "verify", "bench", "besov", "report")


def _merge(defaults: dict, given, where: str = "") -> dict:
    """`given` over `defaults`, recursing into the nested sections; `where`
    is the dotted name of the section."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where or 'config root'}: must be a mapping, "
                          f"got {given!r}")
    merged = {**defaults, **given}
    for key, val in defaults.items():
        if isinstance(val, dict):
            merged[key] = _merge(val, given.get(key) or {},
                                 f"{where}.{key}".lstrip("."))
    return merged


def load_config(path) -> dict:
    with open(path) as fh:
        return _merge(_DEFAULTS, yaml.safe_load(fh))


def _is_number(val, integer: bool = False) -> bool:
    """A finite int or float (an int if `integer`); bools are not numbers."""
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        return False
    return math.isfinite(val)


def _int_list(val, size: int | None = None, low: int | None = None) -> bool:
    """A non-empty list of integers, of length `size` and each >= `low`
    when given."""
    return (isinstance(val, list) and len(val) > 0
            and (size is None or len(val) == size)
            and all(_is_number(v, integer=True) and (low is None or v >= low)
                    for v in val))


_POSITIVE_INT = (lambda val: _is_number(val, integer=True) and val >= 1,
                 "a positive integer")
# every key cmd_verify reads besides `lemmas`: (check, what it wants)
_VERIFY_CHECKS = {
    "index": (lambda val: _int_list(val, 4), "a list of 4 integers"),
    "indices": (lambda val: isinstance(val, list) and len(val) > 0
                and all(_int_list(i, 4) for i in val),
                "a non-empty list of lists of 4 integers"),
    "levels1": (_int_list, "a non-empty list of integers"),
    "N_ladder": (lambda val: _int_list(val, low=1),
                 "a non-empty list of positive integers"),
    "M": _POSITIVE_INT,
    "N": _POSITIVE_INT,
    "replicates": _POSITIVE_INT,
    "ladder": (lambda val: isinstance(val, list)
               and all(_int_list(p, 2, low=1) for p in val),
               "a list of [N, M] pairs of positive integers"),
}


def validate_config(cfg: dict, command: str) -> None:
    errors = []

    def need(cond, field, msg):
        if not cond:
            errors.append(f"{field}: {msg}")

    def known(name, registry):
        return isinstance(name, str) and name in registry

    def only(where, section, keys):
        article = "an" if where[0] in "aeiou" else "a"
        for key in sorted(set(section) - set(keys), key=str):
            errors.append(f"{where}.{key}: not {article} {where} key; "
                          f"choose from {list(keys)}")

    def check_grid(where, section):
        grid = section.get("grid", 512)
        need(_is_number(grid, integer=True) and grid >= 2, f"{where}.grid",
             f"must be an integer >= 2, got {grid!r}")

    only("config", cfg, (*_DEFAULTS, *_SECTIONS))
    need(_is_number(cfg.get("seed"), integer=True) and cfg["seed"] >= 0,
         "seed", f"must be a nonnegative integer, got {cfg.get('seed')!r}")
    for where in ("kernel", "design", "noise", "estimator"):
        only(where, cfg[where], _DEFAULTS[where])
    k = cfg["kernel"]
    need(known(k.get("name"), md._KERNELS),
         "kernel.name", f"unknown kernel {k.get('name')!r}")
    need(_is_number(k.get("nu")) and k["nu"] >= 0,
         "kernel.nu", "must be a nonnegative number")
    for axis in ("t", "x"):
        d = cfg["design"][axis]
        only(f"design.{axis}", d, _DEFAULTS["design"][axis])
        need(_is_number(d.get("beta")) and 0 <= d["beta"] < 1,
             f"design.{axis}.beta", "must lie in [0, 1)")
        need(_is_number(d.get("x0")) and 0 < d["x0"] < 1,
             f"design.{axis}.x0", "must lie in (0, 1)")
    nz = cfg["noise"]
    need(_is_number(nz.get("alpha")) and 0 < nz["alpha"] <= 1,
         "noise.alpha", "must lie in (0, 1]")
    need(known(nz.get("kind"), md.NOISE_KINDS),
         "noise.kind", f"unknown kind {nz.get('kind')!r}")
    need(_is_number(nz.get("sigma")) and nz["sigma"] >= 0,
         "noise.sigma", "must be >= 0")
    w = cfg["wavelet"]
    only("wavelet", w, ("family", "m10", "m20"))
    need(w.get("family") == "meyer", "wavelet.family",
         f"must be meyer, the only basis (other families were removed), "
         f"got {w.get('family')!r}")
    for key in ("m10", "m20"):
        need(_is_number(w.get(key), integer=True) and w[key] >= 2,
             f"wavelet.{key}", f"must be an integer >= 2, got {w.get(key)!r}")
    fn = cfg["function"]
    need(known(fn.get("name"), md._TEST_FUNCTIONS),
         "function.name", f"unknown test function {fn.get('name')!r}")
    if known(fn.get("name"), md._TEST_FUNCTIONS):
        params = inspect.signature(md._TEST_FUNCTIONS[fn["name"]]).parameters
        unknown = sorted(set(fn) - {"name"} - set(params), key=str)
        for key in unknown:
            errors.append(f"function.{key}: not a parameter of {fn['name']}; "
                          f"choose from {sorted(params)}")
        kwargs = {key: val for key, val in fn.items() if key != "name"}
        mistyped = [key for key, val in kwargs.items() if key not in unknown
                    and not _is_number(val, integer=(key == "max_freq"))]
        for key in mistyped:
            kind = "an integer" if key == "max_freq" else "a real number"
            errors.append(f"function.{key}: must be {kind}, got {kwargs[key]!r}")
        if not unknown and not mistyped:
            try:  # the factory owns the admissible ranges
                md.make_test_function(fn["name"], **kwargs)
            except md.ParameterError as exc:
                errors.append(f"function.{exc}")
    e = cfg["estimator"]
    need(_is_number(e.get("gamma")) and e["gamma"] > 0,
         "estimator.gamma", "must be > 0")
    need(_is_number(e.get("mu")) and e["mu"] > 0,
         "estimator.mu", "must be > 0")
    need(_is_number(e.get("besov_radius")) and e["besov_radius"] > 0,
         "estimator.besov_radius",
         f"must be a positive number, got {e.get('besov_radius')!r}")
    for key in ("J1", "J2"):
        need(e.get(key) is None or _is_number(e[key], integer=True),
             f"estimator.{key}", f"must be null or an integer, got {e.get(key)!r}")
    if command == "simulate":
        sim = cfg.get("simulate")
        need(isinstance(sim, dict), "simulate", "section required")
        if isinstance(sim, dict):
            for dim in ("N", "M"):
                need(_is_number(sim.get(dim), integer=True) and sim[dim] >= 16,
                     f"simulate.{dim}", "must be an integer >= 16")
            need(sim.get("format", "csv") in ("csv", "binary", "both"),
                 "simulate.format", "must be csv, binary or both")
    if command == "estimate":
        sec = cfg.get("estimate")
        need(isinstance(sec, dict), "estimate", "section required")
        if isinstance(sec, dict):
            only("estimate", sec, ("observations", "grid", "pgm"))
            need(isinstance(sec.get("observations"), str)
                 and sec["observations"], "estimate.observations",
                 "path to an observation file is required, got "
                 f"{sec.get('observations')!r}")
            check_grid("estimate", sec)
            need(isinstance(sec.get("pgm", False), bool), "estimate.pgm",
                 f"must be true or false, got {sec.get('pgm')!r}")
    if command == "bench-rate":
        b = cfg.get("bench")
        need(isinstance(b, dict), "bench", "section required")
        if isinstance(b, dict):
            only("bench", b, ("ladder", "replicates", "grid"))
            ladder = b.get("ladder")
            need(isinstance(ladder, list) and len(ladder) > 0,
                 "bench.ladder", "must be a non-empty list of [N, M] pairs")
            if isinstance(ladder, list):
                for pair in ladder:
                    need(_int_list(pair, 2, low=1), "bench.ladder",
                         f"bad ladder entry {pair!r}, not 2 positive integers")
            need(_is_number(b.get("replicates", 20), integer=True)
                 and b.get("replicates", 20) >= 1, "bench.replicates",
                 f"must be a positive integer, got {b.get('replicates')!r}")
            check_grid("bench", b)
    if command == "verify-lemmas":
        v = cfg.get("verify")
        need(isinstance(v, dict), "verify", "section required")
        if isinstance(v, dict):
            only("verify", v, ("lemmas", *_VERIFY_CHECKS))
            for key, (ok, what) in _VERIFY_CHECKS.items():
                need(key not in v or ok(v[key]), f"verify.{key}",
                     f"must be {what}, got {v.get(key)!r}")
            lemmas = v.get("lemmas", [1, 2, 3])
            lemmas_ok = _int_list(lemmas) and set(lemmas) <= {1, 2, 3}
            need(lemmas_ok, "verify.lemmas",
                 "must be a non-empty subset of [1, 2, 3]")
            if lemmas_ok and 2 in lemmas:
                ladder = v.get("N_ladder", [128, 256, 512, 1024])
                need(not isinstance(ladder, list) or len(ladder) >= 3,
                     "verify.N_ladder", "needs at least 3 entries")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))


# ----------------------------------------------------------------------
# Spec construction from config
# ----------------------------------------------------------------------

def _specs(cfg: dict):
    """(test function, wavelet spec, estimator config); the estimator
    config carries the kernel, the designs and the noise law."""
    k = cfg["kernel"]
    kernel = md.make_kernel(k["name"], nu=k["nu"])
    d1 = md.DesignDensity(beta=cfg["design"]["t"]["beta"],
                          x0=cfg["design"]["t"]["x0"])
    d2 = md.DesignDensity(beta=cfg["design"]["x"]["beta"],
                          x0=cfg["design"]["x"]["x0"])
    nz = cfg["noise"]
    noise = md.NoiseSpec(alpha=nz["alpha"], kind=nz["kind"], sigma=nz["sigma"])
    w = cfg["wavelet"]
    wspec = wv.WaveletSpec(m10=w["m10"], m20=w["m20"])
    fn = dict(cfg["function"])
    f = md.make_test_function(fn.pop("name"), **fn)
    e = cfg["estimator"]
    est_cfg = es.EstimatorConfig(
        kernel, d1, d2, noise, gamma=e["gamma"], mu=e["mu"],
        besov_radius=e["besov_radius"], J1=e.get("J1"), J2=e.get("J2"))
    return f, wspec, est_cfg


def _write_run_metadata(outdir: Path, cfg: dict, artifacts: list[Path]) -> None:
    resolved = outdir / "resolved_config.yaml"
    with open(resolved, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    with open(outdir / "manifest.txt", "w", newline="\n") as fh:
        fh.write("artifact,sha256,bytes\n")
        for path in sorted(set(artifacts) | {resolved}):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            fh.write(f"{path.name},{digest},{path.stat().st_size}\n")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_simulate(cfg: dict, outdir: Path) -> list[Path]:
    f, _, est_cfg = _specs(cfg)
    sim = cfg["simulate"]
    obs = md.simulate_observations(f, est_cfg.kernel, est_cfg.d1, est_cfg.d2,
                                   est_cfg.noise, N=sim["N"], M=sim["M"],
                                   seed=cfg["seed"])
    artifacts = []
    fmt = sim.get("format", "csv")
    if fmt in ("csv", "both"):
        path = outdir / "observations.csv"
        md.save_csv(obs, path)
        artifacts.append(path)
    if fmt in ("binary", "both"):
        path = outdir / "observations.afdc"
        md.save_binary(obs, path)
        artifacts.append(path)
    _write_run_metadata(outdir, cfg, artifacts)
    print(f"simulated N={obs.N} M={obs.M} -> {', '.join(p.name for p in artifacts)}")
    return artifacts


def _load_observations(path: Path) -> md.ObservationGrid:
    if not path.is_file():
        raise FileNotFoundError(
            f"observation file not found or not a file: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"AFDC":
        return md.load_binary(path)
    return md.load_csv(path)


def cmd_estimate(cfg: dict, outdir: Path) -> list[Path]:
    f, wspec, est_cfg = _specs(cfg)
    sec = cfg["estimate"]
    obs = _load_observations(Path(sec["observations"]))
    J1, J2 = est_cfg.resolve_levels(obs.M, obs.N, wspec)
    beta_true = es.true_coefficients(f, wspec, J1, J2)
    field = es.estimate_field(obs, wspec, est_cfg, beta_true=beta_true)
    grid = sec.get("grid", 512)
    recon = es.reconstruct(field, wspec, grid=grid, which="kept")
    err = an.mise(recon, f.grid(grid))
    artifacts = []
    coeff_path = outdir / "coefficients.csv"
    es.save_field_csv(field, coeff_path)
    artifacts.append(coeff_path)
    grid_path = outdir / "reconstruction.csv"
    es.save_reconstruction_csv(recon, grid_path)
    artifacts.append(grid_path)
    if sec.get("pgm", False):
        pgm_path = outdir / "reconstruction.pgm"
        es.save_reconstruction_pgm(recon, pgm_path)
        artifacts.append(pgm_path)
    summary = outdir / "estimate_summary.txt"
    with open(summary, "w", newline="\n") as fh:
        fh.write(f"levels: J1={J1} J2={J2}\n")
        fh.write(f"kept coefficients: {field.kept_count()}\n")
        fh.write(f"total coefficients: "
                 f"{sum(b.beta_hat.size for b in field.blocks.values())}\n")
        fh.write(f"mise: {err:.17g}\n")
    artifacts.append(summary)
    _write_run_metadata(outdir, cfg, artifacts)
    print(f"kept {field.kept_count()} coefficients; mise {err:.6g}")
    return artifacts


def cmd_verify(cfg: dict, outdir: Path) -> list[Path]:
    f, wspec, est_cfg = _specs(cfg)
    kernel, d1, d2, noise = est_cfg.kernel, est_cfg.d1, est_cfg.d2, est_cfg.noise
    v = cfg.get("verify") or {}
    lemmas = v.get("lemmas", [1, 2, 3])
    seed = cfg["seed"]
    artifacts = []
    lines = []
    if 1 in lemmas:
        rep = an.verify_lemma1(kernel, wspec, d1, d2,
                               levels1=v.get("levels1", [3, 4, 5, 6]))
        path = outdir / "lemma1.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("j1,k1,j2,k2,ratio2,ratio4\n")
            for e in rep.entries:
                fh.write(f"{e['j1']},{e['k1']},{e['j2']},{e['k2']},"
                         f"{e['ratio2']:.17g},{e['ratio4']:.17g}\n")
        artifacts.append(path)
        lines.append(f"lemma1: spread2={rep.spread2:.4g} spread4={rep.spread4:.4g}")
    if 2 in lemmas:
        idx = es.Index(*v.get("index", [3, 2, 2, 1]))
        rep = an.verify_lemma2(idx, kernel, wspec, d1, d2, noise,
                               M=v.get("M", 128),
                               N_ladder=v.get("N_ladder", [128, 256, 512, 1024]),
                               replicates=v.get("replicates", 500), seed=seed)
        path = outdir / "lemma2.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("N,variance,fourth_ratio,variance_exact\n")
            for N, var, fr, exact in zip(rep.N_ladder, rep.variances,
                                         rep.fourth_ratios, rep.exact_variances):
                fh.write(f"{N},{var:.17g},{fr:.17g},{exact:.17g}\n")
        artifacts.append(path)
        lines.append(f"lemma2: slope={rep.slope:.4f} (predicted {-noise.alpha})"
                     f" exact slope={rep.exact_slope:.4f}"
                     f" kurtosis={rep.kurtosis:.3f}")
    if 3 in lemmas:
        indices = [es.Index(*i) for i in
                   v.get("indices", [[3, 2, 2, 1], [2, 0, 3, 4]])]
        rep = an.verify_lemma3(f, wspec, est_cfg, indices,
                               M=v.get("M", 256), N=v.get("N", 256),
                               replicates=v.get("replicates", 1000), seed=seed,
                               ladder=[tuple(p) for p in v.get("ladder", [])] or None)
        path = outdir / "lemma3.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("j1,k1,j2,k2,exceed_frequency\n")
            for key, freq in rep.frequencies.items():
                fh.write(f"{key[0]},{key[1]},{key[2]},{key[3]},{freq:.17g}\n")
        artifacts.append(path)
        lines.append(f"lemma3: max exceedance frequency={rep.max_frequency:.4g}"
                     + (f" tail exponent={rep.tail_exponent:.3f}"
                        if rep.tail_exponent is not None else ""))
    summary = outdir / "verify_summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    artifacts.append(summary)
    _write_run_metadata(outdir, cfg, artifacts)
    print("\n".join(lines))
    return artifacts


def _write_rate_plot(outdir: Path, pairs) -> Path:
    """Write the (n, MISE) pairs of a rate ladder to `rate_plot.csv`."""
    path = outdir / "rate_plot.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("n,mise\n")
        for n, v in pairs:
            fh.write(f"{n:.17g},{v:.17g}\n")
    return path


def cmd_bench_rate(cfg: dict, outdir: Path, threads: int = 1) -> list[Path]:
    f, wspec, est_cfg = _specs(cfg)
    b = cfg["bench"]
    ladder = [tuple(p) for p in b["ladder"]]
    besov = cfg.get("besov")
    bp = (an.BesovParams(s1=besov["s1"], s2=besov["s2"],
                         p=besov.get("p", 2.0), q=besov.get("q", 2.0),
                         radius=besov.get("radius", 1.0))
          if besov else None)
    report = an.rate_experiment(f, wspec, est_cfg, ladder,
                                replicates=b.get("replicates", 20),
                                seed=cfg["seed"], grid=b.get("grid", 512),
                                threads=threads, bp=bp)
    csv_path = outdir / "rate_report.csv"
    an.rate_report_csv(report, csv_path)
    plot_path = _write_rate_plot(outdir, report.pairs())
    summary = outdir / "rate_summary.txt"
    summary.write_text(an.rate_report_text(report) + "\n")
    artifacts = [csv_path, plot_path, summary]
    _write_run_metadata(outdir, cfg, artifacts)
    print(an.rate_report_text(report))
    return artifacts


def cmd_report(cfg: dict, outdir: Path, source: Path | None = None) -> list[Path]:
    """Re-summarize a previous bench-rate output directory."""
    src = source or Path(cfg.get("report", {}).get("source", "."))
    csv_path = src / "rate_report.csv" if src.is_dir() else src
    if not csv_path.exists():
        raise FileNotFoundError(f"rate report not found: {csv_path}")
    rows = md._read_csv(csv_path, ("n", "mise_mean"))
    pairs = list(zip(rows["n"].tolist(), rows["mise_mean"].tolist()))
    lines = [f"points: {len(pairs)}"]
    if len(pairs) >= 3:
        slope, se = an.fit_rate(pairs)
        lines.append(f"fitted slope: {slope:.4f} +/- {se:.4f}")
    plot_path = _write_rate_plot(outdir, pairs)
    summary = outdir / "report_summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    _write_run_metadata(outdir, cfg, [plot_path, summary])
    print("\n".join(lines))
    return [plot_path, summary]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdeconv",
        description="Adaptive wavelet deconvolution of functional data: "
                    "simulation, estimation and rate benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate", "verify-lemmas", "bench-rate",
                 "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "report"),
                       help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if name == "bench-rate":
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads over the ladder points")
        if name == "report":
            p.add_argument("--source", default=None,
                           help="bench-rate output directory or CSV")
    return parser


_NUMERICAL_ERRORS = (es.KernelNotInvertibleError, wv.ResolutionOverflowError,
                     np.linalg.LinAlgError, FloatingPointError,
                     an.UnclassifiedRegimeError)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else dict(_DEFAULTS)
        if args.seed is not None:
            cfg["seed"] = args.seed
        validate_config(cfg, args.command)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            cmd_simulate(cfg, outdir)
        elif args.command == "estimate":
            cmd_estimate(cfg, outdir)
        elif args.command == "verify-lemmas":
            cmd_verify(cfg, outdir)
        elif args.command == "bench-rate":
            cmd_bench_rate(cfg, outdir, threads=args.threads)
        elif args.command == "report":
            cmd_report(cfg, outdir,
                       source=Path(args.source) if args.source else None)
        return 0
    except (ConfigError, md.ParameterError, FileNotFoundError,
            yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
