"""Configuration-driven command line interface.

Subcommands: simulate, estimate, verify-lemmas, bench-rate, report.
Each run validates its YAML config, writes the resolved config and a
manifest next to its outputs, and is bit-reproducible for a fixed seed.

Exit codes: 0 success, 2 config/validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import inspect
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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


def _pairs(val) -> bool:
    return isinstance(val, list) and all(_int_list(p, 2, low=2) for p in val)


_REQUIRED = object()  # no default: the key must be given
_UNSET = object()     # no default: the key stays out of the config when not given


class _Key(NamedTuple):
    """One config key: its default, its check and what the check wants."""
    default: object
    ok: Callable[[object], bool]
    wants: str


def _real(default, ok=lambda val: True, wants="a real number") -> _Key:
    return _Key(default, lambda val: _is_number(val) and ok(val), wants)


def _integer(default, low: int) -> _Key:
    wants = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        low, f"an integer >= {low}")
    return _Key(default, lambda val: _is_number(val, integer=True) and val >= low,
                wants)


def _choice(default, choices, wants: str | None = None) -> _Key:
    return _Key(default, lambda val: isinstance(val, str) and val in choices,
                wants or f"one of {list(choices)}")


def _positive(default) -> _Key:
    return _real(default, lambda val: val > 0, "a positive number")


_AXIS = {"beta": _real(0.0, lambda val: 0 <= val < 1, "a number in [0, 1)"),
         "x0": _real(0.5, lambda val: 0 < val < 1, "a number in (0, 1)")}
_LEVEL = _Key(None, lambda val: val is None or _is_number(val, integer=True),
              "null or an integer")
_GRID = _integer(512, 2)
_LEMMAS = [1, 2, 3]
# Every config key; a nested mapping is a section.  Every subcommand reads
# the `_MODEL` sections and one more, its `_READS` section.
_SCHEMA = {
    "kernel": {"name": _choice("regular-smooth", md._KERNELS),
               "nu": _real(1.0, lambda val: val >= 0, "a nonnegative number")},
    "design": {"t": _AXIS, "x": _AXIS},
    "noise": {"alpha": _real(1.0, lambda val: 0 < val <= 1, "a number in (0, 1]"),
              "kind": _choice("gaussian-fgn", md.NOISE_KINDS),
              "sigma": _real(1.0, lambda val: val >= 0, "a nonnegative number")},
    "wavelet": {"family": _choice("meyer", ("meyer",), "meyer, the only basis "
                                  "(other families were removed)"),
                "m10": _integer(3, 2), "m20": _integer(3, 2)},
    # the other keys of `function` are its factory's, see validate_config
    "function": {"name": _choice("tensor-sinusoid", md._TEST_FUNCTIONS)},
    "estimator": {"gamma": _positive(4.0), "mu": _positive(4.0),
                  "besov_radius": _positive(1.0), "J1": _LEVEL, "J2": _LEVEL},
    "seed": _integer(0, 0),
    "simulate": {"N": _integer(_REQUIRED, 16), "M": _integer(_REQUIRED, 16)},
    "estimate": {"observations": _Key(_REQUIRED, lambda val: isinstance(val, str)
                                      and val != "", "a path to an observation CSV"),
                 "grid": _GRID},
    # `M` and `replicates` default per lemma in cmd_verify
    "verify": {"lemmas": _Key(_LEMMAS, lambda val: _int_list(val)
                              and set(val) <= set(_LEMMAS),
                              f"a non-empty subset of {_LEMMAS}"),
               "index": _Key([3, 2, 2, 1], lambda val: _int_list(val, 4),
                             "a list of 4 integers"),
               "indices": _Key([[3, 2, 2, 1], [2, 0, 3, 4]],
                               lambda val: isinstance(val, list) and len(val) > 0
                               and all(_int_list(i, 4) for i in val),
                               "a non-empty list of lists of 4 integers"),
               "levels1": _Key([3, 4, 5, 6], _int_list, "a non-empty list of integers"),
               "N_ladder": _Key([128, 256, 512, 1024], lambda val: _int_list(val, low=2),
                                "a non-empty list of integers >= 2"),
               "M": _integer(_UNSET, 2), "N": _integer(256, 2),
               "replicates": _integer(_UNSET, 1),
               "ladder": _Key([], _pairs, "a list of [N, M] pairs of integers >= 2")},
    "bench": {"ladder": _Key(_REQUIRED, lambda val: _pairs(val) and len(val) > 0,
                             "a non-empty list of [N, M] pairs of integers >= 2"),
              "replicates": _integer(20, 1), "grid": _GRID},
    # unset keys keep the defaults of analysis.BesovParams
    "besov": {"s1": _real(_REQUIRED), "s2": _real(_REQUIRED),
              "p": _real(_UNSET, lambda val: val >= 1, "a number >= 1")},
    "report": {"source": _Key(".", lambda val: isinstance(val, str),
                              "a path to a bench-rate output directory or CSV")},
}
_MODEL = ("kernel", "design", "noise", "wavelet", "function", "estimator", "seed")
# the section each subcommand reads besides the model; all but `report`
# are required, and `bench-rate` also reads `besov` when it is given
_READS = {"simulate": "simulate", "estimate": "estimate",
          "verify-lemmas": "verify", "bench-rate": "bench", "report": "report"}


def _walk(table: dict, given, where: str, errors: list, reads=None):
    """`given` merged over the defaults of `table`, the schema of section
    `where` ("" for the root); every failed check appends its message to
    `errors`.  Only the keys in `reads` (all when None) are merged and
    checked: the others pass through as given."""
    label = where or "config"
    given = given or {}
    if not isinstance(given, dict):
        errors.append(f"{label}: must be a mapping, got {given!r}")
        return given
    if where != "function":  # its other keys are its factory's keywords
        article = "an" if label[0] in "aeiou" else "a"
        for key in sorted(set(given) - set(table), key=str):
            errors.append(f"{label}.{key}: not {article} {label} key; "
                          f"choose from {list(table)}")
    merged = dict(given)
    for key, spec in table.items():
        if reads is not None and key not in reads:
            continue
        name = f"{where}.{key}".lstrip(".")
        if isinstance(spec, dict):
            merged[key] = _walk(spec, given.get(key), name, errors)
        elif key in given:
            if not spec.ok(given[key]):
                errors.append(f"{name}: must be {spec.wants}, got {given[key]!r}")
        elif spec.default is _REQUIRED:
            errors.append(f"{name}: must be {spec.wants}, not given")
        elif spec.default is not _UNSET:
            merged[key] = copy.deepcopy(spec.default)
    return merged


def _address_errors(v: dict, wspec: wv.WaveletSpec) -> list[str]:
    """A message per address a selected lemma reads outside Omega: a level
    below the scaling pseudo-level m0 - 1 of its axis or a shift outside
    0 <= k < shift_count (a level above MAX_LEVEL exits 3 when built)."""
    errors = []
    for lemma, key in ((1, "levels1"), (2, "index"), (3, "indices")):
        if lemma in v["lemmas"] and _SCHEMA["verify"][key].ok(v[key]):
            for a in {1: [[j] for j in v[key]], 2: [v[key]], 3: v[key]}[lemma]:
                levels, shifts = a[0::2], a[1::2]  # no shift for a lone t-level
                if not all(j >= wspec.lowest_level(axis) - 1 and (
                        not shifts or j > wv.MAX_LEVEL
                        or 0 <= shifts[axis] < wv.shift_count(wspec, j, axis))
                           for axis, j in enumerate(levels)):
                    errors.append(f"verify.{key}: {a} has a level below (m10 - 1, "
                                  f"m20 - 1) = ({wspec.m10 - 1}, {wspec.m20 - 1}) or "
                                  f"a shift outside 0 <= k < 2^max(j, m0)")
    return errors


def load_config(path) -> dict:
    """The YAML mapping at `path`; `validate_config` merges it over the
    schema."""
    with open(path, "rb") as fh:  # yaml decodes, so bad bytes are a YAMLError
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root: must be a mapping, got {cfg!r}")
    return cfg


def validate_config(cfg: dict, command: str) -> dict:
    """`cfg` merged over the schema's defaults for the sections `command`
    reads; raises ConfigError listing every failed check."""
    errors = []
    section = _READS[command]
    reads = {*_MODEL, section}
    if command != "report" and not isinstance(cfg.get(section), dict):
        errors.append(f"{section}: section required")
        reads.remove(section)
    if command == "bench-rate" and cfg.get("besov"):
        reads.add("besov")  # optional: bench-rate reports its indices when given
    merged = _walk(_SCHEMA, cfg, "", errors, reads)
    fn = merged["function"]
    if isinstance(fn, dict) and _SCHEMA["function"]["name"].ok(fn["name"]):
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
    k = merged["kernel"]
    if isinstance(k, dict) and k["name"] == "identity":
        nu = (cfg.get("kernel") or {}).get("nu", 0)
        if _SCHEMA["kernel"]["nu"].ok(nu) and nu != 0:
            errors.append(f"kernel.nu: the identity kernel has nu = 0, got {nu!r}")
        k["nu"] = 0.0  # what the run uses, also when nu is not given
    v, w, e = merged.get("verify"), merged["wavelet"], merged["estimator"]
    w_ok = isinstance(w, dict) and all(_SCHEMA["wavelet"][m].ok(w[m]) for m in ("m10", "m20"))
    if w_ok and isinstance(e, dict):
        for key, m in (("J1", "m10"), ("J2", "m20")):
            if _is_number(e[key], integer=True) and e[key] < w[m]:
                errors.append(f"estimator.{key}: must be null or an integer >= "
                              f"wavelet.{m} = {w[m]}, got {e[key]!r}")
    ladders = {"bench.ladder": merged["bench"].get("ladder")} if "bench" in reads else {}
    if "verify" in reads and _SCHEMA["verify"]["lemmas"].ok(v["lemmas"]):
        if 2 in v["lemmas"] and isinstance(v["N_ladder"], list) and len(v["N_ladder"]) < 3:
            errors.append("verify.N_ladder: needs at least 3 entries")
        ladders.update({f"verify.{key}": v[key] for lemma, key
                        in ((2, "N_ladder"), (3, "ladder")) if lemma in v["lemmas"]})
        if w_ok:
            errors += _address_errors(v, wv.WaveletSpec(w["m10"], w["m20"]))
    # a ladder's log-log fit sorts its sizes, N or M N^alpha, which must differ
    alpha = merged["noise"].get("alpha") if isinstance(merged["noise"], dict) else None
    for key, val in ladders.items():
        if key == "verify.N_ladder" and _int_list(val, low=2):
            what, sizes = "N", val
        elif key != "verify.N_ladder" and _pairs(val) and _SCHEMA["noise"]["alpha"].ok(alpha):
            what, sizes = f"M N^alpha at alpha = {alpha!r}", [M * N ** alpha for N, M in val]
        else:
            continue
        if len(set(sizes)) < len(sizes):
            errors.append(f"{key}: {what} must differ between entries, got {val!r}")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return merged


# ----------------------------------------------------------------------
# Spec construction from config
# ----------------------------------------------------------------------

def _specs(cfg: dict):
    """(test function, estimator config); the estimator config carries the
    kernel, the designs, the noise law and the wavelet basis."""
    k = cfg["kernel"]
    kernel = md.make_kernel(k["name"], nu=k["nu"])
    # the keys of design.t, design.x, noise and estimator are field names
    d1, d2 = (md.DesignDensity(**cfg["design"][axis]) for axis in ("t", "x"))
    noise = md.NoiseSpec(**cfg["noise"])
    w = cfg["wavelet"]
    wavelet = wv.WaveletSpec(m10=w["m10"], m20=w["m20"])
    fn = dict(cfg["function"])
    f = md.make_test_function(fn.pop("name"), **fn)
    return f, es.EstimatorConfig(kernel, d1, d2, noise, wavelet, **cfg["estimator"])


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
    f, est_cfg = _specs(cfg)
    sim = cfg["simulate"]
    obs = md.simulate_observations(f, est_cfg.kernel, est_cfg.d1, est_cfg.d2,
                                   est_cfg.noise, N=sim["N"], M=sim["M"],
                                   seed=cfg["seed"])
    path = outdir / "observations.csv"
    md.save_csv(obs, path)
    print(f"simulated N={obs.N} M={obs.M} -> {path.name}")
    return [path]


def _load_observations(path: Path) -> md.ObservationGrid:
    if not path.is_file():
        raise FileNotFoundError(
            f"observation file not found or not a file: {path}")
    return md.load_csv(path)


def _check_design(obs: md.ObservationGrid, est_cfg: es.EstimatorConfig) -> None:
    """ConfigError naming the first point where the file's design is not the
    config's quantile design, to rounding: the CSV round-trips float64."""
    for axis, points, d in (("t", obs.t, est_cfg.d1), ("x", obs.x, est_cfg.d2)):
        expected = md.quantile_design(points.size, d)
        i = np.flatnonzero(~(np.abs(points - expected) <= 1e-12))[:1]
        if i.size:
            raise ConfigError(f"design.{axis}: point {i[0] + 1} of {points.size} of the "
                              f"file's {axis}-design is {points[i[0]]:.17g}, the "
                              f"config's quantile design has {expected[i[0]]:.17g}")


def cmd_estimate(cfg: dict, outdir: Path) -> list[Path]:
    f, est_cfg = _specs(cfg)
    sec = cfg["estimate"]
    obs = _load_observations(Path(sec["observations"]))
    _check_design(obs, est_cfg)
    try:
        plan = es.FieldPlan(est_cfg, obs.t, obs.x)
    except es.SingularDesignError as exc:
        raise es.SingularDesignError(f"{sec['observations']}: {exc}") from None
    J1, J2 = plan.J1, plan.J2
    field = es.estimate_field(plan, obs.Y)
    del plan, obs  # the design matrices and the grid would add to every later peak
    truth = es.true_coefficients(f, est_cfg, J1, J2)
    kept = int(sum(blk.kept.sum() for blk in field.values()))
    grid = sec["grid"]
    recon = es.reconstruct(field, est_cfg, grid=grid)
    err = an.mise(recon, f.grid(grid))
    coeff_path = outdir / "coefficients.csv"
    es.save_field_csv(field, coeff_path, truth)
    grid_path = outdir / "reconstruction.csv"
    es.save_reconstruction_csv(recon, grid_path)
    summary = outdir / "estimate_summary.txt"
    with open(summary, "w", newline="\n") as fh:
        fh.write(f"levels: J1={J1} J2={J2}\n")
        fh.write(f"kept coefficients: {kept}\n")
        fh.write(f"total coefficients: "
                 f"{sum(b.beta_hat.size for b in field.values())}\n")
        fh.write(f"mise: {err:.17g}\n")
    print(f"kept {kept} coefficients; mise {err:.6g}")
    return [coeff_path, grid_path, summary]


def cmd_verify(cfg: dict, outdir: Path) -> list[Path]:
    f, est_cfg = _specs(cfg)
    v = cfg["verify"]
    lemmas = v["lemmas"]
    seed = cfg["seed"]
    artifacts = []
    lines = []
    if 1 in lemmas:
        rep = an.verify_lemma1(est_cfg, levels1=v["levels1"])
        path = outdir / "lemma1.csv"
        columns = ("j1", "k1", "j2", "k2", "ratio2", "ratio4")
        md._write_csv(path, ",".join(columns),
                      np.array([[e[c] for c in columns] for e in rep.entries], dtype=float))
        artifacts.append(path)
        lines.append(f"lemma1: spread2={rep.spread2:.4g} spread4={rep.spread4:.4g}")
    if 2 in lemmas:
        rep = an.verify_lemma2(est_cfg, tuple(v["index"]), M=v.get("M", 128),
                               N_ladder=v["N_ladder"],
                               replicates=v.get("replicates", 500), seed=seed)
        path = outdir / "lemma2.csv"
        md._write_csv(path, "N,variance,fourth_ratio,variance_exact",
                      np.column_stack([rep.N_ladder, rep.variances,
                                       rep.fourth_ratios, rep.exact_variances]))
        artifacts.append(path)
        lines.append(f"lemma2: slope={rep.slope:.4f} (predicted {-rep.alpha})"
                     f" exact slope={rep.exact_slope:.4f}"
                     f" kurtosis={rep.kurtosis:.3f}")
    if 3 in lemmas:
        indices = [tuple(i) for i in v["indices"]]
        rep = an.verify_lemma3(f, est_cfg, indices,
                               M=v.get("M", 256), N=v["N"],
                               replicates=v.get("replicates", 1000), seed=seed,
                               ladder=[tuple(p) for p in v["ladder"]] or None)
        path = outdir / "lemma3.csv"
        md._write_csv(path, "j1,k1,j2,k2,exceed_frequency",
                      np.array([(*key, freq) for key, freq in rep.frequencies.items()],
                               dtype=float))
        artifacts.append(path)
        lines.append(f"lemma3: max exceedance frequency={rep.max_frequency:.4g}"
                     + (f" tail exponent={rep.tail_exponent:.3f}"
                        if rep.tail_exponent is not None else ""))
    summary = outdir / "verify_summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    artifacts.append(summary)
    print("\n".join(lines))
    return artifacts


def cmd_bench_rate(cfg: dict, outdir: Path, threads: int = 1) -> list[Path]:
    f, est_cfg = _specs(cfg)
    b = cfg["bench"]
    ladder = [tuple(p) for p in b["ladder"]]
    besov = cfg.get("besov")
    bp = an.BesovParams(**besov) if besov else None
    report = an.rate_experiment(f, est_cfg, ladder,
                                replicates=b["replicates"],
                                seed=cfg["seed"], grid=b["grid"],
                                threads=threads, bp=bp)
    csv_path = outdir / "rate_report.csv"
    an.rate_report_csv(report, csv_path)
    summary = outdir / "rate_summary.txt"
    summary.write_text(an.rate_report_text(report) + "\n")
    print(an.rate_report_text(report))
    return [csv_path, summary]


def cmd_report(cfg: dict, outdir: Path) -> list[Path]:
    """Re-summarize a previous bench-rate output directory."""
    src = Path(cfg["report"]["source"])
    csv_path = src / "rate_report.csv" if src.is_dir() else src
    if not csv_path.is_file():
        raise FileNotFoundError(f"rate report not found or not a file: {csv_path}")
    rows = md._read_csv(csv_path, ("n", "mise_mean"))
    pairs = list(zip(rows["n"].tolist(), rows["mise_mean"].tolist()))
    lines = [f"points: {len(pairs)}"]
    if len(pairs) >= 3:
        try:
            slope, se = an.fit_rate(pairs)
        except md.ParameterError as exc:
            raise md.ParameterError(f"{csv_path}: {exc}") from None
        lines.append(f"fitted slope: {slope:.4f} +/- {se:.4f}")
    summary = outdir / "report_summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return [summary]


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
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(
                f"--threads: must be a positive integer, got {args.threads}")
        cfg = load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        report = cfg.get("report") or {}
        if getattr(args, "source", None) and isinstance(report, dict):
            # --source overrides report.source, so the resolved config
            # names the source it read; a non-mapping fails validation
            cfg["report"] = {**report, "source": args.source}
        cfg = validate_config(cfg, args.command)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        # module globals, so that a wrapper set on a `cmd_*` sees its call
        if args.command == "simulate":
            artifacts = cmd_simulate(cfg, outdir)
        elif args.command == "estimate":
            artifacts = cmd_estimate(cfg, outdir)
        elif args.command == "verify-lemmas":
            artifacts = cmd_verify(cfg, outdir)
        elif args.command == "bench-rate":
            artifacts = cmd_bench_rate(cfg, outdir, threads=args.threads)
        else:
            artifacts = cmd_report(cfg, outdir)
        _write_run_metadata(outdir, cfg, artifacts)
        return 0
    except (ConfigError, md.ParameterError, es.SingularDesignError, OSError,
            yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
