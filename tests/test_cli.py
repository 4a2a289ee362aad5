import re
from pathlib import Path

import pytest
import yaml

from afdeconv import analysis as an
from afdeconv import cli
from afdeconv import model as md


BASE_CONFIG = {
    "kernel": {"name": "regular-smooth", "nu": 1.0},
    "noise": {"alpha": 1.0, "sigma": 0.25},
    "function": {"name": "tensor-sinusoid", "s1": 2.0, "s2": 2.0,
                 "max_freq": 128},
    "simulate": {"N": 64, "M": 64},
    "seed": 42,
}


def write_config(tmp_path, extra=None, **overrides):
    cfg = {**BASE_CONFIG, **(extra or {}), **overrides}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestValidation:

    def test_bad_fields_listed(self, tmp_path):
        path = write_config(tmp_path,
                            kernel={"name": "bogus", "nu": -1},
                            noise={"alpha": 2.0, "sigma": -1})
        cfg = cli.load_config(path)
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg, "simulate")
        msg = str(err.value)
        for field in ("kernel.name", "kernel.nu", "noise.alpha",
                      "noise.sigma"):
            assert field in msg

    def test_exit_code_2_on_invalid(self, tmp_path, capsys):
        path = write_config(tmp_path, kernel={"name": "bogus"})
        rc = cli.main(["simulate", "--config", str(path),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "kernel.name" in capsys.readouterr().err

    def test_empty_ladder_rejected(self, tmp_path):
        path = write_config(tmp_path, extra={"bench": {"ladder": []}})
        rc = cli.main(["bench-rate", "--config", str(path),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unregistered_test_function_rejected(self, tmp_path):
        """Names come from the registries: a name `make_test_function`
        does not know fails validation, not the later run."""
        path = write_config(tmp_path, function={"name": "single-atom"})
        with pytest.raises(cli.ConfigError, match="function.name"):
            cli.validate_config(cli.load_config(path), "simulate")

    def test_function_parameters_checked_against_factory(self, tmp_path, capsys):
        """A function section takes exactly its factory's keywords: a key
        the factory does not take exits 2 naming it."""
        path = write_config(tmp_path, function={"name": "tensor-sinusoid",
                                                "maxfreq": 12})
        rc = cli.main(["simulate", "--config", str(path),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "function.maxfreq" in capsys.readouterr().err

    @pytest.mark.parametrize("function, key", [
        ({"name": "tensor-sinusoid", "s1": "abc"}, "s1"),
        ({"name": "tensor-sinusoid", "s2": True}, "s2"),
        ({"name": "tensor-sinusoid", "max_freq": 0}, "max_freq"),
        ({"name": "tensor-sinusoid", "max_freq": 12.5}, "max_freq"),
        ({"name": "bump-ramp", "width": 0}, "width"),
        ({"name": "bump-ramp", "center": 2.5, "width": -1}, "width"),
        ({"name": "bump-ramp", "center": 2.5}, "center"),
    ])
    def test_function_values_checked(self, tmp_path, capsys, function, key):
        """Each function value must be a number in its factory's range: a
        string, a bool or a degenerate value exits 2 naming the key, not
        with a traceback or a simulated degenerate signal."""
        path = write_config(tmp_path, function=function,
                            simulate={"N": 32, "M": 32})
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert f"function.{key}" in capsys.readouterr().err
        assert not (out / "observations.csv").exists()

    @pytest.mark.parametrize("section, values, message", [
        ("wavelet", {"m10": 1}, "wavelet.m10: must be an integer >= 2"),
        ("wavelet", {"m10": "3"}, "wavelet.m10"),
        ("wavelet", {"m20": 2.5}, "wavelet.m20"),
        ("wavelet", {"m20": True}, "wavelet.m20"),
        ("wavelet", {"regularity": -3}, "wavelet.regularity: not a wavelet key"),
        ("wavelet", {"grid_size": 64}, "wavelet.grid_size"),
        ("wavelet", {"family": "haar"},
         "wavelet.family: must be meyer, the only basis (other families "
         "were removed)"),
        ("wavelet", {"family": None}, "wavelet.family"),
        ("wavelet", 5, "wavelet: must be a mapping"),
        ("design", {"t": 0.3}, "design.t: must be a mapping"),
        ("estimator", {"besov_radius": "x"}, "estimator.besov_radius"),
        ("estimator", {"besov_radius": 0}, "estimator.besov_radius"),
        ("estimator", {"J1": "x"}, "estimator.J1: must be null or an integer"),
        ("estimator", {"J1": 2.5}, "estimator.J1"),
        ("estimator", {"J2": True}, "estimator.J2"),
        ("estimator", {"J1": -5, "J2": -5},
         "estimator.J1: must be null or an integer >= wavelet.m10 = 3, got -5"),
        ("estimator", {"J2": 2},
         "estimator.J2: must be null or an integer >= wavelet.m20 = 3, got 2"),
        ("kernel", {"name": "identity", "nu": 3},
         "kernel.nu: the identity kernel has nu = 0, got 3"),
        ("noise", {"alfa": 0.3}, "noise.alfa: not a noise key"),
        ("noize", {"alpha": 0.3}, "config.noize: not a config key"),
        ("estimator", {"gama": 8}, "estimator.gama: not an estimator key"),
        ("design", {"t": {"xo": 0.2}}, "design.t.xo: not a design.t key"),
        ("design", {"z": {"beta": 0.2}}, "design.z: not a design key"),
        ("kernel", {"nuu": 2.0}, "kernel.nuu: not a kernel key"),
        ("seed", 1.5, "seed: must be a nonnegative integer, got 1.5"),
        ("seed", "abc", "seed: must be a nonnegative integer, got 'abc'"),
        ("seed", -1, "seed: must be a nonnegative integer, got -1"),
        ("seed", True, "seed: must be a nonnegative integer, got True"),
    ], ids=["m10-low", "m10-string", "m20-float", "m20-bool", "regularity",
            "grid_size", "family-haar", "family-null", "wavelet-scalar",
            "design-t-scalar", "besov-string", "besov-zero", "J1-string",
            "J1-float", "J2-bool", "J1-below-m10", "J2-below-m20",
            "identity-nu", "noise-alfa", "noize", "estimator-gama",
            "design-t-xo", "design-z", "kernel-nuu", "seed-float",
            "seed-string", "seed-negative", "seed-bool"])
    def test_config_values_checked(self, tmp_path, capsys, section, values,
                                   message):
        """A section must be a mapping, and every section and the root
        reject a key they do not read. The wavelet section takes only
        family (meyer), m10 and m20 (integers >= 2); J1 and J2 are null or
        integers of at least m10 and m20, besov_radius is positive, the
        identity kernel takes no non-zero nu and the seed is a nonnegative
        integer. Anything else exits 2 with a message, not with a
        traceback or a silent load."""
        path = write_config(tmp_path, extra={section: values},
                            simulate={"N": 32, "M": 32})
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "observations.csv").exists()

    def test_identity_kernel_records_nu_zero(self, tmp_path):
        """The resolved config records the nu an identity-kernel run uses,
        0, also when nu is not given (a non-zero nu exits 2, see
        test_config_values_checked)."""
        out = tmp_path / "o"
        for kernel in ({"name": "identity"}, {"name": "identity", "nu": 0}):
            path = write_config(tmp_path, kernel=kernel)
            assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
            assert resolved["kernel"] == {"name": "identity", "nu": 0.0}

    def test_seed_override_checked(self, tmp_path, capsys):
        """A --seed override is checked as the config's seed is."""
        path = write_config(tmp_path,
                            simulate={"N": 32, "M": 32})
        rc = cli.main(["simulate", "--config", str(path), "--seed", "-3",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed: must be a nonnegative integer, got -3" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, key", [
        ("simulate", {"kernel": {"name": "regular-smooth", "nu": True}},
         "kernel.nu"),
        ("simulate", {"design": {"t": {"beta": True}}}, "design.t.beta"),
        ("simulate", {"design": {"x": {"x0": True}}}, "design.x.x0"),
        ("simulate", {"noise": {"alpha": True}}, "noise.alpha"),
        ("simulate", {"noise": {"sigma": True}}, "noise.sigma"),
        ("simulate", {"noise": {"sigma": False}}, "noise.sigma"),
        ("simulate", {"design": {"t": {"beta": False}}}, "design.t.beta"),
        ("simulate", {"estimator": {"gamma": True}}, "estimator.gamma"),
        ("simulate", {"estimator": {"mu": True}}, "estimator.mu"),
        ("simulate", {"simulate": {"N": True, "M": 32}}, "simulate.N"),
        ("simulate", {"simulate": {"N": 32, "M": True}}, "simulate.M"),
        ("bench-rate", {"bench": {"ladder": [[64, True]]}}, "bench.ladder"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]], "replicates": True}},
         "bench.replicates"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]},
                        "besov": {"s1": True, "s2": 1.0}}, "besov.s1"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]}, "besov": 5}, "besov"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]}, "besov": {"s1": 1.0}},
         "besov.s2"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]},
                        "besov": {"s1": "x", "s2": 1.0}}, "besov.s1"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]},
                        "besov": {"s1": 1, "s2": 1, "foo": 3}}, "besov.foo"),
        ("report", {"report": 5}, "report"),
        ("report", {"report": {"source": 5}}, "report.source"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]},
                        "besov": {"s1": 1, "s2": 1, "q": 2}}, "besov.q"),
        ("bench-rate", {"bench": {"ladder": [[64, 64]]},
                        "besov": {"s1": 1, "s2": 1, "radius": 5}}, "besov.radius"),
        ("simulate", {"simulate": {"N": 32, "M": 32, "format": "csv"}},
         "simulate.format"),
    ], ids=lambda v: v if isinstance(v, str) and "." in v else None)
    def test_boolean_is_not_a_number(self, tmp_path, capsys, command, extra,
                                     key):
        """YAML `true` and `false` are not the numbers 1 and 0: a numeric
        key set to one exits 2 naming the key, before any work is done.
        So does a key no section reads: `besov.q` and `besov.radius` (the
        radius the estimator reads is `estimator.besov_radius`) and
        `simulate.format`."""
        path = write_config(tmp_path, extra=extra)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("verify, key", [
        ({"lemmas": [2], "index": [3, 2]}, "verify.index"),
        ({"lemmas": [2], "index": [3, 2, 2, 1.5]}, "verify.index"),
        ({"lemmas": [3], "indices": [[3, 2, 2, 1], [2, 0]]}, "verify.indices"),
        ({"lemmas": [3], "indices": []}, "verify.indices"),
        ({"lemmas": [1], "levels1": []}, "verify.levels1"),
        ({"lemmas": [1], "levels1": [3, "4"]}, "verify.levels1"),
        ({"lemmas": [2], "N_ladder": [128, 256, 0]}, "verify.N_ladder"),
        ({"lemmas": [2], "N_ladder": [128, 256]}, "verify.N_ladder"),
        ({"lemmas": [2], "M": 0}, "verify.M"),
        ({"lemmas": [3], "N": True}, "verify.N"),
        ({"lemmas": [2], "replicates": 2.5}, "verify.replicates"),
        ({"lemmas": [3], "ladder": [[64]]}, "verify.ladder"),
        ({"lemmas": [3], "ladder": [[64, 64.5]]}, "verify.ladder"),
        ({"lemmas": [3], "ladder": 64}, "verify.ladder"),
        ({"lemmas": [True]}, "verify.lemmas"),
        ({"lemmas": 2}, "verify.lemmas"),
        ({"lemmas": [1], "replicate": 10}, "verify.replicate: not a verify key"),
    ])
    def test_verify_section_checked(self, tmp_path, capsys, verify, key):
        """Every key cmd_verify reads is type-checked and any other key is
        rejected: exit 2 naming the key, not a traceback from the library."""
        path = write_config(tmp_path, extra={"verify": verify})
        out = tmp_path / "o"
        assert cli.main(["verify-lemmas", "--config", str(path),
                         "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "verify_summary.txt").exists()

    @pytest.mark.parametrize("command, extra, named", [
        ("bench-rate", {"bench": {"ladder": [[64, 64], [128, 128], [64, 64]]}},
         "bench.ladder: M N^alpha at alpha = 0.5 must differ between entries"),
        ("bench-rate", {"bench": {"ladder": [[256, 64], [64, 128], [512, 512]]}},
         "bench.ladder: M N^alpha at alpha = 0.5 must differ between entries"),
        ("verify-lemmas", {"verify": {"lemmas": [2], "N_ladder": [128, 128, 256]}},
         "verify.N_ladder: N must differ between entries, got [128, 128, 256]"),
        ("verify-lemmas", {"verify": {"lemmas": [3], "ladder": [[128, 64], [128, 64],
                                                                 [256, 64]]}},
         "verify.ladder: M N^alpha at alpha = 0.5 must differ between entries"),
        ("bench-rate", {"bench": {"ladder": [[1, 8], [16, 16]]}},
         "bench.ladder: must be a non-empty list of [N, M] pairs of integers >= 2"),
        ("verify-lemmas", {"verify": {"lemmas": [2], "N_ladder": [1, 2, 4]}},
         "verify.N_ladder: must be a non-empty list of integers >= 2"),
        ("verify-lemmas", {"verify": {"lemmas": [3], "ladder": [[64, 1], [128, 64]]}},
         "verify.ladder: must be a list of [N, M] pairs of integers >= 2"),
        ("bench-rate", {"bench": {"replicates": 5}},
         "bench.ladder: must be a non-empty list of [N, M] pairs of integers >= 2, "
         "not given"),
    ], ids=["bench-repeated", "bench-equal-n", "N_ladder-repeated",
            "verify-ladder-repeated", "bench-size-1", "N_ladder-size-1",
            "verify-ladder-size-1", "bench-ladder-missing"])
    def test_ladder_sizes_checked(self, tmp_path, capsys, monkeypatch, command,
                                  extra, named):
        """Every size in a ladder is at least 2, and the sizes a ladder's
        log-log fit sorts (N for `verify.N_ladder`, M N^alpha for the
        [N, M] ladders, also for distinct pairs) differ: otherwise exit 2
        naming the key before any ladder point runs.  A missing ladder is
        named too."""
        for name in ("rate_experiment", "verify_lemma2", "verify_lemma3"):
            monkeypatch.setattr(an, name, lambda *a, **k: pytest.fail("work started"))
        path = write_config(tmp_path, noise={"alpha": 0.5, "sigma": 0.25},
                            extra=extra)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("ladder", [[96, 192, 384], [128, 256, 512, 1024]])
    def test_distinct_ladders_validate(self, tmp_path, ladder):
        """Distinct ladders of N = M pass, and so does the N ladder up to
        2048, at alpha = 0.5 as at the default alpha = 1."""
        for noise in ({"alpha": 0.5, "sigma": 0.05}, {"alpha": 1.0, "sigma": 0.05}):
            cfg = cli.load_config(write_config(tmp_path, noise=noise, extra={
                "bench": {"ladder": [[n, n] for n in ladder]},
                "verify": {"lemmas": [1, 2, 3], "N_ladder": ladder + [2048],
                           "ladder": [[n, n] for n in ladder]}}))
            cli.validate_config(cfg, "bench-rate")
            cli.validate_config(cfg, "verify-lemmas")

    @pytest.mark.parametrize("command, section, key", [
        ("estimate", {"grid": "abc"}, "estimate.grid: must be an integer >= 2"),
        ("estimate", {"grid": True}, "estimate.grid"),
        ("estimate", {"grid": 1}, "estimate.grid"),
        ("estimate", {"grid": 256.0}, "estimate.grid"),
        ("estimate", {"pgm": True}, "estimate.pgm: not an estimate key"),
        ("estimate", {"pgm": False}, "estimate.pgm: not an estimate key"),
        ("estimate", {"grids": 512}, "estimate.grids: not an estimate key"),
        ("estimate", {"observations": 5}, "estimate.observations"),
        ("bench-rate", {"grid": "abc"}, "bench.grid: must be an integer >= 2"),
        ("bench-rate", {"grid": False}, "bench.grid"),
        ("bench-rate", {"grid": 0}, "bench.grid"),
        ("bench-rate", {"replicate": 5}, "bench.replicate: not a bench key"),
    ])
    def test_estimate_and_bench_sections_checked(self, tmp_path, capsys,
                                                 command, section, key):
        """`grid` is an integer >= 2, `observations` a path string, and the
        estimate and bench sections take no other keys, `pgm` included:
        exit 2 naming the key, not a traceback."""
        obs = tmp_path / "obs"
        assert cli.main(["simulate", "--config", str(write_config(tmp_path)),
                         "--out", str(obs)]) == 0
        name = "estimate" if command == "estimate" else "bench"
        base = ({"observations": str(obs / "observations.csv")}
                if command == "estimate" else {"ladder": [[64, 64]]})
        path = write_config(tmp_path, extra={name: {**base, **section}})
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_readme_example_config_validates(self, tmp_path):
        """The README's example config passes validation for every
        subcommand, so the documented keys cannot drift from the checks."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("Example config:")[1].split("```yaml\n")[1]
        path = tmp_path / "example.yaml"
        path.write_text(block.split("```")[0])
        cfg = cli.load_config(path)
        assert cfg["wavelet"]["family"] == "meyer"
        for command in ("simulate", "estimate", "verify-lemmas",
                        "bench-rate", "report"):
            cli.validate_config(cfg, command)

    def test_readme_tables_list_schema_keys(self):
        """The README's CLI key tables name exactly the keys of the
        config schema, so the documentation cannot drift from it."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        documented = re.findall(r"^\| `([\w.]+)` \|", cli_section, re.M)

        def keys(table, where=""):
            for key, spec in table.items():
                name = f"{where}.{key}".lstrip(".")
                yield from keys(spec, name) if isinstance(spec, dict) else [name]

        assert sorted(documented) == sorted(keys(cli._SCHEMA))

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        """`--threads` below 1 exits 2 with a message, as a bad `--seed`
        does, instead of running serially."""
        path = write_config(tmp_path, extra={"bench": {"ladder": [[64, 64]]}})
        out = tmp_path / "o"
        assert cli.main(["bench-rate", "--config", str(path), "--threads",
                         threads, "--out", str(out)]) == 2
        assert f"--threads: must be a positive integer, got {threads}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_threads_only_on_bench_rate(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(path), "--threads", "2",
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_missing_observation_file(self, tmp_path, capsys):
        """A path that names no file, or a directory, exits 2 naming it."""
        (tmp_path / "obs_dir").mkdir()
        for name in ("nope.csv", str(tmp_path / "obs_dir")):
            path = write_config(
                tmp_path, extra={"estimate": {"observations": name}})
            rc = cli.main(["estimate", "--config", str(path),
                           "--out", str(tmp_path / "o")])
            assert rc == 2
            assert name in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["t-point-on-x0", "config-directory",
                                      "config-not-utf8", "out-is-a-file"])
    def test_outside_input_exits_2(self, tmp_path, capsys, case):
        """A file whose middle t is exactly the singularity x0 = 0.5 (within
        the design check's rounding of the quantile point), a --config
        naming a directory or a file that is not UTF-8, and an --out naming
        an existing file exit 2 with a message, never a traceback.  The
        singular point's message names the file, the axis and the point."""
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        if case == "t-point-on-x0":
            design = {"t": {"beta": 0.3, "x0": 0.5}}
            sim = write_config(tmp_path, simulate={"N": 17, "M": 16},
                               design=design)
            assert cli.main(["simulate", "--config", str(sim),
                             "--out", str(tmp_path / "obs")]) == 0
            csv_path = tmp_path / "obs" / "observations.csv"
            lines = csv_path.read_text().splitlines(keepends=True)
            t9, rest = lines[9].split(",", 1)
            assert t9 != "0.5" and abs(float(t9) - 0.5) <= 1e-12
            lines[9] = "0.5," + rest
            csv_path.write_text("".join(lines))
            cfg = write_config(tmp_path, design=design, extra={"estimate": {
                "observations": str(csv_path)}})
            argv = ["estimate", "--config", str(cfg)]
        elif case == "config-directory":
            argv = ["simulate", "--config", str(tmp_path)]
        elif case == "config-not-utf8":
            cfg.write_bytes(b"seed: 1\nkernel: {name: \xff}\n")
            argv = ["simulate", "--config", str(cfg)]
        else:
            out.write_text("")
            argv = ["simulate", "--config", str(cfg)]
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if case == "t-point-on-x0":
            assert str(csv_path) in err
            assert "t-design density vanishes at point 9 of 17, t = 0.5," in err


class TestSimulate:

    def test_row_count_and_reproducibility(self, tmp_path):
        path = write_config(tmp_path,
                            simulate={"N": 64, "M": 32})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out2)]) == 0
        raw1 = (out1 / "observations.csv").read_bytes()
        raw2 = (out2 / "observations.csv").read_bytes()
        assert raw1 == raw2
        assert raw1.count(b"\n") == 64 + 1

    def test_seed_override_changes_noise(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["simulate", "--config", str(path), "--out", str(out1)])
        cli.main(["simulate", "--config", str(path), "--seed", "77",
                  "--out", str(out2)])
        assert (out1 / "observations.csv").read_bytes() != \
               (out2 / "observations.csv").read_bytes()

    def test_sigma_zero_identical_across_seeds(self, tmp_path):
        path = write_config(tmp_path, noise={"alpha": 1.0, "sigma": 0.0})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["simulate", "--config", str(path), "--seed", "1",
                  "--out", str(out1)])
        cli.main(["simulate", "--config", str(path), "--seed", "2",
                  "--out", str(out2)])
        assert (out1 / "observations.csv").read_bytes() == \
               (out2 / "observations.csv").read_bytes()

    def test_bump_ramp_simulates(self, tmp_path):
        path = write_config(tmp_path, function={"name": "bump-ramp"})
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out)]) == 0
        assert (out / "observations.csv").read_bytes().count(b"\n") == 64 + 1

    def test_manifest_and_resolved_config(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert (out / "resolved_config.yaml").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "observations.csv" in manifest
        assert manifest.splitlines()[0] == "artifact,sha256,bytes"


class TestEstimate:

    def test_noiseless_identity_run(self, tmp_path):
        obs_dir = tmp_path / "obs"
        path = write_config(tmp_path,
                            kernel={"name": "identity", "nu": 0.0},
                            noise={"alpha": 1.0, "sigma": 0.0},
                            simulate={"N": 128, "M": 128},
                            extra={"estimate": {
                                "observations": str(obs_dir / "observations.csv"),
                                "grid": 256}})
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(obs_dir)]) == 0
        out = tmp_path / "est"
        assert cli.main(["estimate", "--config", str(path),
                         "--out", str(out)]) == 0
        summary = (out / "estimate_summary.txt").read_text()
        mise_line = [ln for ln in summary.splitlines()
                     if ln.startswith("mise:")][0]
        assert float(mise_line.split(":")[1]) <= 1e-3
        # kept count reported equals kept rows in the coefficient CSV
        kept_line = [ln for ln in summary.splitlines()
                     if ln.startswith("kept")][0]
        kept = int(kept_line.split(":")[1])
        rows = (out / "coefficients.csv").read_text().splitlines()[1:]
        assert kept == sum(1 for r in rows if r.split(",")[6] == "1")

    def test_corrupt_observation_file_exits_2(self, tmp_path, capsys):
        """A deleted data line loads 63 rows, which the design check
        rejects."""
        obs_dir = tmp_path / "obs"
        sim = write_config(tmp_path, simulate={"N": 64, "M": 64})
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        csv_path = obs_dir / "observations.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        del lines[40]
        csv_path.write_text("".join(lines))
        cfg = write_config(tmp_path, extra={"estimate": {
            "observations": str(csv_path)}})
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(tmp_path / "est")]) == 2
        assert "design.t: point 1 of 63" in capsys.readouterr().err

    def test_grid_past_the_file_exits_2(self, tmp_path, capsys):
        """A header of 999 x values over lines of one Y each: exit 2
        naming the first data row."""
        obs = tmp_path / "obs.csv"
        obs.write_text("t/x" + "".join(f",{l / 1000!r}" for l in range(1, 1000))
                       + "\n" + "".join(f"{i / 1000!r},0.5\n"
                                        for i in range(1, 1000)))
        cfg = write_config(tmp_path, extra={"estimate": {"observations": str(obs)}})
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(tmp_path / "est")]) == 2
        assert ("data row 1 has 2 fields for the 1000 header columns"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("order, named", [
        ("l-major", "design.t: point 1 of 32 of the file's t-design"),
        ("swapped", "t: design points must be strictly increasing"),
    ], ids=["l-major", "swapped"])
    def test_reordered_observation_file_exits_2(self, tmp_path, capsys,
                                                order, named):
        """The grid written l-major (transposed: the t design in the
        header, one line per x_l) or with two adjacent lines swapped exits
        2.  The transposed file is caught by the design check because the
        two axes' designs differ; with one design on both axes a
        transposed square grid is a valid file."""
        obs_dir = tmp_path / "obs"
        design = {"t": {"beta": 0.3}, "x": {"beta": 0.0}}
        sim = write_config(tmp_path, simulate={"N": 32, "M": 32}, design=design)
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        csv_path = obs_dir / "observations.csv"
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        if order == "l-major":
            rows = list(zip(*rows))
        else:
            rows[9], rows[10] = rows[10], rows[9]
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        cfg = write_config(tmp_path, design=design, extra={"estimate": {
            "observations": str(csv_path)}})
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(tmp_path / "est")]) == 2
        assert named in capsys.readouterr().err

    def test_old_layout_observation_file_exits_2(self, tmp_path, capsys):
        """A file of i,l,t,x,Y rows exits 2 naming the expected t/x
        header; it is not read in another layout."""
        obs_dir = tmp_path / "obs"
        sim = write_config(tmp_path, simulate={"N": 32, "M": 32})
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        csv_path = obs_dir / "observations.csv"
        obs = md.load_csv(csv_path)
        csv_path.write_text("i,l,t,x,Y\n" + "".join(
            f"{i + 1},{l + 1},{obs.t[i]:.17g},{obs.x[l]:.17g},"
            f"{obs.Y[i, l]:.17g}\n"
            for i in range(obs.N) for l in range(obs.M)))
        cfg = write_config(tmp_path, extra={"estimate": {
            "observations": str(csv_path)}})
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(tmp_path / "est")]) == 2
        err = capsys.readouterr().err
        assert str(csv_path) in err and "expected a header t/x" in err

    def test_level_above_cap_exits_3(self, tmp_path, capsys):
        """J1 = 14 asks for level 13, above the largest level 12: exit 3
        with the overflow message, raised before any level is built."""
        obs_dir = tmp_path / "obs"
        sim = write_config(tmp_path, simulate={"N": 32, "M": 32})
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        cfg = write_config(tmp_path, extra={
            "estimator": {"J1": 14},
            "estimate": {"observations": str(obs_dir / "observations.csv")}})
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(tmp_path / "est")]) == 3
        assert "resolution overflow: level 13" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["t", "x"])
    def test_design_other_than_the_files_exits_2(self, tmp_path, capsys, axis):
        """A file simulated with beta = 0.3 on one axis, estimated under a
        config whose design is uniform on both: exit 2 naming the axis
        and its first point, not an estimate with the wrong weights."""
        obs_dir = tmp_path / "obs"
        design = {"t": {"beta": 0.0}, "x": {"beta": 0.0}}
        sim = write_config(tmp_path, simulate={"N": 64, "M": 64},
                           design={**design, axis: {"beta": 0.3}}, seed=3)
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        cfg = write_config(tmp_path, design=design, seed=3, extra={"estimate": {
            "observations": str(obs_dir / "observations.csv")}})
        out = tmp_path / "est"
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"design.{axis}: point 1 of 64 of the file's {axis}-design" in err
        assert not out.exists() or not any(out.iterdir())

    def test_non_numeric_observation_exits_2(self, tmp_path, capsys):
        """A non-numeric Y field fails the load; it is not read as NaN."""
        obs_dir = tmp_path / "obs"
        sim = write_config(tmp_path, simulate={"N": 32, "M": 32})
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        csv_path = obs_dir / "observations.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].rsplit(",", 1)[0] + ",abc\n"
        csv_path.write_text("".join(lines))
        cfg = write_config(tmp_path, extra={"estimate": {
            "observations": str(csv_path)}})
        assert cli.main(["estimate", "--config", str(cfg),
                         "--out", str(tmp_path / "est")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "abc" in err

class TestVerifyAndBench:

    def test_verify_lemma1_only(self, tmp_path):
        path = write_config(
            tmp_path, extra={"verify": {"lemmas": [1], "levels1": [3, 4]}})
        out = tmp_path / "v"
        assert cli.main(["verify-lemmas", "--config", str(path),
                         "--out", str(out)]) == 0
        assert (out / "lemma1.csv").exists()
        assert "lemma1" in (out / "verify_summary.txt").read_text()

    def test_lemma2_needs_two_replicates(self, tmp_path, capsys):
        """Lemma 2's sample variance needs two replicates: one exits 2
        naming lemma 2 and the key, with no numpy warning on the way."""
        path = write_config(tmp_path, noise={"alpha": 0.6, "sigma": 1.0},
                            extra={"verify": {"lemmas": [2], "replicates": 1}})
        out = tmp_path / "v"
        assert cli.main(["verify-lemmas", "--config", str(path), "--out", str(out)]) == 2
        assert ("replicates: lemma 2 needs at least 2 for its sample variance, "
                "got 1") in capsys.readouterr().err
        assert not (out / "lemma2.csv").exists()

    @pytest.mark.parametrize("extra, named", [
        ({"verify": {"lemmas": [2], "index": [3, 99, 2, 1]}},
         "verify.index: [3, 99, 2, 1] has a level below (m10 - 1, m20 - 1) = "
         "(2, 2) or a shift outside 0 <= k < 2^max(j, m0)"),
        ({"verify": {"lemmas": [2], "index": [0, 0, 2, 1]}},
         "verify.index: [0, 0, 2, 1] has a level below"),
        ({"verify": {"lemmas": [2], "index": [3, -1, 2, 1]}},
         "verify.index: [3, -1, 2, 1] has a level below"),
        ({"verify": {"lemmas": [3], "indices": [[3, -2, 2, 1]]}},
         "verify.indices: [3, -2, 2, 1] has a level below"),
        ({"verify": {"lemmas": [1], "levels1": [0]}},
         "verify.levels1: [0] has a level below"),
        ({"verify": {"lemmas": [2]}, "wavelet": {"m10": 4, "m20": 4}},
         "verify.index: [3, 2, 2, 1] has a level below (m10 - 1, m20 - 1) = "
         "(3, 3)"),
        ({"verify": {"lemmas": [1], "levels1": [3, 4]}, "wavelet": {"m20": 4}},
         None),
    ], ids=["k1-past-level", "j1-below-scaling", "k1-negative",
            "indices-k1-negative", "levels1-below-scaling",
            "default-index-below-m20", "lemma1-at-m20-4"])
    def test_lemma_addresses_checked(self, tmp_path, capsys, extra, named):
        """Every level a selected lemma reads is at least the scaling
        pseudo-level m0 - 1 of its axis and every shift k lies in
        0 <= k < shift_count: otherwise exit 2 naming the key.  Lemma 1
        reads the x-level m20 - 1, so a valid m20 = 4 runs."""
        path = write_config(tmp_path, extra=extra)
        out = tmp_path / "v"
        rc = cli.main(["verify-lemmas", "--config", str(path), "--out", str(out)])
        if named is None:
            assert rc == 0
            rows = (out / "lemma1.csv").read_text().splitlines()[1:]
            assert {row.split(",")[2] for row in rows} == {"3"}
        else:
            assert rc == 2
            assert named in capsys.readouterr().err
            assert not (out / "verify_summary.txt").exists()

    def test_verify_lemma3_tail_exponent(self, tmp_path, monkeypatch):
        """With a 3-pair `verify.ladder`, lemma 3 reports the closed-form
        exceedance probability p of each pair, and its tail exponent is
        the log-log slope of p against M N^alpha over those rows."""
        reports = []
        verify_lemma3 = an.verify_lemma3

        def recorded(*args, **kwargs):
            reports.append(verify_lemma3(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(an, "verify_lemma3", recorded)
        path = write_config(tmp_path, noise={"alpha": 0.5, "sigma": 0.25},
                            extra={"verify": {
                                "lemmas": [3], "indices": [[3, 2, 2, 1]],
                                "M": 64, "N": 64, "replicates": 50,
                                "ladder": [[64, 64], [128, 64], [256, 128]]}})
        out = tmp_path / "v"
        assert cli.main(["verify-lemmas", "--config", str(path),
                         "--out", str(out)]) == 0
        (rep,) = reports
        rows = [(M * N ** 0.5, p) for M, N, p in rep.ladder]
        assert len(rows) == 3
        assert all(0.0 <= p <= 1.0 for _, p in rows)
        assert rep.tail_exponent == an.fit_rate(rows)[0]
        summary = (out / "verify_summary.txt").read_text()
        assert f" tail exponent={rep.tail_exponent:.3f}\n" in summary

    def test_verify_ladder_pairs_are_n_then_m(self, tmp_path, monkeypatch):
        """`verify.ladder` pairs are [N, M], as documented: [256, 128]
        gives the report row (M, N) = (128, 256)."""
        reports = []
        verify_lemma3 = an.verify_lemma3

        def recorded(*args, **kwargs):
            reports.append(verify_lemma3(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(an, "verify_lemma3", recorded)
        path = write_config(tmp_path, extra={"verify": {
            "lemmas": [3], "indices": [[3, 2, 2, 1]], "M": 64, "N": 64,
            "replicates": 10, "ladder": [[256, 128], [64, 64]]}})
        assert cli.main(["verify-lemmas", "--config", str(path),
                         "--out", str(tmp_path / "v")]) == 0
        (rep,) = reports
        assert [row[:2] for row in rep.ladder] == [(128, 256), (64, 64)]

    def test_lemma_csvs_match_row_oracle(self, tmp_path, monkeypatch):
        """lemma1.csv, lemma2.csv and lemma3.csv hold the reports' values:
        levels, shifts and N as %d, the rest as one %.17g f-string each."""
        reports = {}
        for lemma in (1, 2, 3):
            verify = getattr(an, f"verify_lemma{lemma}")

            def recorded(*args, _verify=verify, _lemma=lemma, **kwargs):
                reports[_lemma] = _verify(*args, **kwargs)
                return reports[_lemma]

            monkeypatch.setattr(an, f"verify_lemma{lemma}", recorded)
        path = write_config(tmp_path, extra={"verify": {
            "lemmas": [1, 2, 3], "levels1": [3, 4], "N_ladder": [32, 64, 128],
            "indices": [[3, 2, 2, 1], [2, 0, 3, 4]], "M": 32, "N": 64,
            "replicates": 20}})
        out = tmp_path / "v"
        assert cli.main(["verify-lemmas", "--config", str(path),
                         "--out", str(out)]) == 0
        rep1, rep2, rep3 = reports[1], reports[2], reports[3]
        expected = {
            "lemma1.csv": "j1,k1,j2,k2,ratio2,ratio4\n" + "".join(
                f"{e['j1']:d},{e['k1']:d},{e['j2']:d},{e['k2']:d},"
                f"{e['ratio2']:.17g},{e['ratio4']:.17g}\n" for e in rep1.entries),
            "lemma2.csv": "N,variance,fourth_ratio,variance_exact\n" + "".join(
                f"{N:d},{v:.17g},{r:.17g},{x:.17g}\n" for N, v, r, x in zip(
                    rep2.N_ladder, rep2.variances, rep2.fourth_ratios,
                    rep2.exact_variances)),
            "lemma3.csv": "j1,k1,j2,k2,exceed_frequency\n" + "".join(
                f"{j1:d},{k1:d},{j2:d},{k2:d},{p:.17g}\n"
                for (j1, k1, j2, k2), p in rep3.frequencies.items()),
        }
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode(), name

    def test_bench_and_report_roundtrip(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            extra={"bench": {"ladder": [[64, 64], [128, 128], [256, 256]],
                             "replicates": 2, "grid": 256}})
        out = tmp_path / "b"
        assert cli.main(["bench-rate", "--config", str(path),
                         "--out", str(out)]) == 0
        bench_msg = capsys.readouterr().out
        assert "regime" in bench_msg
        rep_out = tmp_path / "rep"
        assert cli.main(["report", "--source", str(out),
                         "--out", str(rep_out)]) == 0
        assert (rep_out / "report_summary.txt").read_text().startswith(
            "points: 3\n")
        metadata = {"manifest.txt", "resolved_config.yaml"}
        assert {p.name for p in out.iterdir()} == metadata | {
            "rate_report.csv", "rate_summary.txt"}
        assert {p.name for p in rep_out.iterdir()} == metadata | {
            "report_summary.txt"}

    def test_report_regime_matches_classifier(self, tmp_path, capsys):
        from afdeconv import analysis as an
        path = write_config(
            tmp_path,
            extra={"bench": {"ladder": [[64, 64], [128, 128], [256, 256]],
                             "replicates": 1, "grid": 256}})
        out = tmp_path / "b"
        cli.main(["bench-rate", "--config", str(path), "--out", str(out)])
        summary = (out / "rate_summary.txt").read_text()
        expected = an.theoretical_exponent(
            an.BesovParams(s1=2.0, s2=2.0, p=2.0), 1.0, 0.0, 0.0)
        assert f"regime: {expected.regime}" in summary

    @pytest.mark.parametrize("text", [
        "N,M,mise_mean\n64,64,0.1\n128,128,0.05\n256,256,0.02\n",
        "N,M,n\n64,64,100\n128,128,200\n256,256,400\n",
        "n,mise_mean\n100,0.1\nabc,0.05\n400,0.02\n",
        "n,mise_mean\n100,0.1\nnan,0.05\n400,0.02\n",
        "n,mise_mean\n100,0.1\n200,nan\n400,0.02\n",
        "n,mise_mean\n100,0.1\n200,0.05\ninf,0.02\n",
        "n,mise_mean\n100,0.1\n200,inf\n400,0.02\n",
    ])
    def test_report_bad_table_exits_2(self, tmp_path, capsys, text):
        """A rate report without n or mise_mean, or with a non-numeric or
        non-finite n or mise_mean, exits 2 with a message naming the file,
        not a traceback, a LAPACK failure or a NaN slope."""
        src = tmp_path / "rate_report.csv"
        src.write_text(text)
        assert cli.main(["report", "--source", str(src),
                         "--out", str(tmp_path / "rep")]) == 2
        assert str(src) in capsys.readouterr().err

    def test_report_source_table_is_a_directory(self, tmp_path, capsys):
        """A source directory whose rate_report.csv is a directory exits 2
        naming it."""
        table = tmp_path / "bench" / "rate_report.csv"
        table.mkdir(parents=True)
        assert cli.main(["report", "--source", str(tmp_path / "bench"),
                         "--out", str(tmp_path / "rep")]) == 2
        assert str(table) in capsys.readouterr().err


class TestResolvedConfig:

    def test_resolved_config_is_a_fixed_point(self, tmp_path):
        """Each subcommand rerun on its own `resolved_config.yaml` passes
        validation and writes a byte-identical manifest: the merged config
        is a fixed point of the schema."""
        path = write_config(tmp_path, extra={
            "estimate": {"observations": str(tmp_path / "simulate" /
                                              "observations.csv")},
            "verify": {"lemmas": [1], "levels1": [3, 4]},
            "bench": {"ladder": [[64, 64], [128, 128], [256, 256]],
                      "replicates": 1, "grid": 64},
            "besov": {"s1": 2.0, "s2": 2.0}})
        for command in ("simulate", "estimate", "verify-lemmas", "bench-rate",
                        "report"):
            out, again = tmp_path / command, tmp_path / f"{command}-again"
            extra = (["--source", str(tmp_path / "bench-rate")]
                     if command == "report" else [])
            assert cli.main([command, "--config", str(path), "--out", str(out),
                             *extra]) == 0
            assert cli.main([command, "--config",
                             str(out / "resolved_config.yaml"),
                             "--out", str(again), *extra]) == 0
            assert (again / "manifest.txt").read_bytes() == \
                (out / "manifest.txt").read_bytes(), command

    def test_report_source_is_resolved(self, tmp_path, monkeypatch):
        """`report --source DIR` writes DIR into its resolved config, so a
        rerun from that config alone, in a directory without a rate
        report, summarises DIR again."""
        src = tmp_path / "bench"
        src.mkdir()
        (src / "rate_report.csv").write_text(
            "N,M,n,mise_mean\n64,64,512,0.1\n128,128,1448,0.05\n"
            "256,256,4096,0.02\n")
        out, again = tmp_path / "rep", tmp_path / "rep-again"
        assert cli.main(["report", "--source", str(src), "--out", str(out)]) == 0
        resolved = out / "resolved_config.yaml"
        assert yaml.safe_load(resolved.read_text())["report"] == {"source": str(src)}
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["report", "--config", str(resolved),
                         "--out", str(again)]) == 0
        assert (again / "report_summary.txt").read_bytes() == \
            (out / "report_summary.txt").read_bytes()
