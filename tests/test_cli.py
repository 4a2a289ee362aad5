import numpy as np
import pytest
import yaml

from afdeconv import cli


BASE_CONFIG = {
    "kernel": {"name": "regular-smooth", "nu": 1.0},
    "noise": {"alpha": 1.0, "sigma": 0.25},
    "function": {"name": "tensor-sinusoid", "s1": 2.0, "s2": 2.0,
                 "max_freq": 128},
    "simulate": {"N": 64, "M": 64, "format": "csv"},
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

    def test_missing_observation_file(self, tmp_path, capsys):
        path = write_config(
            tmp_path, extra={"estimate": {"observations": "nope.csv"}})
        rc = cli.main(["estimate", "--config", str(path),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err


class TestSimulate:

    def test_row_count_and_reproducibility(self, tmp_path):
        path = write_config(tmp_path,
                            simulate={"N": 64, "M": 32, "format": "csv"})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out2)]) == 0
        raw1 = (out1 / "observations.csv").read_bytes()
        raw2 = (out2 / "observations.csv").read_bytes()
        assert raw1 == raw2
        assert raw1.count(b"\n") == 64 * 32 + 1

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
                            simulate={"N": 128, "M": 128, "format": "csv"},
                            extra={"estimate": {
                                "observations": str(obs_dir / "observations.csv"),
                                "grid": 256, "pgm": True}})
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
        assert (out / "reconstruction.pgm").read_bytes()[:2] == b"P5"

    def test_corrupt_observation_file_exits_2(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        sim = write_config(tmp_path, simulate={"N": 64, "M": 64,
                                               "format": "both"})
        assert cli.main(["simulate", "--config", str(sim),
                         "--out", str(obs_dir)]) == 0
        csv_path = obs_dir / "observations.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        del lines[99]
        csv_path.write_text("".join(lines))
        afdc_path = obs_dir / "observations.afdc"
        afdc_path.write_bytes(afdc_path.read_bytes()[:20000])
        for path, message in ((csv_path, "missing"), (afdc_path, "truncated")):
            cfg = write_config(tmp_path, extra={"estimate": {
                "observations": str(path)}})
            assert cli.main(["estimate", "--config", str(cfg),
                             "--out", str(tmp_path / "est")]) == 2
            assert message in capsys.readouterr().err


class TestVerifyAndBench:

    def test_verify_lemma1_only(self, tmp_path):
        path = write_config(
            tmp_path, extra={"verify": {"lemmas": [1], "levels1": [3, 4]}})
        out = tmp_path / "v"
        assert cli.main(["verify-lemmas", "--config", str(path),
                         "--out", str(out)]) == 0
        assert (out / "lemma1.csv").exists()
        assert "lemma1" in (out / "verify_summary.txt").read_text()

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
        plot = np.genfromtxt(rep_out / "rate_plot.csv", delimiter=",",
                             names=True)
        assert len(np.atleast_1d(plot)) == 3

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
