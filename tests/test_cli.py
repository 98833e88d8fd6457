"""Command-line entry points, one smoke run per subcommand."""

import csv
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rootshare import cli
from rootshare.encoder import ToyEncoderConfig, generate_weights, \
    load_weights_csv, save_weights_csv, toy_encoder_infer


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_rsqrt_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["rsqrt-sweep", "--count", "50", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["index", "x", "value", "rel_err"]
    assert len(rows) == 51
    for _, x, y, e in rows[1:]:
        assert float(e) <= 1e-2
        assert float(x) > 0 and float(y) > 0
    assert "50/50" in capsys.readouterr().out


def test_closeness_sweep(tmp_path, capsys):
    out = tmp_path / "closeness.csv"
    code = cli.main(["closeness-sweep", "--gaps", "0,6", "--trials", "20",
                     "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["gap", "trials", "converged", "mean_rel_err"]
    assert [r[0] for r in rows[1:]] == ["0", "6"]
    assert all(r[1] == "20" for r in rows[1:])
    assert int(rows[1][2]) > int(rows[2][2])


def test_comm_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["comm-report", "--scenario", "activation",
                     "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["scenario", "method", "kind", "unit", "online_bytes",
                       "rounds", "muls"]
    methods = {r[1] for r in rows[1:]}
    assert {"rootshare", "lut", "taylor", "crypten"} <= methods


def test_toy_infer_both_modes(tmp_path, capsys):
    # the default shape, at which EncoderSites are fitted
    out = tmp_path / "infer.csv"
    code = cli.main(["toy-infer", "--mode", "both", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["row", "col", "plain", "shared", "abs_diff"]
    assert len(rows) == 1 + 8 * 16
    assert max(float(r[4]) for r in rows[1:]) <= 1e-2
    printed = capsys.readouterr().out
    assert "max abs plain/shared difference" in printed


def test_toy_infer_both_modes_fails_a_miss_away_from_the_fitted_shape(
        tmp_path, capsys):
    # at seq 4, dim 8, ffn 16 the shared output misses plain by 0.038
    out = tmp_path / "infer.csv"
    code = cli.main(["toy-infer", "--seq", "4", "--dim", "8", "--ffn", "16",
                     "--mode", "both", "--out", str(out)])
    assert code == 1
    assert max(float(r[4]) for r in _read_csv(out)[1:]) > 1e-2
    assert "fitted at seq 8, dim 16, ffn 32" in capsys.readouterr().err


def test_toy_infer_miss_names_the_fitted_head_count(tmp_path, capsys):
    # at the fitted seq, dim and ffn, only the head count differs, so the
    # message must name it: 4 heads miss plain by more than 1e-2
    out = tmp_path / "infer.csv"
    code = cli.main(["toy-infer", "--heads", "4", "--mode", "both",
                     "--out", str(out)])
    assert code == 1
    assert max(float(r[4]) for r in _read_csv(out)[1:]) > 1e-2
    assert "ffn 32, heads 1" in capsys.readouterr().err


def test_toy_infer_plain_mode(tmp_path):
    out = tmp_path / "plain.csv"
    code = cli.main(["toy-infer", "--seq", "2", "--dim", "4", "--ffn", "8",
                     "--mode", "plain", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["row", "col", "value"]
    assert len(rows) == 1 + 2 * 4


def test_flood_ablation_cli(tmp_path, capsys):
    out = tmp_path / "ablation.csv"
    code = cli.main(["flood-ablation", "--gap", "6", "--trials", "15",
                     "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["arm", "gap", "trials", "converged", "rate"]
    by_arm = {r[0]: float(r[4]) for r in rows[1:]}
    assert by_arm["with-flood"] > by_arm["without-flood"]


def test_strategy_flag_is_rejected(tmp_path):
    # the seed conversion follows from flooding; no flag selects it
    with pytest.raises(SystemExit) as exc:
        cli.main(["rsqrt-sweep", "--strategy", "masked-open",
                  "--out", str(tmp_path / "never.csv")])
    assert exc.value.code != 0


def test_toy_infer_iterations_flag_is_rejected(tmp_path):
    # the encoder takes its iteration counts from its per-site settings
    with pytest.raises(SystemExit) as exc:
        cli.main(["toy-infer", "--iterations", "1",
                  "--out", str(tmp_path / "never.csv")])
    assert exc.value.code == 2


def test_comm_report_end2end_rejects_iterations(tmp_path, capsys):
    # the encoder takes its iteration counts from EncoderSites, so the
    # flag must fail rather than be ignored; other scenarios still take it
    out = tmp_path / "never.csv"
    code = cli.main(["comm-report", "--scenario", "end2end",
                     "--iterations", "1", "--out", str(out)])
    assert code == 2
    assert "EncoderSites" in capsys.readouterr().err
    assert not out.exists()
    code = cli.main(["comm-report", "--scenario", "activation",
                     "--iterations", "1", "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("key", ["iterations"])
def test_toy_infer_config_iterations_are_rejected(tmp_path, capsys, key):
    cfg_path = tmp_path / "proto.cfg"
    cfg_path.write_text(f"{key} = 1\n")
    out = tmp_path / "never.csv"
    code = cli.main(["toy-infer", "--config", str(cfg_path),
                     "--out", str(out)])
    assert code == 2
    assert "EncoderSites" in capsys.readouterr().err
    assert not out.exists()


def test_toy_infer_reads_a_weight_file(tmp_path):
    # the default shape, at which EncoderSites keeps shared within 1e-2
    enc = ToyEncoderConfig()
    path = tmp_path / "weights.csv"
    save_weights_csv(str(path), generate_weights(ToyEncoderConfig(seed=5)),
                     enc)
    out = tmp_path / "infer.csv"
    code = cli.main(["toy-infer", "--weights", str(path), "--mode", "both",
                     "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)[1:]
    # the command's input rows at its default --seed of 0
    rng = random.Random(0)
    x = [[0.8 + 0.4 * rng.random() for _ in range(enc.model_dim)]
         for _ in range(enc.seq_len)]
    want = toy_encoder_infer(enc, x, weights=load_weights_csv(str(path), enc))
    assert want != toy_encoder_infer(enc, x)
    assert [float(r[2]) for r in rows] == [v for row in want for v in row]
    assert all(abs(float(r[3]) - float(r[2])) <= 1e-2 for r in rows)


def _assert_refused(tmp_path, capsys, argv, setting, place):
    """The command exits 2 naming where the setting lives, and writes no
    CSV. setting is a flag and its value, or one config-file line."""
    if setting.startswith("--"):
        argv = argv + setting.split()
    else:
        cfg_path = tmp_path / "proto.cfg"
        cfg_path.write_text(setting + "\n")
        argv = argv + ["--config", str(cfg_path)]
    out = tmp_path / "never.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert place in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, place", [
    pytest.param("softmax", "SOFTMAX_NUM and SOFTMAX_DEN Sites",
                 id="softmax-SOFTMAX_*"),
    pytest.param("layernorm", "LAYERNORM Site", id="layernorm-LAYERNORM_*")])
@pytest.mark.parametrize("setting", ["--iterations 2", "iterations = 2",
                                     "E_m = 120"])
def test_fixed_site_scenarios_refuse_newton_settings(tmp_path, capsys,
                                                     scenario, place,
                                                     setting):
    # these layers run at their own Sites, so a Newton setting would not
    # reach them
    _assert_refused(tmp_path, capsys, ["comm-report", "--scenario", scenario],
                    setting, place)


@pytest.mark.parametrize("argv", [["toy-infer"],
                                  ["comm-report", "--scenario", "end2end"]])
def test_encoder_refuses_E_m(tmp_path, capsys, argv):
    _assert_refused(tmp_path, capsys, argv, "E_m = 120", "EncoderSites")


@pytest.mark.parametrize("argv", [
    ["closeness-sweep", "--gaps", "0", "--trials", "2"],
    ["comm-report", "--scenario", "activation"],
    ["toy-infer", "--mode", "plain"]],
    ids=["closeness-sweep", "comm-report", "toy-infer"])
@pytest.mark.parametrize("key", ["sampler_log2_mean", "sampler_log2_std"])
def test_commands_without_sampled_inputs_refuse_sampler_keys(tmp_path, capsys,
                                                             argv, key):
    _assert_refused(tmp_path, capsys, argv, f"{key} = 0.5",
                    "sampled activations")


@pytest.mark.parametrize("setting", ["E_m = 120", "F = 16384",
                                     "mask_spread = 100"])
def test_closeness_sweep_refuses_flood_keys(tmp_path, capsys, setting):
    # the sweep never floods, and E_m sets only the flooding compensation,
    # so none of these could change its CSV
    _assert_refused(tmp_path, capsys,
                    ["closeness-sweep", "--gaps", "0", "--trials", "2"],
                    setting, "never floods")


@pytest.mark.parametrize("argv", [["rsqrt-sweep", "--tol", "0.1"],
                                  ["flood-ablation", "--no-flood"]],
                         ids=["rsqrt-sweep-tol", "flood-ablation-no-flood"])
def test_removed_options_are_rejected(tmp_path, argv):
    # rsqrt-sweep counts within criterion 4's 1e-2, and flood-ablation
    # always runs both arms
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "never.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, setting", [
    (["rsqrt-sweep"], "--count 0"),
    (["comm-report", "--scenario", "activation"], "--row-len 0")],
    ids=["rsqrt-sweep-count", "comm-report-row-len"])
def test_empty_runs_are_refused(tmp_path, capsys, argv, setting):
    # a per-element summary of no elements would divide by zero
    _assert_refused(tmp_path, capsys, argv, setting, "must be at least 1")


@pytest.mark.parametrize("gaps", ["-3,-1", "-2..1", ""],
                         ids=["negative-list", "negative-range", "empty"])
def test_closeness_sweep_refuses_gaps_it_cannot_build(tmp_path, capsys,
                                                      gaps):
    # a negative gap would put the shares that many octaves apart the
    # other way under its own label, and no gap leaves a header-only CSV
    _assert_refused(tmp_path, capsys, ["closeness-sweep", "--trials", "2"],
                    f"--gaps={gaps}", "non-negative exponent gaps")


def test_config_key_n_is_unknown(tmp_path, capsys):
    # iterations has no alias: n is refused like any other unknown key
    _assert_refused(tmp_path, capsys, ["rsqrt-sweep", "--count", "2"],
                    "n = 2", "unknown configuration key 'n'")


def test_end2end_refuses_row_len(tmp_path, capsys):
    _assert_refused(tmp_path, capsys, ["comm-report", "--scenario", "end2end"],
                    "--row-len 3", "ToyEncoderConfig")


def test_closeness_sweep_honours_config_iterations(tmp_path):
    cfg_path = tmp_path / "proto.cfg"
    cfg_path.write_text("iterations = 2\n")
    argv = ["closeness-sweep", "--gaps", "0,6", "--trials", "10", "--out"]
    by_key, by_flag, default = (tmp_path / f"{name}.csv"
                                for name in ("key", "flag", "default"))
    assert cli.main(argv + [str(by_key), "--config", str(cfg_path)]) == 0
    assert cli.main(argv + [str(by_flag), "--iterations", "2"]) == 0
    assert cli.main(argv + [str(default)]) == 0
    assert _read_csv(by_key) == _read_csv(by_flag) != _read_csv(default)


def test_config_file_flows_into_run(tmp_path):
    cfg_path = tmp_path / "proto.cfg"
    cfg_path.write_text("iterations = 2\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["rsqrt-sweep", "--count", "10", "--config",
                     str(cfg_path), "--out", str(out)])
    assert code == 0


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = cli.main(["rsqrt-sweep", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_installed_console_script(tmp_path):
    """Run the `rootshare` command that `[project.scripts]` declares.

    The launcher written here has the shape an installer generates for a
    console-scripts entry, so the declared `module:attr` must name a real
    callable that reads its arguments from `sys.argv` and whose return
    value is the exit status. No install is needed; what this does not
    check is that building the checkout ships the package and the script.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["rootshare"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "rootshare"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "if __name__ == '__main__':\n"
        f"    main = EntryPoint(name='rootshare', value={entry!r},\n"
        "                      group='console_scripts').load()\n"
        "    sys.exit(main())\n",
        encoding="utf-8")
    launcher.chmod(0o755)
    path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    env = dict(os.environ, PATH=path)
    out = tmp_path / "script.csv"
    result = subprocess.run(
        ["rootshare", "rsqrt-sweep", "--count", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert out.exists()


def test_module_invocation(tmp_path):
    out = tmp_path / "module.csv"
    result = subprocess.run(
        [sys.executable, "-m", "rootshare.cli", "rsqrt-sweep", "--count",
         "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert out.exists()
