import numpy as np
import pytest
from click.testing import CliRunner

from feddl import pipeline
from feddl.cli import main
from feddl.matrixio import write_embedding_csv, write_matrix
from test_pipeline import TINY_INI


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(TINY_INI)
    return p


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "feddl" in result.output


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("fit", "tsne", "umap", "speclust", "eval", "plot", "manifest"):
        assert cmd in result.output


def test_fit_success(runner, config_file, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["fit", "--config", str(config_file), "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "wrote" in result.output and "landmarks.fdlm" in result.output
    assert (out / "manifest.ini").exists()


def test_tsne_reports_files_and_metrics(runner, config_file, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["tsne", "--config", str(config_file), "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "embedding.csv" in result.output
    assert "nmi = " in result.output  # metric lines use four decimals
    assert (out / "scatter.svg").exists()


def test_speclust_success(runner, config_file, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["speclust", "--config", str(config_file), "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "labels.csv" in result.output
    assert (out / "completed_kernel.fdlm").exists()


def test_missing_config_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["fit", "--config", str(tmp_path / "no.ini"), "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "error: config file not found" in result.output


def test_bad_config_exits_2(runner, tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[nope]\nx = 1\n")
    result = runner.invoke(main, ["fit", "--config", str(p), "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert "unknown configuration section" in result.output


def test_missing_embedding_exits_3(runner, config_file, tmp_path):
    result = runner.invoke(
        main,
        [
            "eval",
            "--config",
            str(config_file),
            "--out-dir",
            str(tmp_path),
            "--embedding",
            str(tmp_path / "no.csv"),
        ],
    )
    assert result.exit_code == 3
    assert "error: embedding file not found" in result.output


def test_divergent_run_exits_4(runner, tmp_path):
    p = tmp_path / "diverge.ini"
    p.write_text(TINY_INI.replace("step_size = 5.0", "step_size = 1e12"))
    result = runner.invoke(
        main, ["fit", "--config", str(p), "--out-dir", str(tmp_path / "out")]
    )
    assert result.exit_code == 4
    assert "error:" in result.output


@pytest.mark.parametrize(
    "command,default,setting",
    [
        ("tsne", "perplexity = 8.0", "perplexity = 100"),
        ("umap", "n_neighbors = 8", "n_neighbors = 30"),
        ("tsne", "iterations = 60", "iterations = 0"),
    ],
)
def test_infeasible_embedding_setting_exits_2(runner, tmp_path, command, default, setting):
    # 30 points: perplexity must stay below 30, n_neighbors at most 29
    p = tmp_path / "small.ini"
    p.write_text(
        TINY_INI.replace("points_per_blob = 20", "points_per_blob = 10").replace(default, setting)
    )
    result = runner.invoke(main, [command, "--config", str(p), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {setting.split()[0]} " in result.output


@pytest.mark.parametrize(
    "command,default,setting,message",
    [
        ("tsne", "clients = 3", "clients = 40", "client 20 would receive 1 points"),
        (
            "umap",
            "clients = 3\nmode = iid",
            "clients = 2\nmode = noniid_one_class",
            "needs exactly 1*P classes; got 3 classes for P=2",
        ),
        (
            "speclust",
            "[run]",
            "[clustering]\nclusters = 100\n\n[run]",
            "clusters = 100 must lie in [2, 60]",
        ),
    ],
    ids=["clients", "one-class", "clusters"],
)
def test_infeasible_partition_or_cluster_setting_exits_2(
    runner, tmp_path, monkeypatch, command, default, setting, message
):
    # 60 points in 3 classes; each setting must fail before the federated fit
    fits = []
    monkeypatch.setattr(pipeline, "run_feddl", lambda *args, **kwargs: fits.append(args))
    p = tmp_path / "bad.ini"
    p.write_text(TINY_INI.replace(default, setting))
    result = runner.invoke(main, [command, "--config", str(p), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output and message in result.output
    assert fits == []


def test_seed_override_changes_outputs(runner, config_file, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "1"), (b, "2"), (c, "2")):
        result = runner.invoke(
            main,
            ["fit", "--config", str(config_file), "--out-dir", str(out), "--seed", seed],
        )
        assert result.exit_code == 0
    la, lb, lc = (d / "landmarks.fdlm" for d in (a, b, c))
    assert lb.read_bytes() == lc.read_bytes()
    assert la.read_bytes() != lb.read_bytes()


def test_eval_and_plot_round(runner, config_file, tmp_path):
    out = tmp_path / "out"
    assert (
        runner.invoke(
            main, ["tsne", "--config", str(config_file), "--out-dir", str(out)]
        ).exit_code
        == 0
    )
    result = runner.invoke(
        main,
        [
            "eval",
            "--config",
            str(config_file),
            "--out-dir",
            str(tmp_path / "eval"),
            "--embedding",
            str(out / "embedding.csv"),
            "--distances",
            str(out / "completed_distance.fdlm"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "npa_knn_10 = " in result.output
    result = runner.invoke(
        main,
        [
            "plot",
            "--embedding",
            str(out / "embedding.csv"),
            "--out-dir",
            str(tmp_path / "plot"),
            "--title",
            "rerun view",
        ],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "plot" / "scatter.svg").exists()


def test_eval_with_non_square_distances_exits_3(runner, config_file, tmp_path):
    rng = np.random.default_rng(0)
    write_embedding_csv(tmp_path / "embedding.csv", rng.normal(size=(60, 2)))
    write_matrix(tmp_path / "distances.fdlm", rng.random((60, 5)))
    result = runner.invoke(
        main,
        [
            "eval",
            "--config",
            str(config_file),
            "--out-dir",
            str(tmp_path / "eval"),
            "--embedding",
            str(tmp_path / "embedding.csv"),
            "--distances",
            str(tmp_path / "distances.fdlm"),
        ],
    )
    assert result.exit_code == 3, result.output
    assert "distance matrix is 60x5" in result.output


def test_manifest_rerun_command(runner, config_file, tmp_path):
    out = tmp_path / "out"
    assert (
        runner.invoke(
            main, ["fit", "--config", str(config_file), "--out-dir", str(out)]
        ).exit_code
        == 0
    )
    result = runner.invoke(
        main,
        [
            "manifest",
            "rerun",
            "--manifest",
            str(out / "manifest.ini"),
            "--out-dir",
            str(tmp_path / "again"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out / "landmarks.fdlm").read_bytes() == (
        tmp_path / "again" / "landmarks.fdlm"
    ).read_bytes()
    result = runner.invoke(
        main,
        [
            "manifest",
            "rerun",
            "--manifest",
            str(tmp_path / "no.ini"),
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 2
