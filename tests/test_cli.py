import configparser
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import feddl
from feddl import clustering, config, pipeline
from feddl.cli import main
from feddl.kernels import pairwise_sq_dist
from feddl.matrixio import read_matrix, write_embedding_csv, write_matrix
from helpers import write_idx_pair
from test_pipeline import TINY_INI, _strip_timing


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


def _every_command(out, ini):
    """Each command of the CLI on ``ini``, writing under ``out``."""
    tsne, umap = out / "tsne", out / "umap"
    return [
        *(
            [command, "--config", str(ini), "--out-dir", str(out / command)]
            for command in ("fit", "tsne", "umap", "speclust")
        ),
        [
            "eval", "--config", str(ini), "--out-dir", str(out / "eval"),
            "--embedding", str(tsne / "embedding.csv"),
            "--distances", str(tsne / "completed_distance.fdlm"),
        ],
        [
            "plot", "--embedding", str(umap / "embedding.csv"), "--out-dir", str(out / "plot"),
            "--title", "tiny",
        ],
    ]


# runs each argument list of ``argv[1]`` (JSON) through the CLI, in order
_WITHOUT_SCIPY = """
import json, sys
# every import of scipy, or of the network stack, raises ImportError
for name in ("scipy", "ssl", "urllib.request", "http.client"):
    sys.modules[name] = None
from feddl.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
"""


def test_every_command_runs_without_scipy(runner, config_file, tmp_path):
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    src = str(Path(feddl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-c", _WITHOUT_SCIPY,
            json.dumps(_every_command(blocked, config_file)),
        ],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for args in _every_command(free, config_file):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    files = sorted(p.relative_to(free) for p in free.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(blocked) for p in blocked.rglob("*") if p.is_file())
    for name in files:
        if name.name == "manifest.ini":  # holds its creation time and the paths
            continue
        ours, theirs = (free / name).read_bytes(), (blocked / name).read_bytes()
        if name.name == "trace.csv":
            ours, theirs = _strip_timing(ours.decode()), _strip_timing(theirs.decode())
        assert ours == theirs, name


def test_no_command_imports_the_network_stack():
    src = str(Path(feddl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    network = ["ssl", "http.client", "urllib.request", "email", "xml.sax"]
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; import feddl.cli; from feddl import pipeline; "
            f"print(' '.join(m for m in {network!r} if m in sys.modules))",
        ],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


def _scaled_points(scale):
    """``_points()`` with every feature multiplied by ``scale``."""
    return [f"{(i % 7 + 0.5) * scale!r},{(i % 5 + 0.25) * scale!r},{i % 3}" for i in range(60)]


# landmarks drawn near the origin, whatever the data's scale, and no heuristic
_GAUSSIAN_INIT = (
    ("landmarks = 12", "landmarks = 12\ninit = gaussian_scaled"),
    ("[run]", "[kernel]\ngamma = 0.5\n\n[run]"),
)


def _embedding_setting(line):
    """TINY_INI edit adding ``line`` to its ``[embedding]`` section."""
    return (("iterations = 60", f"iterations = 60\n{line}"),)


# id -> (command, features' scale, TINY_INI edits, message).  Every input
# is finite; float64 overflows (or underflows) on the way.
OVERFLOWS = {
    "seed-sample-moments": ("fit", 1e160, (), "seed_sample initial landmarks overflow float64"),
    "self-term-fit": (
        "fit", 1e155, _GAUSSIAN_INIT, "client 0: MMD self-term overflows float64"
    ),
    "self-term-speclust": (
        "speclust", 1e155, _GAUSSIAN_INIT, "client 0: MMD self-term overflows float64"
    ),
    # squared norms stay finite; only 2 x.y overflows, which the Gram
    # expansion would clamp to a distance of 0
    "self-term-gram-clamp": (
        "fit", 1.5e153, _GAUSSIAN_INIT, "client 0: MMD self-term overflows float64"
    ),
    # gamma = 0 lets the landmarks near the origin see the data, so the
    # fit passes and the completion overflows
    "completion": (
        "tsne",
        1e120,
        (_GAUSSIAN_INIT[0], ("[run]", "[kernel]\ngamma = 0\n\n[run]")),
        "completion failed: distance matrix contains non-finite",
    ),
    "huge-initial-landmarks": (
        "fit",
        1.0,
        (
            ("landmarks = 12", "landmarks = 8\ninit = gaussian_scaled\ninit_scale = 1e154"),
            _GAUSSIAN_INIT[1],
        ),
        "initial landmarks: norm overflows float64",
    ),
    # the first local step's landmarks are finite, their norm is not
    "landmark-norm": (
        "fit",
        1.0,
        (("step_size = 5.0", "step_size = 1e308"),),
        "landmark norm exceeded divergence threshold at local step 1",
    ),
    "bandwidth-heuristic": ("umap", 1e-160, (), "bandwidth heuristic on the initial landmarks"),
    # noise, not the step size, breaks the landmark-norm cap: on the
    # aggregated landmarks, on a client's final local step, and on the
    # uploaded gradients
    "variable-noise": (
        "fit",
        1.0,
        (("[run]", "[privacy]\nmode = variable\nsigma = 1e308\n\n[run]"),),
        "landmark norm exceeded divergence threshold after round 1: "
        "privacy noise ([privacy] sigma = 1e+308) too large",
    ),
    "gradient-noise": (
        "fit",
        1.0,
        (("[run]", "[privacy]\nmode = gradient\nbeta = 1e308\n\n[run]"),),
        "landmark norm exceeded divergence threshold at local step 2: "
        "privacy noise ([privacy] beta = 1e+308) too large",
    ),
    "averaged-gradient-noise": (
        "fit",
        1.0,
        (
            ("landmarks = 12", "landmarks = 12\naggregation = average_gradients"),
            ("[run]", "[privacy]\nmode = gradient\nbeta = 1e308\n\n[run]"),
        ),
        "landmark norm exceeded divergence threshold after round 1: "
        "privacy noise ([privacy] beta = 1e+308) too large",
    ),
    # epsilon^2 underflows to 0 in the calibrated gradient-noise scale
    "budget-noise-scale": (
        "fit",
        1.0,
        (
            (
                "[run]",
                "[privacy]\nmode = gradient\nepsilon = 1e-300\ndelta = 0.5\n"
                "tau_x = 1\ntau_y = 1\nupsilon = 1\n\n[run]",
            ),
        ),
        "gradient noise scale overflows float64 ([privacy] epsilon = 1e-300, delta = 0.5)",
    ),
    # data-mode noise itself leaves float64
    **{
        f"data-noise-{command}": (
            command,
            1.0,
            (("[run]", "[privacy]\nmode = data\nsigma = 1e308\n\n[run]"),),
            "client 1: data-mode noise overflows float64",
        )
        for command in ("fit", "speclust")
    },
    "rank-zero-landmarks": (
        "tsne", 1e-320, (), "completion failed: landmark block is numerically rank-zero"
    ),
    # the embedding's initial layout or its descent leaves float64
    **{
        f"{key}-{command}": (
            command,
            1.0,
            _embedding_setting(f"{key} = 1e308"),
            f"{command} embedding overflows float64",
        )
        for key, commands in (
            ("learning_rate", ("tsne", "umap")),
            ("early_exaggeration", ("tsne",)),
            ("init_scale", ("tsne", "umap")),
            ("a", ("umap",)),
            ("b", ("umap",)),
        )
        for command in commands
    },
}


def _assert_only_error_line(runner, args, message):
    """``args`` exit with code 4, raise no warning of any kind, and print
    nothing to stderr but one line starting ``error: message``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exit_code == 4, result.output
    assert [str(w.message) for w in caught] == []
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), result.stderr
    return result


@pytest.mark.parametrize("command,scale,settings,message", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflow_from_finite_input_exits_4(runner, tmp_path, command, scale, settings, message):
    args = _csv_run(tmp_path, _scaled_points(scale), command, settings)
    _assert_only_error_line(runner, [*args, "--out-dir", str(tmp_path / "out")], message)
    # an aborted completion leaves no partial file; only one that finished
    # before the embedding overflowed is left, whole
    left = [read_matrix(p).shape for p in (tmp_path / "out").glob("completed_*.fdlm")]
    assert left == ([(60, 60)] if message.endswith("embedding overflows float64") else [])


def test_landmarks_that_never_see_the_data_exit_4(runner, tmp_path):
    # data offset by (110, 100) from landmarks drawn near the origin: at
    # the heuristic gamma every kernel entry between them underflows to 0
    rows = [f"{(i % 7 + 0.5) + 110!r},{(i % 5 + 0.25) + 100!r},{i % 3}" for i in range(60)]
    args = _csv_run(tmp_path, rows, "fit", _GAUSSIAN_INIT[:1])
    result = _assert_only_error_line(
        runner,
        [*args, "--out-dir", str(tmp_path / "out")],
        "the initial landmarks see no data: every client's kernel block with them is 0 "
        "at gamma = ",
    )
    assert "[kernel] gamma" in result.stderr and "init = seed_sample" in result.stderr


def test_huge_blob_separation_exits_4(runner, tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(TINY_INI.replace("blob_separation = 10.0", "blob_separation = 1e308"))
    _assert_only_error_line(
        runner,
        ["fit", "--config", str(p), "--out-dir", str(tmp_path / "out")],
        "seed_sample initial landmarks overflow float64",
    )


def test_huge_blob_std_exits_4(runner, tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(TINY_INI.replace("blob_std = 0.5", "blob_std = 1e308"))
    _assert_only_error_line(
        runner,
        ["fit", "--config", str(p), "--out-dir", str(tmp_path / "out")],
        "blob 0: points overflow float64",
    )


_BUDGET = "[privacy]\nmode = gradient\ntau_x = 1\ntau_y = 1\nupsilon = 1\n"
_BLOBS = "blob_count = 3\npoints_per_blob = 20\nblob_std = 0.5\nblob_separation = 10.0\n\n[partition]\nclients = 3"


def _section(text: str) -> str:
    return f"{text}\n\n[run]"


# id -> (command, text of TINY_INI, its replacement, message).  TINY_INI
# loads 60 points in 3 classes.  The rows up to "npa-ks" are rejected when
# the configuration is parsed, the rest right after the data load.
INFEASIBLE = {
    "gamma-negative": (
        "fit", "[run]", _section("[kernel]\ngamma = -1"), "gamma must be finite and >= 0, got -1.0"
    ),
    "gamma-inf": (
        "fit", "[run]", _section("[kernel]\ngamma = inf"), "gamma must be finite and >= 0, got inf"
    ),
    "blob-count": ("fit", "blob_count = 3", "blob_count = 0", "n_blobs must be >= 1, got 0"),
    "points-per-blob": (
        "fit", "points_per_blob = 20", "points_per_blob = 0", "points_per_blob must be >= 1, got 0"
    ),
    "blob-dim": ("fit", "blob_std = 0.5", "blob_std = 0.5\nblob_dim = 0", "dim must be >= 1, got 0"),
    "blob-std": ("fit", "blob_std = 0.5", "blob_std = -1", "blob std must be finite and >= 0, got -1.0"),
    "blob-separation": (
        "fit",
        "blob_separation = 10.0",
        "blob_separation = inf",
        "blob separation must be finite, got inf",
    ),
    "csv-no-path": ("fit", "source = blobs", "source = csv", "csv source needs csv_path"),
    "idx-one-path": (
        "fit",
        "source = blobs",
        "source = idx\nimages_path = a.idx",
        "idx source needs images_path and labels_path",
    ),
    "seed-ini": ("fit", "seed = 1", "seed = -1", "seed must be >= 0, got -1"),
    "seed-flag": ("fit --seed -1", "", "", "seed must be >= 0, got -1"),
    "epsilon": (
        "fit",
        "[run]",
        _section(_BUDGET + "epsilon = 0\ndelta = 0.1"),
        "epsilon must be finite and > 0, got 0.0",
    ),
    "delta": (
        "fit", "[run]", _section(_BUDGET + "epsilon = 1\ndelta = 2"), "delta must lie in (0, 1], got 2.0"
    ),
    "tau-x": (
        "fit",
        "[run]",
        _section(_BUDGET.replace("tau_x = 1", "tau_x = -1") + "epsilon = 1\ndelta = 0.1"),
        "tau_x must be finite and >= 0, got -1.0",
    ),
    "sigma-nan": (
        "fit",
        "[run]",
        _section("[privacy]\nmode = data\nsigma = nan"),
        "sigma must be finite and >= 0, got nan",
    ),
    "beta-inf": (
        "fit",
        "[run]",
        _section("[privacy]\nmode = gradient\nbeta = inf"),
        "beta must be finite and >= 0, got inf",
    ),
    "clusters-tsne": (
        "tsne", "[run]", _section("[clustering]\nclusters = 0"), "clusters must be >= 1, got 0"
    ),
    "ca-split": (
        "tsne", "[run]", _section("[evaluation]\nca_split = 1.0"), "ca_split must lie in (0, 1), got 1.0"
    ),
    "ca-ks": (
        "tsne", "[run]", _section("[evaluation]\nca_ks = 0 10"), "ca_ks entries must be >= 1, got (0, 10)"
    ),
    "npa-ks": (
        "umap", "[run]", _section("[evaluation]\nnpa_ks = 0"), "npa_ks entries must be >= 1, got (0,)"
    ),
    "iterations": ("tsne", "iterations = 60", "iterations = 0", "iterations must be >= 1, got 0"),
    "early-exaggeration-inf": (
        "tsne",
        "iterations = 60",
        "iterations = 60\nearly_exaggeration = inf",
        "early_exaggeration must be finite and >= 1, got inf",
    ),
    "init-scale": (
        "umap",
        "iterations = 60",
        "iterations = 60\ninit_scale = 0",
        "init_scale must be finite and > 0, got 0.0",
    ),
    "perplexity": (
        "tsne",
        "perplexity = 8.0",
        "perplexity = 100",
        "perplexity = 100 must be below the 60 points loaded",
    ),
    "n-neighbors": (
        "umap", "n_neighbors = 8", "n_neighbors = 60", "n_neighbors = 60 exceeds the 59 other points"
    ),
    "out-dim-tsne": (
        "tsne", "iterations = 60", "iterations = 60\nout_dim = 1", "out_dim = 1 must be >= 2"
    ),
    "out-dim-umap": (
        "umap", "iterations = 60", "iterations = 60\nout_dim = 1", "out_dim = 1 must be >= 2"
    ),
    "tsne-two-points": (
        "tsne",
        _BLOBS,
        "blob_count = 2\npoints_per_blob = 1\nblob_std = 0.5\nblob_separation = 10.0\n\n"
        "[partition]\nclients = 1",
        "t-SNE needs at least 3 points, got the 2 loaded",
    ),
    "clients": ("tsne", "clients = 3", "clients = 40", "client 20 would receive 1 points"),
    "one-class": (
        "umap",
        "clients = 3\nmode = iid",
        "clients = 2\nmode = noniid_one_class",
        "partition mode noniid_one_class needs exactly 1*P classes; got 3 classes for P=2",
    ),
    "clusters-speclust": (
        "speclust",
        "[run]",
        _section("[clustering]\nclusters = 100"),
        "clusters = 100 must lie in [2, 60]",
    ),
}


@pytest.mark.parametrize("command,default,setting,message", INFEASIBLE.values(), ids=INFEASIBLE)
def test_infeasible_setting_exits_2_before_the_fit(
    runner, tmp_path, monkeypatch, command, default, setting, message
):
    fits = []
    monkeypatch.setattr(pipeline, "run_feddl", lambda *args, **kwargs: fits.append(args))
    text = TINY_INI.replace(default, setting)
    assert (text != TINY_INI) == (default != ""), "the row must change TINY_INI"
    p = tmp_path / "bad.ini"
    p.write_text(text)
    args = [*command.split(), "--config", str(p), "--out-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output
    assert fits == []


# TINY_INI loads 60 points; a case's (old, new) edit of it sets one client
# or UMAP's b != 1
ONE_CLIENT = ("clients = 3\n", "clients = 1\n")
UMAP_B = ("n_neighbors = 8\n", "n_neighbors = 8\nb = 0.895\n")
GUARD_CASES = {
    "tsne": ("tsne", None, pipeline._DENSE_PEAK_N2["tsne"]),
    "umap": ("umap", None, pipeline._DENSE_PEAK_N2["umap"]),
    "umap-b": ("umap", UMAP_B, pipeline._DENSE_PEAK_N2["umap"]),
    "speclust": ("speclust", None, pipeline._DENSE_PEAK_N2["speclust"]),
    "fit-1-client": ("fit", ONE_CLIENT, pipeline._SHARD_PEAK_N2),
    "speclust-1-client": ("speclust", ONE_CLIENT, pipeline._SHARD_PEAK_N2),
}


@pytest.mark.parametrize("command,edit,multiple", GUARD_CASES.values(), ids=GUARD_CASES)
def test_run_whose_n_by_n_arrays_do_not_fit_exits_2_before_the_fit(
    runner, tmp_path, monkeypatch, command, edit, multiple
):
    fits = []
    monkeypatch.setattr(pipeline, "run_feddl", lambda *args, **kwargs: fits.append(args))
    text = TINY_INI.replace(*edit) if edit else TINY_INI
    assert (text != TINY_INI) == (edit is not None), "the edit must change TINY_INI"
    config_file = tmp_path / "run.ini"
    config_file.write_text(text)
    need = multiple * 60 * 60 * 8
    monkeypatch.setattr(pipeline, "_available_memory", lambda: int(need) - 1)
    args = [command, "--config", str(config_file), "--out-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"error: {command} on the 60 points loaded needs about {need / 2**20:.1f} MiB" in (
        result.output
    )
    assert fits == []


def test_dense_spectral_fallback_that_does_not_fit_exits_2(runner, tmp_path, monkeypatch):
    # 13 clusters of the 60 points loaded: fewer than 5 c points, so the
    # dense eigensolve is the only path, and it is guarded before it runs
    config_file = tmp_path / "run.ini"
    config_file.write_text(TINY_INI + "\n[clustering]\nclusters = 13\n")
    need = clustering._DENSE_FALLBACK_PEAK_N2 * 60 * 60 * 8
    monkeypatch.setattr(clustering, "_available_memory", lambda: int(need) - 1)
    args = ["speclust", "--config", str(config_file), "--out-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert (
        f"error: spectral clustering's dense eigensolve on 60 points needs about "
        f"{need / 2**20:.1f} MiB" in result.output
    )
    monkeypatch.setattr(clustering, "_available_memory", lambda: int(need))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command,available", [("fit", 10**5), ("tsne", None), ("umap", 10**6)])
def test_memory_guard_passes_a_run_that_fits(
    runner, config_file, tmp_path, monkeypatch, command, available
):
    monkeypatch.setattr(pipeline, "_available_memory", lambda: available)
    args = [command, "--config", str(config_file), "--out-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_out_dir_under_a_file_exits_2(runner, config_file, tmp_path):
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "out"
    result = runner.invoke(main, ["fit", "--config", str(config_file), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "error: cannot create output directory" in result.output


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


def test_eval_of_coincident_points_has_no_silhouette(runner, tmp_path):
    # k-means finds one distinct cluster, which has no silhouette
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    path = tmp_path / "embedding.csv"
    write_embedding_csv(path, np.ones((6, 2)), np.arange(6) % 2)
    out = tmp_path / "out"
    args = ["eval", "--config", str(ini), "--embedding", str(path), "--out-dir", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    names = [line.split(",")[0] for line in (out / "metrics.csv").read_text().splitlines()]
    assert "nmi" in names and "sc" not in names


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


def _points(labels=(0, 1, 2)):
    """CSV rows of 60 points in 3 classes, TINY_INI's size."""
    return [f"{i % 7}.5,{i % 5}.25,{labels[i % 3]}" for i in range(60)]


def _csv_run(tmp_path, rows, command="fit", settings=()):
    """``command`` on a CSV of ``rows``, TINY_INI edited by the
    ``(text, replacement)`` pairs ``settings``."""
    csv = tmp_path / "points.csv"
    csv.write_text("\n".join(["x0,x1,label", *rows, ""]))
    ini = tmp_path / "run.ini"
    text = TINY_INI.replace("source = blobs", f"source = csv\ncsv_path = {csv}")
    for old, new in settings:
        text = text.replace(old, new)
    ini.write_text(text)
    return [command, "--config", str(ini)]


def _idx_fit(tmp_path, corrupt):
    """A ``fit`` on an IDX pair of 60 2x2 images after ``corrupt(images, labels)``."""
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    X01 = np.random.default_rng(0).random((4, 60))
    write_idx_pair(images, labels, X01, np.arange(60) % 3, rows=2, cols=2)
    corrupt(images, labels)
    ini = tmp_path / "run.ini"
    ini.write_text(
        TINY_INI.replace(
            "source = blobs", f"source = idx\nimages_path = {images}\nlabels_path = {labels}"
        )
    )
    return ["fit", "--config", str(ini)]


def _embedding(tmp_path, row=None):
    """An embedding CSV of 60 labelled points, TINY_INI's size, with CSV
    row 5 replaced by ``row``."""
    path = tmp_path / "embedding.csv"
    write_embedding_csv(path, np.random.default_rng(0).normal(size=(60, 2)), np.arange(60) % 3)
    if row is not None:
        lines = path.read_text().splitlines()
        lines[4] = row
        path.write_text("\n".join(lines) + "\n")
    return path


def _eval(tmp_path, row=None, distances=None):
    """``eval`` of ``_embedding(row)``, with ``distances(D)`` of the
    squared distances ``D`` of 60 random points as ``--distances``."""
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    args = ["eval", "--config", str(ini), "--embedding", str(_embedding(tmp_path, row))]
    if distances is not None:
        X = np.random.default_rng(1).normal(size=(3, 60))
        path = tmp_path / "distances.fdlm"
        write_matrix(path, distances(pairwise_sq_dist(X, X)))
        args += ["--distances", str(path)]
    return args


def _eval_truncated_distances(tmp_path):
    args = _eval(tmp_path, distances=lambda D: D)
    distances = tmp_path / "distances.fdlm"
    distances.write_bytes(distances.read_bytes()[:-8])
    return args


def _eval_header_only(tmp_path):
    args = _eval(tmp_path)
    embedding = tmp_path / "embedding.csv"
    embedding.write_text(embedding.read_text().splitlines()[0] + "\n")
    return args


def _plot_one_coordinate(tmp_path):
    path = tmp_path / "embedding.csv"
    write_embedding_csv(path, np.random.default_rng(0).normal(size=(60, 1)))
    return ["plot", "--embedding", str(path)]


def _with_nan(D):
    D[3, 7] = D[7, 3] = np.nan
    return D


def _asymmetric(D):
    D[0, 1] += 1.0
    return D


def _overflowing_asymmetry(D):
    # finite, but the difference of the pair overflows
    D[0, 1], D[1, 0] = 1e308, -1e308
    return D


def _cut_last_byte(path, _other):
    path.write_bytes(path.read_bytes()[:-1])


def _bad_label_magic(_images, labels):
    labels.write_bytes(struct.pack(">i", 0x00000802) + labels.read_bytes()[4:])


# id -> (writes the input files and returns the command, message)
BAD_INPUTS = {
    "csv-nan-feature": (
        lambda p: _csv_run(p, _points()[:3] + ["nan,1.25,0"] + _points()[4:]),
        "non-finite feature in row 5",
    ),
    "csv-fractional-labels": (
        lambda p: _csv_run(p, _points(labels=("0.2", "0.7", "1.4"))),
        "label '0.2' in row 2 is not an integer",
    ),
    "csv-ragged-row": (
        lambda p: _csv_run(p, _points()[:3] + ["1.5,0"] + _points()[4:]),
        "row 5 has 2 fields, header has 3",
    ),
    "idx-truncated-images": (
        lambda p: _idx_fit(p, _cut_last_byte),
        "truncated while reading 60 images",
    ),
    "idx-bad-label-magic": (lambda p: _idx_fit(p, _bad_label_magic), "bad label magic 0x00000802"),
    "fdlm-truncated": (_eval_truncated_distances, "expected 28800 for 60x60 float64"),
    "embedding-nan-coordinate": (
        lambda p: _eval(p, row="3,nan,0.5,0"),
        "non-finite coordinate in row 5",
    ),
    "plot-nan-coordinate": (
        lambda p: ["plot", "--embedding", str(_embedding(p, row="3,nan,0.5,0"))],
        "non-finite coordinate in row 5",
    ),
    "embedding-header-only": (_eval_header_only, "has a header but no data rows"),
    "plot-one-coordinate": (
        _plot_one_coordinate,
        "a scatter plot needs at least 2 coordinate columns, got 1",
    ),
    "embedding-fractional-label": (
        lambda p: _eval(p, row="3,0.25,0.5,1.5"),
        "label '1.5' in row 5 is not an integer",
    ),
    # a row without its label, and one with a stray trailing field
    "embedding-missing-label": (
        lambda p: _eval(p, row="3,0.25,0.5"),
        "row 5 has 3 fields, header has 4",
    ),
    "plot-missing-label": (
        lambda p: ["plot", "--embedding", str(_embedding(p, row="3,0.25,0.5"))],
        "row 5 has 3 fields, header has 4",
    ),
    "embedding-extra-field": (
        lambda p: _eval(p, row="3,0.25,0.5,1,9"),
        "row 5 has 5 fields, header has 4",
    ),
    "plot-extra-field": (
        lambda p: ["plot", "--embedding", str(_embedding(p, row="3,0.25,0.5,1,9"))],
        "row 5 has 5 fields, header has 4",
    ),
    "fdlm-nan-distances": (
        lambda p: _eval(p, distances=_with_nan),
        "distance matrix contains non-finite entries",
    ),
    "fdlm-negated-distances": (
        lambda p: _eval(p, distances=np.negative),
        "distance matrix must be non-negative",
    ),
    "fdlm-asymmetric-distances": (
        lambda p: _eval(p, distances=_asymmetric),
        "distance matrix is not symmetric",
    ),
    "fdlm-overflowing-asymmetry": (
        lambda p: _eval(p, distances=_overflowing_asymmetry),
        "distance matrix is not symmetric",
    ),
    # a kernel matrix (unit diagonal) given as the distances
    "fdlm-kernel-as-distances": (
        lambda p: _eval(p, distances=lambda D: np.exp(-0.5 * D)),
        "distances.fdlm: distance matrix must have a zero diagonal",
    ),
}


@pytest.mark.parametrize("setup,message", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_file_exits_3(runner, tmp_path, setup, message):
    result = runner.invoke(main, [*setup(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    assert "error: " in result.output
    assert message in result.output


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


# Every schema key but the data source and its paths, which only point
# the loader at files.
_SWEPT_KEYS = [
    (section, key)
    for section, key, *_ in config._SCHEMA
    if key not in ("source", "images_path", "labels_path", "csv_path")
]
_SWEPT_INI = (
    TINY_INI.replace("points_per_blob = 20", "points_per_blob = 10")
    .replace("rounds = 3", "rounds = 2")
    .replace("landmarks = 12", "landmarks = 6")
    .replace("iterations = 60", "iterations = 20")
    .replace("perplexity = 8.0", "perplexity = 5.0")
    .replace("n_neighbors = 8", "n_neighbors = 5")
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(_SWEPT_KEYS),
    value=st.sampled_from(["0", "-1", "nan", "inf", "1e308", "abc", "", "1.5", "1", "2"]),
    command=st.sampled_from(["tsne", "umap", "speclust"]),
)
def test_cli_never_exits_1(tmp_path_factory, key, value, command):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(_SWEPT_INI)
    section, name = key
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, name, value)
    d = tmp_path_factory.mktemp("sweep")
    with open(d / "run.ini", "w") as f:
        cp.write(f)
    args = [command, "--config", str(d / "run.ini"), "--out-dir", str(d / "out")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
