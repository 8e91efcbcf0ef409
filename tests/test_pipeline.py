import numpy as np
import numpy.testing as npt
import pytest

from feddl.config import parse_config
from feddl.errors import ConfigError, DataError, NumericalAbort
from feddl.federation import ClientShard
from feddl.kernels import KernelParams
from feddl.matrixio import read_embedding_csv, read_labels_csv, read_matrix
from feddl.nystrom import MatrixKind
from feddl.pipeline import (
    _complete,
    rerun_manifest,
    run_eval,
    run_fed_speclust,
    run_fed_tsne,
    run_fed_umap,
    run_fit,
    run_plot,
)

TINY_INI = """\
[dataset]
source = blobs
blob_count = 3
points_per_blob = 20
blob_std = 0.5
blob_separation = 10.0

[partition]
clients = 3
mode = iid

[federation]
rounds = 3
local_steps = 2
step_size = 5.0
landmarks = 12

[embedding]
iterations = 60
early_exaggeration_iters = 20
perplexity = 8.0
n_neighbors = 8

[run]
seed = 1
"""


def tiny_cfg():
    return parse_config(TINY_INI)


def _strip_timing(trace_text: str) -> str:
    # every data row ends with the wall-clock elapsed_ms column
    return "\n".join(",".join(line.split(",")[:4]) for line in trace_text.splitlines())


def _strip_created(manifest_text: str) -> str:
    return "\n".join(
        line for line in manifest_text.splitlines() if not line.startswith("created")
    )


def test_fit_writes_landmarks_trace_manifest(tmp_path):
    out = run_fit(tiny_cfg(), tmp_path)
    assert sorted(out.files) == ["landmarks.fdlm", "manifest.ini", "trace.csv"]
    Y = read_matrix(out.files["landmarks.fdlm"])
    assert Y.shape == (2, 12)
    assert np.isfinite(Y).all()
    manifest = out.files["manifest.ini"].read_text()
    assert "command = fit" in manifest
    assert "gamma = auto" not in manifest  # the resolved bandwidth is recorded
    assert out.gamma is not None and out.gamma > 0


def test_tsne_pipeline_outputs(tmp_path):
    out = run_fed_tsne(tiny_cfg(), tmp_path)
    for name in (
        "landmarks.fdlm",
        "trace.csv",
        "manifest.ini",
        "completed_distance.fdlm",
        "embedding.csv",
        "metrics.csv",
        "scatter.svg",
    ):
        assert out.files[name].exists(), name
    D = read_matrix(out.files["completed_distance.fdlm"])
    assert D.shape == (60, 60)
    assert D.min() >= 0.0
    Z, labels = read_embedding_csv(out.files["embedding.csv"])
    assert Z.shape == (60, 2) and labels.shape == (60,)
    metrics = out.files["metrics.csv"].read_text()
    assert metrics.startswith("metric,value\n")
    assert "nmi," in metrics and "sc," in metrics
    assert out.metrics.nmi is not None
    svg = out.files["scatter.svg"].read_text()
    assert svg.lstrip().startswith("<svg") and "circle" in svg


def test_umap_pipeline_runs(tmp_path):
    out = run_fed_umap(tiny_cfg(), tmp_path)
    Z, _ = read_embedding_csv(out.files["embedding.csv"])
    assert Z.shape == (60, 2) and np.isfinite(Z).all()
    assert "command = umap" in out.files["manifest.ini"].read_text()


def test_speclust_pipeline_recovers_blobs(tmp_path):
    out = run_fed_speclust(tiny_cfg(), tmp_path)
    for name in ("completed_kernel.fdlm", "labels.csv", "metrics.csv"):
        assert out.files[name].exists(), name
    K = read_matrix(out.files["completed_kernel.fdlm"])
    assert K.shape == (60, 60) and K.min() >= 0.0 and K.max() <= 1.0
    labels = read_labels_csv(out.files["labels.csv"])
    assert labels.shape == (60,)
    assert out.metrics.nmi >= 0.9  # well-separated blobs


@pytest.mark.parametrize("kind", list(MatrixKind), ids=lambda k: k.value)
def test_client_block_overflow_aborts(kind):
    # finite points whose squared distances to the landmarks overflow
    shard = ClientShard(client_id=2, data=np.full((2, 4), 1e155), weight=1.0)
    Y = np.linspace(-1.0, 1.0, 24).reshape(2, 12)
    with pytest.raises(NumericalAbort, match="client 2: squared distances to the landmarks"):
        _complete([shard], Y, KernelParams(gamma=0.5), tiny_cfg(), kind)


def test_manifest_rerun_reproduces_outputs(tmp_path):
    first = run_fed_tsne(tiny_cfg(), tmp_path / "a")
    second = rerun_manifest(first.files["manifest.ini"], tmp_path / "b")
    for name in (
        "landmarks.fdlm",
        "completed_distance.fdlm",
        "embedding.csv",
        "metrics.csv",
        "scatter.svg",
    ):
        assert first.files[name].read_bytes() == second.files[name].read_bytes(), name
    assert _strip_timing(first.files["trace.csv"].read_text()) == _strip_timing(
        second.files["trace.csv"].read_text()
    )
    assert _strip_created(first.files["manifest.ini"].read_text()) == _strip_created(
        second.files["manifest.ini"].read_text()
    )


def test_budget_gradient_privacy_records_sigmas_and_reruns(tmp_path):
    text = TINY_INI.replace(
        "[run]",
        "[privacy]\nmode = gradient\nepsilon = 1\ndelta = 1e-5\n"
        "tau_x = 1\ntau_y = 1\nupsilon = 1\n\n[run]",
    )
    first = run_fit(parse_config(text), tmp_path / "a")
    sigmas = first.fed.gradient_sigmas
    assert sigmas is not None and len(sigmas) == 3
    manifest = first.files["manifest.ini"].read_text()
    assert f"gradient_sigmas = {' '.join(repr(s) for s in sigmas)}\n" in manifest
    second = rerun_manifest(first.files["manifest.ini"], tmp_path / "b", workers=2)
    assert second.fed.gradient_sigmas == sigmas
    assert first.files["landmarks.fdlm"].read_bytes() == second.files["landmarks.fdlm"].read_bytes()
    assert _strip_timing(first.files["trace.csv"].read_text()) == _strip_timing(
        second.files["trace.csv"].read_text()
    )


def test_rerun_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read manifest"):
        rerun_manifest(tmp_path / "missing.ini", tmp_path)
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\ncommand = dance\nseed = 0\n")
    with pytest.raises(ConfigError, match="'dance' cannot be re-run"):
        rerun_manifest(bad, tmp_path)


def test_eval_on_stored_embedding(tmp_path):
    run = run_fed_tsne(tiny_cfg(), tmp_path / "run")
    out = run_eval(
        tiny_cfg(),
        tmp_path / "eval",
        run.files["embedding.csv"],
        run.files["completed_distance.fdlm"],
    )
    text = out.files["metrics.csv"].read_text()
    assert "npa_knn_10," in text and "nmi," in text
    manifest = out.files["manifest.ini"].read_text()
    assert "[eval_inputs]" in manifest and "embedding = " in manifest
    # the eval manifest can itself be re-run
    again = rerun_manifest(out.files["manifest.ini"], tmp_path / "eval2")
    assert out.files["metrics.csv"].read_bytes() == again.files["metrics.csv"].read_bytes()


@pytest.mark.parametrize("engine", [run_fed_tsne, run_fed_umap], ids=["tsne", "umap"])
def test_eval_reproduces_run_metrics_bytes(tmp_path, engine):
    run = engine(tiny_cfg(), tmp_path / "run")
    out = run_eval(
        tiny_cfg(),
        tmp_path / "eval",
        run.files["embedding.csv"],
        run.files["completed_distance.fdlm"],
    )
    assert out.files["metrics.csv"].read_bytes() == run.files["metrics.csv"].read_bytes()


def test_eval_without_distances_skips_neighborhood_metric(tmp_path):
    run = run_fed_tsne(tiny_cfg(), tmp_path / "run")
    out = run_eval(tiny_cfg(), tmp_path / "eval", run.files["embedding.csv"])
    assert "npa" not in out.files["metrics.csv"].read_text()


def test_eval_rejects_mismatched_distances(tmp_path):
    run = run_fed_tsne(tiny_cfg(), tmp_path / "run")
    with pytest.raises(DataError, match="2x12 but the embedding has 60 points"):
        run_eval(
            tiny_cfg(),
            tmp_path / "eval",
            run.files["embedding.csv"],
            run.files["landmarks.fdlm"].parent / "landmarks.fdlm",
        )


def test_plot_from_embedding_csv(tmp_path):
    run = run_fed_tsne(tiny_cfg(), tmp_path / "run")
    out = run_plot(tmp_path / "plot", run.files["embedding.csv"], title="demo")
    svg = out.files["scatter.svg"].read_text()
    assert svg.lstrip().startswith("<svg")
    assert "demo" in svg
