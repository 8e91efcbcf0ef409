import configparser
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from feddl import federation, nystrom, pipeline
from feddl.config import parse_config
from feddl.data import load_dataset, partition
from feddl.errors import ConfigError, DataError, NumericalAbort
from feddl.federation import ClientShard, convergence_diagnostic
from feddl.kernels import KernelParams
from feddl.matrixio import read_embedding_csv, read_matrix
from feddl.nystrom import MatrixKind, NystromFactors
from feddl.pipeline import (
    _available_memory,
    _check_feasible,
    _complete,
    rerun_manifest,
    run_eval,
    run_fed_speclust,
    run_fed_tsne,
    run_fed_umap,
    run_fit,
    run_plot,
)

from helpers import read_labels

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


@pytest.mark.parametrize("run", [run_fed_tsne, run_fed_umap], ids=["tsne", "umap"])
def test_embedding_run_reads_its_distances_in_the_completion_pass(tmp_path, monkeypatch, run):
    # the completion's one pass feeds the file, the affinities or graph and
    # the neighbourhood preservation; nothing assembles the n x n distances
    passes, real = [], nystrom._panels
    monkeypatch.setattr(nystrom, "_panels", lambda *a, **k: passes.append(1) or real(*a, **k))

    def assembled(self):
        raise AssertionError("the run assembled the completion's values")

    monkeypatch.setattr(nystrom.CompletedMatrix, "values", property(assembled))
    out = run(tiny_cfg(), tmp_path)
    assert passes == [1]
    assert "npa_knn_10," in out.files["metrics.csv"].read_text()


def test_speclust_pipeline_recovers_blobs(tmp_path):
    out = run_fed_speclust(tiny_cfg(), tmp_path)
    for name in ("completed_kernel.fdlm", "labels.csv", "metrics.csv"):
        assert out.files[name].exists(), name
    K = read_matrix(out.files["completed_kernel.fdlm"])
    assert K.shape == (60, 60) and K.min() >= 0.0 and K.max() <= 1.0
    labels = read_labels(out.files["labels.csv"])
    assert labels.shape == (60,)
    assert out.metrics.nmi >= 0.9  # well-separated blobs


@pytest.mark.parametrize("kind", list(MatrixKind), ids=lambda k: k.value)
def test_client_block_overflow_aborts(kind):
    # finite points whose squared distances to the landmarks overflow
    shard = ClientShard(client_id=2, data=np.full((2, 4), 1e155), weight=1.0)
    Y = np.linspace(-1.0, 1.0, 24).reshape(2, 12)
    with pytest.raises(NumericalAbort, match="client 2: squared distances to the landmarks"):
        _complete([shard], Y, KernelParams(gamma=0.5), tiny_cfg(), kind)


@pytest.mark.parametrize("kind", list(MatrixKind), ids=lambda k: k.value)
def test_client_block_gram_clamp_aborts(kind):
    # |x - y|^2 = 1e306 is finite, but 2 x.y overflows, which the Gram
    # expansion would clamp to a distance of 0
    shard = ClientShard(client_id=1, data=np.array([[1e154, 1e154], [0.0, 0.0]]), weight=1.0)
    Y = np.array([[1.1e154], [0.0]])
    with pytest.raises(NumericalAbort, match="client 1: squared distances to the landmarks"):
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


def _record_uploads(monkeypatch) -> list:
    """Record, as lists in client order, what each server call receives:
    the updates every round aggregates and the completion's uploads."""
    calls = []

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(uploads, *args, **kwargs):
            calls.append((name, list(uploads)))
            return real(uploads, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    recording(federation, "aggregate")
    recording(pipeline, "assemble_cross_block")
    return calls


@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("command", ["tsne", "umap", "speclust"])
def test_clients_upload_their_rows_of_the_factor(tmp_path, monkeypatch, command, rank):
    # each client uploads B_p R, n_p x kept_rank, and never its n_p x n_y block
    calls = _record_uploads(monkeypatch)
    cfg = parse_config(TINY_INI + f"\n[completion]\nrank = {rank}\n")
    out = pipeline._run(cfg, tmp_path, command)
    completion = [uploads for name, uploads in calls if name == "assemble_cross_block"]
    assert len(completion) == 1
    k = out.completed.provenance["kept_rank"]
    if command == "speclust" and not rank:
        assert k == 12  # every landmark
    else:
        assert k < 12
    sizes = [s.n_points for s in partition(*load_dataset(cfg.dataset), cfg.part)]
    assert [u.shape for u in completion[0]] == [(n_p, k) for n_p in sizes]
    npt.assert_array_equal(np.vstack(completion[0]), out.completed.factors.F)


@pytest.mark.parametrize("kind", list(MatrixKind), ids=lambda k: k.value)
def test_completion_server_holds_no_n_by_n_y_array(kind):
    # from the first upload it receives to the end of the completion's pass
    # the server holds F (n x k) and one 64-row panel, never the n x n_y
    # cross block
    cfg = parse_config(TINY_INI + "\n[completion]\nrank = 3\n")
    n, n_y = 600, 200
    X = np.random.default_rng(0).normal(size=(2, n))
    Y = np.random.default_rng(1).normal(size=(2, n_y))
    shards = partition(X, None, cfg.part)
    seen = {}

    def assemble(uploads, ids):
        tracemalloc.reset_peak()
        seen["base"] = tracemalloc.get_traced_memory()[0]
        return real_assemble(uploads, ids)

    def complete(*args, **kwargs):
        completed = real_complete(*args, **kwargs)
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return completed

    real_assemble, real_complete = pipeline.assemble_cross_block, pipeline.nystrom_complete
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "assemble_cross_block", assemble)
        mp.setattr(pipeline, "nystrom_complete", complete)
        tracemalloc.start()
        try:
            completed = _complete(shards, Y, KernelParams(gamma=0.5), cfg, kind)
        finally:
            tracemalloc.stop()
    k = completed.provenance["kept_rank"]
    assert k == 3
    # the pass's work: a few 64 x 64 tiles and its diagonal, row sums and pins
    factor, panel, work = n * k * 8, 64 * n * 8, 4 * 64 * 64 * 8 + 3 * n * 8
    assert seen["peak"] - seen["base"] <= factor + panel + work < n * n_y * 8 / 2


@pytest.mark.parametrize(
    "command,rank",
    [("fit", 0), ("tsne", 0), ("umap", 0), ("speclust", 0), ("speclust", 3)],
    ids=["fit", "tsne", "umap", "speclust", "speclust-rank-3"],
)
def test_manifest_records_the_completion_and_convergence(tmp_path, monkeypatch, command, rank):
    calls = _record_uploads(monkeypatch)
    cfg = parse_config(TINY_INI + f"\n[completion]\nrank = {rank}\n")
    first = pipeline._run(cfg, tmp_path / "a", command)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(first.files["manifest.ini"].read_text())
    resolved = dict(cp["resolved"])
    assert float(resolved.pop("convergence_diagnostic")) == convergence_diagnostic(first.fed.trace)
    # every client's round updates and completion rows, in client order
    uploaded = np.zeros(3, dtype=np.int64)
    for _, uploads in calls:
        uploaded += [u.nbytes for u in uploads]
    assert len(calls) == cfg.fed.rounds + (command != "fit")
    assert resolved.pop("client_upload_bytes") == " ".join(str(b) for b in uploaded)
    if command == "fit":
        assert resolved == {}
    else:
        completed = first.completed
        prov = completed.provenance
        low, high = prov["kept_abs_eigenvalues"]
        expected = {
            "ridge_lambda": repr(prov["ridge_lambda"]),
            "kept_rank": str(prov["kept_rank"]),
            "kept_abs_eigenvalues": f"{low!r} {high!r}",
            "kept_negative": str(prov["kept_negative"]),
        }
        if command == "speclust":  # rank 3 of the landmark block undershoots 0
            assert completed.clipped is (rank == 3)
            expected["clipped"] = "yes" if rank == 3 else "no"
        else:  # an indefinite distance block keeps negative eigenvalues
            assert prov["kept_negative"] > 0
        assert resolved == expected
    # [resolved] is not read back: a rerun reproduces every artifact
    second = rerun_manifest(first.files["manifest.ini"], tmp_path / "b")
    assert sorted(second.files) == sorted(first.files)
    for name, path in first.files.items():
        if name == "trace.csv":
            assert _strip_timing(path.read_text()) == _strip_timing(
                second.files[name].read_text()
            )
        elif name == "manifest.ini":
            assert _strip_created(path.read_text()) == _strip_created(
                second.files[name].read_text()
            )
        else:
            assert path.read_bytes() == second.files[name].read_bytes(), name


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


PRIVACY_MODES = {
    "none": "",
    "data": "[privacy]\nmode = data\nsigma = 0.1\n",
    "gradient": "[privacy]\nmode = gradient\nbeta = 0.5\n",
    "variable": "[privacy]\nmode = variable\nsigma = 0.05\n",
}


@pytest.mark.parametrize("privacy", PRIVACY_MODES.values(), ids=PRIVACY_MODES)
@pytest.mark.parametrize("command", ["fit", "tsne", "umap", "speclust"])
def test_every_seeded_stream_of_a_run_is_distinct(tmp_path, monkeypatch, command, privacy):
    # SeedSequence pads its entropy with zero words, so two different
    # entropies can seed one stream; client ids 0-9 span the tags 1-9
    made = []
    real = np.random.SeedSequence

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    text = (
        TINY_INI.replace("points_per_blob = 20", "points_per_blob = 22\nsubsample = 60")
        .replace("clients = 3", "clients = 10")
        .replace("iterations = 60", "iterations = 25")
        .replace("[run]", privacy + "\n[run]")
    )
    pipeline._run(parse_config(text), tmp_path, command)
    entropies = {}
    for seq in made:
        entropies.setdefault(tuple(seq.generate_state(4)), set()).add(tuple(seq.entropy))
    assert len(entropies) >= 4  # blobs, subsample, partition, landmarks at least
    assert [sorted(e) for e in entropies.values() if len(e) > 1] == []


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


GUARD_N = 1000
GUARD_RUNS = {
    "tsne": ("tsne", "[embedding]\niterations = 3\n"),
    "umap": ("umap", "[embedding]\niterations = 3\n"),
    "umap-b": ("umap", "[embedding]\niterations = 3\nb = 0.895\n"),
    # rank 3 of the landmark block clips the kernel completion: the dense
    # path, which the guard covers
    "speclust": ("speclust", "[completion]\nrank = 3\n"),
    "fit-1-client": ("fit", "[partition]\nclients = 1\n"),
}


def _guard_cfg(extra):
    return parse_config(
        "[dataset]\nblob_count = 4\npoints_per_blob = 250\n\n"
        "[federation]\nrounds = 1\nlandmarks = 20\n\n" + extra
    )


def _traced_peak(cfg, out_dir, command):
    """tracemalloc's peak over one whole run, and the run's outputs.  The
    run is traced the second time in the process, so that one-time
    allocations (about 0.2 x n^2 x 8 B at n = 1000) of a first run in the
    process, which the guard multiples leave out, do not count."""
    pipeline._run(cfg, out_dir, command)
    tracemalloc.start()
    try:
        out = pipeline._run(cfg, out_dir, command)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


@pytest.mark.parametrize("command,extra", GUARD_RUNS.values(), ids=GUARD_RUNS)
def test_memory_guard_is_the_measured_peak(tmp_path, monkeypatch, command, extra):
    # the guard's estimate may not lie below a whole run's traced peak, nor
    # more than 0.5 x n^2 x 8 B above it
    cfg = _guard_cfg(extra)
    peak, out = _traced_peak(cfg, tmp_path, command)
    if command == "speclust":
        assert isinstance(out.completed.operator, np.ndarray)
    X, labels = load_dataset(cfg.dataset)
    assert X.shape[1] == GUARD_N
    monkeypatch.setattr(pipeline, "_available_memory", lambda: peak - 1)
    with pytest.raises(ConfigError, match="needs about"):
        _check_feasible(cfg, command, X, labels)
    monkeypatch.setattr(pipeline, "_available_memory", lambda: peak + 0.5 * GUARD_N**2 * 8)
    _check_feasible(cfg, command, X, labels)


def test_factored_speclust_holds_no_n_by_n_array(tmp_path):
    # the guard's configuration at full rank clips nothing: the completion
    # is written by row panels and clustered through its factors
    peak, out = _traced_peak(_guard_cfg(""), tmp_path, "speclust")
    assert isinstance(out.completed.operator, NystromFactors)
    assert peak < 0.25 * GUARD_N**2 * 8
    K = read_matrix(out.files["completed_kernel.fdlm"])
    assert K.shape == (GUARD_N, GUARD_N)
    npt.assert_array_equal(K, K.T)


def test_umap_run_holds_no_n_by_n_array(tmp_path):
    # the graph is sparse rows, its layout's products run on them and the
    # metrics read 64-row panels: beyond its O(n n_neighbors) lists a run
    # holds the completion's and the passes' 64-row panels, which at
    # n = 2500 are well below 0.2 n^2 (at n = 1000 they set the guard)
    n = 2500
    cfg = parse_config(
        f"[dataset]\nblob_count = 4\npoints_per_blob = {n // 4}\n\n"
        "[federation]\nrounds = 1\nlandmarks = 20\n\n[embedding]\niterations = 3\n"
    )
    peak, out = _traced_peak(cfg, tmp_path, "umap")
    assert out.embedding.Z.shape == (n, 2)
    assert peak < 0.2 * n**2 * 8


def test_available_memory_is_the_lower_of_meminfo_and_the_cgroup_limit(tmp_path):
    meminfo, limit = tmp_path / "meminfo", tmp_path / "memory.max"
    meminfo.write_text("MemTotal:        8000000 kB\nMemAvailable:       2048 kB\n")

    def available():
        return _available_memory(str(meminfo), str(limit))

    assert available() == 2048 * 1024  # no cgroup file
    limit.write_text("max\n")
    assert available() == 2048 * 1024
    limit.write_text("1000000\n")
    assert available() == 1000000
    limit.write_text("4096000\n")
    assert available() == 2048 * 1024
    meminfo.unlink()
    assert available() == 4096000
    limit.unlink()
    assert available() is None
