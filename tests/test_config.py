import pytest

from feddl.config import (
    _SCHEMA,
    PipelineConfig,
    parse_config,
    parse_config_file,
    parse_manifest,
    render_manifest,
)
from feddl.data import PartitionMode
from feddl.errors import ConfigError
from feddl.federation import Aggregation, LandmarkInit
from feddl.privacy import PrivacyMode

FULL_INI = """\
[dataset]
source = blobs
blob_count = 4
points_per_blob = 25
blob_std = 0.5
blob_separation = 6.0
blob_dim = 3
normalize = zscore
subsample = 80

[partition]
clients = 4
mode = noniid_one_class

[federation]
rounds = 12
local_steps = 2
step_size = 5.0
server_step_size = 0.5
aggregation = average_gradients
landmarks = 30
init = gaussian_scaled
init_scale = 2.0
workers = 2

[kernel]
gamma = 0.25

[privacy]
mode = gradient
beta = 1.5

[completion]
rank = 10
ridge = 0.001

[embedding]
perplexity = 12.0
iterations = 150

[clustering]
clusters = 4

[evaluation]
ca_ks = 1, 5 9
npa_ks = 7
ca_split = 0.6

[run]
seed = 42
"""


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg == PipelineConfig(embed_overrides={"seed": 0})
    assert cfg.dataset.source == "blobs"
    assert cfg.part.n_clients == 10 and cfg.part.mode is PartitionMode.IID
    assert cfg.fed.rounds == 50 and cfg.fed.n_landmarks == 200
    assert cfg.gamma is None  # bandwidth heuristic
    assert cfg.privacy.mode is PrivacyMode.NONE
    assert cfg.clusters == 3
    assert cfg.ca_ks == (1, 10, 50) and cfg.npa_ks == (10,) and cfg.ca_split == 0.7


def test_full_config_parses():
    cfg = parse_config(FULL_INI)
    assert cfg.dataset.blobs.n_blobs == 4
    assert cfg.dataset.blobs.points_per_blob == 25
    assert cfg.dataset.normalize == "zscore" and cfg.dataset.subsample == 80
    assert cfg.part.n_clients == 4 and cfg.part.mode is PartitionMode.NONIID_ONE_CLASS
    assert cfg.fed.rounds == 12 and cfg.fed.local_steps == 2
    assert cfg.fed.aggregation is Aggregation.AVERAGE_GRADIENTS
    assert cfg.fed.init is LandmarkInit.GAUSSIAN_SCALED and cfg.fed.init_scale == 2.0
    assert cfg.fed.workers == 2
    assert cfg.gamma == 0.25
    assert cfg.privacy.mode is PrivacyMode.GRADIENT and cfg.privacy.beta == 1.5
    assert cfg.completion.rank_k == 10 and cfg.completion.ridge_lambda == 0.001
    assert cfg.embed_overrides == {"perplexity": 12.0, "iterations": 150, "seed": 42}
    assert cfg.clusters == 4
    assert cfg.ca_ks == (1, 5, 9) and cfg.npa_ks == (7,) and cfg.ca_split == 0.6


def test_run_seed_propagates_to_components():
    cfg = parse_config("[run]\nseed = 42\n")
    assert cfg.seed == 42
    assert cfg.dataset.seed == 42
    assert cfg.part.seed == 42
    assert cfg.fed.seed == 42
    assert cfg.privacy.seed == 42
    assert cfg.embed_overrides["seed"] == 42


def test_cli_overrides_beat_file_values():
    cfg = parse_config("[run]\nseed = 42\n[federation]\nworkers = 2\n", seed=7, workers=8)
    assert cfg.seed == 7 and cfg.fed.seed == 7
    assert cfg.fed.workers == 8


def test_unknown_section_and_key_are_errors():
    with pytest.raises(ConfigError, match=r"unknown configuration section \[nope\]"):
        parse_config("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown key 'gamm' in section \[kernel\]"):
        parse_config("[kernel]\ngamm = 1\n")
    # manifest bookkeeping keys belong to [run] only
    with pytest.raises(ConfigError, match=r"unknown key 'command' in section \[dataset\]"):
        parse_config("[dataset]\ncommand = x\n")
    with pytest.raises(ConfigError, match=r"unknown key 'version' in section \[kernel\]"):
        parse_config("[kernel]\nversion = 0.1.0\n")


def test_value_errors_name_the_key():
    with pytest.raises(ConfigError, match=r"\[federation\] rounds = 'abc'"):
        parse_config("[federation]\nrounds = abc\n")
    with pytest.raises(ConfigError, match=r"\[evaluation\] ca_ks"):
        parse_config("[evaluation]\nca_ks = 1 x\n")
    with pytest.raises(ConfigError, match="cannot parse configuration"):
        parse_config("[kernel]\ngamma = 1\ngamma = 2\n")
    with pytest.raises(ConfigError, match="rounds"):
        parse_config("[federation]\nrounds = -3\n")  # domain check surfaces as ConfigError


def test_gamma_auto_means_heuristic():
    assert parse_config("[kernel]\ngamma = auto\n").gamma is None
    assert parse_config("[kernel]\ngamma = 0.5\n").gamma == 0.5


def test_manifest_round_trip():
    cfg = parse_config(FULL_INI)
    text = render_manifest(cfg, "tsne", {}, ["embedding.csv"])
    command, cfg2 = parse_manifest(text)
    assert command == "tsne"
    assert cfg2 == cfg
    assert "[outputs]" in text and "embedding.csv" in text


_BUDGET = {"epsilon": "2.0", "delta": "1e-06", "tau_x": "1.5", "tau_y": "2.5", "upsilon": "0.75"}

# One non-default value per key of the schema.
KEY_SAMPLES = {
    ("run", "seed"): "7",
    ("dataset", "source"): "csv",
    ("dataset", "images_path"): "train-images.idx",
    ("dataset", "labels_path"): "train-labels.idx",
    ("dataset", "csv_path"): "points.csv",
    ("dataset", "label_column"): "class",
    ("dataset", "normalize"): "minmax01",
    ("dataset", "subsample"): "40",
    ("dataset", "blob_count"): "5",
    ("dataset", "points_per_blob"): "30",
    ("dataset", "blob_std"): "0.1",
    ("dataset", "blob_separation"): "7.300000000000001",
    ("dataset", "blob_dim"): "4",
    ("partition", "clients"): "6",
    ("partition", "mode"): "noniid_two_class",
    ("federation", "rounds"): "9",
    ("federation", "local_steps"): "4",
    ("federation", "step_size"): "2.5",
    ("federation", "server_step_size"): "0.75",
    ("federation", "aggregation"): "average_gradients",
    ("federation", "landmarks"): "40",
    ("federation", "init"): "gaussian_scaled",
    ("federation", "init_scale"): "3.0",
    ("federation", "workers"): "3",
    ("kernel", "gamma"): "0.3",
    ("privacy", "mode"): "variable",
    ("privacy", "sigma"): "0.2",
    ("privacy", "beta"): "1.25",
    **{("privacy", key): value for key, value in _BUDGET.items()},
    ("completion", "rank"): "8",
    ("completion", "ridge"): "0.01",
    ("completion", "eigen_floor"): "1e-09",
    ("embedding", "out_dim"): "3",
    ("embedding", "iterations"): "77",
    ("embedding", "learning_rate"): "150.0",
    ("embedding", "momentum"): "0.4",
    ("embedding", "final_momentum"): "0.7",
    ("embedding", "momentum_switch_iter"): "30",
    ("embedding", "early_exaggeration"): "6.0",
    ("embedding", "early_exaggeration_iters"): "25",
    ("embedding", "perplexity"): "12.5",
    ("embedding", "n_neighbors"): "9",
    ("embedding", "a"): "1.5",
    ("embedding", "b"): "0.8",
    ("embedding", "init_scale"): "0.001",
    ("clustering", "clusters"): "5",
    ("evaluation", "ca_ks"): "3 7",
    ("evaluation", "npa_ks"): "5 15",
    ("evaluation", "ca_split"): "0.6",
}

# Other lines of its section that a sample needs to be valid.
SAMPLE_CONTEXT = {
    ("dataset", "source"): "csv_path = points.csv",
    ("privacy", "sigma"): "mode = data",
    ("privacy", "beta"): "mode = gradient",
    **{
        ("privacy", key): "mode = gradient\n"
        + "\n".join(f"{other} = {v}" for other, v in _BUDGET.items() if other != key)
        for key in _BUDGET
    },
}


def _field_value(cfg, part, name):
    holder = {"": cfg, "blobs": cfg.dataset.blobs}.get(part) or getattr(cfg, part)
    return holder.get(name) if isinstance(holder, dict) else getattr(holder, name)


def test_every_key_round_trips_through_the_manifest():
    assert set(KEY_SAMPLES) == {(section, key) for section, key, *_ in _SCHEMA}
    default = parse_config("")
    for section, key, part, name, _ in _SCHEMA:
        context = SAMPLE_CONTEXT.get((section, key), "")
        cfg = parse_config(f"[{section}]\n{context}\n{key} = {KEY_SAMPLES[section, key]}\n")
        assert _field_value(cfg, part, name) != _field_value(default, part, name), key
        _, cfg2 = parse_manifest(render_manifest(cfg, "fit", {}, []))
        assert cfg2 == cfg, key


def test_manifest_resolved_values_stick():
    cfg = parse_config("")  # gamma auto
    text = render_manifest(cfg, "fit", {"gamma": 0.125, "ridge": 1e-8}, [])
    assert "gamma = 0.125" in text
    assert "ridge = 1e-08" in text  # goes to the [resolved] section
    _, cfg2 = parse_manifest(text)
    assert cfg2.gamma == 0.125  # rerun uses the computed bandwidth, not "auto"


def test_manifest_requires_command():
    cfg = parse_config("")
    text = render_manifest(cfg, "fit", {}, [])
    text = text.replace("command = fit\n", "")
    with pytest.raises(ConfigError, match="no \\[run\\] command"):
        parse_manifest(text)


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nseed = 9\n")
    assert parse_config_file(p).seed == 9
    with pytest.raises(ConfigError, match="cannot read configuration file"):
        parse_config_file(tmp_path / "missing.ini")
