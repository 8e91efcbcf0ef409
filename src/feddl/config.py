"""Configuration files, CLI overrides, and run manifests.

A run is configured by a single INI-style file with the sections below
(all optional — omitted keys fall back to defaults) plus a handful of
command-line overrides (``--seed``, ``--workers``, ``--out-dir``).

After a run, a *manifest* is written: the same INI layout with every
value resolved (including values that were computed, like an automatic
kernel bandwidth), the package version, the command, and the output file
names.  Feeding a manifest back through ``manifest rerun`` reproduces
the run's outputs byte for byte; only the manifest itself and the
optimisation trace carry timing information and are therefore not
byte-stable.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .data import BlobSpec, DatasetSpec, PartitionSpec
from .errors import ConfigError
from .federation import FedConfig
from .nystrom import CompletionParams
from .privacy import PrivacySpec

__all__ = ["PipelineConfig", "parse_config", "parse_config_file", "render_manifest", "parse_manifest"]

_EMBED_KEYS = {
    "out_dim": int,
    "iterations": int,
    "learning_rate": float,
    "momentum": float,
    "final_momentum": float,
    "momentum_switch_iter": int,
    "early_exaggeration": float,
    "early_exaggeration_iters": int,
    "perplexity": float,
    "n_neighbors": int,
    "a": float,
    "b": float,
    "init_scale": float,
}

_SECTION_KEYS = {
    "dataset": {
        "source",
        "images_path",
        "labels_path",
        "csv_path",
        "label_column",
        "normalize",
        "subsample",
        "blob_count",
        "points_per_blob",
        "blob_std",
        "blob_separation",
        "blob_dim",
    },
    "partition": {"clients", "mode"},
    "federation": {
        "rounds",
        "local_steps",
        "step_size",
        "server_step_size",
        "aggregation",
        "landmarks",
        "init",
        "init_scale",
        "workers",
    },
    "kernel": {"gamma"},
    "privacy": {"mode", "sigma", "beta", "epsilon", "delta", "tau_x", "tau_y", "upsilon"},
    "completion": {"rank", "ridge", "eigen_floor"},
    "embedding": set(_EMBED_KEYS),
    "clustering": {"clusters"},
    "evaluation": {"ca_ks", "npa_ks", "ca_split"},
    "run": {"seed"},
}


@dataclass
class PipelineConfig:
    """Fully resolved configuration of one pipeline run."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    part: PartitionSpec = field(default_factory=PartitionSpec)
    fed: FedConfig = field(default_factory=FedConfig)
    gamma: float | None = None  # None = bandwidth heuristic on the initial landmarks
    privacy: PrivacySpec = field(default_factory=PrivacySpec)
    completion: CompletionParams = field(default_factory=CompletionParams)
    embed_overrides: dict = field(default_factory=dict)
    clusters: int = 3
    ca_ks: tuple[int, ...] = (1, 10, 50)
    npa_ks: tuple[int, ...] = (10,)
    ca_split: float = 0.7
    seed: int = 0


def _typed(section: str, key: str, raw: str, conv):
    try:
        if conv is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _int_tuple(section: str, key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _read_ini(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc
    for section in cp.sections():
        if section in ("resolved", "outputs", "eval_inputs"):
            continue  # manifest-only bookkeeping sections
        allowed = _SECTION_KEYS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown configuration section [{section}]")
        for key in cp[section]:
            if key == "command" or (section == "run" and key in ("version", "created", "command")):
                continue
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return cp


def parse_config(
    text: str, seed: int | None = None, workers: int | None = None
) -> PipelineConfig:
    """Parse configuration text, applying optional CLI overrides."""
    cp = _read_ini(text)

    def get(section, key, conv, default):
        if cp.has_option(section, key):
            return _typed(section, key, cp.get(section, key), conv)
        return default

    def get_opt(section, key, conv):
        if cp.has_option(section, key) and cp.get(section, key).strip() != "":
            return _typed(section, key, cp.get(section, key), conv)
        return None

    run_seed = seed if seed is not None else get("run", "seed", int, 0)

    blobs = BlobSpec(
        n_blobs=get("dataset", "blob_count", int, 3),
        points_per_blob=get("dataset", "points_per_blob", int, 100),
        std=get("dataset", "blob_std", float, 1.0),
        separation=get("dataset", "blob_separation", float, 10.0),
        dim=get("dataset", "blob_dim", int, 2),
    )
    try:
        dataset = DatasetSpec(
            source=get("dataset", "source", str, "blobs"),
            images_path=get("dataset", "images_path", str, ""),
            labels_path=get("dataset", "labels_path", str, ""),
            csv_path=get("dataset", "csv_path", str, ""),
            label_column=get("dataset", "label_column", str, "label"),
            blobs=blobs,
            normalize=get("dataset", "normalize", str, "none"),
            subsample=get("dataset", "subsample", int, 0),
            seed=run_seed,
        )
        part = PartitionSpec(
            n_clients=get("partition", "clients", int, 10),
            mode=get("partition", "mode", str, "iid"),
            seed=run_seed,
        )
        fed = FedConfig(
            rounds=get("federation", "rounds", int, 50),
            local_steps=get("federation", "local_steps", int, 3),
            step_size=get("federation", "step_size", float, 1.0),
            server_step_size=get("federation", "server_step_size", float, 1.0),
            aggregation=get("federation", "aggregation", str, "average_landmarks"),
            n_landmarks=get("federation", "landmarks", int, 200),
            init=get("federation", "init", str, "seed_sample"),
            init_scale=get("federation", "init_scale", float, 1.0),
            seed=run_seed,
            workers=workers if workers is not None else get("federation", "workers", int, 1),
        )
        gamma_raw = cp.get("kernel", "gamma") if cp.has_option("kernel", "gamma") else "auto"
        gamma = None if gamma_raw.strip().lower() == "auto" else _typed(
            "kernel", "gamma", gamma_raw, float
        )
        privacy = PrivacySpec(
            mode=get("privacy", "mode", str, "none"),
            sigma=get("privacy", "sigma", float, 0.0),
            beta=get("privacy", "beta", float, 0.0),
            epsilon=get_opt("privacy", "epsilon", float),
            delta=get_opt("privacy", "delta", float),
            tau_x=get_opt("privacy", "tau_x", float),
            tau_y=get_opt("privacy", "tau_y", float),
            upsilon=get_opt("privacy", "upsilon", float),
            seed=run_seed,
        )
        completion = CompletionParams(
            rank_k=get("completion", "rank", int, 0),
            ridge_lambda=get("completion", "ridge", float, 0.0),
            eigen_floor=get("completion", "eigen_floor", float, 1e-12),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    embed_overrides = {}
    if cp.has_section("embedding"):
        for key, conv in _EMBED_KEYS.items():
            if cp.has_option("embedding", key):
                embed_overrides[key] = _typed("embedding", key, cp.get("embedding", key), conv)
    embed_overrides["seed"] = run_seed

    ca_ks = (
        _int_tuple("evaluation", "ca_ks", cp.get("evaluation", "ca_ks"))
        if cp.has_option("evaluation", "ca_ks")
        else (1, 10, 50)
    )
    npa_ks = (
        _int_tuple("evaluation", "npa_ks", cp.get("evaluation", "npa_ks"))
        if cp.has_option("evaluation", "npa_ks")
        else (10,)
    )
    return PipelineConfig(
        dataset=dataset,
        part=part,
        fed=fed,
        gamma=gamma,
        privacy=privacy,
        completion=completion,
        embed_overrides=embed_overrides,
        clusters=get("clustering", "clusters", int, 3),
        ca_ks=ca_ks,
        npa_ks=npa_ks,
        ca_split=get("evaluation", "ca_split", float, 0.7),
        seed=run_seed,
    )


def parse_config_file(path, seed: int | None = None, workers: int | None = None) -> PipelineConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    return parse_config(text, seed=seed, workers=workers)


def _opt_str(v) -> str:
    return "" if v is None else repr(float(v))


def render_manifest(
    cfg: PipelineConfig,
    command: str,
    resolved: dict,
    outputs: list[str],
    embed_resolved: dict | None = None,
) -> str:
    """Serialise a fully resolved run description.

    ``resolved`` carries computed values (kernel bandwidth, ridge, ...);
    ``embed_resolved`` the engine-resolved embedding settings.  The
    result parses back through ``parse_manifest`` into an equivalent
    configuration.
    """
    cp = configparser.ConfigParser(interpolation=None)
    d, b = cfg.dataset, cfg.dataset.blobs
    cp["run"] = {
        "command": command,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": str(cfg.seed),
    }
    cp["dataset"] = {
        "source": d.source,
        "images_path": d.images_path,
        "labels_path": d.labels_path,
        "csv_path": d.csv_path,
        "label_column": d.label_column,
        "normalize": d.normalize,
        "subsample": str(d.subsample),
        "blob_count": str(b.n_blobs),
        "points_per_blob": str(b.points_per_blob),
        "blob_std": repr(b.std),
        "blob_separation": repr(b.separation),
        "blob_dim": str(b.dim),
    }
    cp["partition"] = {"clients": str(cfg.part.n_clients), "mode": cfg.part.mode.value}
    f = cfg.fed
    cp["federation"] = {
        "rounds": str(f.rounds),
        "local_steps": str(f.local_steps),
        "step_size": repr(f.step_size),
        "server_step_size": repr(f.server_step_size),
        "aggregation": f.aggregation.value,
        "landmarks": str(f.n_landmarks),
        "init": f.init.value,
        "init_scale": repr(f.init_scale),
        "workers": str(f.workers),
    }
    cp["kernel"] = {
        "gamma": repr(resolved["gamma"]) if "gamma" in resolved else (
            "auto" if cfg.gamma is None else repr(cfg.gamma)
        )
    }
    p = cfg.privacy
    cp["privacy"] = {
        "mode": p.mode.value,
        "sigma": repr(p.sigma),
        "beta": repr(p.beta),
        "epsilon": _opt_str(p.epsilon),
        "delta": _opt_str(p.delta),
        "tau_x": _opt_str(p.tau_x),
        "tau_y": _opt_str(p.tau_y),
        "upsilon": _opt_str(p.upsilon),
    }
    c = cfg.completion
    cp["completion"] = {
        "rank": str(c.rank_k),
        "ridge": repr(c.ridge_lambda),
        "eigen_floor": repr(c.eigen_floor),
    }
    emb = dict(embed_resolved or cfg.embed_overrides)
    emb.pop("seed", None)
    if emb:
        cp["embedding"] = {
            k: (repr(v) if isinstance(v, float) else str(v)) for k, v in emb.items()
        }
    cp["clustering"] = {"clusters": str(cfg.clusters)}
    cp["evaluation"] = {
        "ca_ks": " ".join(map(str, cfg.ca_ks)),
        "npa_ks": " ".join(map(str, cfg.npa_ks)),
        "ca_split": repr(cfg.ca_split),
    }
    extra = {k: v for k, v in resolved.items() if k != "gamma"}
    if extra:
        cp["resolved"] = {k: str(v) for k, v in extra.items()}
    cp["outputs"] = {f"file{i}": name for i, name in enumerate(outputs)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_manifest(text: str) -> tuple[str, PipelineConfig]:
    """Recover the command and configuration from a manifest."""
    cp = _read_ini(text)
    if not cp.has_option("run", "command"):
        raise ConfigError("manifest has no [run] command entry")
    command = cp.get("run", "command")
    return command, parse_config(text)
