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

Every key is one row of ``_SCHEMA``, the one place to add a key: the
unknown-key check, ``parse_config`` and ``render_manifest`` all loop over
it, and defaults come only from the dataclasses the rows fill.
"""

from __future__ import annotations

import configparser
import io
import math
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from enum import Enum

from . import __version__
from .data import BlobSpec, DatasetSpec, PartitionSpec
from .embed import EmbedConfig
from .errors import ConfigError
from .federation import FedConfig
from .nystrom import CompletionParams
from .privacy import PrivacySpec

__all__ = ["PipelineConfig", "parse_config", "parse_config_file", "render_manifest", "parse_manifest"]


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

    def __post_init__(self) -> None:
        if self.gamma is not None and not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        for name in ("ca_ks", "npa_ks"):
            if any(k < 1 for k in getattr(self, name)):
                raise ValueError(f"{name} entries must be >= 1, got {getattr(self, name)}")
        if not 0 < self.ca_split < 1:
            raise ValueError(f"ca_split must lie in (0, 1), got {self.ca_split!r}")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _auto_float(raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else float(raw)


def _opt_float(raw: str) -> float | None:
    return None if raw.strip() == "" else float(raw)


# (section, key, part, field, type).  ``part`` names where ``field``
# lives: "" is PipelineConfig itself, "blobs" is ``dataset.blobs``, any
# other name the PipelineConfig attribute of that name.  ``type`` parses
# the raw text.  Manifests write sections and keys in this order.
_SCHEMA = (
    ("run", "seed", "", "seed", int),
    ("dataset", "source", "dataset", "source", str),
    ("dataset", "images_path", "dataset", "images_path", str),
    ("dataset", "labels_path", "dataset", "labels_path", str),
    ("dataset", "csv_path", "dataset", "csv_path", str),
    ("dataset", "label_column", "dataset", "label_column", str),
    ("dataset", "normalize", "dataset", "normalize", str),
    ("dataset", "subsample", "dataset", "subsample", int),
    ("dataset", "blob_count", "blobs", "n_blobs", int),
    ("dataset", "points_per_blob", "blobs", "points_per_blob", int),
    ("dataset", "blob_std", "blobs", "std", float),
    ("dataset", "blob_separation", "blobs", "separation", float),
    ("dataset", "blob_dim", "blobs", "dim", int),
    ("partition", "clients", "part", "n_clients", int),
    ("partition", "mode", "part", "mode", str),
    ("federation", "rounds", "fed", "rounds", int),
    ("federation", "local_steps", "fed", "local_steps", int),
    ("federation", "step_size", "fed", "step_size", float),
    ("federation", "server_step_size", "fed", "server_step_size", float),
    ("federation", "aggregation", "fed", "aggregation", str),
    ("federation", "landmarks", "fed", "n_landmarks", int),
    ("federation", "init", "fed", "init", str),
    ("federation", "init_scale", "fed", "init_scale", float),
    ("federation", "workers", "fed", "workers", int),
    ("kernel", "gamma", "", "gamma", _auto_float),
    ("privacy", "mode", "privacy", "mode", str),
    ("privacy", "sigma", "privacy", "sigma", float),
    ("privacy", "beta", "privacy", "beta", float),
    ("privacy", "epsilon", "privacy", "epsilon", _opt_float),
    ("privacy", "delta", "privacy", "delta", _opt_float),
    ("privacy", "tau_x", "privacy", "tau_x", _opt_float),
    ("privacy", "tau_y", "privacy", "tau_y", _opt_float),
    ("privacy", "upsilon", "privacy", "upsilon", _opt_float),
    ("completion", "rank", "completion", "rank_k", int),
    ("completion", "ridge", "completion", "ridge_lambda", float),
    ("completion", "eigen_floor", "completion", "eigen_floor", float),
    *(
        ("embedding", f.name, "embed_overrides", f.name, type(f.default))
        for f in fields(EmbedConfig)
        if f.name != "seed"  # always the run seed
    ),
    ("clustering", "clusters", "", "clusters", int),
    ("evaluation", "ca_ks", "", "ca_ks", _ints),
    ("evaluation", "npa_ks", "", "npa_ks", _ints),
    ("evaluation", "ca_split", "", "ca_split", float),
)

# The table's keys plus the bookkeeping keys a manifest writes to [run].
_KEYS = {(section, key) for section, key, *_ in _SCHEMA} | {
    ("run", "command"),
    ("run", "version"),
    ("run", "created"),
}
_SECTIONS = {section for section, _ in _KEYS}


def _read_ini(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc
    for section in cp.sections():
        if section in ("resolved", "outputs", "eval_inputs"):
            continue  # manifest-only bookkeeping sections
        if section not in _SECTIONS:
            raise ConfigError(f"unknown configuration section [{section}]")
        for key in cp[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return cp


def parse_config(
    text: str, seed: int | None = None, workers: int | None = None
) -> PipelineConfig:
    """Parse configuration text, applying optional CLI overrides."""
    cp = _read_ini(text)
    given = defaultdict(dict)  # part -> {field: value} of the keys present
    for section, key, part, name, conv in _SCHEMA:
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            try:
                given[part][name] = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    top = given[""]
    if seed is not None:
        top["seed"] = seed
    if workers is not None:
        given["fed"]["workers"] = workers
    run_seed = top.setdefault("seed", PipelineConfig.seed)

    try:
        blobs = BlobSpec(**given["blobs"])
        top["dataset"] = DatasetSpec(blobs=blobs, seed=run_seed, **given["dataset"])
        top["part"] = PartitionSpec(seed=run_seed, **given["part"])
        top["fed"] = FedConfig(seed=run_seed, **given["fed"])
        top["privacy"] = PrivacySpec(seed=run_seed, **given["privacy"])
        top["completion"] = CompletionParams(**given["completion"])
        top["embed_overrides"] = {**given["embed_overrides"], "seed": run_seed}
        return PipelineConfig(**top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path, seed: int | None = None, workers: int | None = None) -> PipelineConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    return parse_config(text, seed=seed, workers=workers)


def _text(value, conv) -> str:
    """``value`` as manifest text that ``conv`` parses back to it."""
    if value is None:
        return "auto" if conv is _auto_float else ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value)


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
    extra = dict(resolved)
    if "gamma" in extra:
        cfg = replace(cfg, gamma=extra.pop("gamma"))
    values = {
        "": vars(cfg),
        "dataset": vars(cfg.dataset),
        "blobs": vars(cfg.dataset.blobs),
        "part": vars(cfg.part),
        "fed": vars(cfg.fed),
        "privacy": vars(cfg.privacy),
        "completion": vars(cfg.completion),
        "embed_overrides": embed_resolved or cfg.embed_overrides,
    }
    sections = {
        "run": {
            "command": command,
            "version": __version__,
            "created": datetime.now(timezone.utc).isoformat(),
        }
    }
    for section, key, part, name, conv in _SCHEMA:
        if name in values[part]:  # embedding keys: only those set
            sections.setdefault(section, {})[key] = _text(values[part][name], conv)
    if extra:
        sections["resolved"] = {k: str(v) for k, v in extra.items()}
    sections["outputs"] = {f"file{i}": name for i, name in enumerate(outputs)}
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
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
