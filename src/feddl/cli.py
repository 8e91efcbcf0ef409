"""Command-line interface.

Exit codes: 0 success, 2 configuration errors, 3 data errors,
4 numerical failures (divergence, non-finite values).
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import __version__
from .config import parse_config_file
from .errors import ConfigError, DataError, NumericalAbort
from . import pipeline

_EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalAbort: 4}


def _run(fn):
    """Translate library exceptions into exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, DataError, NumericalAbort) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_EXIT_CODES[type(exc)])

    return wrapper


def _common_options(fn):
    fn = click.option(
        "--config",
        "config_path",
        required=True,
        type=click.Path(exists=False),
        help="INI configuration file.",
    )(fn)
    fn = click.option(
        "--out-dir",
        required=True,
        type=click.Path(file_okay=False),
        help="Directory for run artefacts (created if absent).",
    )(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the run seed.")(fn)
    fn = click.option(
        "--workers",
        type=int,
        default=None,
        help="Simulated clients stepped concurrently (results are worker-count invariant).",
    )(fn)
    return fn


def _load_cfg(config_path, seed, workers):
    if not Path(config_path).exists():
        raise ConfigError(f"config file not found: {config_path}")
    return parse_config_file(config_path, seed=seed, workers=workers)


def _report(outputs):
    for name in sorted(outputs.files):
        click.echo(f"wrote {outputs.files[name]}")
    if outputs.metrics is not None:
        for metric, value in outputs.metrics.rows():
            click.echo(f"{metric} = {value:.4f}")


@click.group()
@click.version_option(__version__, prog_name="feddl")
def main():
    """Federated distance learning: landmark training, matrix completion,
    embedding, and clustering over horizontally partitioned data."""


def _pipeline_command(name: str, entry) -> None:
    """Register ``feddl <name>``, which runs the pipeline entry point ``entry``."""

    @main.command(name=name, help=entry.__doc__)
    @_common_options
    @_run
    def command(config_path, out_dir, seed, workers):
        _report(entry(_load_cfg(config_path, seed, workers), out_dir))


for _name, _entry in pipeline.COMMANDS.items():
    _pipeline_command(_name, _entry)


@main.command(name="eval")
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None)
@click.option(
    "--embedding",
    "embedding_path",
    required=True,
    type=click.Path(exists=False),
    help="Embedding CSV produced by tsne/umap.",
)
@click.option(
    "--distances",
    "distances_path",
    default=None,
    type=click.Path(exists=False),
    help="Completed distance matrix (.fdlm) for neighbourhood preservation.",
)
@_run
def eval_cmd(config_path, out_dir, seed, embedding_path, distances_path):
    """Metrics for a stored embedding."""
    cfg = _load_cfg(config_path, seed, None)
    if not Path(embedding_path).exists():
        raise DataError(f"embedding file not found: {embedding_path}")
    if distances_path and not Path(distances_path).exists():
        raise DataError(f"distance file not found: {distances_path}")
    _report(pipeline.run_eval(cfg, out_dir, embedding_path, distances_path))


@main.command()
@click.option("--embedding", "embedding_path", required=True, type=click.Path(exists=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--title", default="", help="Plot title.")
@_run
def plot(embedding_path, out_dir, title):
    """Scatter SVG from a stored embedding CSV."""
    if not Path(embedding_path).exists():
        raise DataError(f"embedding file not found: {embedding_path}")
    _report(pipeline.run_plot(out_dir, embedding_path, title=title))


@main.group()
def manifest():
    """Operations on saved run manifests."""


@manifest.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--workers", type=int, default=None)
@_run
def rerun(manifest_path, out_dir, workers):
    """Re-execute a saved manifest; outputs land in --out-dir."""
    if not Path(manifest_path).exists():
        raise ConfigError(f"manifest file not found: {manifest_path}")
    _report(pipeline.rerun_manifest(manifest_path, out_dir, workers=workers))


if __name__ == "__main__":
    main()
