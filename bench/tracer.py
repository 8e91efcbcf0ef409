"""Spans around the calls into each feddl layer, recorded from outside.

``Tracer.install`` replaces module-level names with timing wrappers.
``from .kernels import pairwise_sq_dist`` binds a name per importing
module, so each wrapper sits on the name in the *calling* module (the
``WRAPPED`` table), never on the defining one alone.  Spans started on a
pool thread with no open span of their own are parented to the span open
on the main thread, which is the ``run_feddl`` call waiting on the pool.

``layer_metrics`` turns the recorded spans into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Span", "Tracer", "WRAPPED", "UPLOADS", "upload_bytes", "layer_metrics", "peak_rss_mb", "union_s"]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB.

    ``VmHWM`` counts only this program image.  ``ru_maxrss`` is the
    fallback where ``/proc`` is missing; on Linux it also carries the
    parent's RSS at the time of ``exec``, so a large parent would floor it.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arrays_nbytes(arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


def _upload_nbytes(args, kwargs, result) -> dict:
    return {"bytes": _arrays_nbytes(args[0])}


def _file_nbytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _completed_nbytes(args, kwargs, result) -> dict:
    return {"bytes": int(result.values.nbytes), "rss_mb": peak_rss_mb()}


def _fallbacks(args, kwargs, result) -> dict:
    return {"fallback_rows": len(result.fallback_rows)}


def _descent_info(args, kwargs, result) -> dict:
    return {
        "damped_steps": int(result.diagnostics.get("damped_steps", 0)),
        "iterations": len(result.objective_trace) - 1,
        "rss_mb": peak_rss_mb(),
    }


def _stage_rss(args, kwargs, result) -> dict:
    return {"rss_mb": peak_rss_mb()}


# (module, attribute, span name, info hook).  The attribute is looked up
# in the module that *calls* it.
WRAPPED = [
    ("feddl.pipeline", "load_dataset", "data.load", None),
    ("feddl.pipeline", "run_feddl", "federation.fit", _stage_rss),
    ("feddl.federation", "local_update", "federation.local_update", None),
    ("feddl.federation", "aggregate", "federation.aggregate", _upload_nbytes),
    ("feddl.federation", "perturb_gradient", "privacy.perturb", None),
    ("feddl.federation", "mmd_gradient", "kernels.mmd_gradient", None),
    ("feddl.kernels", "pairwise_sq_dist", "kernels.pairwise_sq_dist", None),
    ("feddl.pipeline", "pairwise_sq_dist", "nystrom.client_block", None),
    ("feddl.pipeline", "gaussian_kernel", "nystrom.client_block", None),
    ("feddl.pipeline", "assemble_cross_block", "nystrom.assemble", _upload_nbytes),
    ("feddl.pipeline", "nystrom_complete", "nystrom.complete", _completed_nbytes),
    ("feddl.pipeline", "tsne_affinities", "embed.affinities", _fallbacks),
    ("feddl.pipeline", "umap_graph", "embed.affinities", _fallbacks),
    ("feddl.pipeline", "tsne_embed", "embed.descent", _descent_info),
    ("feddl.pipeline", "umap_embed", "embed.descent", _descent_info),
    ("feddl.embed", "tsne_kl_gradient", "embed.loss_grad", None),
    ("feddl.embed", "umap_ce_gradient", "embed.loss_grad", None),
    ("feddl.pipeline", "spectral_cluster", "clustering.spectral", _stage_rss),
    ("feddl.pipeline", "kmeans", "clustering.kmeans", _stage_rss),
    ("feddl.clustering", "kmeans", "clustering.kmeans", None),
    ("feddl.pipeline", "ca_knn", "metrics.eval", None),
    ("feddl.pipeline", "npa_knn", "metrics.npa", None),
    ("feddl.pipeline", "silhouette", "metrics.eval", None),
    ("feddl.pipeline", "nmi", "metrics.eval", None),
    ("feddl.pipeline", "ari", "metrics.eval", None),
    ("feddl.pipeline", "write_matrix", "matrixio.write", _file_nbytes),
    ("feddl.pipeline", "write_embedding_csv", "matrixio.write", _file_nbytes),
    ("feddl.pipeline", "write_labels_csv", "matrixio.write", _file_nbytes),
    ("feddl.pipeline", "write_metrics_csv", "matrixio.write", _file_nbytes),
    ("feddl.pipeline", "write_trace_csv", "matrixio.write", _file_nbytes),
    ("feddl.pipeline", "emit_scatter_svg", "plotting.svg", None),
]

#: spans whose ``bytes`` are what clients hand to the server
UPLOADS = ("federation.aggregate", "nystrom.assemble")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory for the life of the process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            main = self._stacks.get(threading.main_thread().ident) or []
            parent = main[-1].id if main and tid != threading.main_thread().ident else None
        with self._lock:
            span = Span(id=len(self.spans), name=name, parent=parent, start=0.0, thread=tid)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    def call(self, name: str, fn, *args, info=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if info is not None:
            span.info.update(info(args, kwargs, result))
        return result

    def wrap(self, module_name: str, attr: str, name: str, info=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, info=info, **kwargs)

        setattr(module, attr, wrapper)

    def install(self, only=None) -> "Tracer":
        """Wrap every ``WRAPPED`` entry, or those whose span name is in ``only``."""
        for module_name, attr, name, info in WRAPPED:
            if only is None or name in only:
                self.wrap(module_name, attr, name, info)
        return self


def upload_bytes(spans: list[Span]) -> int:
    """Bytes clients handed to the server: updates aggregated plus completion blocks."""
    return int(sum(s.info["bytes"] for s in spans if s.name in UPLOADS))


def union_s(intervals, lo: float = -np.inf, hi: float = np.inf) -> float:
    """Total length of the union of ``(start, end)`` intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: list[Span], run_span: Span, round_ms: list[float]) -> dict:
    """Per-layer metrics from one traced run.

    ``run_span`` is the span around the whole ``run_fed_*`` call;
    ``round_ms`` is the per-round wall time the program logs in
    ``trace.csv``.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return float(sum(s.dur for s in named(*names)))

    def count(*names):
        return len(named(*names))

    def self_s(span_list):
        return float(
            sum(
                s.dur - union_s([(c.start, c.end) for c in children.get(s.id, [])], s.start, s.end)
                for s in span_list
            )
        )

    def info_sum(name, key):
        return int(sum(s.info.get(key, 0) for s in named(name)))

    def rss_at_end(*names):  # ru_maxrss never falls, so the last is the max
        found = named(*names)
        return max((s.info.get("rss_mb", 0.0) for s in found), default=0.0)

    top = children.get(run_span.id, [])
    covered = union_s([(c.start, c.end) for c in top], run_span.start, run_span.end)
    local = named("federation.local_update")
    local_busy = total("federation.local_update")
    local_wall = union_s([(s.start, s.end) for s in local])
    loss_ms = np.array([s.dur * 1e3 for s in named("embed.loss_grad")])
    descent = named("embed.descent")
    iterations = sum(s.info.get("iterations", 0) for s in descent)

    return {
        "pipeline.run_s": run_span.dur,
        "pipeline.self_s": run_span.dur - covered,
        "trace.coverage": covered / run_span.dur,
        "data.load_s": total("data.load"),
        "privacy.perturb_calls": count("privacy.perturb"),
        "privacy.perturb_s": total("privacy.perturb"),
        "federation.fit_s": total("federation.fit"),
        "federation.server_self_s": self_s(named("federation.fit")),
        "federation.local_update_calls": len(local),
        "federation.local_update_busy_s": local_busy,
        "federation.client_parallelism": local_busy / local_wall if local_wall > 0 else 0.0,
        "federation.aggregate_calls": count("federation.aggregate"),
        "federation.upload_bytes": upload_bytes(spans),
        "federation.round_ms_p50": float(np.median(round_ms)) if round_ms else 0.0,
        "kernels.pairwise_sq_dist_calls": count("kernels.pairwise_sq_dist"),
        "kernels.pairwise_sq_dist_s": total("kernels.pairwise_sq_dist"),
        "kernels.mmd_gradient_calls": count("kernels.mmd_gradient"),
        "kernels.mmd_gradient_s": total("kernels.mmd_gradient"),
        "nystrom.client_blocks_s": total("nystrom.client_block", "nystrom.assemble"),
        "nystrom.block_bytes": info_sum("nystrom.assemble", "bytes"),
        "nystrom.complete_s": total("nystrom.complete"),
        "nystrom.completed_mb": info_sum("nystrom.complete", "bytes") / 2**20,
        "embed.affinities_s": total("embed.affinities"),
        "embed.fallback_rows": info_sum("embed.affinities", "fallback_rows"),
        "embed.descent_s": total("embed.descent"),
        "embed.descent_self_s": self_s(descent),
        "embed.loss_grad_calls": int(loss_ms.size),
        "embed.loss_grad_s": float(loss_ms.sum() / 1e3),
        "embed.loss_grad_ms_p50": float(np.percentile(loss_ms, 50)) if loss_ms.size else 0.0,
        "embed.loss_grad_ms_p95": float(np.percentile(loss_ms, 95)) if loss_ms.size else 0.0,
        "embed.loss_grad_calls_per_iter": loss_ms.size / iterations if iterations else 0.0,
        "embed.damped_steps": info_sum("embed.descent", "damped_steps"),
        "clustering.spectral_s": total("clustering.spectral"),
        "clustering.kmeans_calls": count("clustering.kmeans"),
        "clustering.kmeans_s": total("clustering.kmeans"),
        "metrics.eval_s": total("metrics.eval", "metrics.npa"),
        "metrics.npa_s": total("metrics.npa"),
        "matrixio.write_s": total("matrixio.write"),
        "matrixio.bytes_written": info_sum("matrixio.write", "bytes"),
        "plotting.svg_s": total("plotting.svg"),
        "federation.rss_hwm_mb": rss_at_end("federation.fit"),
        "nystrom.rss_hwm_mb": rss_at_end("nystrom.complete"),
        "embed.rss_hwm_mb": rss_at_end("embed.descent"),
        "clustering.rss_hwm_mb": rss_at_end("clustering.spectral", "clustering.kmeans"),
    }
