"""feddl benchmark: run one workload in fresh processes, check, report.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload tsne-iid --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

The workload's points are generated from ``--seed`` and written as a CSV
that the pipeline loads with ``source = csv``.  Every pipeline run is a
fresh ``python3 bench/worker.py`` process, one after another, for about
``--seconds`` seconds.  ``--trace 0`` reports the end-to-end metrics of
untraced runs; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones plus the tracing
overhead.  Every run's outputs are checked; a run that exits non-zero or
fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report with provenance.  BLAS runs on one thread
(``BLAS_THREADS``) so that the 2-worker client pool of ``umap-dpgrad``
never asks for more threads than a 2-core machine has.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_THREADS = 1
# Set before numpy loads, for this process (which times the reference
# kernel) and, inherited, for every worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

#: uncounted set-up probe first (byte-compiles the package, warms the file cache)
SETUP_WARMUP = 1
#: set-up-only processes per invocation, on top of one sample per pipeline run
SETUP_PROBES = 2
#: every process of one invocation ends within this many seconds of its start
HARD_LIMIT_S = 170.0
#: artifacts that carry wall-clock times and are declared not byte-stable
UNSTABLE_FILES = {"manifest.ini", "trace.csv"}
#: Machine-speed scale for the reported times: a time ``t`` measured in a
#: worker is reported as ``t * REF_NOMINAL_S / ref_s``, where ``ref_s`` is
#: the mean time of the ``Reference`` kernel right before and right after
#: that worker.  The host's speed drifts by 20-30 % over seconds to tens of
#: seconds (other tenants of a shared machine), which moves raw wall times
#: more than the bounds allow; scaling cancels much of that drift.  Raw
#: times are printed too.
REF_NOMINAL_S = 0.15
#: tolerance of the monotone-objective check (the repo's tests use the same)
MONOTONE_TOL = 1e-9
NMI_TOL = 1e-9


class CheckoutError(Exception):
    """The directory is not a feddl checkout the benchmark can run in."""


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("FEDDL_DATA_DIR", None)
    return env


class Reference:
    """A fixed numpy kernel that mixes the pipeline's kinds of work.

    A 500 x 500 GEMM with elementwise reciprocal and log, a Student-t
    loss-and-gradient pass over 600 points (n x n elementwise work and thin
    products), and an exp streamed over an 18 MB array.  It runs in this
    process, between workers, so it moves neither the workers' memory nor
    their timings, and it calls nothing in feddl, so no change to the
    program can move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.A = rng.random((500, 500))
        self.Y = rng.normal(size=(600, 2))
        self.P = rng.random((600, 600))
        self.P /= self.P.sum()
        self.B = rng.random((1500, 1500))
        self.time_s()  # first touch of every buffer

    def time_s(self) -> float:
        A, Y, P, B = self.A, self.Y, self.P, self.B
        t = time.perf_counter()
        for _ in range(16):
            W = 1.0 / (1.0 + 1e-2 * (A @ A.T))
            (np.log(W) @ A[:, :2]).sum()
        for _ in range(6):
            sq = np.einsum("ij,ij->i", Y, Y)
            W = 1.0 / (1.0 + np.maximum(sq[:, None] - 2.0 * (Y @ Y.T) + sq[None, :], 0.0))
            np.fill_diagonal(W, 0.0)
            Q = W / W.sum()
            PQ = (P - Q) * W
            PQ.sum(axis=1)[:, None] * Y - PQ @ Y
            np.sum(P * np.log(np.maximum(P, 1e-12) / np.maximum(Q, 1e-12)))
        for _ in range(2):
            E = np.exp(-B)
            E.sum(axis=0)
            (E @ B[:, :64]).sum()
        return time.perf_counter() - t


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(wl: Workload, seed: int, csv_bytes: int) -> dict:
    import scipy

    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "n": wl.n_points,
        "m": wl.dim,
        "landmarks": wl.n_landmarks,
        "clients": wl.n_clients,
        "csv_bytes": csv_bytes,
    }


class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, work: Path, wl: Workload, started: float) -> None:
        self.work = work
        self.wl = wl
        self.hard_deadline = started + HARD_LIMIT_S
        self.env = child_env()
        self.count = 0
        self.reference = Reference()

    def spawn(self, mode: str, config: Path, keep_spans: bool = False) -> tuple[dict | None, str, Path]:
        """Run one worker; returns (result or None, error text, output dir)."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out_dir = self.work / f"out-{tag}"
        job = {
            "config": str(config),
            "command": self.wl.command,
            "out_dir": str(out_dir),
            "mode": mode,
            "result": str(self.work / f"result-{tag}.json"),
            "keep_spans": keep_spans,
        }
        job_path = self.work / f"job-{tag}.json"
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            return None, "no time left before the hard limit", out_dir
        ref_before = self.reference.time_s()
        job["spawned_at"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"worker {tag} killed after {timeout:.0f} s", out_dir
        if proc.returncode != 0:
            return None, f"worker {tag} exited {proc.returncode}: {err.strip()[-400:]}", out_dir
        try:
            with open(job["result"]) as f:
                result = json.load(f)
        except (OSError, ValueError) as exc:
            return None, f"worker {tag} wrote no result: {exc}", out_dir
        result["ref_s"] = 0.5 * (ref_before + self.reference.time_s())
        return result, "", out_dir


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_metrics_csv(path: Path) -> dict:
    with open(path, newline="") as f:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(f)}


def own_nmi(a: list, b: list) -> float:
    """NMI ``I(a;b) / sqrt(H(a) H(b))``, computed without feddl."""
    n = len(a)
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    if ha == 0.0 or hb == 0.0:
        return 1.0 if ha == hb == 0.0 else 0.0
    mi = sum(c / n * math.log(n * c / (ca[x] * cb[y])) for (x, y), c in cab.items())
    return mi / math.sqrt(ha * hb)


def check_outputs(wl: Workload, out_dir: Path, result: dict) -> tuple[list[str], dict, dict]:
    """Checks one run's outputs; returns (problems, artifact hashes, quality values)."""
    problems = []
    hashes = {
        p.name: sha256(p)
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in UNSTABLE_FILES
    }
    metrics = read_metrics_csv(out_dir / "metrics.csv")
    quality = {"nmi": metrics.get("nmi")}
    if quality["nmi"] is None:
        problems.append("metrics.csv has no nmi")
    if wl.command == "speclust":
        with open(out_dir / "labels.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != wl.n_points:
            problems.append(f"labels.csv has {len(rows)} rows, expected {wl.n_points}")
        mine = own_nmi([r["label"] for r in rows], [r["true_label"] for r in rows])
        if quality["nmi"] is not None and abs(mine - quality["nmi"]) > NMI_TOL:
            problems.append(f"nmi {quality['nmi']!r} in metrics.csv, {mine!r} from labels.csv")
    else:
        with open(out_dir / "embedding.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        coords = [float(v) for r in rows for v in r[1:-1]]
        if len(rows) != wl.n_points:
            problems.append(f"embedding.csv has {len(rows)} rows, expected {wl.n_points}")
        if not all(math.isfinite(v) for v in coords):
            problems.append("embedding has non-finite coordinates")
        trace = result.get("objective_trace") or []
        first = 0
        if wl.command == "tsne":
            first = int(wl.sections["embedding"]["early_exaggeration_iters"])
        rises = [b - a for a, b in zip(trace[first:], trace[first + 1 :]) if b - a > MONOTONE_TOL]
        if not trace:
            problems.append("no objective trace")
        elif rises:
            problems.append(f"objective rises {len(rises)} times after iteration {first}")
        quality.update(
            npa_10=metrics.get("npa_knn_10"),
            ca_10=metrics.get("ca_knn_10"),
            embed_loss_final=trace[-1] if trace else None,
        )
        if None in quality.values():
            problems.append("metrics.csv lacks npa_knn_10 or ca_knn_10")
    return problems, hashes, quality


def median(values) -> float:
    return float(statistics.median(values))


def measure(wl: Workload, seed: int, seconds: int, trace: bool, work: Path, started: float) -> dict:
    """Run the workload; returns samples, check results and provenance."""
    work.mkdir(parents=True)
    csv_path = work / "points.csv"
    csv_bytes = write_inputs(wl, seed, csv_path)
    config = work / "config.ini"
    config.write_text(wl.config_text(csv_path, seed))
    runner = Runner(work, wl, started)

    state = {
        "provenance": provenance(wl, seed, csv_bytes),
        "setup": [],
        "runs": {"run": [], "trace": []},
        "wall": {"run": [], "trace": []},
        "attempted": 0,
        "problems": [],
        "reference": None,
        "quality": None,
        "upload": set(),
    }

    def pipeline_run(mode: str, cfg_path: Path, what: str) -> bool:
        state["attempted"] += 1
        t0 = time.monotonic()
        result, err, out_dir = runner.spawn(mode, cfg_path)
        problems = [err] if result is None else []
        if result is not None:
            state["setup"].append(result)
            try:
                found, hashes, quality = check_outputs(wl, out_dir, result)
            except (OSError, KeyError, ValueError) as exc:
                found, hashes, quality = [f"unreadable output: {exc!r}"], {}, None
            problems += found
            if state["reference"] is None and quality is not None:
                state["reference"], state["quality"] = hashes, quality
            elif hashes != state["reference"]:
                diff = sorted(k for k in set(hashes) | set(state["reference"])
                              if hashes.get(k) != state["reference"].get(k))
                problems.append(f"{what} artifacts differ from the first run: {diff}")
            state["upload"].add(result["upload_bytes"])
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            state["problems"].append(f"{what}: " + "; ".join(problems))
        elif mode in state["runs"]:
            state["runs"][mode].append(result)
            state["wall"][mode].append(time.monotonic() - t0)
        return not problems

    for i in range(SETUP_WARMUP + SETUP_PROBES):
        result, err, _ = runner.spawn("setup", config)
        if result is None:
            raise CheckoutError(f"set-up probe failed: {err}")
        if i >= SETUP_WARMUP:
            state["setup"].append(result)

    modes = ["run", "trace"] if trace else ["run"]
    deadline = time.monotonic() + seconds
    k = 0
    while True:
        mode = modes[k % len(modes)]
        walls = state["wall"][mode]
        done_once = all(state["wall"][m] for m in modes)
        if done_once and time.monotonic() + max(walls) > deadline:
            break
        if not pipeline_run(mode, config, f"{mode} {k + 1}") and not done_once and k >= 2 * len(modes):
            break  # keeps failing; report it instead of looping to the hard limit
        k += 1
        if time.monotonic() > runner.hard_deadline - 1:
            break

    if wl.check_workers:
        config1 = work / "config-workers1.ini"
        config1.write_text(wl.config_text(csv_path, seed, workers=1))
        pipeline_run("run-workers1", config1, "workers=1 run")
    if len(state["upload"]) > 1:
        state["problems"].append(f"upload volume differs between runs: {sorted(state['upload'])}")
    return state


def scaled(results: list, key: str) -> list:
    """``key`` of each worker result, scaled to the nominal machine speed."""
    return [r[key] * REF_NOMINAL_S / r["ref_s"] for r in results]


def end_to_end(wl: Workload, state: dict) -> dict:
    runs = state["runs"]["run"]
    upload = next(iter(state["upload"]))
    values = {
        "run_s": median(scaled(runs, "run_s")),
        "setup_s": median(scaled(state["setup"], "setup_s")),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "upload_kb_per_client": upload / 1024.0 / wl.n_clients,
    }
    values.update({k: v for k, v in state["quality"].items() if v is not None})
    return values


def per_layer(state: dict) -> dict:
    traced = state["runs"]["trace"]
    keys = traced[0]["layers"].keys()
    values = {k: median(r["layers"][k] for r in traced) for k in keys}
    untraced = median(scaled(state["runs"]["run"], "run_s"))
    values["trace.overhead_frac"] = median(scaled(traced, "run_s")) / untraced - 1.0
    q = state["quality"]
    values["metrics.npa_10"] = q.get("npa_10") or 0.0
    values["metrics.ca_10"] = q.get("ca_10") or 0.0
    values["embed.loss_final"] = q.get("embed_loss_final") or 0.0
    return values


def report(wl: Workload, state: dict, trace: bool, declared: dict) -> dict:
    """Prints the human-readable report and returns the result object."""
    attempted = state["attempted"]
    failed = len(state["problems"])
    print(f"# provenance {json.dumps(state['provenance'], sort_keys=True)}")
    n_run, n_setup = len(state["runs"]["run"]), len(state["setup"])
    print(f"# {wl.name}: {attempted} pipeline runs, {failed} failed; "
          f"{n_run} untraced, {len(state['runs']['trace'])} traced; {n_setup} set-up samples")
    for p in state["problems"]:
        print(f"# FAILED {p}")
    if not state["runs"]["run"] or (trace and not state["runs"]["trace"]):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    e2e = end_to_end(wl, state)
    runs = state["runs"]["run"]
    samples = {
        "run_s": scaled(runs, "run_s"),
        "setup_s": scaled(state["setup"], "setup_s"),
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "run_s raw": [r["run_s"] for r in runs],
        "setup_s raw": [r["setup_s"] for r in state["setup"]],
        "ref_s": [r["ref_s"] for r in state["setup"]],
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update(npa_10="1", ca_10="1", embed_loss_final="nats")
    print(f"# end-to-end (untraced; medians; times scaled by {REF_NOMINAL_S} s / ref_s)")
    for name, value in e2e.items():
        print(f"#   {name:<22} {value:>14.6f} {units[name]}")
    print(f"#   {'failed_frac':<22} {failed / attempted:>14.6f} ratio")
    for name, values in samples.items():
        print(f"# samples {name} (n={len(values)}): {' '.join(f'{v:.4f}' for v in values)}")

    if trace:
        layers = per_layer(state)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        print(f"# per-layer (traced; median of {len(state['runs']['trace'])} runs)")
        for name in units:
            print(f"#   {name:<36} {layers[name]:>14.6f} {units[name]}")
        chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in declared["per_layer"]}
    else:
        chosen = {m["name"]: (e2e[m["name"]], m["unit"]) for m in declared["end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def run_one(wl: Workload, seed: int, seconds: int, trace: bool, declared: dict) -> dict:
    """Measure, check and report one workload; returns the result object."""
    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    try:
        state = measure(wl, seed, seconds, trace, work, started)
        return report(wl, state, trace, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "feddl" / "pipeline.py").is_file():
        print(f"error: {ROOT} holds no feddl sources (src/feddl)", file=sys.stderr)
        return 2
    declared = load_declared()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_one(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), declared)
        except CheckoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not result["metrics"]:
            print(f"error: {name}: no run succeeded", file=sys.stderr)
            return 1
        print(json.dumps({"workload": name, **result} if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
