"""One pipeline run in a fresh interpreter.

Usage: ``python3 bench/worker.py JOB.json`` with ``src`` on ``PYTHONPATH``.
The job names the INI configuration, the pipeline command, the output
directory, the parent's ``time.monotonic()`` just before it started this
process, and the mode:

* ``setup``: import the CLI and parse the configuration, then stop;
* ``run``: also run ``run_fed_<command>``, with spans only on the uploads;
* ``trace``: run it with every layer wrapped in spans.

The result is written as JSON to the job's ``result`` path.
"""

import json
import sys
import time


def main(job_path: str) -> None:
    with open(job_path) as f:
        job = json.load(f)

    import feddl.cli  # noqa: F401  (what ``feddl <command>`` imports before it runs)
    from feddl import pipeline
    from feddl.config import parse_config_file

    cfg = parse_config_file(job["config"])
    result = {"setup_s": time.monotonic() - job["spawned_at"]}
    if job["mode"] != "setup":
        result.update(run(pipeline, cfg, job))
    with open(job["result"], "w") as f:
        json.dump(result, f)


def run(pipeline, cfg, job) -> dict:
    import csv
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import UPLOADS, Tracer, layer_metrics, peak_rss_mb, upload_bytes

    fn = getattr(pipeline, f"run_fed_{job['command']}")
    traced = job["mode"] == "trace"
    tracer = Tracer().install(only=None if traced else UPLOADS)
    t0 = time.perf_counter()
    out = tracer.call("pipeline.run", fn, cfg, job["out_dir"])
    run_s = time.perf_counter() - t0

    result = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "upload_bytes": upload_bytes(tracer.spans),
    }
    if out.embedding is not None:
        result["objective_trace"] = [float(v) for v in out.embedding.objective_trace]
    if traced:
        with open(Path(job["out_dir"]) / "trace.csv", newline="") as f:
            rounds = {(r["round"], r["elapsed_ms"]) for r in csv.DictReader(f)}
        round_ms = [float(ms) for _, ms in sorted(rounds, key=lambda r: int(r[0]))]
        result["layers"] = layer_metrics(tracer.spans, tracer.spans[0], round_ms)
        if job.get("keep_spans"):
            result["spans"] = [
                [s.id, s.name, s.parent, s.start, s.end, s.thread] for s in tracer.spans
            ]
    return result


if __name__ == "__main__":
    main(sys.argv[1])
