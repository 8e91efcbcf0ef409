"""Self-test of the benchmark at tiny sizes (about a minute).

Usage, from the root of a checkout: ``python3 bench/selftest.py``.

Checks that the input generator is deterministic for a seed, that every
workload reports exactly the metric names ``BENCHMARK.json`` declares in
both modes, and that the span tree of a traced run is well formed, with
the spans of client updates run on pool threads parented to the
``run_feddl`` span.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, tiny, write_inputs  # noqa: E402


def check(cond: bool, what: str, detail: str = "") -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}\n{detail}")
    print(f"ok  {what}")


def check_generator(work: Path) -> None:
    wl = tiny(WORKLOADS["speclust-noniid"])
    a, b, c = work / "a.csv", work / "b.csv", work / "c.csv"
    write_inputs(wl, 7, a)
    write_inputs(wl, 7, b)
    write_inputs(wl, 8, c)
    check(a.read_bytes() == b.read_bytes(), "same seed gives byte-identical inputs")
    check(a.read_bytes() != c.read_bytes(), "another seed gives other inputs")
    rows = a.read_text().splitlines()
    check(len(rows) == wl.n_points + 1 and rows[0].endswith(",label"), "CSV has n rows and a label column")


def check_metric_names(declared: dict) -> None:
    check(
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the workloads the benchmark defines",
    )
    for name, wl in WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                result = run.run_one(tiny(wl), 0, 1, trace, declared)
            expected = [m["name"] for m in declared[section]]
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: every tiny run passes its checks", out.getvalue())
            check(list(result["metrics"]) == expected,
                  f"{name} trace={int(trace)}: metrics match BENCHMARK.json {section}")
            units = {m["name"]: m["unit"] for m in declared[section]}
            check(all(v["unit"] == units[k] for k, v in result["metrics"].items()),
                  f"{name} trace={int(trace)}: units match BENCHMARK.json")


def check_span_tree(work: Path) -> None:
    wl = tiny(WORKLOADS["umap-dpgrad"])
    check(int(wl.sections["federation"]["workers"]) > 1, "umap-dpgrad steps clients on a pool")
    csv_path, config = work / "points.csv", work / "config.ini"
    write_inputs(wl, 0, csv_path)
    config.write_text(wl.config_text(csv_path, 0))
    result, err, _ = run.Runner(work, wl, time.monotonic()).spawn("trace", config, keep_spans=True)
    check(result is not None, f"traced worker ran ({err})")
    spans = {s[0]: dict(zip(("id", "name", "parent", "start", "end", "thread"), s))
             for s in result["spans"]}
    roots = [s for s in spans.values() if s["parent"] is None]
    check(len(roots) == 1 and roots[0]["name"] == "pipeline.run", "one root span, the run")
    check(all(s["parent"] in spans for s in spans.values() if s["parent"] is not None),
          "every parent id names a recorded span")
    check(all(s["start"] <= s["end"] for s in spans.values()), "every span ends after it starts")
    check(all(spans[s["parent"]]["start"] <= s["start"] and s["end"] <= spans[s["parent"]]["end"]
              for s in spans.values() if s["parent"] is not None),
          "every span lies inside its parent")
    main_thread = roots[0]["thread"]
    pooled = [s for s in spans.values()
              if s["name"] == "federation.local_update" and s["thread"] != main_thread]
    check(len(pooled) > 0, "client updates ran on pool threads")
    check(all(spans[s["parent"]]["name"] == "federation.fit" for s in pooled),
          "pool-thread client updates are parented to the run_feddl span")
    layers = result["layers"]
    check(layers["privacy.perturb_calls"] > 0, "gradient privacy is exercised")
    check(0.0 < layers["trace.coverage"] <= 1.0, "layer spans cover part of the run span")


def main() -> int:
    declared = run.load_declared()
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_generator(work)
        check_span_tree(work)
        check_metric_names(declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
