"""ecgraphs benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search9 --seed 1 --seconds 30 --trace 0

The run imports ecgraphs from ``src/``, generates the workload's inputs from
the seed, runs one warm-up pass, then repeats passes for ``--seconds``
seconds in this one process and thread.  Every operation's output is compared
with its pinned or generated expectation.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median of
three set-ups, each in a fresh interpreter.  ``--trace 1`` spends half the
time on untraced passes and half on traced passes and reports the per-layer
metrics (per pass) and the tracing overhead; spans are written to
``perfbench/out/``.

Every reported time is scaled to a nominal machine speed measured by a probe
around each timed operation (see pace.py); the info line also prints the raw
times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace  # the script's own directory is on sys.path
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3
MAX_SPANS = 2_000_000  # about 50 MB of span arrays
SETUP_PROBE_S = 0.05  # probe time at the start of a child set-up


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("search9", "constructions", "filter-stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("tiny", "bench"), default="bench",
                   help="bench (default) is what a timed run measures; tiny is the smoke check's size")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import ecgraphs from this checkout's src/ and no other place."""
    src = ROOT / "src"
    if not (src / "ecgraphs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ecgraphs sources under {src}")
    sys.path.insert(0, str(src))
    import ecgraphs
    from ecgraphs import canon, cli, constructions, ec, graph6, graphs, hypergraphs, planarity, search  # noqa: F401

    if Path(ecgraphs.__file__).resolve().parent != (src / "ecgraphs").resolve():
        raise SystemExit(f"perfbench: imported ecgraphs from {ecgraphs.__file__}, not {src}")


def set_up(args, probe=None):
    """Import, generate inputs and run one warm-up pass."""
    import_program()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, OUT)
    warm = workloads.run_pass(wl, perf_counter, probe)
    return wl, warm


def run_for(wl, seconds: float, tracer=None) -> list:
    """Closed loop of probed passes; another pass starts while one more is
    expected to fit in ``seconds``."""
    results = []
    probe = pace.Probe()
    t0 = perf_counter()
    while True:
        if tracer is None:
            results.append(workloads.run_pass(wl, perf_counter, probe))
        else:
            with tracer:
                results.append(workloads.run_pass(wl, perf_counter, probe))
            if len(tracer) > MAX_SPANS:
                break
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(results) > seconds:
            break
    return results


def child_setups(args) -> tuple[list[float], list[float]]:
    """Wall times of complete set-ups, each in a fresh interpreter, without
    the child's probe time: raw, and scaled.  The child's warm-up pass is
    scaled operation by operation as passes are; the rest of its set-up by
    the speed probed before and after its imports and input generation.  A
    child's failed operations are not counted here: the main process counts
    its own."""
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed:\n{proc.stdout}{proc.stderr}")
        child = json.loads(proc.stdout.splitlines()[-1])
        raw.append(wall - child["probe_s"])
        scaled.append((raw[-1] - child["warm_s"]) * child["speed"] + child["warm_scaled_s"])
    return raw, scaled


def metadata() -> dict:
    src = ROOT / "src"
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit,
            "src_lines": lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        probe = pace.Probe()
        probe.run(SETUP_PROBE_S)
        _, warm = set_up(args, probe)
        print(json.dumps({
            "probe_s": sum(t for _, t in probe.samples),
            "speed": pace.speed(*probe.samples[:2]),
            "warm_s": sum(warm.stage_s),
            "warm_scaled_s": sum(warm.scaled_s),
        }))
        return 0
    wl, warm = set_up(args)
    info: dict = {"workload": wl.name, "seed": args.seed, "size": args.size, "seconds": args.seconds,
                  "trace": args.trace, "clients": 1, "workers": 1, **metadata(), "inputs": wl.info}
    if args.trace == 0:
        passes = run_for(wl, args.seconds)
        raw_setups, setups = child_setups(args)
        wall = statistics.median(sum(r.scaled_s) for r in passes)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "stage1_s": (statistics.median(r.scaled_s[0] for r in passes), "s"),
            "stage2_s": (statistics.median(r.scaled_s[1] for r in passes), "s"),
            "items_per_s": (wl.items_per_pass / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info.update(stage_names=[name for name, _ in wl.stages], raw_setup_s=raw_setups, setup_s=setups)
        info["named_metrics"] = {alias: dict(zip(("value", "unit"), metrics[key]))
                                 for alias, key in wl.aliases.items()}
    else:
        untraced = run_for(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = run_for(wl, args.seconds / 2, tracer)
        plain = statistics.median(sum(r.scaled_s) for r in untraced)
        scale = sum(sum(r.scaled_s) for r in traced) / sum(sum(r.stage_s) for r in traced)
        values = tracer.layer_metrics(len(traced), scale)
        values["trace_overhead"] = (statistics.median(sum(r.scaled_s) for r in traced) - plain) / plain
        units = {"calls": "count", "generators": "count", "total_s": "s", "self_s": "s"}
        metrics = {name: (values[name], units.get(name.rpartition(".")[2], "ratio"))
                   for name in tracing.metric_names()}
        stem = OUT / f"spans-{wl.name}-{args.size}-{args.seed}"
        tracer.write(stem)
        info.update(traced_passes=len(traced), spans=len(tracer), spans_file=str(stem.relative_to(ROOT)) + ".bin")
        passes = untraced + traced
    info.update(raw_pass_s=[sum(r.stage_s) for r in passes], pass_s=[sum(r.scaled_s) for r in passes])

    runs = [warm] + passes
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    info.update(passes=len(passes), errors=errors[:10])
    info.setdefault("named_metrics", {})["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{wl.name}-{args.size}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
