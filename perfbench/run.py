"""The pdgenus benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload fourterm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each sample is a fresh interpreter (child.py) that imports pdgenus, builds
the workload's inputs from the seed, runs the timed section once and checks
its outputs after it.  Samples run one at a time, single-threaded, so the
machine's two CPUs never share the work.  A run takes samples until the next
one would end after ``--seconds`` (always at least one; with ``--trace 1``
at least one untraced and one traced, alternating).

Times (``wall_s``, ``setup_s``) are the fastest sample of the run.  On a
shared machine, other tenants slow every sample for stretches of seconds to
minutes by up to 1.8x; interference only ever adds time, so the fastest of
many samples is the steadiest estimate of the undisturbed time, where the
median swings with the share of the run that was disturbed.  Peak RSS and
the per-layer metrics are medians.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced samples, including
``trace.overhead_s``, the fastest traced minus the fastest untraced wall
time.  The lines before it print every metric by name and unit, with sample
counts and the machine.  The full result, with every sample's times, goes
to ``perfbench/out/``, the spans of the last traced sample to
``perfbench/out/spans-<workload>.json.gz``.

Exit code 0 with a result; 1 without one, when a sample could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fourterm", "quotient", "relations")
SETUP_PROBES = 5  # set-up-only samples per run, besides the workload samples
SAMPLE_TIMEOUT_S = 150
LAYER_UNITS = {
    "diagrams.enumerate_s": "s",
    "diagrams.canonical_calls": "count",
    "diagrams.canonical_s": "s",
    "maps.genus_calls": "count",
    "maps.genus_s": "s",
    "maps.boundary_walks": "count",
    "maps.walks_per_genus": "ratio",
    "weight_system.poly_calls": "count",
    "weight_system.poly_s": "s",
    "weight_system.poly_hit_ratio": "ratio",
    "weight_system.quadruples": "count",
    "weight_system.quadruples_s": "s",
    "weight_system.residual_s": "s",
    "weight_system.relation_vectors": "count",
    "weight_system.vectors_s": "s",
    "weight_system.express_s": "s",
    "polynomials.build_s": "s",
    "polynomials.rank_calls": "count",
    "polynomials.rank_rows": "count",
    "polynomials.rank_s": "s",
    "polynomials.solve_calls": "count",
    "polynomials.solve_s": "s",
    "golden.verify_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.hooks_absent": "count",
}


class SampleError(RuntimeError):
    """A child process failed or printed no record."""


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def sample(workload: str, seed: int, size: str, traced: bool) -> dict:
    spans = OUT / f"spans-{workload}.json.gz"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), size,
           "1" if traced else "0", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload} sample timed out after {exc.timeout} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{workload} sample exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("setup_end") - start
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Take the samples of one run and reduce them to metrics."""
    OUT.mkdir(exist_ok=True)
    setups = [sample("setup", seed, size, False)["setup_s"] for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        samples.append(sample(workload, seed, size, trace and len(samples) % 2 == 1))
        last = time.monotonic() - began
        enough = not trace or len(samples) >= 2
        if enough and time.monotonic() - start + last > seconds:
            break
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    first = samples[0]["digest"]
    for s in samples:
        if s["digest"] != first:  # the same inputs must give the same outputs
            failed += s["attempted"] - s["failed"]
            s["failures"].append("outputs differ from the first sample's")

    fastest = min(plain, key=lambda s: s["wall_s"])
    end_to_end = {
        "setup_s": (min(setups + [s["setup_s"] for s in samples]), "s"),
        "wall_s": (fastest["wall_s"], "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in plain), "MB"),
    }
    extra = {"failed_ratio": (failed / attempted, "ratio")}
    per_layer = {}
    if traced:
        for key, unit in LAYER_UNITS.items():
            if key == "trace.overhead_s":
                value = min(s["wall_s"] for s in traced) - fastest["wall_s"]
            else:
                value = statistics.median(s["layers"][key] for s in traced)
            per_layer[key] = (value, unit)
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine(),
        "samples": {"setup": len(setups) + len(samples), "untraced": len(plain),
                    "traced": len(traced)},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for s in samples for f in s["failures"]][:10],
        "sample_values": {
            "setup_s": setups + [s["setup_s"] for s in samples],
            "wall_s": [s["wall_s"] for s in plain],
            "traced_wall_s": [s["wall_s"] for s in traced],
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "hooks": {name: {"status": h["status"], "calls": h["calls"]}
                  for name, h in traced[-1]["hooks"].items()} if traced else {},
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    """Print every metric by name and unit, then the machine and any failures."""
    n = result["samples"]
    print(f"{result['workload']} seed={result['seed']} size={result['size']} "
          f"trace={result['trace']}: {n['untraced']} untraced and {n['traced']} traced "
          f"samples, {n['setup']} set-up samples")
    for group in ("end_to_end", "extra", "per_layer"):
        for key, m in result[group].items():
            print(f"  {key:32} {m['value']:.6g} {m['unit']}")
    absent = [k for k, h in result["hooks"].items() if h["status"] == "absent"]
    if absent:
        print(f"  hooks absent: {', '.join(absent)}")
    print(f"  machine: {json.dumps(result['machine'])}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny: small orders and a short stream, for the smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pdgenus" / "__init__.py").is_file():
        print(f"perfbench: no pdgenus sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
            report(results[name])
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    group = "per_layer" if args.trace else "end_to_end"
    summary = [
        {key: results[n][key] for key in ("correct", "attempted", "failed")}
        | {"metrics": results[n][group]}
        for n in names
    ]
    print(json.dumps(summary[0] if len(names) == 1 else dict(zip(names, summary))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
