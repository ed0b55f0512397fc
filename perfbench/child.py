"""One sample: a fresh interpreter that imports pdgenus and runs one workload once.

    python3 perfbench/child.py WORKLOAD SEED SIZE TRACE SPANS_FILE

run.py starts it.  Its first act is ``import pdgenus``; the monotonic time
right after that import lets run.py measure set-up from process start.
WORKLOAD ``setup`` stops there.  Otherwise it builds the inputs from SEED,
runs the timed section (with the layer hooks installed when TRACE is 1),
reads its own peak RSS, checks the outputs, and prints one JSON line.
Exit code 3 means pdgenus could not be imported.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
try:
    import pdgenus  # noqa: F401
except ImportError as exc:
    print(f"perfbench: cannot import pdgenus: {exc}", file=sys.stderr)
    sys.exit(3)
SETUP_END = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import hooks  # noqa: E402
import workloads  # noqa: E402


def main(name: str, seed: int, size: str, traced: bool, spans_file: str) -> dict:
    record: dict = {"setup_end": SETUP_END, "traced": traced}
    if name == "setup":
        return record
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed, size)
    rec = hooks.Recorder()
    with rec.installed() if traced else contextlib.nullcontext():
        start = time.perf_counter()
        outputs = workload.run(inputs)
        wall = time.perf_counter() - start
    record["wall_s"] = wall
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = workload.check(inputs, outputs)
    record.update(attempted=attempted, failed=len(failures), failures=failures[:5])
    record["digest"] = hashlib.sha256(repr(outputs).encode()).hexdigest()
    if traced:
        record["layers"] = hooks.layer_metrics(rec)
        record["hooks"] = rec.summary()
        rec.write_spans(spans_file)
    return record


if __name__ == "__main__":
    name, seed, size, trace, spans_file = sys.argv[1:]
    print(json.dumps(main(name, int(seed), size, trace == "1", spans_file)))
