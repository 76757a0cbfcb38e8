"""revdict benchmark: one command, five workloads, seeded synthetic inputs.

    python3 perfbench/run.py --workload query-plain --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Run from the root of a checkout.  A run generates its inputs from the seed in
a child process (so their memory stays out of ``peak_rss_mb``), times the
workload through revdict's public functions, checks every output against a
numpy oracle, and prints:

* a line ``env {...}`` with the commit, seed, machine, numpy and BLAS, and
  the warm-up lengths and sample counts behind each figure;
* one ``metric`` line per figure, by name with its unit;
* last, one JSON object: ``correct``, ``attempted``, ``failed`` and
  ``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
  BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, taken
  from spans written to ``.perfbench/traces/``.

The exit status is 0 when a result was printed, and 2 when the checkout has no
revdict sources or the inputs could not be generated.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("query-plain", "query-clue", "train-step", "eval-crossword-bpe", "prep-bpe")
GENERATE_TIMEOUT_S = 150


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def source_digest() -> str:
    """SHA-256 of the revdict sources, which identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def environment(workload: str, seed: int, manifest: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "inputs_sha256": manifest.get("inputs_sha256"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def generate_inputs(workload: str, seed: int, out: Path) -> dict:
    """Run the generator in a child process and wait for it to end."""
    done = subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=GENERATE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{done.stderr[-2000:]}")
    return json.loads((out / "inputs.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    started = time.perf_counter()
    data = WORK / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        manifest = generate_inputs(workload, seed, data)
        ctx = workloads.Context(
            data=data, seconds=seconds, tracer=Tracer() if trace else None, started=started,
            trace_path=WORK / "traces" / f"{workload}-seed{seed}.jsonl" if trace else None,
        )
        outcome = workloads.WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    env = environment(workload, seed, manifest)
    env.update(outcome.record)
    env["wall_s"] = time.perf_counter() - started
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {workload} {name} {value!r} {unit}")
    for name, reason in outcome.unmeasured.items():
        print(f"unmeasured {workload} {name}: {reason}")
    for name, value, unit, note in outcome.report:
        print(f"metric {workload} {name} {value!r} {unit} ({note})")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"metric {workload} error_rate {error_rate!r} ratio ({outcome.failed} of {outcome.attempted} failed)")
    if outcome.layers:
        wall = outcome.layers["bench.pass"]["s"]
        print(f"blocking path of the traced pass ({wall!r} s): self time by span, largest first")
        for name, row in sorted(outcome.layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"layer {workload} {name} calls={row['calls']} s={row['s']!r} self_s={row['self_s']!r}"
                  f" share={row['self_s'] / wall!r}")
    for reason in outcome.reasons:
        print(f"failure {workload} {reason}")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="revdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "revdict" / "__init__.py").is_file():
        print(f"no revdict sources under {SRC}; run from the root of a revdict checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import revdict

    if Path(revdict.__file__).resolve().parent != (SRC / "revdict").resolve():
        print(f"revdict was imported from {revdict.__file__}, not from this checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
