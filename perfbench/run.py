"""Benchmark: the paper's experiments run through ``nonlocalopt.cli.run_cli``.

    python3 perfbench/run.py --workload paper-1d --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` of
that checkout and nothing else.  Each pass runs every command of the workload
in this process (see ``workloads.py``), writing into a fresh directory under
``.bench_out/`` that is removed after the outputs are checked.  Passes repeat
until ``--seconds`` have gone by; the first is a warm-up and is not timed.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass),
``accuracy_digits``, ``peak_rss_mb`` and ``setup_s``.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
``tracing.py`` (median over traced passes) and ``trace.overhead_s``; its spans
are written to ``.bench_out/`` when the run ends.  One failed operation is a
command that exits nonzero, raises, or writes an output outside tolerance of
the reference; failures are counted, never skipped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it is
the run record: commit, cores, Python, numpy, BLAS and its thread count.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, accuracy_digits  # noqa: E402

SETUP_REPEATS = 7


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    failures: list[str]
    errors: list[float]
    traced: bool = False
    spans: list = field(default_factory=list)


def run_pass(cli, ops) -> Pass:
    """Runs every operation once, then checks what each wrote.

    ``cli.run_cli`` is looked up on every call so that the traced run's wrapper is used.
    """
    OUT.mkdir(exist_ok=True)
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    codes: list = []
    sink = io.StringIO()
    wall0, cpu0 = perf_counter(), process_time()
    with redirect_stdout(sink), redirect_stderr(sink):
        for op in ops:
            try:
                codes.append(cli.run_cli([*op.argv, "--out", str(pass_dir / op.name)]))
            except Exception as exc:  # a crashed command is a failed operation
                codes.append(f"{type(exc).__name__}: {exc}")
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    failures, errors = [], []
    for op, code in zip(ops, codes):
        if code != 0:
            failures.append(f"{op.name}: exit {code}")
            continue
        try:
            errors += op.check(pass_dir / op.name)
        except Exception as exc:  # a missing or malformed output is a failed operation
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    shutil.rmtree(pass_dir)
    return Pass(wall, cpu, len(ops), failures, errors)


def measure_setup(build_ops, seed: int) -> float:
    """One set-up: a fresh interpreter importing the CLI, plus preparing the inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import nonlocalopt.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    build_ops(seed)
    return perf_counter() - t0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- run record ----------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _blas() -> dict:
    """BLAS numpy was built with, and the thread count the loaded library uses."""
    import ctypes

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info.update(library=Path(lib).name, threads=int(fn()))
                return info
    return info


def run_record(args, passes: list[Pass], timed: list[Pass]) -> dict:
    walls = [p.wall_s for p in timed]
    cpus = [p.cpu_s for p in timed]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas(),
        "passes": len(passes), "timed_passes": len(timed),
        "wall_s_quartiles": quartiles(walls),
        "cpu_s_median": statistics.median(cpus),
        "cpu_per_wall": statistics.median(c / w for c, w in zip(cpus, walls)),
        "fail_ratio": failed / attempted,
        "failures": sorted({f for p in passes for f in p.failures}),
    }


def write_spans(path: Path, traced: list[Pass]) -> None:
    """One CSV row per span: pass, id, parent id, layer, name, start, end, count."""
    L = tracing
    with gzip.open(path, "wt") as fh:
        fh.write("pass,id,parent,layer,name,start_s,end_s,count\n")
        for k, p in enumerate(traced):
            ids = {id(s): i for i, s in enumerate(p.spans)}
            t0 = min((s[L.START] for s in p.spans), default=0.0)
            for i, s in enumerate(p.spans):
                parent = ids.get(id(s[L.PARENT]), "") if s[L.PARENT] is not None else ""
                count = s[L.INFO][0] if isinstance(s[L.INFO], tuple) else (s[L.INFO] or "")
                fh.write(f"{k},{i},{parent},{s[L.LAYER]},{s[L.NAME]},"
                         f"{s[L.START] - t0:.9f},{s[L.END] - t0:.9f},{count}\n")


# -- main ------------------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nonlocalopt" / "cli.py").is_file():
        print(f"error: no nonlocalopt sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nonlocalopt
    import nonlocalopt.cli as cli

    if SRC not in Path(nonlocalopt.__file__).resolve().parents:
        print(f"error: imported nonlocalopt from {nonlocalopt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    build_ops = WORKLOADS[args.workload]
    ops = build_ops(args.seed)

    tracer = tracing.Tracer() if args.trace else None
    passes: list[Pass] = []
    # Set-up is timed SETUP_REPEATS times, spread over the run so that the
    # median does not hang on one stretch of a machine whose speed drifts.
    setups: list[float] = []
    setups_due = 0 if tracer else SETUP_REPEATS
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(setups) < setups_due and elapsed >= len(setups) * args.seconds / setups_due:
            setups.append(measure_setup(build_ops, args.seed))
            continue
        if len(passes) > 1 + bool(tracer) and elapsed >= args.seconds and len(setups) == setups_due:
            break
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            p = run_pass(cli, ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p.traced, p.spans = True, tracer.take()
        passes.append(p)

    timed = passes[1:]
    untraced = [p for p in timed if not p.traced]
    traced_passes = [p for p in timed if p.traced]
    record = run_record(args, passes, untraced)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    walls = [p.wall_s for p in untraced]
    q1, wall_med, q3 = quartiles(walls)
    print(f"{args.workload} seed {args.seed}: wall_s median {wall_med:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)}); "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")

    if tracer is None:
        digits = [accuracy_digits(p.errors) if p.errors else 0.0 for p in passes]
        metrics = {
            "wall_s": _metric(wall_med, "s"),
            "accuracy_digits": _metric(statistics.median(digits), "digits"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
    else:
        per_pass = [tracing.layer_metrics(p.spans, tracer.found)
                    for p in traced_passes]
        metrics = {}
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            metrics[name] = _metric(None if None in values else statistics.median(values), unit)
        overhead = statistics.median(p.wall_s for p in traced_passes) - wall_med
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        write_spans(spans_path, traced_passes)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
