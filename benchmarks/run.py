"""Layered benchmark of factorcavity: MI scans, exact oracles, teacher-student BP.

Run from the root of the repository:

    python3 benchmarks/run.py                                  # all four workloads
    python3 benchmarks/run.py --workload mi_scan --seed 3 --trace 0

One run builds the workload's inputs from ``--seed``, repeats whole rounds of
its ops in this one process (a fixed number per workload, so every run does the
same work), checks every output, and prints each metric by name and unit.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics, and
writes the spans to ``benchmarks/out/``.  The program is imported from
``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, here and in every process started from here;
# this has to happen before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["FACTORCAVITY_WORKERS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("mi_scan", "sbm_scan", "finite_size", "teacher_student")
# set-up is timed in this many fresh interpreters per run (this one included)
SETUP_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def setup(workload: str, seed: int):
    """Import the package and build the workload; returns (workload, import_s, inputs_s)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import factorcavity  # noqa: F401
    import factorcavity.cli  # noqa: F401
    imported = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    return wl, imported - start, time.perf_counter() - imported


def setup_probe_in_child(workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["import_s"], record["inputs_s"]


def measure(wl, tracer=None):
    """Run the workload's rounds.

    With a tracer, even rounds run untraced and odd rounds traced, and at
    least one of each is run.  Returns the records (round, op index, seconds,
    traced, output), the wall time and the rounds.
    """
    records = []
    rounds = max(2, wl.rounds) if tracer is not None else wl.rounds
    start = time.perf_counter()
    for rnd in range(rounds):
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(wl.ops):
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.op(i):
                            out = op.run()
                    else:
                        out = op.run()
                except Exception as err:    # a failing op is counted, not fatal
                    out = err
                records.append((rnd, i, time.perf_counter() - t0, traced, out))
        finally:
            if traced:
                tracer.uninstall()
    return records, time.perf_counter() - start, rounds


def verify(wl, records):
    """Per-record failure flags and the violations that are not the known fault.

    The checks run on the first round's outputs; a later round must repeat
    them exactly.  A workload of one round gets that repeat check only in a
    traced run, which runs at least two rounds.
    """
    import workloads
    first = [out for rnd, _, _, _, out in records if rnd == 0]
    found = wl.check(first)
    reference = [workloads.digest(out) for out in first]
    failed = []
    unexpected = set()
    for rnd, i, _, _, out in records:
        bad = list(found[i])
        if rnd > 0 and workloads.digest(out) != reference[i]:
            bad.append(("repeat", f"round {rnd} output differs from round 0: {out!r:.200}"))
        failed.append(bool(bad))
        unexpected.update(f"{wl.ops[i].label}: {kind}: {message}"
                          for kind, message in bad if kind != workloads.KNOWN_FAULT)
    for i, bad in enumerate(found):
        for kind, message in bad:
            print(f"  check {wl.ops[i].label}: {kind}: {message}", file=sys.stderr)
    return failed, sorted(unexpected)


def run_one(args) -> int:
    if not (SRC / "factorcavity" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    wl, import_s, inputs_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0
    probes = [(import_s, inputs_s)]
    probes += [setup_probe_in_child(args.workload, args.seed) for _ in range(SETUP_PROBES - 1)]

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    records, elapsed, rounds = measure(wl, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, unexpected = verify(wl, records)
    attempted = len(records)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.layer_metrics()
        plain = [dt for _, _, dt, traced, _ in records if not traced]
        traced = [dt for _, _, dt, traced, _ in records if traced]
        metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
        metrics["setup.import_s"] = statistics.median(p[0] for p in probes)
        metrics["setup.inputs_s"] = statistics.median(p[1] for p in probes)
        report = {name: {"value": value, "unit": _per_layer_unit(name)}
                  for name, value in sorted(metrics.items())}
    else:
        completed = sum(1 for rec in records if not isinstance(rec[4], Exception))
        values = {
            "setup_s": statistics.median(i + s for i, s in probes),
            "ops_per_s": completed / elapsed,
            "op_p50_s": statistics.median(rec[2] for rec in records),
            "peak_rss_mb": peak_rss_mb,
        }
        report = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in values.items()}

    print(f"workload {args.workload} seed {args.seed}: {rounds} round(s) of "
          f"{len(wl.ops)} ops in {elapsed:.2f} s; attempted {attempted}, "
          f"failed {sum(failed)}")
    for name, entry in report.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for line in unexpected:
        print(f"  UNEXPECTED {line}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": sum(failed), "metrics": report}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    # the work of a run is fixed by the workload's rounds, whatever the run
    # length asked for; the option is accepted so that the benchmark takes
    # the usual --workload/--seed/--seconds/--trace arguments
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted and ignored: a run's work is fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
