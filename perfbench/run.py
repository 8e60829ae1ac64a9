"""operstokes benchmark: one command, three workloads.

    python3 perfbench/run.py --workload stokes_scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  Each
run attempts whole rounds of the workload's fixed list of operations, timing
every call into the program (in reference seconds, see speed.py) and
checking every output with the independent checks in checks.py.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones
(setup_s, wall_s, peak_rss_mb); with --trace 1 the public functions are
wrapped, spans are written to perfbench/out/, and the metrics are the
per-layer ones.

    python3 perfbench/run.py --self-test-corrupt

is the negative control: every checker is fed a corrupted output and must
reject it (see selftest.py).
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# what a user run of each workload imports before its first call
SETUP_MODULES = {
    "stokes_scan": "operstokes.stokes",
    "jacobian_replay": "operstokes.immersion",
    "exact_certificates": "operstokes.isomono",
}


def import_program():
    """Pin BLAS to one thread, put ./src first on the path and insist the
    package comes from it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "operstokes", "__init__.py")):
        sys.exit(f"perfbench: no operstokes sources under {SRC}")
    sys.path.insert(0, SRC)
    import operstokes
    if not os.path.abspath(operstokes.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: operstokes imported from {operstokes.__file__}")


def setup_probe(workload):
    """Child process: pay what a user run pays before its first call (the
    imports and the lazy multiprecision import), then report ready with the
    machine speed sampled meanwhile."""
    import importlib
    with speed.timed() as t:
        import_program()
        importlib.import_module(SETUP_MODULES[workload])
        if workload != "exact_certificates":
            from operstokes.stokes import make_ctx
            make_ctx(64)
    print(f"ready {t.scale!r} {t.sampled!r}", flush=True)


def measure_setup(workload):
    """Reference seconds of one fresh interpreter from process start to
    ready (see speed.py)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                           "--setup-probe", workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    word, *values = line.split() or [""]
    if proc.returncode != 0 or word != "ready":
        sys.exit(f"perfbench: setup probe failed ({proc.returncode})")
    scale, sampled = map(float, values)
    return (elapsed - sampled) * scale


def probe_slots(nops, repeats):
    """Where the set-up probes run in the first round: spread over it, so a
    passing slow spell of the machine moves few of them."""
    return [round(j * nops / (repeats - 1)) for j in range(repeats)]


def run_rounds(ops, seconds, tracer=None, setup=None):
    """Whole rounds of every operation; another round starts only while it
    is expected to end within the run's seconds.  Set-up probes of the
    workload, when asked for, run between the first round's operations,
    outside the timed calls.  Returns the per-round records and the set-up
    times."""
    rounds = []
    slots = probe_slots(len(ops), SETUP_REPEATS) if setup else []
    setup_times = []
    start = time.perf_counter()
    while True:
        rnd = {"wall": 0.0, "raw": 0.0, "attempted": 0, "failed": 0,
               "unexpected": 0}
        for index, op in enumerate(ops):
            while not rounds and slots and slots[0] == index:
                slots.pop(0)
                setup_times.append(measure_setup(setup))
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.round = len(rounds)
                tracer.on = True
                span = tracer.span(f"op.{op.name}")
            with speed.timed() as t:
                try:
                    with span:
                        out = op.run()
                    error = None
                except Exception as exc:  # a raising operation is a failed one
                    out, error = None, f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.on = False
            rnd["wall"] += t.seconds
            rnd["raw"] += t.raw
            rnd["attempted"] += 1
            if error is not None:
                bad = [f"raised ({error})"]
            else:
                bad = [f"{c.name} ({c.detail})" for c in op.check(out)
                       if not c.ok]
            print(f"op {op.name} {t.seconds:.3f}s (raw {t.raw:.3f}s, speed "
                  f"x{t.scale:.2f}) " + ("ok" if not bad else
                                         "FAIL " + "; ".join(bad)),
                  flush=True)
            if bad:
                rnd["failed"] += 1
                rnd["unexpected"] += not op.known_fault
        while slots:
            slots.pop(0)
            setup_times.append(measure_setup(setup))
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + rnd["raw"] > seconds:
            return rounds, setup_times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD")
    parser.add_argument("--self-test-corrupt", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import_program()
    if args.self_test_corrupt:
        import selftest
        return selftest.main()

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        rounds, setup_times = run_rounds(
            ops, args.seconds, tracer,
            setup=None if args.trace else args.workload)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall = statistics.median(r["wall"] for r in rounds)
    print(f"rounds {len(rounds)}, wall_s {wall:.3f} (median; raw "
          f"{statistics.median(r['raw'] for r in rounds):.3f}), set-up probes "
          + " ".join(f"{x:.3f}" for x in setup_times), flush=True)
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans_{args.workload}_{args.seed}.json")
        tracer.write(path)
        per_round = [tracing.round_metrics(
            [s for s in tracer.spans if s[5] == i], r["wall"] / r["raw"])
            for i, r in enumerate(rounds)]
        metrics = {name: {"value": statistics.median(r[name]
                                                     for r in per_round),
                          "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    # a known fault is counted in failed; any other failure makes the run
    # incorrect
    correct = not any(r["unexpected"] for r in rounds)
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
