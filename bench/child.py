"""One pass of one workload, in a fresh process.

    python3 bench/child.py --workload W --seed N --mode MODE

MODE is ``plain`` (untraced), ``spans`` (layer self times and work
counters), ``counts`` (elementwise primitive counts) or ``setup``
(import and build the inputs, run no job).  The pass prints one JSON
object on stdout.  ``setup_s`` runs from before ``import barmc`` to the
last input built; installing a tracer is not part of it.  Each job's
answer is compared with ``expected.json``; a mismatch, an exception or
a job slower than JOB_LIMIT_S marks the job failed.
"""

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
JOB_LIMIT_S = 30.0
MODES = ("plain", "spans", "counts", "setup")


def load_expected(workload):
    with open(HERE / "expected.json") as fh:
        return json.load(fh)[workload]


def run_pass(workload, seed, mode):
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import jobs
    import_s = perf_counter() - t0

    instrument = None
    if mode in ("spans", "counts"):
        import tracer
        instrument = (tracer.Spans if mode == "spans" else tracer.Counts)([jobs])
        instrument.install()
        if mode == "spans":
            instrument.start()
    t1 = perf_counter()
    plan = jobs.build(workload, seed)
    build_s = perf_counter() - t1
    out = {"mode": mode, "setup_s": import_s + build_s}
    if mode == "setup":
        return out

    expected = load_expected(workload)
    if [name for name, _ in plan] != [e["job"] for e in expected]:
        raise SystemExit("job list of %s differs from expected.json" % workload)
    results = []
    if mode == "plain":
        import probe
        clock = probe.ProbeClock()
        clock.start()
    for (name, thunk), exp in zip(plan, expected):
        start = perf_counter()
        error = None
        try:
            answer = thunk()
        except Exception as exc:  # a raising job is a failed job, not a crash
            answer = None
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = perf_counter() - start
        rel = None
        if mode == "plain":
            seconds, rel = clock.lap()
        if error is None and answer != exp["answer"]:
            error = "answer %r, expected %r" % (answer, exp["answer"])
        if error is None and seconds > JOB_LIMIT_S:
            error = "took %.1f s, limit %.0f s" % (seconds, JOB_LIMIT_S)
        results.append({"job": name, "seconds": seconds, "rel": rel,
                        "answer": answer, "error": error})
    if mode == "plain":
        clock.stop()
        out["probes"] = len(clock.samples)
        out["probe_s"] = statistics.median(clock.samples)
    wall_s = sum(r["seconds"] for r in results)
    if mode == "spans":
        instrument.stop()
    out.update(
        wall_s=wall_s,
        work_s=build_s + wall_s,
        jobs=results,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if instrument is not None:
        out["metrics"] = instrument.metrics()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, default="plain")
    args = ap.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.mode)))


if __name__ == "__main__":
    main()
