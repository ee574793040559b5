"""The barmc benchmark: one workload, closed loop, fresh process per pass.

    python3 bench/run.py --workload {koszul,gauge,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass runs in its own child
process (bench/child.py), one after another, so import time and peak
memory never carry over from an earlier pass.  Passes repeat until S
seconds have gone by; metrics are medians over passes.

With --trace 0 each untraced pass follows SETUP_PER_PASS set-up-only
children; the run reports setup_s, wall_rel, slowest_job_rel and
peak_rss_mb (the raw seconds go to the record).  With --trace 1 it alternates untraced and span-traced
passes, then runs one primitive-counting pass, and reports the
per-layer metrics.  The second-to-last stdout line is a record of the
run (machine, commit, seed, every pass); the last line is the result
object.  The exit status is 0 only when every job of every pass gave
its expected answer within its time limit.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("koszul", "gauge", "certify")
SETUP_PER_PASS = 3
# a run must end within 180 s; no pass starts after this
BUDGET_S = 150.0
END_TO_END = {"setup_s": "s", "wall_rel": "probe", "slowest_job_rel": "probe",
              "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def child(workload, seed, mode, timeout):
    """Run one pass in a fresh interpreter and return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed("%s pass exceeded %.0f s" % (mode, timeout))
    if proc.returncode != 0:
        raise PassFailed("%s pass exited %d: %s"
                         % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity():
    """Commit when the checkout is a git work tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, passes):
    """Run the passes of one run, appending each report to passes.

    A pass starts only if, judged by the passes before it, it will end
    within the run's seconds; at least one timed pass always runs.
    """
    start = perf_counter()

    def go(*modes):
        t = perf_counter()
        for mode in modes:
            timeout = max(BUDGET_S - (perf_counter() - start), 1.0)
            passes.append(child(workload, seed, mode, timeout))
        return perf_counter() - t

    # the first import in a fresh checkout compiles bytecode; keep it out
    go("setup")
    passes.clear()
    if trace:
        go("counts")
        cycle = ("plain", "spans")
    else:
        cycle = ("setup",) * SETUP_PER_PASS + ("plain",)
    longest = go(*cycle)
    while perf_counter() - start + longest <= seconds:
        longest = max(longest, go(*cycle))


def end_to_end(passes):
    """The bounded metrics, and the raw seconds behind them.

    Job times are measured in probe units (probe.py): on a shared
    machine raw seconds drift by a quarter within minutes, probe units
    by a few percent.  setup_s stays in seconds; its samples are spread
    over the whole run so that their median sees every speed the
    machine ran at.
    """
    timed = [p for p in passes if p["mode"] == "plain"]

    def median_of(f):
        return statistics.median(f(p) for p in timed)

    def slowest(key):
        # the job with the largest median; a per-pass maximum would pick
        # whichever of two near-equal jobs ran slower in that pass
        return max(statistics.median(p["jobs"][k][key] for p in timed)
                   for k in range(len(timed[0]["jobs"])))

    raw = {
        "wall_s": median_of(lambda p: p["wall_s"]),
        "slowest_job_s": slowest("seconds"),
        "probe_s": median_of(lambda p: p["probe_s"]),
    }
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_rel": median_of(lambda p: sum(j["rel"] for j in p["jobs"])),
        "slowest_job_rel": slowest("rel"),
        "peak_rss_mb": median_of(lambda p: p["peak_rss_mb"]),
    }
    return metrics, raw


def per_layer(passes):
    spans = [p for p in passes if p["mode"] == "spans"]
    plain = [p for p in passes if p["mode"] == "plain"]
    out = {}
    for name in spans[0]["metrics"]:
        out[name] = statistics.median(p["metrics"][name] for p in spans)
    for p in passes:
        if p["mode"] == "counts":
            out.update(p["metrics"])
    out["trace.overhead_ratio"] = (
        statistics.median(p["work_s"] for p in spans)
        / statistics.median(p["work_s"] for p in plain))
    return out


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "barmc" / "__init__.py").is_file():
        sys.exit("bench: no barmc sources under %s; run from a checkout"
                 % (ROOT / "src"))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              **source_identity()}
    passes, error = [], None
    try:
        measure(args.workload, args.seed, args.seconds, args.trace, passes)
    except PassFailed as exc:
        error = str(exc)
    runs = [p for p in passes if "jobs" in p]
    attempted = sum(len(p["jobs"]) for p in runs)
    failed = sum(1 for p in runs for j in p["jobs"] if j["error"])
    if error is not None:
        # every job of the pass that crashed or overran counts as failed
        lost = len(load_expected(args.workload))
        attempted, failed = attempted + lost, failed + lost
    correct = error is None and failed == 0
    record.update(error=error, failed_ratio=failed / attempted,
                  failures=[(p["mode"], j["job"], j["error"])
                            for p in runs for j in p["jobs"] if j["error"]],
                  passes=[{k: v for k, v in p.items() if k != "jobs"}
                          | ({"job_s": [j["seconds"] for j in p["jobs"]],
                              "job_rel": [j["rel"] for j in p["jobs"]]}
                             if "jobs" in p else {})
                          for p in passes])
    metrics = {}
    if correct:
        if args.trace:
            values = per_layer(passes)
        else:
            values, record["raw"] = end_to_end(passes)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
