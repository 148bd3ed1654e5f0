"""Seeded benchmark of the permutons package.

    python3 perfbench/run.py --workload finite-diagnose --seed 1 --seconds 15 --trace 0

Runs one workload as a single closed-loop client in this one process: set
up, then make whole passes over the workload's cycle of jobs until the
jobs have taken ``--seconds``, then check every output.  Times are in
reference seconds: each is scaled by how long a fixed slice of work that
never calls the program took just before and after it, so that changes of
the host's CPU speed cancel out.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the same run is traced and the object holds the per-layer
metrics instead.  The program
is imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.  See README.md here for the metrics.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# one client, no library thread pools: BLAS and OpenMP stay single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# setup_s is the median of this process's own time to its first job and
# that of SETUP_SAMPLES - 1 child processes that only set up
SETUP_SAMPLES = 5
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"))
# a reference second is the time in which the reference slice would run
# 1 / REF_SLICE_S times: t seconds measured while the slice took s seconds
# count as t * REF_SLICE_S / s reference seconds
REF_SLICE_S = 0.010
_SLICE_SORTED = np.random.default_rng(0).random(1 << 14)


def reference_slice() -> float:
    """Seconds taken by one fixed slice of work that never calls the program.

    It mixes the kinds of work the jobs do, each for a few milliseconds: a
    pure-Python integer loop, Fraction sums, building and sorting a dict of
    tuple keys, and numpy sorts.  It takes 10 to 17 ms on a 2-vCPU Xeon VM,
    depending on the load of the host.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i * i)
    table: dict = {}
    for i in range(10_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: kv[1])
    for _ in range(10):
        np.sort(_SLICE_SORTED)
    return time.perf_counter() - t0


def tail_latency(latencies) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    jobs beyond it: the eleventh-largest latency.  With ten jobs or fewer no
    percentile qualifies and the maximum is returned as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def set_up(name: str, seed: int, workdir: str, sizes: dict):
    """Build the inputs from the seed, then run one job per distinct input
    of the cycle at tiny sizes so that first-call costs are paid before
    timing.  A job whose input is the same at both sizes (``find_b`` takes
    none) is skipped: running it would be timed work, not warm-up."""
    import workloads
    cls = workloads.WORKLOADS[name]
    w = cls(workdir, **sizes)
    w.setup(seed)
    warm = cls(os.path.join(workdir, "warm"), **cls.TINY_SIZES)
    warm.setup(seed)
    timed = {job.key for job in w.cycle}
    for key, job in {job.key: job for job in warm.cycle}.items():
        if key not in timed:
            job.run()
    return w


def setup_ref_s() -> float:
    """Reference seconds from process start to now, with the speed taken
    from reference slices run right now."""
    elapsed = time.perf_counter() - PROCESS_START
    return elapsed * REF_SLICE_S / statistics.median(reference_slice() for _ in range(3))


def child_setup_s(name: str, seed: int) -> float:
    """Reference seconds from process start to the first job, in a child
    process that imports, sets up and exits without running a job."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def check_outputs(w, records) -> list[str]:
    """One line per failed job.  An exact job's first output for an input is
    checked against the references and kept as the golden copy; later
    outputs for that input must equal it."""
    golden = {}
    failures = []
    for i, (job, out, err, _) in enumerate(records):
        if err is not None:
            failures.append(f"job {i} {job.kind}: raised {err}")
            continue
        if job.exact and job.key in golden:
            problems = [] if out == golden[job.key] else ["differs from the golden output"]
        else:
            try:
                problems = w.check(job, out)
            except Exception as exc:  # a malformed output is a failed job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if not problems and job.exact:
                golden[job.key] = out
        if problems:
            failures.append(f"job {i} {job.kind}: " + "; ".join(problems[:3]))
    return failures


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        sizes=None, setup_children: int = 0) -> dict:
    import tracing
    w = set_up(name, seed, workdir, sizes or {})
    setups = [setup_ref_s()]
    setups += [child_setup_s(name, seed) for _ in range(setup_children)]

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    records = []
    # each job's latency in reference seconds, with the speed taken from the
    # mean of the reference slices run just before and just after it
    costs = []
    reference_slice()
    slices = [reference_slice()]
    start = time.perf_counter()
    try:
        # whole passes only, so that every run has the same mix of jobs; the
        # count is taken in reference seconds so that it does not depend on
        # the host's speed either; the wall-clock cap ends a run whose jobs
        # fail at once
        while sum(costs) < seconds and time.perf_counter() - start < 3 * seconds:
            for job in w.cycle:
                if tracer:
                    tracer.job = len(records)
                t0 = time.perf_counter()
                try:
                    out, err = job.run(), None
                except Exception as exc:  # the job failed; the run goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                slices.append(reference_slice())
                records.append((job, out, err, latency))
                costs.append(latency * 2 * REF_SLICE_S / (slices[-2] + slices[-1]))
    finally:
        if tracer:
            tracer.uninstall()
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_outputs(w, records)
    latencies = [r[3] for r in records]
    tail, pct = tail_latency(costs)
    ok = len(records) - len(failures)
    values = {"setup_s": statistics.median(setups),
              "jobs_per_s": ok / sum(costs),
              "job_p50_s": statistics.median(costs),
              "job_tail_s": tail,
              "peak_rss_mb": peak_rss_mb}
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.jobs_per_s"] = {"value": values["jobs_per_s"], "unit": "1/s"}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {"correct": not failures, "attempted": len(records), "failed": len(failures),
            "metrics": metrics, "failures": failures, "timed_s": timed_s,
            "tail_percentile": pct, "outputs": [r[1] for r in records],
            "wall_jobs_per_s": ok / sum(latencies),
            "wall_p50_s": statistics.median(latencies), "slice_s": statistics.median(slices)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("finite-diagnose", "permuton-mc", "exact-certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the reference seconds since process start and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permutons", "__init__.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import permutons
    if os.path.dirname(os.path.dirname(os.path.abspath(permutons.__file__))) != SRC:
        print(f"error: permutons imported from {permutons.__file__}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir, {})
            print(setup_ref_s())
            return 0
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                  setup_children=SETUP_SAMPLES - 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {res['attempted']} jobs, "
          f"{res['failed']} failed, timed {res['timed_s']:.2f} s, "
          f"tail = p{res['tail_percentile']:.1f} of {res['attempted']} jobs; "
          f"wall clock: {res['wall_jobs_per_s']:.3f} jobs/s, p50 {res['wall_p50_s']:.3f} s, "
          f"reference slice {1e3 * res['slice_s']:.2f} ms")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
