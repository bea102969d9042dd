"""sgspec benchmark: seeded CLI jobs in a closed loop, correctness-gated.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-p1 --seed 1 --seconds 28 --trace 0

One client calls ``sgspec.cli.main(argv)`` in-process and starts each job
only after the previous one has finished. Jobs come in rounds (the
workload's job list, see workloads.py); the run executes whole rounds for
about ``--seconds``, at least one. Every output is checked against an
independent reference outside the timed region. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the first round alternately plain
and traced and reports the per-layer metrics. The last stdout line is the
result as one JSON object.

Times are reported at a reference machine speed: a fixed pure-Python probe
is timed between jobs, and times are scaled by PROBE_REF_S / (probe time
around them). On a shared host the raw speed drifts by up
to 40% between runs, while the ratio of job time to probe time, over many
probes, stays within a few percent. Raw times are kept in the record line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# One client on one thread: a multi-threaded BLAS spinning on a shared
# 2-CPU machine makes a 60x60 eigh 100x slower and the timings erratic.
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

SETUP_REPEATS = 5
PROBE_REF_S = 0.004  # speed_probe() on the machine the benchmark was defined on
# Tail percentile per workload: the highest whole percentile that leaves at
# least ten jobs beyond it in a run at the commit that defined the benchmark.
TAIL_Q = {"exact-p1": 80, "extremal-p": 85, "p2-nodal": 90, "verify-suite": 70}
COUNT_KEYS = (".calls", "patterns_scanned", "patterns_solved", "subsets_scored")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def speed_probe() -> float:
    """Seconds a fixed kernel of Fraction arithmetic, dict updates and small
    numpy calls (the kinds of work sgspec spends its time in) takes now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    counts: dict[int, int] = {}
    for i in range(12000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    x = np.linspace(0.1, 1.0, 16)
    for _ in range(150):
        x = np.abs(x - 0.5) ** 1.5 + 0.1
    return time.perf_counter() - t0


def run_record() -> dict:
    """Where and on what the run happened, taken at start."""
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            name = sha[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                sha = loose.read_text().strip()
            elif packed.is_file():
                sha = next((ln.split()[0] for ln in packed.read_text().splitlines()
                            if ln.endswith(" " + name)), sha)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def import_sgspec():
    """Import sgspec from the checkout afresh; returns the cli module."""
    for key in [k for k in sys.modules if k == "sgspec" or k.startswith("sgspec.")]:
        del sys.modules[key]
    import sgspec.cli

    if Path(sgspec.__file__).resolve().parents[1] != ROOT / "src":
        raise BenchError(f"imported sgspec from {sgspec.__file__}, not from the checkout")
    return sgspec.cli


def setup(workload: str, seed: int, workdir: Path):
    """Import sgspec and write the inputs, SETUP_REPEATS times; keep the last.

    Returns the cli module, the rounds, and the set-up times (raw and at
    reference speed)."""
    raw, scaled = [], []
    for rep in range(SETUP_REPEATS):
        dest = workdir / f"inputs{rep}"
        dest.mkdir(parents=True)
        probe = statistics.median(speed_probe() for _ in range(3))
        t0 = time.perf_counter()
        cli = import_sgspec()
        rounds = W.make_rounds(workload, seed, W.load_pool(workload), dest)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * PROBE_REF_S / probe)
        if rep:
            shutil.rmtree(workdir / f"inputs{rep - 1}")
    return cli, rounds, raw, scaled


class Runner:
    """Executes jobs, times them, gates their outputs and tallies failures."""

    def __init__(self, cli, gate):
        self.cli = cli
        self.gate = gate
        self.attempted = 0
        self.props: list[dict] = []
        self.probes: list[float] = []
        self.failures: list[tuple[str, str, bool]] = []  # (job, reason, known)

    def job(self, job, tracer=None, count=True) -> float:
        out = io.StringIO()
        if tracer is not None:
            tracer.begin_job()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(job.argv)
            except Exception as exc:  # a crash is a failed job, not a benchmark error
                code, crash = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if not count:
            return dt
        self.attempted += 1
        self.props.append(job.props)
        if not job.ref.get("_attached"):
            self.gate.attach(job)
            job.ref["_attached"] = True
        reason = crash if code is None else self.gate.check(job, code, out.getvalue())
        if reason is not None:
            self.failures.append((f"{job.kind} {Path(job.argv[2]).stem}", reason,
                                  reason == job.known_defect))
        return dt

    def round(self, jobs, tracer=None) -> tuple[float, list[float], float]:
        """Round time and job latencies at reference speed, and the raw round time.

        The probe runs before every job and after the last. A job's latency
        is scaled by the mean of the two probes around it. The round time is
        scaled once, by those means weighted with the jobs' times: a single
        probe pair is too noisy to rescale a second-long job on its own, but
        the long jobs are the ones that make up most of a round."""
        probes, lat = [speed_probe()], []
        for job in jobs:
            lat.append(self.job(job, tracer))
            probes.append(speed_probe())
        self.probes += probes
        around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        probe = sum(x * p for x, p in zip(lat, around)) / sum(lat)
        return (sum(lat) * PROBE_REF_S / probe,
                [x * PROBE_REF_S / p for x, p in zip(lat, around)], sum(lat))


def input_properties(props: list[dict]) -> dict:
    """|E|, share of sign patterns the lambda screen prunes, share of zeros
    in nodal functions, over the jobs this run executed."""
    edges = [p["edges"] for p in props if "edges" in p]
    scanned = sum(p.get("scanned", 0) for p in props)
    zeros = [p["zero_share"] for p in props if "zero_share" in p]
    return {
        "edges_mean": statistics.fmean(edges) if edges else None,
        "prune_share": 1 - sum(p.get("survivors", 0) for p in props) / scanned
        if scanned else None,
        "zero_share": statistics.fmean(zeros) if zeros else None,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, int(np.ceil(q / 100 * len(ordered)))) - 1]


def measure(runner, rounds, seconds: float):
    """Whole rounds in a closed loop; another starts while it would end within
    half a round of `seconds`, so a run lasts `seconds` give or take half a
    round."""
    runner.job(rounds[0][0], count=False)  # warm-up: lazy imports, first-call caches
    walls, raw_walls, lats, kinds = [], [], [], []
    t_start = time.perf_counter()
    while True:
        jobs = rounds[len(walls) % len(rounds)]
        wall, lat, raw = runner.round(jobs)
        walls.append(wall)
        raw_walls.append(raw)
        lats += lat
        kinds += [job.kind for job in jobs]
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(walls) + 0.5) / len(walls) > seconds:
            return walls, raw_walls, lats, kinds


def measure_traced(runner, rounds, seconds: float, tracer):
    """Round 0 as plain, traced, traced, then alternately plain and traced."""
    runner.job(rounds[0][0], count=False)
    plain, traced, traced_jobs = [], [], []
    t_start = time.perf_counter()
    step = 0
    while step < 3 or (time.perf_counter() - t_start) * (step + 1) / step <= seconds:
        if step == 0 or (step > 2 and step % 2):
            plain.append(runner.round(rounds[0])[0])
        else:
            first = len(tracer.counts)
            tracer.install()
            try:
                traced.append(runner.round(rounds[0], tracer)[0])
            finally:
                tracer.uninstall()
            traced_jobs.append(list(range(first, len(tracer.counts))))
        step += 1
    return plain, traced, traced_jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return _run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    for need in (ROOT / "src" / "sgspec" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            raise BenchError(f"{need.relative_to(ROOT)} is missing; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    record = run_record()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        cli, rounds, setup_raw, setup_scaled = setup(args.workload, args.seed, workdir)
        import sgspec.graph
        import sgspec.operators
        from gates import Gate, load_oracles

        runner = Runner(cli, Gate(load_oracles(ROOT), sgspec.graph, sgspec.operators))
        problems = []
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            plain, traced, traced_jobs = measure_traced(runner, rounds, args.seconds, tracer)
            layers = [tracer.per_layer(jobs) for jobs in traced_jobs]
            for other in layers[1:]:
                for key, val in other.items():
                    if key.endswith(COUNT_KEYS) and val != layers[0][key]:
                        problems.append(f"traced count {key} differs between passes")
            metrics = {key: (val if key.endswith(COUNT_KEYS)
                             else statistics.median(d[key] for d in layers), _unit(key))
                       for key, val in layers[0].items()}
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(plain) - 1, "ratio")
            tracer.save(outdir / f"{stem}-spans.npz")
            shape = {"rounds_plain": len(plain), "rounds_traced": len(traced),
                     "spans": len(tracer.start)}
            latencies = {}
        else:
            walls, raw_walls, lats, kinds = measure(runner, rounds, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            q = TAIL_Q[args.workload]
            metrics = {
                "wall_s": (statistics.fmean(walls), "s"),
                "job_p50_s": (statistics.median(lats), "s"),
                "job_tail_s": (percentile(lats, q), "s"),
                "setup_s": (statistics.median(setup_scaled), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            shape = {
                "rounds": len(walls), "jobs": len(lats), "tail_percentile": q,
                "jobs_beyond_tail": sum(x > metrics["job_tail_s"][0] for x in lats),
                "kind_p50_s": {k: statistics.median(x for x, kk in zip(lats, kinds) if kk == k)
                               for k in sorted(set(kinds))},
                "raw": {"wall_s": statistics.fmean(raw_walls),
                        "setup_s": statistics.median(setup_raw)},
            }
            latencies = {"latencies_s": sorted(lats)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    unknown = [f for f in runner.failures if not f[2]]
    correct = not unknown and not problems
    failed = len(runner.failures)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **shape,
        "speed_probe_s": statistics.median(runner.probes), "probe_ref_s": PROBE_REF_S,
        "fail_frac": failed / runner.attempted, "inputs": input_properties(runner.props),
        "run": record,
        "known_defects": sorted({f"{job}: {why}" for job, why, known in runner.failures
                                 if known}),
        "unexpected_failures": [f"{job}: {why}" for job, why, _ in unknown[:10]],
        "problems": problems,
    }
    result = {"correct": correct, "attempted": runner.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (outdir / f"{stem}.json").write_text(
        json.dumps({**detail, **result, **latencies}, indent=1) + "\n")

    print(f"sgspec benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  {runner.attempted} jobs, {failed} failed (fail_frac {detail['fail_frac']:.4f}), "
          f"correct {correct}")
    for line in detail["known_defects"] + detail["unexpected_failures"] + problems:
        print(f"  failure: {line}")
    for key, (val, unit) in metrics.items():
        print(f"  {key:<42} {val:>14.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("_frac") or key.endswith("per_solved"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
