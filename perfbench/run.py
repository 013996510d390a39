"""The ribce benchmark: CLI end-to-end times on three workloads.

    python3 perfbench/run.py --workload regime-symmetric --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src``.

Each invocation is one workload in one fresh process, a closed loop with
one caller on one thread: jobs run one after another, each by calling
``ribce.cli.main(argv)`` in-process on generated JSON files with stdout
captured (or, for the symmetric gap test, which has no subcommand, the
library function).  Every job's output is checked (see ``jobs.py``); at the
digest seed the sha256 of its stdout must also match ``digests.json``.

Set-up (a fresh interpreter importing the package and writing the seeded
inputs, see ``workloads.py``) is repeated ``SETUP_ROUNDS`` times and its
median reported.  Then passes over the job list run for ``--seconds``: the
first is always whole, the last stops when the time is up.  Each job
is timed between two probes of the machine's speed and reported in
reference seconds (see ``speed.py``); so is each set-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs three
passes, the middle one with ``tracing.Tracer`` installed, reports the
per-layer metrics named in ``BENCHMARK.json`` and ``trace.overhead_s``
(traced minus untraced wall time), and writes the spans to
``perfbench/_out``.

The last line of stdout is the result object; the line before it is a
summary with the run's identity (rational backend, row kernel, Python
version, CPU count, seed), the failure ratio, per-kind job latencies and
any problems found.  The exit code is non-zero when any job failed.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("regime-symmetric", "small-games", "exact-vertices")
SETUP_ROUNDS = 7
DIGEST_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")


def _setup(workload, seed, work_dir):
    """Run the set-up step ``SETUP_ROUNDS`` times in fresh interpreters;
    returns the manifest and the median wall time."""
    times = []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(work_dir, ignore_errors=True)
        before = speed.probe()[0]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", workload, "--seed", str(seed), "--out", work_dir],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        took = time.perf_counter() - start
        times.append(speed.scaled(took, before, speed.probe()[0]))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    with open(os.path.join(work_dir, "jobs.json"), encoding="utf-8") as fh:
        return json.load(fh), statistics.median(times)


def _expected_digests(workload, seed):
    if seed != DIGEST_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run_pass(manifest, work_dir, expected, tracer=None, deadline=None):
    """Run every job once, or the jobs before ``deadline`` (a
    ``perf_counter`` time).  Returns a list of per-job records."""
    from jobs import check, digest, run

    reports = {}
    records = []
    # A job's probes are the one before it and the one after it, which is
    # also the next job's first.
    after = speed.probe()
    for job in manifest["jobs"]:
        if deadline is not None and time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.start_job(job["id"])
        record = {"id": job["id"], "kind": job["kind"], "wall": 0.0, "cpu": 0.0, "problems": []}
        try:
            # Every job starts from the same collector state, so the
            # collections inside it are the same in every pass.
            gc.collect()
            before = after
            code, out, wall, cpu = run(job, work_dir)
            after = speed.probe()
            record.update(
                wall=speed.scaled(wall, before[0], after[0]),
                cpu=speed.scaled(cpu, before[1], after[1]),
                raw_wall=wall,
                probe=(before[0] + after[0]) / 2,
            )
            if code != 0:
                record["problems"].append(f"exit code {code}")
            else:
                reports[job["id"]] = json.loads(out)
                record["problems"] += check(job, reports[job["id"]], reports, work_dir)
            record["digest"] = digest(out)
            if expected is not None and expected.get(job["id"]) != record["digest"]:
                record["problems"].append("stdout digest differs from digests.json")
        except (Exception, SystemExit):  # a job that raises is a failed job
            record["problems"].append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        records.append(record)
    return records


def _wall(records):
    return sum(r["wall"] for r in records)


def _latencies(records):
    """Per job kind: the sample count, the median, and the highest
    percentile with at least ten samples beyond it (when there are that
    many)."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["wall"])
    out = {}
    for kind, times in sorted(by_kind.items()):
        times.sort()
        entry = {"count": len(times), "p50_s": statistics.median(times)}
        if len(times) > 10:
            entry["tail_pct"] = round(100 * (len(times) - 10) / len(times), 1)
            entry["tail_s"] = times[-11]
        out[kind] = entry
    return out


def _identity(seed):
    import ribce.rational
    import ribce.rows

    return {
        "rational_backend": ribce.rational.BACKEND,
        "rows_impl": ribce.rows.IMPL,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def measure(manifest, work_dir, seconds, expected):
    """One whole pass, then passes until ``seconds`` are up; the last one
    stops at that time."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(manifest, work_dir, expected)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(manifest, work_dir, expected, deadline=deadline))
    return passes


def _per_job(passes, key):
    """Each job's median ``key`` over the passes that ran it."""
    return [statistics.median(p[k][key] for p in passes if k < len(p))
            for k in range(len(passes[0]))]


def end_to_end(passes, setup_s):
    """Job times are in reference seconds (see ``speed.py``), each job's
    the median over the passes.  ``wall_s`` and ``cpu_s`` sum them;
    ``job_p50_s`` is their median."""
    walls = _per_job(passes, "wall")
    return {
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(_per_job(passes, "cpu")), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _unscaled(passes):
    """The same wall time as ``wall_s``, unscaled, and the median probe
    time, which says how loaded the machine was."""
    return {
        "unscaled_wall_s": sum(_per_job(passes, "raw_wall")),
        "probe_s": statistics.median(r["probe"] for p in passes for r in p),
    }


def per_layer(manifest, work_dir, expected, out_path, header):
    """A traced pass between two untraced ones; the per-layer metrics.  The
    overhead is the traced wall time minus the mean of the untraced ones."""
    from tracing import Tracer

    before = run_pass(manifest, work_dir, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(manifest, work_dir, expected, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(manifest, work_dir, expected)
    names = _per_layer_names()
    values = tracer.metrics([n for n, _ in names])
    values["trace.overhead_s"] = _wall(traced) - (_wall(before) + _wall(after)) / 2
    tracer.dump(out_path, dict(header, latencies=_latencies(traced), wall_s=_wall(traced)))
    return [before, traced, after], {n: (values[n], unit) for n, unit in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description="ribce benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"run one pass at seed {DIGEST_SEED} and store its stdout digests",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ribce", "cli.py")):
        sys.stderr.write(f"perfbench: no ribce sources under {SRC}; run it in a checkout\n")
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        manifest, setup_s = _setup(args.workload, args.seed, work_dir)
        import ribce.cli  # noqa: F401  imported before timing, as a user's process would

        if args.record_digests:
            return _record_digests(args, manifest, work_dir)
        expected = _expected_digests(args.workload, args.seed)
        header = {"workload": args.workload, **_identity(args.seed)}
        if args.trace:
            out_dir = os.path.join(HERE, "_out")
            os.makedirs(out_dir, exist_ok=True)
            out_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
            passes, metrics = per_layer(manifest, work_dir, expected, out_path, header)
            header["trace_file"] = os.path.relpath(out_path, ROOT)
        else:
            passes = measure(manifest, work_dir, args.seconds, expected)
            metrics = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = [r for p in passes for r in p]
    failed = [r for r in records if r["problems"]]
    summary = dict(
        header,
        **(_unscaled(passes) if not failed else {}),
        passes=len(passes),
        attempted=len(records),
        failed_ratio=len(failed) / len(records),
        latencies=_latencies(records),
        problems={r["id"]: r["problems"] for r in failed[:20]},
    )
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


def _record_digests(args, manifest, work_dir):
    if args.seed != DIGEST_SEED:
        sys.stderr.write(f"perfbench: digests are recorded at seed {DIGEST_SEED}\n")
        return 2
    records = run_pass(manifest, work_dir, None)
    bad = [r for r in records if r["problems"]]
    if bad:
        sys.stderr.write(f"perfbench: not recording, jobs failed: {bad}\n")
        return 1
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[args.workload] = {r["id"]: r["digest"] for r in records}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
