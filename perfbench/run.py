"""Benchmark of the mrsquant program: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload {experiment,quantify,simulate} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/``.  Inputs are built from --seed into ``.perfbench/<workload>/``.

--trace 0 sets the inputs up three times (``setup_s`` is the median),
then repeats the workload's timed CLI calls, each round in a fresh
process, until --seconds have passed, checks the outputs and prints the
end-to-end metrics.  --trace 1 sets up once with spans on, alternates
untraced and traced rounds for --seconds, and prints the per-layer
metrics instead.  The last line of standard output is the result; a full
record with the machine, versions and per-round figures is written to
``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("written_mb", "MB"),
    ("naa_cr_median_err", "ratio"), ("cho_cr_median_err", "ratio"),
    ("cross_naa_cr_median_err", "ratio"), ("cross_cho_cr_median_err", "ratio"),
    ("oracle_naa_cr_median_err", "ratio"), ("oracle_cho_cr_median_err", "ratio"),
]


class BenchError(Exception):
    pass


def run_job(cwd, jobs, tag, ops, outputs, trace):
    """Run ops through mrsquant.cli.main in a fresh process; returns the worker's result."""
    job = {"src": SRC, "cwd": cwd, "ops": ops, "trace": bool(trace), "outputs": outputs,
           "result": os.path.join(jobs, f"{tag}.result.json"),
           "spans": os.path.join(jobs, f"{tag}.spans.jsonl")}
    job_path = os.path.join(jobs, f"{tag}.job.json")
    with open(job_path, "w", encoding="utf-8") as f:
        json.dump(job, f)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker for {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(job["result"], encoding="utf-8") as f:
        result = json.load(f)
    result["stderr"] = proc.stderr[-2000:]
    if trace:
        with open(job["spans"], encoding="utf-8") as f:
            result["spans"] = [json.loads(line) for line in f]
    return result


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def source_digest():
    package = os.path.join(SRC, "mrsquant")
    return digest(sorted(os.path.join(package, n) for n in os.listdir(package) if n.endswith(".py")))


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def run_record(args, workload):
    import numpy

    from workloads import THREADS

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                       None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name, "seed": args.seed, "derived_seeds": workload.seeds,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu or platform.processor(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_flag": int(THREADS),
        "thread_env": {k: os.environ.get(k) for k in
                       ("MRSQUANT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }


def timed_rounds(workload, jobs, seconds, trace):
    """Whole rounds until seconds have passed; a traced run alternates untraced/traced pairs.

    Each round writes to a fresh directory, and the one before it is removed
    at once (see measure).
    """
    modes = [False, True] if trace else [False]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for traced in modes:
            out = f"round{len(rounds)}"
            os.makedirs(workload.path(out))
            r = run_job(workload.data, jobs, out, workload.round_ops(out),
                        [workload.path(out, p) for p in workload.outputs()], traced)
            r["traced"] = traced
            r["out"] = out
            r["digest"] = None if any(c != 0 for c in r["codes"]) else digest(
                [workload.path(out, p) for p in workload.outputs()])
            if rounds:
                shutil.rmtree(workload.path(rounds[-1]["out"]))
            rounds.append(r)
    return rounds


def exercise(args, workload, workdir):
    """Set up, run the timed rounds and check the last round's outputs.

    Returns (setups, rounds, problems, accuracy figures or None).
    """
    from mrsquant.errors import MrsQuantError

    jobs = os.path.join(workdir, "jobs")
    os.makedirs(jobs)
    # Every set-up and round writes a fresh directory, and each is removed as
    # soon as it is no longer needed: files deleted before the kernel writes
    # them back (30 s by default) never reach the disk.  Truncating or deleting
    # files that have been written back costs about 19 ms per MB on a file
    # system mounted with discard, and the disk traffic slows later runs.
    n_setups = 1 if args.trace else SETUP_REPEATS
    setups = []
    for k in range(n_setups):
        workload.data = os.path.join(workdir, f"setup{k}")
        os.makedirs(workload.data)
        workload.prepare()
        r = run_job(workload.data, jobs, f"setup{k}", workload.setup_ops(), [], args.trace)
        if any(c != 0 for c in r["codes"]):
            raise BenchError(f"set-up call failed with exit codes {r['codes']}")
        setups.append(r)
        if k < n_setups - 1:
            shutil.rmtree(workload.data)
    rounds = timed_rounds(workload, jobs, args.seconds, args.trace)

    problems = []
    figures = None
    digests = {r["digest"] for r in rounds if r["digest"] is not None}
    if len(digests) > 1:
        problems.append("rounds wrote different outputs from the same inputs")
    if rounds[-1]["digest"] is None:
        problems.append("the last round failed, so its outputs were not checked")
    else:
        try:
            found, figures = workload.check(rounds[-1]["out"])
            problems += found
        except (ValueError, KeyError, IndexError, OSError, MrsQuantError) as e:
            problems.append(f"outputs could not be read or recomputed: {e!r}")
    return setups, rounds, problems, figures


def measure(args):
    from layers import layer_metrics
    from workloads import WORKLOADS

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setups, rounds, problems, figures = exercise(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(
            setups[0]["spans"], [r["spans"] for r in rounds if r["traced"]],
            [r["wall_s"] for r in rounds if not r["traced"]],
            [r["wall_s"] for r in rounds if r["traced"]])
    else:
        ok_rounds = [r for r in rounds if r["digest"] is not None] or rounds
        values = {
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "wall_s": statistics.median(r["wall_s"] for r in ok_rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_rounds),
            "written_mb": statistics.median(r["written_bytes"] for r in ok_rounds) / 2.0 ** 20,
        }
        values.update(figures or {})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END if name in values}
    result = {"correct": not problems and figures is not None,
              "attempted": sum(len(r["codes"]) for r in rounds),
              "failed": sum(1 for r in rounds for c in r["codes"] if c != 0),
              "metrics": metrics}
    record = run_record(args, workload)
    record.update({
        "problems": problems,
        "setup_walls_s": [s["wall_s"] for s in setups],
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "durations", "peak_rss_mb",
                                      "written_bytes", "codes", "stderr")} for r in rounds],
        "result": result,
    })
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for p in problems:
        print(f"check failed: {p}")
    print(f"record: {record_path}")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["experiment", "quantify", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mrsquant", "cli.py")):
        print(f"error: no program source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = measure(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
