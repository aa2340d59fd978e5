"""Runs one job of the benchmark in a fresh process: a list of ``mrsquant`` CLI calls.

    python3 perfbench/worker.py JOB.json

The job names the program's source directory, the working directory, the
argument lists to pass to ``mrsquant.cli.main`` in turn, the files whose
sizes count as written, whether to trace, and where to write the result.
Imports happen before the clock starts; the wall time covers the calls
only.  A traced job wraps the functions in ``layers.TARGETS`` and writes
its spans to a JSON-lines file after the calls have ended.
"""

import json
import os
import resource
import sys
import time
import traceback


def run(job):
    sys.path.insert(0, job["src"])
    import mrsquant.cli  # noqa: F401  (loaded before timing)

    os.chdir(job["cwd"])
    recorder = undo = None
    if job["trace"]:
        import layers
        import spans

        recorder = spans.Recorder()
        undo = spans.install(recorder, layers.TARGETS)
    codes = []
    durations = []
    for argv in job["ops"]:
        t0 = time.perf_counter()
        try:
            code = sys.modules["mrsquant.cli"].main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash fails this operation; the others still run
            traceback.print_exc()
            code = 1
        durations.append(time.perf_counter() - t0)
        codes.append(code)
    result = {
        "codes": codes,
        "durations": durations,
        "wall_s": sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "written_bytes": sum(os.path.getsize(p) for p in job["outputs"] if os.path.exists(p)),
    }
    if recorder is not None:
        spans.uninstall(undo)
        for span in recorder.spans:
            if span.keep is not None:
                span.attrs.update(layers.model_stats(span.keep))
                span.keep = None
        with open(job["spans"], "w", encoding="utf-8") as f:
            for span in recorder.spans:
                f.write(json.dumps(span.to_dict()) + "\n")
    return result


def main(argv):
    with open(argv[1], encoding="utf-8") as f:
        job = json.load(f)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
