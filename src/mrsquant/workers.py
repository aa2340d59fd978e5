"""How work is spread over processes: one ordered map over forked workers.

Simulation chunks and tree jobs hold the interpreter lock for most of their
run, so threads would not overlap; they run in forked processes instead.
"""

import multiprocessing
import pickle
from collections import deque
from concurrent.futures import ProcessPoolExecutor

_task = None  # the running map's task, which its forked workers inherit; None between maps


def _run(blob):
    return _task(pickle.loads(blob))


def ordered_map(task, jobs, workers):
    """Yield task(job) for each of jobs, in job order.

    With min(workers, len(jobs)) <= 1 the jobs run here, one after another,
    so a worker count below 1 counts as 1.  Otherwise they run in that many
    forked processes, which inherit task (closures included) from this one,
    so only jobs and results are pickled.  Each job is pickled here, before it
    is submitted, so a job that cannot be pickled raises to the caller: the
    pool's own feeder thread would leave the pool unable to shut down.  At
    most two jobs per worker are in flight, so the caller holds a few results
    whatever the job count.  The pool is shut down, its queued jobs
    cancelled, however the iteration ends.
    """
    global _task
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(task, jobs)
        return
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    _task = task  # before the first submit, which forks the workers
    try:
        in_flight = deque()
        for job in jobs:
            in_flight.append(pool.submit(_run, pickle.dumps(job)))
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
        _task = None
