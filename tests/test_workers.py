import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from mrsquant import workers
from mrsquant.workers import ordered_map


def _square_plus(offset):
    # a closure: forked workers inherit it, it is never pickled
    return lambda job: job * job + offset


@pytest.mark.parametrize("count", [1, 2, 3, 5, 12])
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_equals_map_in_job_order(n_workers, count):
    # 5 jobs fill 2 x 2 workers and one more; 1 and 2 jobs leave workers without one
    task = _square_plus(7)
    jobs = list(range(count, 0, -1))
    assert list(ordered_map(task, jobs, n_workers)) == list(map(task, jobs))
    assert multiprocessing.active_children() == []
    assert workers._task is None


@pytest.mark.parametrize("n_workers", [1, 0, -3])
def test_a_count_below_2_starts_no_process(monkeypatch, n_workers):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(workers, "ProcessPoolExecutor", refuse)
    assert list(ordered_map(_square_plus(1), range(6), n_workers)) == [1, 2, 5, 10, 17, 26]
    # more workers than jobs: one job runs here too
    assert list(ordered_map(_square_plus(1), [4], 3)) == [17]


def test_close_after_the_first_result_runs_at_most_two_jobs_per_worker(tmp_path):
    def leave_marker(job):
        (tmp_path / f"job{job}").touch()
        return job

    with contextlib.closing(ordered_map(leave_marker, range(20), 2)) as results:
        assert next(results) == 0
    assert 1 <= len(list(tmp_path.iterdir())) <= 4
    assert multiprocessing.active_children() == []
    assert workers._task is None


def test_task_error_reaches_the_caller_and_ends_the_pool():
    def refuse(job):
        if job == 3:
            raise ValueError(f"job {job} refused")
        return job

    with pytest.raises(ValueError, match="job 3 refused"):
        list(ordered_map(refuse, range(10), 2))
    assert multiprocessing.active_children() == []
    assert workers._task is None


_UNPICKLABLE = """
import multiprocessing
from mrsquant.workers import ordered_map
print(list(ordered_map(lambda f: f(), [lambda: 1, lambda: 2], 1)))
for n_workers in (2, 3):
    try:
        list(ordered_map(lambda f: f(), [lambda: 1, lambda: 2], n_workers))
    except Exception as e:
        print(n_workers, str(e)[:len("Can't pickle")])
    print(multiprocessing.active_children())
"""


def test_a_job_that_cannot_be_pickled_raises_to_the_caller():
    # in its own session, so that a hang fails the test and its forked workers can be killed
    proc = subprocess.Popen([sys.executable, "-c", _UNPICKLABLE], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("ordered_map hung on a job that cannot be pickled")
    assert proc.returncode == 0, out
    # at 1 worker the jobs run here and are never pickled
    assert out.splitlines() == ["[1, 2]", "2 Can't pickle", "[]", "3 Can't pickle", "[]"]
