"""Fixtures and checks shared by the tests of the forked helper process that
fits and reports evaluate in (`trainer._evaluator`)."""

import os

import pytest

from longtopic.inference import trainer

# whether a fit or a report forks its helper on this machine
CAN_FORK = hasattr(os, "fork") and len(getattr(
    os, "sched_getaffinity", lambda pid: ())(0)) >= 2


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs. A fit or a
    report forks its helper here as under a single-threaded BLAS, whatever
    this process's BLAS pool, so that a test takes the forked path whenever
    it may run on two CPUs."""
    monkeypatch.setattr(trainer, "_os_threads", lambda: 1)
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return pids


def no_fork():
    """os.fork refused: the helper's work runs in process."""
    raise OSError("fork refused")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
