"""One job list for multi-run commands, run in-process or on worker processes.

A `Job` is one GP run: a method, its engine config, its seed and the train
and test sets it runs on. `run_job` is a pure function of the job, and
`run_jobs` returns results in job order, so whatever is built from them is
the same for any worker count. `run_jobs` runs one worker per usable CPU, at
most one per job; the worker count describes the machine, not the jobs.

A job's result is only the best individual's semantics, never the
`Individual`: its ancestry is a DAG thousands of records deep after a long
GSGP run, and pickling it back from a worker would be large and recursive.

A caller may hand `run_jobs` engines other than `ENGINES`: a test double, or
a profiler's wrapper that counts and times the engine's calls. Those run in
the calling process whatever the worker count. A forked worker would call a
copy whose recorded calls and timings the caller never sees, and a spawned
one could not be sent a closure at all.

No worker outlives the process that runs the pool. On Linux each worker
asks the kernel to kill it when that process ends, however it ends:
SIGTERM and SIGKILL, which the pool never sees, included.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass
from typing import Union

from .baselines import StgpConfig, stgp_run
from .dataset import Dataset
from .gsgp import GsgpConfig, Semantics, evolve

# Workers are forked on Linux. A forked worker starts in a few milliseconds
# with slumpgp already imported; a spawned one re-imports numpy and slumpgp,
# about 0.22 s of CPU each, or 13% of the CPU that two workers spend on a
# `compare --runs 5` at pop 200 x 30. The CLI starts no threads of its own,
# and OpenBLAS stops its thread pool before a fork. Naming the method also
# keeps Python 3.14's switch of the Linux default to forkserver, whose server
# process outlives the pool, from applying here.
START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"
# prctl(2) option: send this process a signal when the thread that forked it
# ends (linux/prctl.h). A fork pool forks its workers in the thread that first
# submits to it, here the one running run_jobs, which outlives the pool.
_PR_SET_PDEATHSIG = 1


class WorkerError(RuntimeError):
    """A worker process died before its job finished."""


@dataclass(frozen=True)
class Job:
    method: str  # "gsgp" or "stgp"
    config: Union[GsgpConfig, StgpConfig]
    seed: int
    train: Dataset
    test: Dataset


# Each method's engine: (config, train, test, seed) -> a result with `.best.semantics`.
ENGINES = {"gsgp": evolve, "stgp": stgp_run}


def run_job(job: Job, engines=ENGINES) -> Semantics:
    """Run job; the best individual's outputs on its train, then test rows."""
    return engines[job.method](job.config, job.train, job.test, job.seed).best.semantics


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _run_in_worker(job: Job) -> Semantics:
    # Sent by name, and looks run_job up when called: a replacement put on
    # this module before the fork (a test double) is what the workers run.
    return run_job(job)


def _die_with_parent(parent: int) -> None:
    """Pool initializer: the kernel kills this worker when its parent ends.

    A parent stopped by a signal never shuts its pool down, and its workers
    would wait on the job queue forever. Linux only; elsewhere a worker
    still outlives a parent that is killed.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent ended before the call above
        os._exit(1)


def run_jobs(jobs: list[Job], engines=ENGINES) -> list[Semantics]:
    """Run every job and return results in job order.

    The jobs run on min(usable_cpus(), len(jobs)) worker processes, which
    are joined before this returns, or in this process when that is 1 or
    engines is not ENGINES (see the module docstring). The first failure
    cancels the jobs not yet started, and the earliest failed job in job
    order raises its exception here, as it would in-process; a worker that
    dies raises WorkerError. A worker ends with this process, even when
    a signal kills it (on Linux; see `_die_with_parent`).
    """
    workers = min(usable_cpus(), len(jobs))
    if workers <= 1 or engines != ENGINES:
        return [run_job(job, engines) for job in jobs]

    # Imported here: concurrent.futures adds about 20 ms to every CLI start.
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context(START_METHOD),
        initializer=_die_with_parent,
        initargs=(os.getpid(),),
    )
    try:
        try:
            futures = [pool.submit(_run_in_worker, job) for job in jobs]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        # Jobs leave the queue in job order, so the jobs not cancelled are a
        # prefix of the list, and each of them has finished by now.
        for future in futures:
            if not future.cancelled() and future.exception() is not None:
                raise future.exception()
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died: {exc}") from None
