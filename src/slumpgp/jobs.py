"""One job list for multi-run commands, run in-process or on worker processes.

A `Job` is one GP run: a method, its engine config, its seed and the rows of
the dataset it trains and tests on. `run_job` is a pure function of the job
and the dataset, and `run_jobs` returns results in job order, so whatever is
built from them is the same for any worker count.

A job's result is only the best individual's semantics, never the
`Individual`: its ancestry is a DAG thousands of records deep after a long
GSGP run, and pickling it back from a worker would be large and recursive.

A caller may hand `run_jobs` engines other than `ENGINES`: a test double, or
a profiler's wrapper that counts and times the engine's calls. Those run in
the calling process whatever the worker count. A forked worker would call a
copy whose recorded calls and timings the caller never sees, and a spawned
one could not be sent a closure at all.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
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


class WorkerError(RuntimeError):
    """A worker process died before its job finished."""


@dataclass(frozen=True)
class Job:
    method: str  # "gsgp" or "stgp"
    config: Union[GsgpConfig, StgpConfig]
    seed: int
    train_rows: tuple[int, ...]
    test_rows: tuple[int, ...]


# Each method's engine: (config, train, test) -> a result with `.best.semantics`.
ENGINES = {"gsgp": evolve, "stgp": stgp_run}


def run_job(job: Job, data: Dataset, engines=ENGINES) -> Semantics:
    """Run job on data; the best individual's outputs on its train, then test rows."""
    train = Dataset(tuple(data.samples[i] for i in job.train_rows))
    test = Dataset(tuple(data.samples[i] for i in job.test_rows))
    result = engines[job.method](replace(job.config, rng_seed=job.seed), train, test)
    return result.best.semantics


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


_worker_data: Dataset | None = None  # set once in each worker process


def _start_worker(data: Dataset) -> None:
    global _worker_data
    _worker_data = data


def _run_in_worker(job: Job) -> Semantics:
    return run_job(job, _worker_data)


def run_jobs(jobs: list[Job], data: Dataset, workers: int, engines=ENGINES) -> list[Semantics]:
    """Run every job and return results in job order.

    The jobs run in this process when workers == 1 or engines is not
    ENGINES (see the module docstring). Otherwise they run on `workers`
    worker processes, which get data once each and are joined before this
    returns. The first failure cancels the jobs not yet started, and the
    earliest failed job in job order raises its exception here, as it would
    in-process; a worker that dies raises WorkerError.
    """
    if workers == 1 or engines != ENGINES:
        return [run_job(job, data, engines) for job in jobs]

    # Imported here: concurrent.futures adds about 20 ms to every CLI start.
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context(START_METHOD),
        initializer=_start_worker,
        initargs=(data,),
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
