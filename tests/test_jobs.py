"""The job runner: results in job order for any worker count, a first failure
that stops the pool, and no worker left running."""

import concurrent.futures
import multiprocessing
import os
import time

import numpy as np
import pytest

import slumpgp.jobs as jobs_module
from slumpgp.baselines import StgpConfig
from slumpgp.dataset import SplitSpec, builtin_table1, split
from slumpgp.gsgp import GsgpConfig, GsgpError
from slumpgp.jobs import ENGINES, Job, WorkerError, run_job, run_jobs

TRAIN, TEST = split(builtin_table1(), SplitSpec(28))
TINY = {"population_size": 20, "generations": 3}

# A test that replaces run_job relies on forked workers inheriting the replacement.
needs_fork = pytest.mark.skipif(
    jobs_module.START_METHOD != "fork", reason="workers are not forked on this platform"
)


def make_job(method, seed, **cfg):
    config = GsgpConfig(**cfg) if method == "gsgp" else StgpConfig(**cfg)
    return Job(method, config, seed, TRAIN, TEST)


def vectors(results):
    return [sem.tobytes() for sem in results]


def in_process(jobs, monkeypatch, engines=ENGINES):
    """run_jobs on one usable CPU, so every job runs in this process."""
    with monkeypatch.context() as m:
        m.setattr(jobs_module, "usable_cpus", lambda: 1)
        return run_jobs(jobs, engines)


class TestRunJobs:
    @pytest.mark.parametrize("cpus, n_jobs, workers", [(8, 2, 2), (2, 6, 2), (1, 6, 1)])
    def test_one_worker_per_cpu_and_at_most_one_per_job(self, monkeypatch, cpus, n_jobs, workers):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(jobs_module, "usable_cpus", lambda: cpus)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(n_jobs)]
        results = run_jobs(jobs)
        # One worker means no pool: the jobs run in this process.
        assert pools == ([workers] if workers > 1 else [])
        assert vectors(results) == vectors([run_job(job) for job in jobs])
        assert multiprocessing.active_children() == []

    def test_results_in_job_order_when_the_first_job_is_slowest(self, monkeypatch):
        jobs = [
            make_job("gsgp", 1, population_size=20, generations=300),
            make_job("gsgp", 2, **TINY),
            make_job("stgp", 3, **TINY),
            make_job("gsgp", 4, **TINY),
        ]
        serial = in_process(jobs, monkeypatch)
        assert len(set(vectors(serial))) == len(jobs)
        assert vectors(run_jobs(jobs)) == vectors(serial)
        assert multiprocessing.active_children() == []

    def test_deep_ancestry_job_on_two_workers(self):
        # As in test_cli's TestLongRun: the best individual's ancestry is
        # thousands of records deep, which only the result's vector leaves.
        deep = make_job("gsgp", 1, population_size=10, generations=1500, tournament_size=2)
        try:
            results = run_jobs([deep, make_job("gsgp", 2, **TINY)])
        except RecursionError:
            pytest.fail("a deep-ancestry job exceeded the recursion limit", pytrace=False)
        assert vectors(results[:1]) == vectors([run_job(deep)])

    def test_other_engines_run_in_this_process(self, monkeypatch):
        calls = []

        def counted(method):
            def engine(*args):
                calls.append(method)
                return ENGINES[method](*args)
            return engine

        jobs = [make_job("gsgp", 1, **TINY), make_job("stgp", 2, **TINY)]
        engines = {method: counted(method) for method in ENGINES}
        results = run_jobs(jobs, engines)
        assert calls == ["gsgp", "stgp"]
        assert vectors(results) == vectors(in_process(jobs, monkeypatch))

    @needs_fork
    def test_earliest_failure_in_job_order_raises(self, monkeypatch):
        # Job 1 fails first in time; job 0 fails later and is what the
        # in-process runner would raise, so it is raised here as well.
        def fail(job):
            if job.seed == 0:
                time.sleep(0.5)
            raise GsgpError(f"job {job.seed} failed")

        monkeypatch.setattr(jobs_module, "run_job", fail)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(4)]
        with pytest.raises(GsgpError, match="job 0 failed"):
            run_jobs(jobs)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_first_failure_cancels_pending_jobs(self, tmp_path, monkeypatch):
        def run_or_fail(job):
            (tmp_path / str(job.seed)).touch()
            if job.seed == 0:
                raise GsgpError("job 0 failed")
            time.sleep(0.2)
            return np.zeros(len(job.train) + len(job.test))

        monkeypatch.setattr(jobs_module, "run_job", run_or_fail)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(20)]
        with pytest.raises(GsgpError, match="job 0 failed"):
            run_jobs(jobs)
        assert len(list(tmp_path.iterdir())) < 10
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_dead_worker_raises_worker_error(self, monkeypatch):
        def run_or_die(job):
            if job.seed == 1:
                os._exit(3)
            return np.zeros(len(job.train) + len(job.test))

        monkeypatch.setattr(jobs_module, "run_job", run_or_die)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(3)]
        with pytest.raises(WorkerError, match="worker process died"):
            run_jobs(jobs)
        assert multiprocessing.active_children() == []
