"""The job runner: results in job order for any worker count, a first failure
that stops the pool, and no worker left running."""

import multiprocessing
import os
import time

import numpy as np
import pytest

import slumpgp.jobs as jobs_module
from slumpgp.baselines import StgpConfig
from slumpgp.gsgp import GsgpConfig, GsgpError
from slumpgp.jobs import ENGINES, Job, WorkerError, run_job, run_jobs

TRAIN_ROWS = tuple(range(28))
TEST_ROWS = tuple(range(28, 34))
TINY = {"population_size": 20, "generations": 3}

# A test that replaces run_job relies on forked workers inheriting the replacement.
needs_fork = pytest.mark.skipif(
    jobs_module.START_METHOD != "fork", reason="workers are not forked on this platform"
)


def make_job(method, seed, **cfg):
    config = GsgpConfig(**cfg) if method == "gsgp" else StgpConfig(**cfg)
    return Job(method, config, seed, TRAIN_ROWS, TEST_ROWS)


def vectors(results):
    return [sem.tobytes() for sem in results]


class TestRunJobs:
    def test_results_in_job_order_when_the_first_job_is_slowest(self, table1):
        jobs = [
            make_job("gsgp", 1, population_size=20, generations=300),
            make_job("gsgp", 2, **TINY),
            make_job("stgp", 3, **TINY),
            make_job("gsgp", 4, **TINY),
        ]
        serial = run_jobs(jobs, table1, 1)
        assert len(set(vectors(serial))) == len(jobs)
        assert vectors(run_jobs(jobs, table1, 2)) == vectors(serial)
        assert multiprocessing.active_children() == []

    def test_deep_ancestry_job_on_two_workers(self, table1):
        # As in test_cli's TestLongRun: the best individual's ancestry is
        # thousands of records deep, which only the result's vector leaves.
        deep = make_job("gsgp", 1, population_size=10, generations=1500, tournament_size=2)
        try:
            results = run_jobs([deep, make_job("gsgp", 2, **TINY)], table1, 2)
        except RecursionError:
            pytest.fail("a deep-ancestry job exceeded the recursion limit", pytrace=False)
        assert vectors(results[:1]) == vectors([run_job(deep, table1)])

    def test_other_engines_run_in_this_process(self, table1):
        calls = []

        def counted(method):
            def engine(*args):
                calls.append(method)
                return ENGINES[method](*args)
            return engine

        jobs = [make_job("gsgp", 1, **TINY), make_job("stgp", 2, **TINY)]
        engines = {method: counted(method) for method in ENGINES}
        results = run_jobs(jobs, table1, 2, engines)
        assert calls == ["gsgp", "stgp"]
        assert vectors(results) == vectors(run_jobs(jobs, table1, 1))

    @needs_fork
    def test_earliest_failure_in_job_order_raises(self, table1, monkeypatch):
        # Job 1 fails first in time; job 0 fails later and is what the
        # in-process runner would raise, so it is raised here as well.
        def fail(job, data):
            if job.seed == 0:
                time.sleep(0.5)
            raise GsgpError(f"job {job.seed} failed")

        monkeypatch.setattr(jobs_module, "run_job", fail)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(4)]
        with pytest.raises(GsgpError, match="job 0 failed"):
            run_jobs(jobs, table1, 2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_first_failure_cancels_pending_jobs(self, table1, tmp_path, monkeypatch):
        def run_or_fail(job, data):
            (tmp_path / str(job.seed)).touch()
            if job.seed == 0:
                raise GsgpError("job 0 failed")
            time.sleep(0.2)
            return np.zeros(len(data))

        monkeypatch.setattr(jobs_module, "run_job", run_or_fail)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(20)]
        with pytest.raises(GsgpError, match="job 0 failed"):
            run_jobs(jobs, table1, 2)
        assert len(list(tmp_path.iterdir())) < 10
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_dead_worker_raises_worker_error(self, table1, monkeypatch):
        def run_or_die(job, data):
            if job.seed == 1:
                os._exit(3)
            return np.zeros(len(data))

        monkeypatch.setattr(jobs_module, "run_job", run_or_die)
        jobs = [make_job("gsgp", seed, **TINY) for seed in range(3)]
        with pytest.raises(WorkerError, match="worker process died"):
            run_jobs(jobs, table1, 2)
        assert multiprocessing.active_children() == []
