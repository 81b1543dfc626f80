"""Shared fixtures: the built-in table and its conventional 28/6 split."""

import pytest

import slumpgp.jobs
from slumpgp.dataset import Dataset, SplitSpec, builtin_table1, split


@pytest.fixture(scope="session")
def table1():
    return builtin_table1()


@pytest.fixture(scope="session")
def table1_split():
    """The conventional 28/6 split of the built-in table."""
    return split(builtin_table1(), SplitSpec(28))


@pytest.fixture(scope="session")
def huge_split(table1_split):
    """The 28/6 split with every feature × 1e200, so most trees overflow to inf or NaN."""
    return tuple(Dataset(ds.features * 1e200, ds.targets) for ds in table1_split)


@pytest.fixture(autouse=True)
def two_usable_cpus(monkeypatch):
    """`run_jobs` sees two usable CPUs in every test, so no test starts more
    than two workers, and two workers run on a one-CPU machine too."""
    monkeypatch.setattr(slumpgp.jobs, "usable_cpus", lambda: 2)
