"""Shared fixtures: the heavyweight sweeps are computed once per session.

The two table sweeps solve under ``simplefilter("error")``, so a warning on
any of the 197 table cells fails every test that uses them."""

import time
import warnings

import pytest

from lattice_qre.model import ModelSpec
from lattice_qre.qubitization import optimize_qubitization
from lattice_qre.reference_tables import QUBITIZATION_TABLES, TROTTER_TABLES
from lattice_qre.trotter_cost import Strategy, optimize_trotter
from lattice_qre.circuitlab import verify


class Sweep:
    def __init__(self, results, elapsed):
        self.results = results
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def qubitization_sweep():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {
            (kind, L): optimize_qubitization(ModelSpec(kind, L))
            for kind, table in QUBITIZATION_TABLES.items()
            for L in table
        }
    return Sweep(results, time.perf_counter() - start)


@pytest.fixture(scope="session")
def trotter_sweep():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {
            (kind, L, strategy): optimize_trotter(ModelSpec(kind, L), strategy)
            for kind, table in TROTTER_TABLES.items()
            for L in table
            for strategy in Strategy
        }
    return Sweep(results, time.perf_counter() - start)


@pytest.fixture(scope="session")
def circuit_checks():
    start = time.perf_counter()
    results = {r.name: r for r in verify.run_all()}
    return Sweep(results, time.perf_counter() - start)
