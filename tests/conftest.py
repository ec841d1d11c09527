"""Shared pytest configuration.

Property tests run under a fixed hypothesis profile: derandomized, so
every run draws the same examples, with a bounded example count and no
per-example deadline, so the suite stays deterministic and its time
bounded.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")


def logistic_p1(p0, rho, eta0, t):
    """Exact P_1 = f_1 at time t from P_1 = p0 at time 0.

    The first level of the cumulative cascade is autonomous, the logistic
    dP_1/dt = a P_1 (c - P_1) with a = eta0 rho^2 and c = 2 rho - 1, for
    every class count n.  Written with expm1, since -expm1(-a c t) / c
    tends to a t without cancelling as c -> 0; at rho = 1/2 exactly the
    solution is p0 / (1 + eta0 p0 t / 4).
    """
    a, c = eta0 * rho * rho, 2.0 * rho - 1.0
    growth = -np.expm1(-a * c * t) / c if c != 0.0 else a * t
    return p0 / (np.exp(-a * c * t) + p0 * growth)


@pytest.fixture(scope="session")
def exact_p1():
    return logistic_p1
