"""Speed lattice and interaction-table construction."""

import dataclasses
import math

import numpy as np
import pytest

import kinetic_traffic
from kinetic_traffic import (
    GameTable,
    IntegrationConfig,
    build_game_table,
    build_grid,
    build_lattice,
    continuity_gap,
    equilibrium_bruteforce,
    equilibrium_recursive,
    integrate_batch,
    jacobian,
    observables,
    random_state,
    random_state_batch,
    run_trajectory,
    stability_report,
    sweep,
)


class TestSpeedLattice:
    def test_two_classes_are_the_extremes(self):
        lat = build_lattice(2)
        assert lat.speeds.tolist() == [0.0, 1.0]

    def test_speeds_equally_spaced(self):
        for n in range(2, 12):
            lat = build_lattice(n)
            gaps = np.diff(lat.speeds)
            assert lat.speeds[0] == 0.0
            assert lat.speeds[-1] == 1.0
            assert np.allclose(gaps, 1.0 / (n - 1), atol=1e-15)

    def test_one_based_lookup(self):
        # class j travels at speeds[j - 1]
        lat = build_lattice(5)
        assert lat.speeds[1 - 1] == 0.0
        assert lat.speeds[3 - 1] == 0.5
        assert lat.speeds[5 - 1] == 1.0

    def test_speeds_are_read_only(self):
        lat = build_lattice(4)
        with pytest.raises(ValueError):
            lat.speeds[0] = 0.3

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            build_lattice(1)


class TestModelConstants:
    def test_defaults(self):
        assert kinetic_traffic.RHO_MAX == 200.0
        assert kinetic_traffic.V_MAX == 100.0

    @pytest.mark.parametrize("record", [
        lambda: build_lattice(5),
        lambda: build_game_table(5, 0.4),
        lambda: equilibrium_recursive(5, 0.7),
    ], ids=["SpeedLattice", "GameTable", "EquilibriumResult"])
    def test_has_no_class_count(self, record):
        # a record's width is its class count, so no field repeats it
        r = record()
        assert r.n == 5 and type(r.n) is int
        fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
        assert "n" not in fields
        assert type(r)(**fields).n == 5
        with pytest.raises(TypeError):
            type(r)(n=5, **fields)
        with pytest.raises(AttributeError):
            r.n = 4

    def test_has_no_settable_constants(self):
        # the library runs in model time and relabels units by two
        # constants, so no params object is left to set either
        with pytest.raises(ImportError):
            from kinetic_traffic import ModelParams  # noqa: F401
        assert not hasattr(kinetic_traffic.lattice, "ModelParams")
        assert "ModelParams" not in kinetic_traffic.__all__


class TestGameTable:
    def test_rows_sum_to_one_exactly(self):
        # the two outcome probabilities are rho and 1-rho, whose float
        # sum is exact, so the deviation must be zero, not merely small
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            densities = [0.0, 0.25, 0.5, 0.75, 1.0, 1e-300, 1.0 - 1e-16]
            densities += list(rng.uniform(0.0, 1.0, 25))
            for rho in densities:
                A = build_game_table(n, float(rho)).A
                dev = np.abs(A.sum(axis=2) - 1.0).max()
                assert dev == 0.0, f"row sum off by {dev} at n={n}, rho={rho}"

    def test_entries_are_probabilities(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 7):
            for rho in rng.uniform(0.0, 1.0, 20):
                A = build_game_table(n, float(rho)).A
                assert A.min() >= 0.0
                assert A.max() <= 1.0

    def test_at_most_two_outcomes_per_encounter(self):
        for n in (2, 3, 6):
            A = build_game_table(n, 0.37).A
            support = np.count_nonzero(A, axis=2)
            assert support.max() <= 2

    def test_slower_candidate_stays_or_accelerates(self):
        # interacting with a faster or equal vehicle: stay with
        # probability rho, move one class up with probability 1-rho
        n, rho = 4, 0.3
        tab = build_game_table(n, rho)
        for h in range(1, n):
            for k in range(h, n + 1):
                assert tab.A[h - 1, k - 1, h - 1] == rho
                assert tab.A[h - 1, k - 1, h] == 1.0 - rho
                for j in range(1, n + 1):
                    if j not in (h, h + 1):
                        assert tab.A[h - 1, k - 1, j - 1] == 0.0

    def test_faster_candidate_brakes_or_keeps_speed(self):
        # interacting with a slower vehicle: drop to its class with
        # probability rho, keep the current class with probability 1-rho
        n, rho = 5, 0.62
        tab = build_game_table(n, rho)
        for h in range(2, n + 1):
            for k in range(1, h):
                assert tab.A[h - 1, k - 1, k - 1] == rho
                assert tab.A[h - 1, k - 1, h - 1] == 1.0 - rho

    def test_top_speed_pair_is_frozen(self):
        for n in (2, 3, 5):
            tab = build_game_table(n, 0.8)
            assert tab.A[n - 1, n - 1, n - 1] == 1.0

    def test_empty_road_always_accelerates(self):
        tab = build_game_table(3, 0.0)
        # A[h-1, k-1, j-1]: class 1 meeting class 2 ends in class 2
        assert tab.A[0, 1, 1] == 1.0
        assert tab.A[0, 1, 0] == 0.0

    def test_jammed_road_never_accelerates(self):
        tab = build_game_table(3, 1.0)
        # A[h-1, k-1, j-1]: class 1 stays put, class 2 drops to class 1
        assert tab.A[0, 1, 0] == 1.0
        assert tab.A[1, 0, 0] == 1.0

    def test_table_is_read_only(self):
        tab = build_game_table(3, 0.4)
        with pytest.raises(ValueError):
            tab.A[0, 0, 0] = 0.9

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            build_game_table(3, -0.01)
        with pytest.raises(ValueError):
            build_game_table(3, 1.01)

    def test_corrupted_table_is_constructible(self):
        # GameTable itself does not re-validate; the verification suite
        # relies on that to exercise its negative control
        A = build_game_table(3, 0.4).A.copy()
        A[0, 0, 0] += 0.1
        broken = GameTable(rho=0.4, A=A)
        assert np.abs(broken.A.sum(axis=2) - 1.0).max() > 0.09


# every public function that takes a class count n, or a density rho in
# [0, 1], called with a valid value for the other
TAKES_N = {
    "build_lattice": build_lattice,
    "build_game_table": lambda n: build_game_table(n, 0.5),
    "equilibrium_recursive": lambda n: equilibrium_recursive(n, 0.5),
    "equilibrium_bruteforce": lambda n: equilibrium_bruteforce(n, 0.5),
    "random_state": lambda n: random_state(n, 0.5),
    "random_state_batch": lambda n: random_state_batch(n, 0.5, 2),
    "sweep": lambda n: sweep(n, build_grid(11)),
}
TAKES_RHO = {
    "build_game_table": lambda rho: build_game_table(3, rho),
    "equilibrium_recursive": lambda rho: equilibrium_recursive(3, rho),
    "random_state": lambda rho: random_state(3, rho),
    "random_state_batch": lambda rho: random_state_batch(3, rho, 2),
}

# every public function of states, by the number of axes it takes: one
# state vector, or a batch of row states; continuity_gap checks either
# side of its pairs, here against a valid partner
SHORT = IntegrationConfig(dt=0.05, t_final=0.1)
PARTNER = np.array([[0.1, 0.1]])
TAKES_STATES = {
    "run_trajectory": (1, lambda f: run_trajectory(f, SHORT)),
    "observables": (1, observables),
    "stability_report": (1, stability_report),
    "jacobian": (1, jacobian),
    "integrate_batch": (2, lambda F: integrate_batch(F, SHORT)),
    "continuity_gap-F0": (2, lambda F: continuity_gap(F, PARTNER, 0.1)),
    "continuity_gap-G0": (2, lambda F: continuity_gap(PARTNER, F, 0.1)),
}
# a bad state and its message, alone or as the middle row of a batch
BAD_STATES = {
    "top-over-one": ([1.5, 0.0], "total density 1.5 exceeds 1"),
    "dense": ([0.9, 0.9], "total density 1.8 exceeds 1"),
    "negative": ([-0.5, 1.0], "negative class population -0.5"),
    "below-the-clamp-window": ([-1e-11, 0.2], "negative class population -1e-11"),
    "inf": ([math.inf, 0.0], "state contains non-finite values"),
    "nan": ([0.2, math.nan], "state contains non-finite values"),
    "one-class": ([0.5], "need at least two speed classes, got n=1"),
}
SHAPE_MESSAGES = {
    1: "state must be a vector of class densities",
    2: "batch must be a 2-D array of row states",
}


def arrays_of(result):
    """The arrays a function of states returns, alone or in a tuple."""
    parts = result if isinstance(result, tuple) else (result,)
    return [x for x in parts if isinstance(x, np.ndarray)]


class TestInputRules:
    # one rule per input, with one message, at every site that takes it

    @pytest.mark.parametrize("n", [1, -3, 2.5, 3.0, "3"])
    @pytest.mark.parametrize("take", TAKES_N.values(), ids=TAKES_N.keys())
    def test_class_count_is_an_integer_of_at_least_two(self, take, n):
        with pytest.raises(ValueError) as exc:
            take(n)
        assert str(exc.value) == f"need at least two speed classes, got n={n}"

    @pytest.mark.parametrize("rho", [-0.01, 1.01, float("nan")])
    @pytest.mark.parametrize("take", TAKES_RHO.values(), ids=TAKES_RHO.keys())
    def test_density_lies_in_the_unit_interval(self, take, rho):
        with pytest.raises(ValueError) as exc:
            take(rho)
        assert str(exc.value) == f"density {rho} outside [0, 1]"

    @pytest.mark.parametrize("bad", BAD_STATES.values(), ids=BAD_STATES.keys())
    @pytest.mark.parametrize("ndim, take", TAKES_STATES.values(), ids=TAKES_STATES.keys())
    def test_states_follow_one_rule(self, ndim, take, bad):
        # no verdict on a state that no trajectory can reach ([1.5, 0.0]
        # was called stable), and a bad start row is an input error with
        # the rule's message, not a numerical failure of the loop
        row, message = np.array(bad[0]), bad[1]
        if ndim == 2:
            row = np.array([np.full(row.size, 0.1), row, np.full(row.size, 0.15)])
        with pytest.raises(ValueError) as exc:
            take(row)
        assert str(exc.value) == message

    @pytest.mark.parametrize("ndim, take", TAKES_STATES.values(), ids=TAKES_STATES.keys())
    def test_states_have_one_shape(self, ndim, take):
        # stability_report read two copies of this stable state as one
        # 6-class state and called it unstable, and jacobian failed inside
        # numpy's broadcasting
        f = equilibrium_recursive(3, 0.3).f_inf
        for wrong in (np.float64(0.5), f, np.vstack([f, f]), f[None, None, :]):
            if wrong.ndim != ndim:
                with pytest.raises(ValueError) as exc:
                    take(wrong)
                assert str(exc.value) == SHAPE_MESSAGES[ndim], wrong.shape

    @pytest.mark.parametrize("ndim, take", TAKES_STATES.values(), ids=TAKES_STATES.keys())
    def test_states_pass_unchanged_within_the_clamp_window(self, ndim, take):
        # a class may dip below zero by up to 1e-12; the input is read-only,
        # so a write to it raises, and no returned array shares its memory
        given = np.array([-1e-13, 0.2]).reshape((1,) * (ndim - 1) + (2,))
        want = given.copy()
        given.setflags(write=False)
        out = arrays_of(take(given))
        assert given.tobytes() == want.tobytes()
        assert not any(np.shares_memory(given, x) for x in out)
