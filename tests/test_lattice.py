"""Speed lattice and interaction-table construction."""

import numpy as np
import pytest

from kinetic_traffic import (
    GameTable,
    ModelParams,
    build_game_table,
    build_lattice,
    equilibrium_bruteforce,
    equilibrium_recursive,
    random_state,
    random_state_batch,
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


class TestModelParams:
    def test_defaults(self):
        p = ModelParams(n=4)
        assert p.rho_max == 200.0
        assert p.v_max == 100.0
        assert p.eta0 == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelParams(n=1)
        with pytest.raises(ValueError):
            ModelParams(n=3, rho_max=0.0)
        with pytest.raises(ValueError):
            ModelParams(n=3, v_max=-1.0)
        with pytest.raises(ValueError):
            ModelParams(n=3, eta0=0.0)
        for name in ("rho_max", "v_max", "eta0"):
            for value in (float("inf"), float("nan"), -float("inf")):
                with pytest.raises(ValueError, match=name):
                    ModelParams(n=3, **{name: value})


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
        broken = GameTable(n=3, rho=0.4, A=A)
        assert np.abs(broken.A.sum(axis=2) - 1.0).max() > 0.09


# every public function that takes a class count n, or a density rho in
# [0, 1], called with a valid value for the other
TAKES_N = {
    "ModelParams": lambda n: ModelParams(n=n),
    "build_lattice": build_lattice,
    "build_game_table": lambda n: build_game_table(n, 0.5),
    "equilibrium_recursive": lambda n: equilibrium_recursive(n, 0.5),
    "equilibrium_bruteforce": lambda n: equilibrium_bruteforce(n, 0.5),
    "random_state": lambda n: random_state(n, 0.5),
    "random_state_batch": lambda n: random_state_batch(n, 0.5, 2),
}
TAKES_RHO = {
    "build_game_table": lambda rho: build_game_table(3, rho),
    "equilibrium_recursive": lambda rho: equilibrium_recursive(3, rho),
    "random_state": lambda rho: random_state(3, rho),
    "random_state_batch": lambda rho: random_state_batch(3, rho, 2),
}


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
