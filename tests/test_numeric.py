import cmath
import hashlib
import json
import math

import numpy as np
import pytest

import synthetic
from synthetic import synthetic_sequence, to_jsonl
from vortexdiagrams import numeric
from vortexdiagrams.atlas import load_catalog
from vortexdiagrams.diagram import Diagram, RuleReport, canonical_key, validate
from vortexdiagrams.numeric import (
    AmbiguousExponentError,
    CollisionError,
    Configuration,
    NoConvergenceError,
    SingularSequenceSample,
    check_identities,
    classify,
    fit_exponent,
    make_configuration,
    probe,
    residual,
    solve,
    velocities,
)

OMEGA = np.exp(2j * np.pi / 3)

# sha256 of the solutions (lambda, z and w as sorted-key JSON) of acceptance
# 7's first 24 strength vectors, lambda = +1 then -1 with attempts=10.  A
# solver change must either keep these roots or re-pin them on purpose.
SWEEP_SOLUTIONS_SHA256 = "ad516a4d751c59b1b10b488ec9fcbab9b7011b802ec8c8d91c067bf4383db0bd"

# sha256 of the same solutions' accepted residual norms (`solve`'s trace,
# as JSON), so that a solver change that keeps the roots but takes other
# steps to them shows too.
SWEEP_TRACES_SHA256 = "6d678fefe214d0f1510c32b9ef119ff2d0e53da62fdad45e2524f81a833d043e"

# Strengths of one sign with a multiplier of that sign, and mixed signs:
# inputs the sign refusal must leave to the attempts.  SIGN_CASES_SHA256 is
# the sha256 of their solutions (or null) and traces at seed 1, attempts=10.
SIGN_CASES = [
    ([1.0, 1.0], 1.0),
    ([0.5, 2.0, 1.0], 1.0),
    ([2.0, 0.5, 1.0, 3.0], cmath.exp(0.3j)),
    ([-1.0, -2.0, -0.5], -1.0),
    ([-1.5, -1.0, -2.5, -0.7, -1.2], -1.0),
    ([1.0, -2.0, 1.5], 1.0),
    ([1.0, -2.0, 1.5], -1.0),
    ([2.0, 3.0, -1.0, 1.0, 1.0], 1.0),
    ([1.0, 1.0, 1.0, -2.0, 0.5], -1.0),
]
SIGN_CASES_SHA256 = "0ed548f6f1867ddedf990d05870a2163fb713c67002e88f32d1e6eafd4bbcb7e"


def count_jacobians(monkeypatch):
    """A list that grows by one for every call that builds Jacobians,
    holding how many it built: one, or one per row of a stack."""
    calls = []
    jacobian = numeric._jacobian

    def counted(D, system):
        calls.append(math.prod(D.shape[:-2]))
        return jacobian(D, system)

    monkeypatch.setattr(numeric, "_jacobian", counted)
    return calls


def solo_attempts(monkeypatch):
    """A list that grows by one for every attempt that runs alone."""
    calls = []
    gauss_newton = numeric._gauss_newton

    def recorded(*args):
        calls.append(args)
        return gauss_newton(*args)

    monkeypatch.setattr(numeric, "_gauss_newton", recorded)
    return calls


def stacked_starts(monkeypatch):
    """A list that grows by a copy of the starts of every stack of attempts."""
    stacks = []
    stack = numeric._gauss_newton_stack

    def recorded(X, *args):
        stacks.append(X.copy())  # the stack overwrites X
        return stack(X, *args)

    monkeypatch.setattr(numeric, "_gauss_newton_stack", recorded)
    return stacks


def two_vortex():
    s = 1 / math.sqrt(2)
    return make_configuration([1.0, 1.0], [s, -s], None, 1.0)


def equilateral():
    return make_configuration([1.0, 1.0, 1.0], [1.0, OMEGA, OMEGA**2], None, 1.0)


class TestResidual:
    def test_two_vortex_closed_form(self):
        assert residual(two_vortex()) < 1e-12

    def test_equilateral_closed_form(self):
        assert residual(equilateral()) < 1e-12

    def test_perturbation_raises_residual(self):
        c = equilateral()
        z = list(c.z)
        z[0] += 1e-3
        moved = make_configuration(c.gamma, z, None, c.lam)
        assert residual(moved) > 1e-4  # at least proportional to the nudge

    def test_collision_reported(self):
        with pytest.raises(CollisionError):
            make_configuration([1, 1], [0.5, 0.5 + 1e-15], None, 1.0)

    def test_a_colliding_converged_point_is_no_configuration(self):
        # every vortex at the origin: `_finish` returns None, it does not raise
        assert numeric._finish([1, 1, 1], 1, np.zeros(6)) is None

    def test_wrong_multiplier_fails(self):
        c = make_configuration([1.0, 1.0], two_vortex().z, None, 2.0)
        assert residual(c) > 0.5


class TestSolve:
    def test_two_vortex_recovered(self):
        config = solve([1.0, 1.0], 1.0, seed=0)
        assert residual(config) < 1e-12
        # up to symmetry: the separation is sqrt(2)
        assert abs(abs(config.z[0] - config.z[1]) - math.sqrt(2)) < 1e-9

    def test_three_equal_strengths(self):
        config = solve([1.0, 1.0, 1.0], 1.0, seed=1)
        assert residual(config) < 1e-12
        assert classify(config.z_array(), config.gamma) == "relative-equilibrium"

    def test_identities_for_mixed_strengths(self):
        config = solve([2.0, 3.0, -1.0, 1.0, 1.0], 1.0, seed=2)
        report = check_identities(config)
        assert report.passed

    def test_budget_exhaustion(self):
        # no solution exists (see test_unsolvable_input_fails_fast); the
        # second budget runs one attempt stacked
        for attempts in (1, numeric.SOLO_ATTEMPTS + 1):
            with pytest.raises(NoConvergenceError, match=f"after {attempts} attempts"):
                solve([1.0, -2.0], 1.0, attempts=attempts)

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_rejects_fewer_than_one_attempt(self, attempts, monkeypatch):
        calls = count_jacobians(monkeypatch)
        with pytest.raises(ValueError, match="at least one attempt"):
            solve([1.0, 1.0], 1.0, attempts=attempts)
        assert calls == []

    def test_rejects_zero_strength(self):
        with pytest.raises(ValueError):
            solve([1.0, 0.0], 1.0)

    @pytest.mark.parametrize(
        "gamma", [[], [1.0], [1.0, math.nan, 2.0], [math.inf, 1.0], [1.0, -math.inf]]
    )
    def test_rejects_too_few_or_non_finite_strengths(self, gamma):
        with pytest.raises(ValueError):
            solve(gamma, 1.0)

    @pytest.mark.parametrize("lam", [math.nan, complex(0.0, math.nan), math.inf])
    def test_rejects_non_finite_multiplier(self, lam):
        with pytest.raises(ValueError, match="finite"):
            solve([1.0, 1.0, 1.0], lam)

    def test_deterministic_by_seed(self):
        a = solve([1.0, -2.0, 1.5], 1.0, seed=5)
        b = solve([1.0, -2.0, 1.5], 1.0, seed=5)
        assert a.z == b.z

    def test_accepted_steps_decrease_residual(self):
        trace = []
        solve([1.0, 1.0, 1.0, -2.0], 1.0, seed=3, trace=trace)
        assert len(trace) >= 2
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_unsolvable_input_fails_fast(self, monkeypatch):
        # the moment identity g_1 z_1 + g_2 z_2 = 0 gives z_1 = 2 z_2, so the
        # angular-momentum identity reads lambda * 2|z_2|^2 = g_1 g_2 = -2 and
        # rules out lambda = 1; mixed signs are not refused, so every attempt
        # runs, stalls, and the stall exit ends it; a stacked step builds
        # one Jacobian per row, so the bound is per attempt on both paths
        calls = count_jacobians(monkeypatch)
        with pytest.raises(NoConvergenceError, match="after 24 attempts"):
            solve([1, -2], 1.0)
        assert 0 < sum(calls) <= 24 * (numeric.STALL_STEPS + 2)
        assert max(calls) > 1  # the attempts after the solo ones ran stacked

    @pytest.mark.parametrize(
        "gamma, lam",
        [
            ([1.0, 1.0], -1.0),
            ([1.0, 2.0, 0.5, 3.0, 1.5], -1.0),
            ([0.5, 2.0, 1.0], 0.0),
            ([0.5, 2.0, 1.0], 1j),
            ([0.5, 2.0, 1.0], -cmath.exp(0.3j)),
            ([-1.0, -1.0, -2.0], 1.0),
            ([-1.0, -2.0, -0.5, -3.0, -1.5], 1.0),
            ([-1.0, -2.0], -1j),
        ],
    )
    def test_impossible_sign_is_refused_before_any_attempt(self, gamma, lam, monkeypatch):
        calls = count_jacobians(monkeypatch)
        with pytest.raises(NoConvergenceError, match="no solution exists"):
            solve(gamma, lam)
        assert calls == []

    @pytest.mark.parametrize("gamma", [[1.0, -2.0, 3.0], [2.0, 2.0, -1.0]])
    def test_zero_multiplier_is_refused_before_any_attempt(self, gamma, monkeypatch):
        # at lambda = 0 nothing fixes the scale: the iterates drift to
        # |z| ~ 1e14, where every velocity is below SOLVE_TOL
        calls = count_jacobians(monkeypatch)
        with pytest.raises(ValueError, match="nonzero"):
            solve(gamma, 0.0)
        assert calls == []

    def test_non_real_multiplier_of_the_right_sign_is_attempted(self, monkeypatch):
        calls = count_jacobians(monkeypatch)
        with pytest.raises(NoConvergenceError, match="after 2 attempts"):
            solve([1.0, 1.0, 1.0], cmath.exp(0.3j), attempts=2)
        assert calls

    def test_unrefused_inputs_keep_their_solutions(self):
        rows = []
        for gamma, lam in SIGN_CASES:
            trace = []
            try:
                data = solve(gamma, lam, seed=1, attempts=10, trace=trace).to_json()
            except NoConvergenceError:
                data = None
            rows.append([data, trace])
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SIGN_CASES_SHA256

    def test_stall_exit_keeps_every_solvable_vector(self):
        # acceptance 7's draw on another seed: every vector has a solution
        rng = np.random.default_rng(7)
        draws = 0
        vectors = []
        while len(vectors) < 24:
            draws += 1
            gamma = rng.uniform(-3, 3, 5)
            if not np.any(np.abs(gamma) < 0.2):
                vectors.append((gamma, draws))
        for gamma, seed in vectors:
            config = None
            for lam in (1.0, -1.0):
                try:
                    config = solve(gamma, lam, seed=seed, attempts=10)
                    break
                except NoConvergenceError:
                    continue
            assert config is not None, gamma.tolist()
            assert check_identities(config, tol=1e-9).passed, gamma.tolist()

    def test_singular_step_skips_a_solo_attempt(self, monkeypatch):
        # sweep vector 1 of seed 22 is solved by attempts 0 and 1 alone;
        # with J^T J at attempt 0's first point declared singular, attempt 1 wins
        gamma, seed = _sweep_vectors(22)[1]
        system = numeric._system(gamma, 1.0 + 0.0j)
        winner = _outcome(solve, gamma, 1.0, seed, 10)
        matrices = []
        linalg_solve = np.linalg.solve

        def recorded(a, b):
            matrices.append(a.tobytes())
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        numeric._gauss_newton(numeric._start(seed, 0, 5), system, [])
        singular, refused = matrices[0], []

        def stub(a, b):
            if a.tobytes() == singular:
                refused.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", stub)
        norms = []
        numeric._gauss_newton(numeric._start(seed, 1, 5), system, norms)
        got = _outcome(solve, gamma, 1.0, seed, 10)
        assert got == _outcome(_sequential_solve, gamma, 1.0, seed, 10)
        assert got[0] != winner[0] and got[1] == norms
        assert refused == [(10, 10), (10, 10)]  # once by solve, once by the reference

    def test_attempt_out_of_steps_is_abandoned(self, monkeypatch):
        # attempt 0 on sweep vector 1 of seed 22 converges in its 12th step
        gamma, seed = _sweep_vectors(22)[1]
        system = numeric._system(gamma, 1.0 + 0.0j)
        start = numeric._start(seed, 0, 5)
        norms = []
        assert numeric._gauss_newton(start, system, norms) is not None
        assert len(norms) == 13
        monkeypatch.setattr(numeric, "SOLVE_MAX_STEPS", 12)
        assert numeric._gauss_newton(start, system, []) is not None
        monkeypatch.setattr(numeric, "SOLVE_MAX_STEPS", 11)
        cut = []
        assert numeric._gauss_newton(start, system, cut) is None
        assert cut == norms[:12]
        # the stacked attempts obey the same cap
        for attempts in (10, 24):
            got = _outcome(solve, gamma, 1.0, seed, attempts)
            assert got == _outcome(_sequential_solve, gamma, 1.0, seed, attempts)

    def test_sweep_solutions_are_pinned(self):
        rows, traces = [], []
        for gamma, seed in _sweep_vectors(22):
            config, trace = _sweep_solve(gamma, seed)
            data = None if config is None else config.to_json()
            rows.append(None if data is None else {key: data[key] for key in ("lambda", "z", "w")})
            traces.append(trace)
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SOLUTIONS_SHA256
        assert hashlib.sha256(json.dumps(traces).encode()).hexdigest() == SWEEP_TRACES_SHA256


def _sweep_vectors(seed):
    """Acceptance 7's first 24 strength vectors on `seed`, each with the
    draw number that seeds its solves."""
    rng = np.random.default_rng(seed)
    draws = 0
    vectors = []
    while len(vectors) < 24:
        draws += 1
        gamma = rng.uniform(-3, 3, 5)
        if not np.any(np.abs(gamma) < 0.2):
            vectors.append((gamma, draws))
    return vectors


def _sweep_solve(gamma, seed):
    """(configuration, accepted norms) of the first of lambda = +1, -1 that
    solves with attempts=10, or (None, None)."""
    for lam in (1.0, -1.0):
        trace = []
        try:
            return solve(gamma, lam, seed=seed, attempts=10, trace=trace), trace
        except NoConvergenceError:
            continue
    return None, None


# (sweep seed, position in `_sweep_vectors(seed)`) of vectors whose first
# winning attempt at lambda = +1, attempts=10, is attempt 8, 4, 5 and 9: a
# stack's winner.  For (3, 3) attempts 7 and 19 also win, and converge in
# fewer steps than attempt 4 does.
LATE_WINNERS = [(1, 21), (3, 3), (4, 5), (11, 20)]
# (sweep seed, position) of vectors whose first winning attempt at
# lambda = -1, attempts=24, is attempt 11, 10 and 17: past the first stack.
LATER_STACK_WINNERS = [(1, 9), (3, 17), (4, 22)]


def _sequential_solve(gamma, lam, seed=0, attempts=24, trace=None):
    """`solve`'s attempts each run alone in seed order, as before some ran
    stacked: the reference for the stacked attempts.  No sign refusal."""
    gamma = [float(g) for g in gamma]
    n = len(gamma)
    lam = complex(lam)
    system = numeric._system(gamma, lam)
    for attempt in range(attempts):
        x = numeric._start(seed, attempt, n)
        norms = []
        try:
            x = numeric._gauss_newton(x, system, norms)
        except (CollisionError, np.linalg.LinAlgError):
            continue
        if x is None:
            continue
        z = x[:n] + 1j * x[n:]
        # Fix the remaining rotation sign and re-center exactly.
        z12 = z[1] - z[0]
        if abs(z12) > 1e-13:
            z = z * (abs(z12) / z12)
        try:
            config = make_configuration(gamma, z, None, lam)
            if residual(config) < numeric.SOLVE_TOL:
                if trace is not None:
                    trace.extend(norms)
                return config
        except CollisionError:
            continue
    raise NoConvergenceError(f"no convergence after {attempts} attempts")


def _outcome(solver, gamma, lam, seed, attempts):
    """(configuration JSON or the error message, trace) of one solve."""
    trace = []
    try:
        config = solver(gamma, lam, seed=seed, attempts=attempts, trace=trace)
    except NoConvergenceError as exc:
        return str(exc), trace
    return json.dumps(config.to_json()), trace


def _late_winner(position):
    """(strengths, draw) of one of LATE_WINNERS."""
    seed, index = position
    return _sweep_vectors(seed)[index]


class TestStackedAttempts:
    """`solve`, whose attempts after the solo ones run stacked, against
    the sequential loop, bit for bit: configurations and traces."""

    def test_seed_22_pool(self):
        # both multipliers for every vector, except the sign refusals,
        # which run no attempt to compare; some calls run every attempt stacked
        stacked_from_the_first = 0
        for gamma, seed in _sweep_vectors(22):
            for lam in (1.0, -1.0):
                got = _outcome(solve, gamma, lam, seed, 10)
                if not got[0].startswith("no solution exists"):
                    assert got == _outcome(_sequential_solve, gamma, lam, seed, 10), (gamma.tolist(), lam)
                    stacked_from_the_first += numeric._expected_unsolvable(gamma, complex(lam))
        assert stacked_from_the_first >= 3

    @pytest.mark.parametrize("attempts", [2, 10, 24])
    def test_sign_cases(self, attempts):
        for gamma, lam in SIGN_CASES:
            got = _outcome(solve, gamma, lam, 1, attempts)
            assert got == _outcome(_sequential_solve, gamma, lam, 1, attempts), (gamma, lam)

    def test_failed_attempts_take_as_many_steps_as_alone(self, monkeypatch):
        # where every attempt fails, every row runs to its end, so the
        # stack builds one Jacobian for each point the loop steps from
        calls = count_jacobians(monkeypatch)
        failures = 0
        for gamma, seed in _sweep_vectors(22) + [([1.0, -2.0], 0)]:
            calls.clear()
            got = _outcome(solve, gamma, 1.0, seed, 24)
            stacked = sum(calls)
            calls.clear()
            if got[0] == "no convergence after 24 attempts":
                assert got == _outcome(_sequential_solve, gamma, 1.0, seed, 24)
                assert stacked == sum(calls) == len(calls), list(gamma)
                failures += 1
        assert failures >= 3

    @pytest.mark.parametrize(
        "positions, lam, attempts, least_stacks",
        [(LATE_WINNERS, 1.0, 10, 1), (LATER_STACK_WINNERS, -1.0, 24, 2)],
        ids=["first-stack", "later-stack"],
    )
    def test_winner_inside_the_stack(self, positions, lam, attempts, least_stacks, monkeypatch):
        wins = []  # whether each stack of one solve returned a winner
        stack = numeric._gauss_newton_stack

        def recorded(*args):
            won = stack(*args)
            wins.append(won is not None)
            return won

        monkeypatch.setattr(numeric, "_gauss_newton_stack", recorded)
        for position in positions:
            gamma, seed = _late_winner(position)
            wins.clear()
            got = _outcome(solve, gamma, lam, seed, attempts)
            assert got == _outcome(_sequential_solve, gamma, lam, seed, attempts), position
            assert len(wins) >= least_stacks and wins == [False] * (len(wins) - 1) + [True], position

    @pytest.mark.parametrize("attempts", [4, 10, 12, 24])
    def test_stacks_hold_at_most_stack_rows(self, attempts, monkeypatch):
        # an unsolvable input runs every attempt: after the solo ones, in
        # seed order, in full stacks and a last one holding the rest
        solo, stacks = solo_attempts(monkeypatch), stacked_starts(monkeypatch)
        with pytest.raises(NoConvergenceError):
            solve([1, -2], 1.0, attempts=attempts)
        assert len(solo) == numeric.SOLO_ATTEMPTS
        sizes = [len(X) for X in stacks]
        assert all(size == numeric.STACK_ROWS for size in sizes[:-1])
        assert 0 < sizes[-1] <= numeric.STACK_ROWS
        expected = [numeric._start(0, attempt, 2) for attempt in range(numeric.SOLO_ATTEMPTS, attempts)]
        assert np.array_equal(np.concatenate(stacks), expected)

    @pytest.mark.parametrize(
        "gamma, lam, expected",
        [
            ([3.0, 3.0, -1.0], -1.0, True),  # L = 3 > 0, lambda against sum 5
            ([3.0, 3.0, -1.0], 1.0, False),
            ([1.0, -2.0], 1.0, False),  # L < 0
            ([2.0, 2.0, -1.0], -1.0, False),  # L = 0
            ([1.0, -1.0, 2.0, -2.0], 1.0, False),  # L = -5 < 0, sum 0
        ],
    )
    def test_expected_unsolvable_cases(self, gamma, lam, expected):
        assert numeric._expected_unsolvable(gamma, complex(lam)) is expected

    @pytest.mark.parametrize("attempts", [4, 10, 24, 30])
    def test_expected_unsolvable_input_runs_every_attempt_stacked(self, attempts, monkeypatch):
        solo, stacks = solo_attempts(monkeypatch), stacked_starts(monkeypatch)
        with pytest.raises(NoConvergenceError, match=f"after {attempts} attempts"):
            solve([3.0, 3.0, -1.0], -1.0, attempts=attempts)
        assert solo == []
        sizes = [len(X) for X in stacks]
        assert all(size == numeric.EXPECTED_UNSOLVABLE_ROWS for size in sizes[:-1])
        assert 0 < sizes[-1] <= numeric.EXPECTED_UNSOLVABLE_ROWS
        expected = [numeric._start(0, attempt, 3) for attempt in range(attempts)]
        assert np.array_equal(np.concatenate(stacks), expected)

    def test_winner_inside_an_expected_unsolvable_stack(self, monkeypatch):
        # the predicate forced true: each solve is one stack, won by a late row
        solo, wins = solo_attempts(monkeypatch), []
        stack = numeric._gauss_newton_stack

        def recorded(*args):
            won = stack(*args)
            wins.append(won is not None)
            return won

        monkeypatch.setattr(numeric, "_gauss_newton_stack", recorded)
        monkeypatch.setattr(numeric, "_expected_unsolvable", lambda gamma, lam: True)
        for position in LATE_WINNERS:
            gamma, seed = _late_winner(position)
            solo.clear()
            wins.clear()
            got = _outcome(solve, gamma, 1.0, seed, 10)
            assert solo == [] and wins == [True], position
            assert got == _outcome(_sequential_solve, gamma, 1.0, seed, 10), position

    @pytest.mark.parametrize("attempt", [3, 4])
    def test_colliding_start_ends_only_its_row(self, attempt, monkeypatch):
        # the winner is attempt 4; attempt 7 converges before it in their
        # stack, and with 4 gone the winner is 6
        start = numeric._start

        def colliding(seed, k, n):
            x = start(seed, k, n)
            if k == attempt:
                x[1], x[n + 1] = x[0], x[n]  # z_2 = z_1
            return x

        monkeypatch.setattr(numeric, "_start", colliding)
        gamma, seed = _late_winner((3, 3))
        got = _outcome(solve, gamma, 1.0, seed, 24)
        assert got == _outcome(_sequential_solve, gamma, 1.0, seed, 24)
        assert got[0] != "no convergence after 24 attempts"

    @pytest.mark.parametrize("attempt", [3, 4])
    def test_singular_step_ends_only_its_row(self, attempt, monkeypatch):
        # J^T J at the third point of one attempt is declared singular
        gamma, seed = _late_winner((3, 3))
        system = numeric._system(gamma, 1.0 + 0.0j)
        matrices = []
        linalg_solve = np.linalg.solve

        def recorded(a, b):
            matrices.append(a.tobytes())
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        numeric._gauss_newton(numeric._start(seed, attempt, 5), system, [])
        singular, stacks = matrices[2], []

        def stub(a, b):
            if any(m.tobytes() == singular for m in a.reshape(-1, 10, 10)):
                stacks.append(a.ndim)
                raise np.linalg.LinAlgError("Singular matrix")
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", stub)
        got = _outcome(solve, gamma, 1.0, seed, 24)
        assert got == _outcome(_sequential_solve, gamma, 1.0, seed, 24)
        assert got[0] != "no convergence after 24 attempts"
        assert stacks == [3, 2, 2]  # the stack, its row alone, then the reference


class TestNewtonStep:
    def test_matches_least_squares_along_the_winning_attempts(self, monkeypatch):
        # the normal-equation step against lstsq on the same J and F, at
        # every point of the winning attempts of the seed-22 sweep, all
        # solo, and of LATE_WINNERS, all stacked
        points = []  # (J, F, step, stacked) of every row of every step
        newton_step = numeric._newton_step

        def recorded_step(D, F, system):
            step = newton_step(D, F, system)
            J = numeric._jacobian(D, system)
            F = F.copy()  # the stacked line search overwrites F in place
            for row in zip(J.reshape(-1, *J.shape[-2:]), F.reshape(-1, F.shape[-1]), step.reshape(-1, step.shape[-1])):
                points.append(row + (D.ndim == 3,))
            return step

        monkeypatch.setattr(numeric, "_newton_step", recorded_step)
        vectors = [(gamma, seed, (1.0, -1.0)) for gamma, seed in _sweep_vectors(22)]
        vectors += [_late_winner(position) + ((1.0,),) for position in LATE_WINNERS]
        worst, stacked = 0.0, []
        for gamma, seed, lams in vectors:
            for lam in lams:
                points.clear()
                trace = []
                try:
                    solve(gamma, lam, seed=seed, attempts=10, trace=trace)
                    break
                except NoConvergenceError:
                    continue
            assert trace, gamma.tolist()
            # the winning attempt's points are those whose residual norms
            # are its trace, in order
            winning = iter(trace[:-1])
            norm = next(winning)
            for J, F, step, in_stack in points:
                if np.abs(F).max() == norm:
                    ref, *_ = np.linalg.lstsq(J, -F, rcond=None)
                    worst = max(worst, np.linalg.norm(step - ref) / np.linalg.norm(ref))
                    stacked.append(in_stack)
                    norm = next(winning, None)
            assert norm is None, gamma.tolist()
        assert worst <= 1e-8
        assert any(stacked) and not all(stacked)


def _halving_gauss_newton(x, system, norms):
    """The solver's Gauss-Newton with the line search as a halving loop, one
    evaluation per step length, and a Jacobian from a fresh evaluation at
    each point: the reference for the stacked ladder and the reused
    difference matrix."""
    try:
        F, _ = numeric._real_system(x, system)
    except CollisionError:
        return None
    norm = np.linalg.norm(F, np.inf)
    norms.append(float(norm))
    for _ in range(numeric.SOLVE_MAX_STEPS):
        if norm < numeric.SOLVE_TOL / 4:
            return x
        if len(norms) > numeric.STALL_STEPS and norm > norms[-1 - numeric.STALL_STEPS] / 2:
            return None
        step = numeric._newton_step(numeric._real_system(x, system)[1], F, system)
        alpha = 1.0
        while alpha > 1e-8:
            try:
                F_new, _ = numeric._real_system(x + alpha * step, system)
            except CollisionError:
                alpha /= 2
                continue
            new_norm = np.linalg.norm(F_new, np.inf)
            if new_norm < norm:
                x = x + alpha * step
                F, norm = F_new, new_norm
                norms.append(float(norm))
                break
            alpha /= 2
        else:
            return None
    return x if norm < numeric.SOLVE_TOL / 4 else None


def _run_gauss_newton(gauss_newton, x, gamma, lam):
    """(final x as bytes, None or the exception type; accepted norms)."""
    norms = []
    try:
        x = gauss_newton(x, numeric._system(gamma, complex(lam)), norms)
    except (CollisionError, np.linalg.LinAlgError) as exc:
        return type(exc), norms
    return (None if x is None else x.tobytes()), norms


class TestLineSearch:
    """The stacked step-length ladder against the halving loop, bit for bit."""

    def test_ladder_is_the_halving_sequence(self):
        alphas, alpha = [], 1.0
        while alpha > 1e-8:
            alphas.append(alpha)
            alpha /= 2
        assert numeric.STEP_LADDER.tolist() == alphas

    def test_same_trajectory_as_the_halving_loop(self):
        rng = np.random.default_rng(17)
        outcomes = set()
        for n in range(2, 9):
            for lam in (1.0, -1.0, np.exp(0.3j)):
                for _ in range(3):
                    gamma = rng.uniform(-3, 3, n).tolist()
                    x = rng.standard_normal(2 * n) * 1.2
                    got = _run_gauss_newton(numeric._gauss_newton, x, gamma, lam)
                    ref = _run_gauss_newton(_halving_gauss_newton, x, gamma, lam)
                    assert got == ref, (n, lam)
                    outcomes.add(got[0] is None)
        assert outcomes == {True, False}  # both converged and failed attempts

    def test_equal_residual_is_not_accepted(self):
        # a zero step leaves the residual as it is at every step length
        system = numeric._system([1.0, -2.0, 1.5], 1.0 + 0.0j)
        x = np.array([0.3, -1.1, 0.8, 0.5, 0.2, -0.7])
        norm = np.abs(numeric._real_system(x, system)[0]).max()
        assert numeric._line_search(x, np.zeros_like(x), norm, system) is None

    def test_accepted_difference_matrix_gives_the_fresh_jacobian(self):
        # the Jacobian built from the line search's D against one built from
        # a fresh evaluation at the accepted point, bit for bit
        rng = np.random.default_rng(29)
        for n in range(2, 9):
            for lam in (1.0, -1.0, np.exp(0.3j)):
                for _ in range(3):
                    system = numeric._system(rng.uniform(-3, 3, n).tolist(), complex(lam))
                    x = rng.standard_normal(2 * n) * 1.2
                    F, D = numeric._real_system(x, system)
                    step, *_ = np.linalg.lstsq(numeric._jacobian(D, system), -F, rcond=None)
                    with np.errstate(invalid="ignore"):
                        accepted = numeric._line_search(x, step, np.abs(F).max(), system)
                    assert accepted is not None, (n, lam)
                    x1, F1, D1, _ = accepted
                    F_fresh, D_fresh = numeric._real_system(x1.copy(), system)
                    assert F1.tobytes() == F_fresh.tobytes()
                    got = numeric._jacobian(D1, system)
                    assert got.tobytes() == numeric._jacobian(D_fresh, system).tobytes(), (n, lam)

    def test_colliding_ladder_row_is_skipped(self):
        # vertices 1, 2 mirror each other across the real axis and share a
        # strength, so every step keeps them mirrored; bisect the start's
        # height until the full step lands them on the axis together
        gamma, lam = [1.0, 1.0, -2.5], 1.0 + 0.0j
        system = numeric._system(gamma, lam)

        def start(t):
            z = np.array([0.4 + 1j * t, 0.4 - 1j * t, -0.9])
            x = np.concatenate([z.real, z.imag])
            F, D = numeric._real_system(x, system)
            return x, numeric._newton_step(D, F, system)

        def gap(t):
            x, step = start(t)
            return (x + step)[3] - (x + step)[4]  # Im z_1 - Im z_2 after a full step

        lo, hi = 0.45, 0.55
        assert gap(lo) > 0 > gap(hi)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        x, step = start(lo)
        with pytest.raises(CollisionError, match="vertices 1,2"):
            numeric._real_system(x + step, system)
        rows = x + numeric.STEP_LADDER[:, None] * step
        with np.errstate(invalid="ignore"):
            F, D = numeric._real_system(rows, system)
        assert np.isnan(F[0, :-1]).all() and np.isnan(D[0]).all()
        for row, got, got_D in zip(rows[1:], F[1:], D[1:]):
            F_row, D_row = numeric._real_system(row, system)
            assert got.tobytes() == F_row.tobytes() and got_D.tobytes() == D_row.tobytes()
        got = _run_gauss_newton(numeric._gauss_newton, x, gamma, lam)
        assert got == _run_gauss_newton(_halving_gauss_newton, x, gamma, lam)
        assert len(got[1]) >= 2  # the attempt went on past the collided step


def _central_jacobian(x, system, h=1e-7):
    """Central differences of the solver's real system, the reference."""
    J = np.zeros((len(x) + 1, len(x)))
    for i in range(len(x)):
        dx = np.zeros(len(x))
        dx[i] = h
        J[:, i] = (numeric._real_system(x + dx, system)[0] - numeric._real_system(x - dx, system)[0]) / (2 * h)
    return J


class TestJacobian:
    def test_closed_form_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            for lam in (1.0, -1.0, np.exp(0.3j)):
                for _ in range(4):
                    x = rng.standard_normal(2 * n)
                    system = numeric._system(rng.uniform(-3, 3, n), complex(lam))
                    got = numeric._jacobian(numeric._real_system(x, system)[1], system)
                    ref = _central_jacobian(x, system)
                    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref)), (n, lam)


class TestClassify:
    def test_equilateral_is_relative_equilibrium(self):
        assert classify([1.0, OMEGA, OMEGA**2], [1, 1, 1]) == "relative-equilibrium"

    def test_fixed_collinear_triple_is_an_equilibrium(self):
        # at z = -1, 0, 1 with strengths 1, -1/2, 1 every velocity vanishes
        assert classify([-1.0, 0.0, 1.0], [1.0, -0.5, 1.0]) == "equilibrium"

    def test_dipole_translates(self):
        assert classify([0.0, 1.0], [1.0, -1.0]) == "rigidly-translating"

    def test_generic_configuration_is_non_stationary(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert classify(z, [1, 1, 1, 1, 1]) == "non-stationary"

    def test_invariant_under_similarity(self):
        z = np.array([1.0, OMEGA, OMEGA**2])
        dipole = np.array([0.0, 1.0])
        for b in (2.0, 0.5 * np.exp(0.7j)):
            for a in (0.0, 0.3 - 0.2j):
                assert classify(b * (z + a), [1, 1, 1]) == "relative-equilibrium"
                assert classify(b * (dipole + a), [1, -1]) == "rigidly-translating"

    def test_collapse_for_reciprocal_harmonic_strengths(self):
        # strengths with vanishing reciprocal sum admit self-similar
        # collapse; find one with a free-argument unit multiplier and check
        # the classifier calls it
        gamma = [1.0, 1.0, -0.5]
        assert sum(1 / g for g in gamma) == 0

        def system(x):
            z = x[:3] + 1j * x[3:6]
            lam = np.exp(1j * x[6])
            z0 = x[7] + 1j * x[8]
            F = velocities(z, gamma) - lam * (z - z0)
            return np.concatenate([F.real, F.imag])

        def jac(x, h=1e-7):
            J = np.zeros((6, 9))
            for i in range(9):
                dx = np.zeros(9)
                dx[i] = h
                J[:, i] = (system(x + dx) - system(x - dx)) / (2 * h)
            return J

        rng = np.random.default_rng(11)
        config_z = None
        for _ in range(40):
            x = np.concatenate(
                [rng.standard_normal(6) * 1.5, [np.pi / 2 + rng.standard_normal() * 0.8], rng.standard_normal(2) * 0.3]
            )
            norm = np.inf
            for _ in range(250):
                F = system(x)
                norm = np.linalg.norm(F, np.inf)
                if norm < 1e-13:
                    break
                step, *_ = np.linalg.lstsq(jac(x), -F, rcond=None)
                alpha = 1.0
                while alpha > 1e-10:
                    if np.linalg.norm(system(x + alpha * step), np.inf) < norm:
                        x = x + alpha * step
                        break
                    alpha /= 2
                else:
                    break
            if norm < 1e-13:
                z = x[:3] + 1j * x[3:6]
                if classify(z, gamma) == "collapse":
                    config_z = z
                    break
        assert config_z is not None
        assert classify(config_z, gamma) == "collapse"


class TestIdentities:
    def test_two_vortex_ties_momentum_product(self):
        report = check_identities(two_vortex())
        assert report.passed
        # multiplier times the weighted square sum equals the pair product
        c = two_vortex()
        I = sum(g * z * w for g, z, w in zip(c.gamma, c.z, c.w))
        assert abs(c.lam * I - 1.0) < 1e-12

    def test_translated_solution_fails_moment(self):
        c = equilateral()
        moved = make_configuration(c.gamma, [z + 1 for z in c.z], None, c.lam)
        report = check_identities(moved)
        assert report.moment_z > 1e-6
        assert not report.passed


class TestProbe:
    def test_mutual_pair_sequence(self):
        d = Diagram(5, [(1, 2), (3, 4)], [(1, 2), (3, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        seq = synthetic_sequence(d)
        assert canonical_key(probe(seq)) == canonical_key(d)

    def test_alternating_cycle_sequence(self):
        d = Diagram(5, [(1, 2), (3, 4)], [(2, 3), (1, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        assert canonical_key(probe(synthetic_sequence(d))) == canonical_key(d)

    def test_all_catalog_survivors_round_trip(self):
        for entry in load_catalog():
            if entry.status != "possible":
                continue
            got = probe(synthetic_sequence(entry.diagram), tol=0.15)
            assert canonical_key(got) == canonical_key(entry.diagram), entry.figure_ref

    def test_constant_epsilon_rejected(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        with pytest.raises(ValueError):
            synthetic_sequence(d, [0.1, 0.1, 0.1, 0.1])

    def test_too_few_samples_rejected(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        with pytest.raises(ValueError):
            synthetic_sequence(d, [0.1, 0.05, 0.025])

    def test_shallow_decay_rejected(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        with pytest.raises(ValueError):
            synthetic_sequence(d, [0.100, 0.095, 0.090, 0.085])

    def test_ambiguous_exponent_is_an_error(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        seq = synthetic_sequence(d)
        # blur the circled coordinate's order into the ambiguous band
        points = []
        for eps, c in seq.points:
            z = list(c.z)
            z[0] *= eps**0.25  # exponent -2 drifts to -1.75
            points.append((eps, make_configuration(c.gamma, z, c.w, c.lam)))
        with pytest.raises(AmbiguousExponentError):
            probe(SingularSequenceSample(tuple(points)), tol=0.15)

    def test_jsonl_round_trip(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        seq = synthetic_sequence(d)
        again = SingularSequenceSample.from_jsonl(to_jsonl(seq))
        assert canonical_key(probe(again)) == canonical_key(d)

    def test_jsonl_skips_blank_lines(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        text = to_jsonl(synthetic_sequence(d))
        spaced = "\n" + text.replace("\n", "\n  \n")
        assert SingularSequenceSample.from_jsonl(spaced) == SingularSequenceSample.from_jsonl(text)

    def test_sample_off_the_max_norm_scale_is_refused(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        # z a million times too large: its norm is no longer of order eps^-2
        points = [
            (eps, make_configuration(c.gamma, [1e6 * z for z in c.z], c.w, c.lam))
            for eps, c in synthetic_sequence(d).points
        ]
        with pytest.raises(ValueError, match="violates the max-norm normalization"):
            probe(SingularSequenceSample(tuple(points)))

    def test_probed_diagram_that_breaks_the_rules_is_refused(self, monkeypatch):
        # a lone z-circle on the z-stroke 12 (R1a, R4): the sequence helper
        # refuses to build it unless its own rule check is switched off
        d = Diagram(5, [(1, 2)], [(3, 4)], [1], [3, 4])
        assert not validate(d).valid
        monkeypatch.setattr(synthetic, "validate", lambda d: RuleReport(()))
        seq = synthetic_sequence(d)
        with pytest.raises(ValueError, match="probed diagram violates the rules") as info:
            probe(seq)
        assert "R4: lone z-circle in component [1, 2]" in str(info.value)

    def test_fit_exponent_recovers_slope(self):
        eps = [2.0**-k for k in range(4, 10)]
        values = [3.5 * e**-2 for e in eps]
        alpha = fit_exponent(eps, values)
        assert abs(alpha.value + 2) < 1e-9
        assert alpha.confidence < 1e-9


class TestConfigurationIO:
    def test_json_round_trip(self):
        c = equilateral()
        again = Configuration.from_json(c.to_json())
        assert np.allclose(again.z_array(), c.z_array())
        assert again.lam == c.lam
        assert np.allclose(again.z_array(), np.conj(again.w_array()), rtol=0, atol=1e-12)


def _loop_velocities(z, gamma):
    """The double loop the array kernel replaced, kept as the reference."""
    z = np.asarray(z, dtype=complex)
    V = np.zeros(len(z), dtype=complex)
    for m in range(len(z)):
        for j in range(len(z)):
            if j != m:
                V[m] += gamma[j] / (z[m] - z[j]).conjugate()
    return V


def _loop_inverse_differences(u):
    """M[j, k] = 1/(u_k - u_j) off the diagonal, by a double loop."""
    n = len(u)
    M = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j != k:
                M[j, k] = 1.0 / (u[k] - u[j])
    return M


def _loop_residual(c):
    z, w = list(c.z), list(c.w)
    Z, W = _loop_inverse_differences(w), _loop_inverse_differences(z)
    worst = 0.0
    for m in range(c.n):
        bal_z = c.lam * z[m] - sum(c.gamma[j] * Z[j, m] for j in range(c.n) if j != m)
        bal_w = c.lam.conjugate() * w[m] - sum(c.gamma[j] * W[j, m] for j in range(c.n) if j != m)
        worst = max(worst, abs(bal_z), abs(bal_w))
        for k in range(m + 1, c.n):
            worst = max(
                worst,
                abs(Z[m, k] * (w[k] - w[m]) - 1.0),
                abs(W[m, k] * (z[k] - z[m]) - 1.0),
                abs(Z[m, k] + Z[k, m]),
                abs(W[m, k] + W[k, m]),
            )
    return worst


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        scale = 10.0 ** int(rng.integers(-6, 7))
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
        gamma = rng.uniform(-3, 3, n).tolist()
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi))
        yield z, w, gamma, lam


class TestDifferenceKernel:
    """The array kernel against plain double loops over vertex pairs."""

    def test_velocities_match_the_loop_bit_for_bit(self):
        for z, _, gamma, _ in _random_inputs(0):
            assert velocities(z, gamma).tobytes() == _loop_velocities(z, gamma).tobytes()

    def test_matrices_and_residual_match_the_loop(self):
        for z, w, gamma, lam in _random_inputs(1):
            c = make_configuration(gamma, z, w, lam)
            for got, ref in ((c.Z_matrix(), _loop_inverse_differences(w)), (c.W_matrix(), _loop_inverse_differences(z))):
                assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
            assert residual(c) == pytest.approx(_loop_residual(c), rel=1e-15)

    def test_stacked_rows_match_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            Z = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
            gamma = rng.uniform(-3, 3, n).tolist()
            V = velocities(Z, gamma)
            for z, v in zip(Z, V):
                assert v.tobytes() == velocities(z, gamma).tobytes()

    def test_stacked_collision_flags_only_its_row(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        U[2, 3] = U[2, 1] + 1e-14
        D = numeric._differences(U)
        assert np.isnan(D[2]).all()
        for i in (0, 1, 3):
            assert D[i].tobytes() == numeric._differences(U[i]).tobytes()
        with pytest.raises(CollisionError, match="vertices 2,4"):
            numeric._differences(U[2])
        V = velocities(U, [1.0] * 5)
        assert np.isnan(V[2]).all() and not np.isnan(np.delete(V, 2, axis=0)).any()

    def test_collisions_raise(self):
        z = [0.0, 1.0, 1.0 + 1e-14, 2j]
        with pytest.raises(CollisionError, match="vertices 2,3"):
            velocities(z, [1.0] * 4)
        apart = [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(CollisionError, match="vertices 2,3"):
            make_configuration([1.0] * 4, apart, z)
