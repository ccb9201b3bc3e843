"""Numerics for the extended point-vortex balance system.

Evaluates residuals of the coupled system in positions z, conjugate
variables w, inverse-difference variables Z, W and multiplier lambda,
solves it for real configurations by damped Gauss-Newton with a
closed-form Jacobian, each step from the normal equations
J^T J s = -J^T F, and a stacked step-length ladder (abandoning attempts
that stall; the attempts after the first three, SOLO_ATTEMPTS, run
stacked, STACK_ROWS at a time as the rows of one array; every
configuration returned still passes residual < SOLVE_TOL),
classifies stationary configurations, checks the conserved identities,
and maps singular sequences onto two-colored diagrams by fitting the
decay order of every component.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from typing import NamedTuple

import numpy as np

from .diagram import Diagram, validate


class CollisionError(ValueError):
    """Two positions coincide (or nearly so): inverse differences blow up."""


class NoConvergenceError(RuntimeError):
    """The solver found no solution: the input admits none, or the attempt
    budget ran out.  The message says which."""


class AmbiguousExponentError(ValueError):
    """A fitted order exponent sits on the edge of the decision band."""


# Two positions closer than this collide.
COLLISION_DISTANCE = 1e-13

# A solver attempt succeeds once its residual is below SOLVE_TOL, and is
# abandoned after SOLVE_MAX_STEPS Gauss-Newton steps, or once this many
# accepted steps do not halve its residual.
SOLVE_TOL = 1e-12
SOLVE_MAX_STEPS = 120
STALL_STEPS = 10

# The first SOLO_ATTEMPTS attempts of a solve run one at a time and the rest
# in stacks of STACK_ROWS rows, in seed order.  Over sweep pools 1-100
# (lambda = +1 then -1, attempts=10), 2,286 of the 2,400 winning attempts
# (95.3 %) are among the first three: 1,806 attempt 0, 358 attempt 1, 122
# attempt 2.  A stack steps every row it holds until its winner is
# accepted, so it pays only once those have failed, and a late winner
# pays for the rows beside it.  Seven rows take attempts=10 in one stack;
# a fixed size keeps the memory of a solve flat in `attempts`.
SOLO_ATTEMPTS = 3
STACK_ROWS = 7

# `classify`'s thresholds, relative to the velocity scale.
CLASSIFY_RTOL = 1e-8

# Step lengths the line search tries, longest first: 1, 1/2, ..., 2**-26.
STEP_LADDER = 0.5 ** np.arange(27)

# The line search evaluates this many of the longest step lengths at once,
# and the rest of the ladder only when none of them lowers the residual.
LADDER_SPLIT = 8
_LADDER_STAGES = (STEP_LADDER[:LADDER_SPLIT], STEP_LADDER[LADDER_SPLIT:])


@functools.lru_cache(maxsize=None)
def _off_diagonal(n: int) -> np.ndarray:
    """The n-by-n mask that is True off the diagonal, built once per n and read-only."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _differences(u) -> np.ndarray:
    """D[..., j, k] = u[..., k] - u[..., j], over any leading axes of u.

    For one configuration (u of shape (n,)) a collision raises
    CollisionError.  Over leading axes a colliding configuration is
    returned as NaN instead, without touching the others: everything
    computed from it is NaN and no comparison accepts it.
    """
    u = np.asarray(u, dtype=complex)
    D = u[..., None, :] - u[..., :, None]
    close = (np.abs(D) < COLLISION_DISTANCE) & _off_diagonal(u.shape[-1])
    if close.any():
        if D.ndim == 2:
            j, k = np.argwhere(close)[0]  # close is symmetric, so j < k
            raise CollisionError(f"vertices {j+1},{k+1} coincide")
        D[close.any(axis=(-2, -1))] = np.nan
    return D


def _off_diagonal_quotient(num, D) -> np.ndarray:
    """num / D elementwise off the diagonal, zero on it, over any leading axes."""
    return np.divide(num, D, out=np.zeros(D.shape, dtype=complex), where=_off_diagonal(D.shape[-1]))


class Configuration(NamedTuple):
    """A point of the extended system (not necessarily a solution)."""

    gamma: tuple
    z: tuple
    w: tuple
    lam: complex

    @property
    def n(self) -> int:
        return len(self.gamma)

    def z_array(self) -> np.ndarray:
        return np.array(self.z, dtype=complex)

    def w_array(self) -> np.ndarray:
        return np.array(self.w, dtype=complex)

    def Z_matrix(self) -> np.ndarray:
        """Z[j, k] = 1/(w_k - w_j): antisymmetric, zero diagonal."""
        return _off_diagonal_quotient(1.0, _differences(self.w))

    def W_matrix(self) -> np.ndarray:
        """W[j, k] = 1/(z_k - z_j): antisymmetric, zero diagonal."""
        return _off_diagonal_quotient(1.0, _differences(self.z))

    def to_json(self) -> dict:
        pack = lambda xs: [[x.real, x.imag] for x in xs]
        return {
            "gamma": list(self.gamma),
            "z": pack(self.z),
            "w": pack(self.w),
            "lambda": [self.lam.real, self.lam.imag],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Configuration":
        unpack = lambda xs: [complex(re, im) for re, im in xs]
        return make_configuration(
            data["gamma"],
            unpack(data["z"]),
            unpack(data["w"]),
            complex(data["lambda"][0], data["lambda"][1]),
        )


def make_configuration(gamma, z, w=None, lam=1.0 + 0.0j) -> Configuration:
    """Build a Configuration, deriving w as the conjugate of z by default.

    Raises ValueError unless gamma, z and w have one entry per vertex each,
    and CollisionError if two entries of z, or of w, collide.
    """
    z = [complex(v) for v in z]
    w = [v.conjugate() for v in z] if w is None else [complex(v) for v in w]
    if not len(gamma) == len(z) == len(w):
        raise ValueError(f"gamma, z and w differ in length: {len(gamma)}, {len(z)} and {len(w)}")
    _differences(z)
    _differences(w)
    return Configuration(tuple(float(g) for g in gamma), tuple(z), tuple(w), complex(lam))


def velocities(z, gamma) -> np.ndarray:
    """V_n = sum over j of Gamma_j / conj(z_n - z_j), over any leading axes of z.

    One configuration raises CollisionError on a collision; over leading
    axes a colliding configuration's velocities are NaN (see _differences).
    """
    D = _differences(z)
    with np.errstate(invalid="ignore"):  # NaN rows are collisions, already flagged
        return _velocity_sum(D, np.asarray(gamma, dtype=float))


def _velocity_sum(D: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum over j of g_j / conj(D[n, j]), from difference matrices D.

    Divide and sum in this order to round as the pairwise loop does; a
    product with 1/conj(D) rounds differently and moves solver results.
    """
    return _off_diagonal_quotient(g[:, None], np.conj(D)).sum(axis=-2)


def residual(c: Configuration) -> float:
    """Max-norm residual of the full extended system at `c`."""
    z, w = c.z_array(), c.w_array()
    Dz, Dw = _differences(z), _differences(w)
    Z, W = _off_diagonal_quotient(1.0, Dw), _off_diagonal_quotient(1.0, Dz)
    g = np.array(c.gamma)
    upper = np.triu_indices(c.n, 1)
    parts = (
        c.lam * z - g @ Z,
        c.lam.conjugate() * w - g @ W,
        (Z * Dw - 1.0)[upper],
        (W * Dz - 1.0)[upper],
        (Z + Z.T)[upper],
        (W + W.T)[upper],
    )
    return float(max(np.max(np.abs(p), initial=0.0) for p in parts))


# -- solver ----------------------------------------------------------------


class _System(NamedTuple):
    """The solver's constants for one strength vector and multiplier,
    built once per solve and read at every Gauss-Newton point."""

    n: int
    gamma: np.ndarray  # the strengths, as floats
    lam: complex
    lam_eye: np.ndarray  # lam * I


def _system(gamma, lam: complex) -> _System:
    n = len(gamma)
    return _System(n, np.asarray(gamma, dtype=float), lam, lam * np.eye(n))


def _real_system(x: np.ndarray, system: _System):
    """The 2n + 1 real equations at x = (Re z, Im z), and the difference
    matrices D of z they were computed from, over any leading axes of x.

    A collision raises or gives NaN rows as in `_differences`.
    """
    n = system.n
    z = x[..., :n] + 1j * x[..., n:]
    D = _differences(z)
    F = system.lam * z - _velocity_sum(D, system.gamma)
    out = np.empty(x.shape[:-1] + (2 * n + 1,))
    out[..., :n], out[..., n:-1] = F.real, F.imag
    out[..., -1] = (z[..., 1] - z[..., 0]).imag  # rotation gauge
    return out, D


def solve(
    gamma,
    lam: complex = 1.0 + 0.0j,
    seed: int = 0,
    attempts: int = 24,
    trace: list | None = None,
) -> Configuration:
    """Find a real normalized configuration for the given strengths.

    Damped Gauss-Newton with a closed-form Jacobian J from randomized
    starts.  Each step s solves the normal equations J^T J s = -J^T F, the
    least-squares step, and takes the longest length on STEP_LADDER that
    lowers the residual, found on a stacked step-length ladder: one array
    evaluation per stage of the ladder.  The first SOLO_ATTEMPTS attempts
    run one at a time; if they all fail, the remaining attempts run
    stacked, STACK_ROWS at a time as the rows of one array stepped
    together, each ended by the same rules.  Either way the first attempt
    in seed order whose configuration passes residual < SOLVE_TOL wins, so
    results are reproducible, do not depend on which attempts ran stacked,
    and every configuration returned passes it.  An attempt is abandoned after
    SOLVE_MAX_STEPS steps, or once its residual has not halved over the
    last STALL_STEPS accepted steps.

    Strengths that all have one sign s admit no solution unless
    s * Re(lam) > 0.  Multiply the balance equation
    lam * z_m = sum over j != m of Gamma_j / conj(z_m - z_j) by
    Gamma_m * conj(z_m) and sum over m: each pair j < k contributes
    Gamma_j Gamma_k (conj(z_j) - conj(z_k)) / conj(z_j - z_k), so
    lam * sum_m Gamma_m |z_m|^2 = sum_{j<k} Gamma_j Gamma_k (O'Neil,
    Trans. AMS 302, 1987).  The right side is positive, and the sum on the
    left has sign s because the distinct z_m are not all zero, so lam is
    real with sign s.  Such input is refused before any attempt.  A
    non-real lam with s * Re(lam) > 0 has no exact solution either; it is
    not refused, since telling a nonzero Im(lam) from rounding would take a
    tolerance.

    Raises ValueError for fewer than two strengths, a strength that is zero
    or not finite, a multiplier that is not finite, a negative `seed` or
    `attempts` below 1, and NoConvergenceError when no solution can exist
    (above) or the budget is exhausted.  When `trace` is a list it receives
    the accepted residual norms of the winning attempt.
    """
    gamma = [float(g) for g in gamma]
    n = len(gamma)
    if n < 2:
        raise ValueError(f"at least two vortex strengths are needed, got {n}")
    if not all(math.isfinite(g) for g in gamma):
        raise ValueError("all vortex strengths must be finite")
    if any(g == 0 for g in gamma):
        raise ValueError("all vortex strengths must be nonzero")
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError("the multiplier must be finite")
    if seed < 0:
        raise ValueError(f"the seed must not be negative, got {seed}")
    if attempts < 1:
        raise ValueError(f"at least one attempt is needed, got {attempts}")
    for sign, name in ((1.0, "positive"), (-1.0, "negative")):
        if all(g * sign > 0 for g in gamma) and lam.real * sign <= 0:
            raise NoConvergenceError(
                f"no solution exists: the strengths are all {name}, "
                f"so the multiplier needs a {name} real part"
            )
    system = _system(gamma, lam)
    finish = functools.partial(_finish, gamma, lam)
    won = None  # (configuration, accepted norms)
    for attempt in range(min(attempts, SOLO_ATTEMPTS)):
        norms = []
        try:
            x = _gauss_newton(_start(seed, attempt, n), system, norms)
        except np.linalg.LinAlgError:
            continue
        config = None if x is None else finish(x)
        if config is not None:
            won = config, norms
            break
    first = SOLO_ATTEMPTS
    while won is None and first < attempts:
        stop = min(first + STACK_ROWS, attempts)
        starts = np.array([_start(seed, attempt, n) for attempt in range(first, stop)])
        won = _gauss_newton_stack(starts, system, finish)
        first = stop
    if won is None:
        raise NoConvergenceError(f"no convergence after {attempts} attempts")
    config, norms = won
    if trace is not None:
        trace.extend(norms)
    return config


def _start(seed: int, attempt: int, n: int) -> np.ndarray:
    """The random start x = (Re z, Im z) of one attempt."""
    return np.random.default_rng(seed * 1009 + attempt).standard_normal(2 * n) * 1.2


def _finish(gamma, lam, x):
    """The configuration at a converged x, rotated so that z_2 - z_1 is
    real and positive, or None when it collides or its residual is not
    below SOLVE_TOL."""
    n = len(gamma)
    z = x[:n] + 1j * x[n:]
    z12 = z[1] - z[0]
    if abs(z12) > 1e-13:
        z = z * (abs(z12) / z12)
    try:
        config = make_configuration(gamma, z, None, lam)
        return config if residual(config) < SOLVE_TOL else None
    except CollisionError:
        return None


def _gauss_newton(x, system: _System, norms):
    """Damped Gauss-Newton from `x`, appending accepted residual norms to
    `norms`; None when the attempt fails or stalls.

    Each point is evaluated once: the line search hands back the accepted
    row's equations and difference matrix, and the Jacobian is built from
    that matrix.
    """
    with np.errstate(invalid="ignore"):  # NaN ladder rows are collisions, never accepted
        try:
            F, D = _real_system(x, system)
        except CollisionError:
            return None
        norm = np.abs(F).max()
        norms.append(float(norm))
        for _ in range(SOLVE_MAX_STEPS):
            if norm < SOLVE_TOL / 4:
                return x
            if len(norms) > STALL_STEPS and norm > norms[-1 - STALL_STEPS] / 2:
                return None  # stuck at a minimum where the residual is not zero
            step = _newton_step(D, F, system)
            accepted = _line_search(x, step, norm, system)
            if accepted is None:
                return None
            x, F, D, norm = accepted
            norms.append(float(norm))
        return x if norm < SOLVE_TOL / 4 else None


def _newton_step(D, F, system: _System):
    """The Gauss-Newton step s minimizing |J s + F|, J the Jacobian at the
    point with difference matrix D and equations F, from the normal
    equations J^T J s = -J^T F, over any leading axes of D and F.

    This is the least-squares step, conditioned as cond(J)^2 rather than
    cond(J); the gauge row gives J full column rank near every solution.
    A singular J^T J raises LinAlgError, which ends the attempt.
    """
    J = _jacobian(D, system)
    Jt = np.swapaxes(J, -1, -2)
    return np.linalg.solve(Jt @ J, -(Jt @ F[..., None]))[..., 0]


def _line_search(x, step, norm, system: _System):
    """The longest step x + alpha * step on STEP_LADDER whose residual norm
    is below `norm`, as (x, F, D, norm); None when no step length lowers it.

    Each stage of the ladder is one stacked evaluation; a step that
    collides has a NaN norm and is never accepted.
    """
    for alphas in _LADDER_STAGES:
        X = x + alphas[:, None] * step
        F, D = _real_system(X, system)
        norms = np.abs(F).max(axis=1)
        lower = (norms < norm).nonzero()[0]
        if lower.size:
            i = lower[0]
            return X[i], F[i], D[i], norms[i]
    return None


def _gauss_newton_stack(X, system: _System, finish):
    """`_gauss_newton` from every row of X at once, one stacked Jacobian,
    normal-equation solve and ladder stage per step for all live rows.

    Each row ends by the rules of `_gauss_newton`: a colliding start, a
    singular J^T J, no ladder point lower, a stall, SOLVE_MAX_STEPS, or
    convergence, when `finish` turns its x into a configuration or None.
    Once a row's configuration is accepted the rows after it are dropped,
    and the rows before it run to their end.  Returns (configuration,
    accepted norms) of the first row that `finish` accepts, or None.
    Overwrites X.
    """
    history = np.empty((SOLVE_MAX_STEPS + 1, len(X)))
    won = None  # (row, configuration, steps)
    with np.errstate(invalid="ignore"):  # NaN rows are collisions, never accepted
        F, D = _real_system(X, system)
        norm = np.abs(F).max(axis=1)
        rows = np.arange(len(X))
        x, F, D, norm, rows = _rows((X, F, D, norm, rows), ~np.isnan(norm))
        for t in range(SOLVE_MAX_STEPS + 1):
            history[t, rows] = norm
            done = norm < SOLVE_TOL / 4
            for i in done.nonzero()[0]:
                config = finish(x[i])
                if config is not None:
                    won = rows[i], config, t  # live rows precede any earlier winner
                    break
            live = ~done
            if won is not None:
                live &= rows < won[0]
            if t >= STALL_STEPS:
                live &= ~(norm > history[t - STALL_STEPS, rows] / 2)
            if t == SOLVE_MAX_STEPS or not live.any():
                break
            x, F, D, norm, rows = _rows((x, F, D, norm, rows), live)
            step, live = _stacked_steps(D, F, system)
            live &= _stacked_line_search(x, step, F, D, norm, live, system)
            x, F, D, norm, rows = _rows((x, F, D, norm, rows), live)
    if won is None:
        return None
    row, config, t = won
    return config, history[: t + 1, row].tolist()


def _rows(arrays, keep):
    """The rows of each array where `keep` holds, all of them when it always does."""
    return arrays if keep.all() else tuple(a[keep] for a in arrays)


def _stacked_steps(D, F, system: _System):
    """(steps, solved) for a stack of points: `_newton_step` on the whole
    stack, or row by row when a singular J^T J in it stops that, with
    solved False for the rows whose own solve fails."""
    solved = np.ones(len(D), dtype=bool)
    try:
        return _newton_step(D, F, system), solved
    except np.linalg.LinAlgError:
        step = np.zeros((len(D), 2 * system.n))
        for i in range(len(D)):
            try:
                step[i] = _newton_step(D[i], F[i], system)
            except np.linalg.LinAlgError:
                solved[i] = False
        return step, solved


def _stacked_line_search(x, step, F, D, norm, live, system: _System):
    """`_line_search` for every live row of a stack: overwrites the rows
    of x, F, D and norm that accept a ladder point with it, and returns
    which rows did."""
    accepted = np.zeros(len(x), dtype=bool)
    pending = live.nonzero()[0]
    for alphas in _LADDER_STAGES:
        X = x[pending, None, :] + alphas[:, None] * step[pending, None, :]
        F_ladder, D_ladder = _real_system(X, system)
        norms = np.abs(F_ladder).max(axis=-1)
        lower = norms < norm[pending, None]
        first = lower.argmax(axis=1)
        hit = lower[np.arange(len(pending)), first]
        take, pick = pending[hit], first[hit]
        x[take], F[take], D[take], norm[take] = X[hit, pick], F_ladder[hit, pick], D_ladder[hit, pick], norms[hit, pick]
        accepted[take] = True
        pending = pending[~hit]
        if not pending.size:
            break
    return accepted


def _jacobian(D, system: _System):
    """Closed-form Jacobian of `_real_system` at the point whose difference
    matrix is D, over any leading axes of D.  V is antiholomorphic: with
    B[m, k] = dV_m/d conj(z_k) = Gamma_k / conj(z_m - z_k)^2 for k != m and
    B[m, m] = -sum_k B[m, k], dF/d Re z = lam I - B, dF/d Im z = i(lam I + B)."""
    n = system.n
    B = _off_diagonal_quotient(system.gamma, np.conj(D) ** 2)
    diagonal = np.arange(n)
    B[..., diagonal, diagonal] = -B.sum(axis=-1)
    d_re, d_im = system.lam_eye - B, 1j * (system.lam_eye + B)
    J = np.zeros(D.shape[:-2] + (2 * n + 1, 2 * n))
    J[..., :n, :n], J[..., n:-1, :n] = d_re.real, d_re.imag
    J[..., :n, n:], J[..., n:-1, n:] = d_im.real, d_im.imag
    J[..., -1, n], J[..., -1, n + 1] = -1.0, 1.0  # d Im(z_2 - z_1)
    return J


# -- classification --------------------------------------------------------

def classify(z, gamma) -> str:
    """Stationary type of a collision-free configuration.

    Fits the best multiplier and center in least squares and applies the
    defining dichotomies with thresholds of CLASSIFY_RTOL relative to the
    velocity scale.
    """
    z = np.asarray(z, dtype=complex)
    V = velocities(z, gamma)
    vscale = np.max(np.abs(V))
    zscale = max(np.max(np.abs(z - np.mean(z))), 1.0)
    if vscale <= CLASSIFY_RTOL * zscale:
        return "equilibrium"
    const = np.mean(V)
    if np.max(np.abs(V - const)) <= CLASSIFY_RTOL * vscale:
        return "rigidly-translating"
    A = np.column_stack([z, np.ones(len(z))])
    coef, *_ = np.linalg.lstsq(A, V, rcond=None)
    lam_fit, offset = coef
    if np.max(np.abs(A @ coef - V)) > CLASSIFY_RTOL * vscale:
        return "non-stationary"
    if abs(lam_fit.imag) <= CLASSIFY_RTOL * abs(lam_fit):
        return "relative-equilibrium"
    return "collapse"


class IdentityReport(NamedTuple):
    moment_z: float
    moment_w: float
    angular: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(max(self.moment_z, self.moment_w, self.angular) < self.tolerance)


def check_identities(c: Configuration, tol: float = 1e-9) -> IdentityReport:
    """Conserved identities of solutions: vanishing vorticity moments and
    the multiplier-angular-momentum tie."""
    g = np.array(c.gamma)
    z, w = c.z_array(), c.w_array()
    L = sum(
        c.gamma[j] * c.gamma[k] for j in range(c.n) for k in range(j + 1, c.n)
    )
    return IdentityReport(
        float(abs(np.sum(g * z))),
        float(abs(np.sum(g * w))),
        float(abs(c.lam * np.sum(g * z * w) - L)),
        tol,
    )


# -- singular-sequence probe ------------------------------------------------


class OrderExponent(NamedTuple):
    value: float
    confidence: float  # max abs fit residual in log-log coordinates


class _Sample(NamedTuple):
    points: tuple  # of (epsilon, Configuration)


class SingularSequenceSample(_Sample):
    """Configurations along a decreasing-epsilon sequence."""

    __slots__ = ()

    def __new__(cls, points):
        eps = [e for e, _ in points]
        if len(eps) < 4:
            raise ValueError("need at least four samples")
        if len({c.n for _, c in points}) > 1:
            raise ValueError("every sample needs the same number of vertices")
        if points[0][1].n < 2:
            raise ValueError("every sample needs at least two vertices")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon must decrease strictly")
        if eps[0] / eps[-1] < 2:
            raise ValueError("epsilon must decrease by at least a factor of 2 overall")
        return super().__new__(cls, points)

    @classmethod
    def from_jsonl(cls, text: str) -> "SingularSequenceSample":
        """One sample per nonblank line: an object with a positive `epsilon`,
        lists `z` and `w` of [re, im] pairs and optionally a list `gamma`
        (all 1 by default), every entry a finite number.  Raises ValueError
        naming a line that is anything else."""
        points = []
        for number, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    points.append(_sample_point(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"sample line {number}: {exc}") from None
        return cls(tuple(points))


def _sample_point(data) -> tuple:
    """(epsilon, Configuration) of one parsed sample line."""
    real = lambda x: type(x) in (int, float) and abs(x) < math.inf  # a bool is no number
    pair = lambda p: isinstance(p, list) and len(p) == 2 and all(map(real, p))
    listed = lambda xs, ok: isinstance(xs, list) and all(map(ok, xs))
    if not (isinstance(data, dict) and real(data.get("epsilon")) and data["epsilon"] > 0):
        raise ValueError("not an object with a positive number epsilon")
    z, w = data.get("z"), data.get("w")
    gamma = data.get("gamma", [1.0] * len(z) if isinstance(z, list) else None)
    if not (listed(z, pair) and listed(w, pair) and listed(gamma, real)):
        raise ValueError("z and w must be lists of [re, im] number pairs, and gamma a list of numbers")
    unpack = lambda xs: [complex(re, im) for re, im in xs]
    return float(data["epsilon"]), make_configuration(gamma, unpack(z), unpack(w))


def fit_exponent(eps, values) -> OrderExponent:
    """Least-squares slope of log|value| against log(epsilon)."""
    xs = np.log(np.asarray(eps, dtype=float))
    ys = np.log(np.abs(np.asarray(values, dtype=complex)))
    A = np.column_stack([xs, np.ones(len(xs))])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    fit = A @ coef
    return OrderExponent(float(coef[0]), float(np.max(np.abs(fit - ys))))


def _decide_maximal(alpha: OrderExponent, tol: float, what: str) -> bool:
    dist = abs(alpha.value + 2.0)
    if dist <= tol:
        return True
    if dist <= 2 * tol:
        raise AmbiguousExponentError(
            f"{what}: exponent {alpha.value:.3f} within the ambiguous band around -2"
        )
    return False


def probe(sample: SingularSequenceSample, tol: float = 0.15) -> Diagram:
    """Recover the two-colored diagram encoded by a singular sequence.

    Fits order exponents for every vertex coordinate and every inverse
    difference; order exactly -2 (within `tol`) marks circles and strokes.
    Exponents inside the doubled band raise AmbiguousExponentError rather
    than guessing.
    """
    eps = [e for e, _ in sample.points]
    configs = [c for _, c in sample.points]
    n = configs[0].n
    Zs = [c.Z_matrix() for c in configs]
    Ws = [c.W_matrix() for c in configs]
    for e, c, Z, W in zip(eps, configs, Zs, Ws):
        for norm_val in (
            max(np.max(np.abs(c.z_array())), np.max(np.abs(Z))),
            max(np.max(np.abs(c.w_array())), np.max(np.abs(W))),
        ):
            if abs(math.log(norm_val) - math.log(e**-2)) > tol * abs(math.log(e**2)) + 1.0:
                raise ValueError(f"sample at epsilon={e} violates the max-norm normalization")
    z_circles = [
        v + 1
        for v in range(n)
        if _decide_maximal(fit_exponent(eps, [c.z[v] for c in configs]), tol, f"z_{v+1}")
    ]
    w_circles = [
        v + 1
        for v in range(n)
        if _decide_maximal(fit_exponent(eps, [c.w[v] for c in configs]), tol, f"w_{v+1}")
    ]
    z_strokes = []
    w_strokes = []
    for j in range(n):
        for k in range(j + 1, n):
            zjk = fit_exponent(eps, [Z[j, k] for Z in Zs])
            wjk = fit_exponent(eps, [W[j, k] for W in Ws])
            if _decide_maximal(zjk, tol, f"Z_{j+1}{k+1}"):
                z_strokes.append((j + 1, k + 1))
            if _decide_maximal(wjk, tol, f"W_{j+1}{k+1}"):
                w_strokes.append((j + 1, k + 1))
    d = Diagram(n, z_strokes, w_strokes, z_circles, w_circles)
    report = validate(d)
    if not report.valid:
        raise ValueError(f"probed diagram violates the rules: {report.failures}")
    return d
