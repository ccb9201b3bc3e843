"""Numerics for the extended point-vortex balance system.

Evaluates residuals of the coupled system in positions z, conjugate
variables w, inverse-difference variables Z, W and multiplier lambda,
solves it for real configurations by damped Gauss-Newton with a
closed-form Jacobian, each step from the normal equations
J^T J s = -J^T F, and a stacked step-length ladder (abandoning attempts
that stall; every configuration returned passes residual < SOLVE_TOL),
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

    @property
    def is_real(self) -> bool:
        return bool(np.allclose(self.z_array(), np.conj(self.w_array()), rtol=0, atol=1e-12))

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

    Raises CollisionError if two entries of z, or of w, collide.
    """
    z = [complex(v) for v in z]
    w = [v.conjugate() for v in z] if w is None else [complex(v) for v in w]
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
    evaluation per stage of the ladder.  Attempts run in seed order and
    the first whose configuration passes residual < SOLVE_TOL wins, so
    results are reproducible and every configuration returned passes it.
    An attempt is abandoned after SOLVE_MAX_STEPS steps, or once its
    residual has not halved over the last STALL_STEPS accepted steps.

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
    or not finite, a multiplier that is not finite, or a negative `seed`,
    and NoConvergenceError when no solution can exist (above) or the budget
    is exhausted.  When `trace` is a list it receives the accepted residual
    norms of the winning attempt.
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
    for sign, name in ((1.0, "positive"), (-1.0, "negative")):
        if all(g * sign > 0 for g in gamma) and lam.real * sign <= 0:
            raise NoConvergenceError(
                f"no solution exists: the strengths are all {name}, "
                f"so the multiplier needs a {name} real part"
            )
    system = _system(gamma, lam)
    for attempt in range(attempts):
        rng = np.random.default_rng(seed * 1009 + attempt)
        x = rng.standard_normal(2 * n) * 1.2
        norms = []
        try:
            x = _gauss_newton(x, system, norms)
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
            if residual(config) < SOLVE_TOL:
                if trace is not None:
                    trace.extend(norms)
                return config
        except CollisionError:
            continue
    raise NoConvergenceError(f"no convergence after {attempts} attempts")


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
    equations J^T J s = -J^T F.

    This is the least-squares step, conditioned as cond(J)^2 rather than
    cond(J); the gauge row gives J full column rank near every solution.
    A singular J^T J raises LinAlgError, which ends the attempt.
    """
    J = _jacobian(D, system)
    return np.linalg.solve(J.T @ J, -(J.T @ F))


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


def _jacobian(D, system: _System):
    """Closed-form Jacobian of `_real_system` at the point whose difference
    matrix is D.  V is antiholomorphic: with
    B[m, k] = dV_m/d conj(z_k) = Gamma_k / conj(z_m - z_k)^2 for k != m and
    B[m, m] = -sum_k B[m, k], dF/d Re z = lam I - B, dF/d Im z = i(lam I + B)."""
    n = system.n
    B = _off_diagonal_quotient(system.gamma[None, :], np.conj(D) ** 2)
    np.fill_diagonal(B, -B.sum(axis=1))
    d_re, d_im = system.lam_eye - B, 1j * (system.lam_eye + B)
    J = np.zeros((2 * n + 1, 2 * n))
    J[:n, :n], J[n:-1, :n] = d_re.real, d_re.imag
    J[:n, n:], J[n:-1, n:] = d_im.real, d_im.imag
    J[-1, n], J[-1, n + 1] = -1.0, 1.0  # d Im(z_2 - z_1)
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
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon must decrease strictly")
        if eps[0] / eps[-1] < 2:
            raise ValueError("epsilon must decrease by at least a factor of 2 overall")
        return super().__new__(cls, points)

    @classmethod
    def from_jsonl(cls, text: str) -> "SingularSequenceSample":
        points = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            unpack = lambda xs: [complex(re, im) for re, im in xs]
            z = unpack(data["z"])
            w = unpack(data["w"])
            gamma = data.get("gamma", [1.0] * len(z))
            points.append((float(data["epsilon"]), make_configuration(gamma, z, w)))
        return cls(tuple(points))


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
