"""Independent finite-difference verification of the s-wave spectrum.

Discretizes -R'' + V'(r) R = eps R on a uniform grid over the principal
well with Dirichlet ends (the exact solutions vanish at both singular
endpoints with positive fractional powers), then extracts the lowest
eigenvalues of the symmetric tridiagonal operator in two steps: LAPACK's
dstebz brackets each by bisection on the Sturm negative-pivot count of the
LDL^T factorization (Barth, Martin and Wilkinson 1967), and inverse
iteration with a Rayleigh quotient (Parlett, The Symmetric Eigenvalue
Problem, section 4.6) takes it to a few ulp.  The finer grid of a pair
skips the bisection: the coarse grid's levels are its shifts, and one
Sturm count certifies the result.  Second-order accuracy is recovered to
fourth order by Richardson extrapolation over a grid doubling.

Nothing here touches the template pipeline: agreement with the closed
form certifies it through an unrelated computational path.  Importing
this module loads no array library: numpy is imported inside the
functions that use it, and dstebz, dgttrf and dgttrs come from scipy's
compiled linalg/_flapack extension, loaded from its file without importing
scipy.linalg, which costs more than a default `ptnu verify` spends in LAPACK.
"""
from __future__ import annotations

import functools
import math

from .errors import DomainError, NonConvergence, NonFinite

_EPS = 2.0 ** -52

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .poschl_teller import PtPotential


def discretize(p: PtPotential, n_points: int) -> tuple[np.ndarray, float]:
    """Three-point operator for the reduced equation with eps = 2mE on the
    interior grid r_i = i*h, h = r_max / (n_points + 1): the pair (diag,
    offdiag) of its diagonal, an ndarray of length n_points, and its
    constant off-diagonal entry -1/h^2."""
    import numpy as np

    if n_points < 100:
        raise DomainError(f"need n_points >= 100, got {n_points}")
    h = p.r_max / (n_points + 1)
    r = h * np.arange(1, n_points + 1)
    with np.errstate(all="ignore"):  # the check below refuses what leaves float range
        v_prime = p.v1_prime / np.sin(p.alpha * r) ** 2 + p.v2_prime / np.cos(p.alpha * r) ** 2
    # h * h underflows to 0, and 2/h^2 overflows, for alpha beyond about 1e154
    diag = (2.0 / (h * h) if h * h > 0.0 else math.inf) + v_prime
    if not np.all(np.isfinite(diag)):
        raise NonFinite("operator leaves floating-point range on the grid")
    return diag, -1.0 / (h * h)


@functools.cache
def _flapack():
    """scipy's f2py LAPACK wrappers, loaded from their file alone, so that
    neither scipy/__init__.py nor scipy/linalg/__init__.py runs.  The module
    takes the bare name _flapack that its init function carries."""
    import importlib.machinery
    import importlib.util

    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_flapack", [f"{root}/linalg" for root in scipy.submodule_search_locations or ()])
    if spec is None:
        raise ModuleNotFoundError("the oracle needs scipy (its linalg/_flapack extension)",
                                  name="scipy")
    return importlib.util.module_from_spec(spec)


def _operator(diag, offdiag: float, count: int):
    """The checked operator and the scales both solvers share: `diag` as a
    1-D float ndarray, the off-diagonal as an ndarray, `floor`, `noise` and
    `tol`, the first bracket width."""
    import numpy as np

    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1:  # LAPACK's wrapper would flatten it and solve it
        raise DomainError(f"need a 1-D diagonal, got one of shape {diag.shape}")
    n = len(diag)
    if not (1 <= count <= n):
        raise DomainError(f"need 1 <= count <= {n}, got {count}")
    if not (np.all(np.isfinite(diag)) and math.isfinite(offdiag)):
        raise NonFinite("operator has a NaN or infinite entry")
    c = -offdiag
    # The operator is |c| times the Dirichlet Laplacian, whose lowest level
    # is 4 sin^2(pi / (2n + 2)), plus diag - 2|c|: so every level lies above
    # `floor`, and tol is that small a part of each positive level.  Where
    # the bound is not positive, `norm`, within a factor 2 of the Gershgorin
    # bound on every level's size, sets the scale.  No tol goes below
    # `noise`, a bound on the error of dstebz's own Sturm count.
    lo, hi = float(np.min(diag)), float(np.max(diag))
    floor = lo - 2.0 * abs(c) + 4.0 * abs(c) * math.sin(math.pi / (2 * n + 2)) ** 2
    norm = max(abs(lo), abs(hi), 2.0 * abs(c))
    noise = 8.0 * _EPS * norm
    tol = max(1e-6 * (floor if floor > 0.0 else norm), noise)
    return diag, np.full(n - 1, offdiag), floor, noise, tol


def _refined(diag, offdiag: float, off, shifts, noise: float, tol: float):
    """Inverse iteration and a Rayleigh quotient from each fixed shift in
    turn: yields (level, converged) per shift.

    The shift is factored once (dgttrf), or once more `noise` lower where a
    pivot is within `noise` of zero, since such a shift is a level to
    rounding and its solves would overflow.  The ramp start is solved
    against (dgttrs) until the quotient stops moving, at most 8 times;
    `converged` says whether it stopped.  Written as
    [c (sum (x_i+1 - x_i)^2 + x_1^2 + x_N^2) + sum (d_i - 2c) x_i^2] / sum x_i^2
    with c = -offdiag, a sum of terms that are positive where the potential
    is, the quotient takes no 2/h^2 cancellation; its error is quadratic
    in the iterate's.
    """
    import numpy as np

    lapack = _flapack()
    c = -offdiag
    n = len(diag)
    weight = diag - 2.0 * c
    start = np.arange(1.0, n + 1.0) / n
    for shift in shifts:
        dl, d, du, du2, ipiv, _ = lapack.dgttrf(off, diag - shift, off)
        if np.min(np.abs(d)) <= noise:
            dl, d, du, du2, ipiv, _ = lapack.dgttrf(off, diag - (shift - noise), off)
        x, last, converged = start, math.nan, False
        with np.errstate(all="ignore"):  # the callers refuse what leaves float range
            for _ in range(8):
                # each solve grows x by about 1 / |level - shift|
                x = lapack.dgttrs(dl, d, du, du2, ipiv, x)[0]
                x /= np.max(np.abs(x))
                dx = np.diff(x)
                steps = float(dx @ dx) + float(x[0]) ** 2 + float(x[-1]) ** 2
                rho = (c * steps + float(weight @ (x * x))) / float(x @ x)
                if abs(rho - last) <= 4.0 * _EPS * max(abs(rho), tol):
                    converged = True
                    break
                last = rho
        yield rho, converged


def lowest_eigenvalues(diag: np.ndarray, offdiag: float, count: int) -> list[float]:
    """The `count` smallest eigenvalues, ascending, of the tridiagonal
    matrix with the 1-D diagonal `diag` (any sequence of floats) and every
    off-diagonal entry `offdiag`, the pair `discretize` returns: a short
    bisection by LAPACK dstebz, then inverse iteration and a Rayleigh
    quotient per level.

    dstebz brackets each level to an absolute tolerance `tol`, 1e-6 of a
    lower bound on the whole spectrum, instead of running the Sturm count
    down to its own rounding noise.  Each bracket's midpoint is then the
    fixed shift of inverse iteration to a Rayleigh quotient.
    Against a 120-bit Sturm bisection of the same float matrix every level
    measured came out within 3 ulp, where dstebz run to its smallest
    tolerance is off by up to 186,000 ulp.  Levels closer than 64 tol are
    bisected again with a smaller tol.  A refined level more than 2 tol
    from its bracket, or not finite, raises NonConvergence.  dstebz gives
    up (raised here as NonFinite) where the square of an off-diagonal entry
    overflows, for alpha beyond about 1e76.
    """
    import numpy as np

    diag, off, _, noise, tol = _operator(diag, offdiag, count)
    n = len(diag)
    # one level past the last asked for, so that every level has a known
    # upper neighbour; range 2 selects by index, so vl = 0, vu = 1 go
    # unread; order "E" sorts over the whole matrix
    want = min(count + 1, n)
    while True:
        m, values, _, _, info = _flapack().dstebz(diag, off, 2, 0.0, 1.0, 1, want, tol, "E")
        if info != 0 or m != want:
            raise NonFinite(f"dstebz failed on this operator: info={info}, {m} of {want} found")
        gap = float(np.min(np.diff(values[:want]))) if want > 1 else math.inf
        if gap >= 64.0 * tol or tol == noise:
            break
        tol = max(gap / 256.0, noise)

    shifts = values[:count].tolist()
    levels = []
    for shift, (rho, _) in zip(shifts, _refined(diag, offdiag, off, shifts, noise, tol)):
        if not abs(rho - shift) <= 2.0 * tol:
            raise NonConvergence(f"inverse iteration left the bracket of level {len(levels)}: "
                                 f"{rho} against {shift} +- {tol}")
        levels.append(rho)
    return levels


def levels_near(diag: np.ndarray, offdiag: float, guesses) -> list[float]:
    """The len(guesses) smallest eigenvalues, ascending, of the operator
    (diag, offdiag), each refined from the matching ascending guess, a
    level of a nearby operator such as the same well on a coarser grid.

    Each guess is the fixed shift of the inverse iteration and Rayleigh
    quotient that `lowest_eigenvalues` runs, so no bisection is needed
    where the guesses are good.  The levels are certified, or the result
    is `lowest_eigenvalues(diag, offdiag, count)`.  The refinement, from
    the highest level down, stops at the first level that fails to
    converge within the solve cap, is not finite, ends nearer a
    neighbouring guess than its own, or lies within 2 `noise` of the level
    above.  Why the rest certifies each index: a converged quotient is an
    eigenvalue to a few ulp, and the separation test makes the `count` of
    them distinct eigenvalues, all at or below `top`, 2 `noise` above the
    last.  One dstebz count over (floor, top] must then find exactly
    `count`, so no eigenvalue below `top` was missed and the k-th refined
    level is level k.  Its tol spans the whole interval, so dstebz stops
    after one bisection step: three Sturm counts in place of a bisection
    per level.
    """
    guesses = [float(g) for g in guesses]
    count = len(guesses)
    diag, off, floor, noise, tol = _operator(diag, offdiag, count)
    # from the top down: a coarse grid's error grows with the level, so
    # where its guesses fail, the highest fails first and little is wasted
    levels = []
    for k, (rho, converged) in zip(range(count - 1, -1, -1),
                                   _refined(diag, offdiag, off, guesses[::-1], noise, tol)):
        own = abs(rho - guesses[k])
        if not (converged and math.isfinite(rho)
                and all(own <= abs(rho - g) for g in guesses[max(k - 1, 0):k + 2])
                and (not levels or levels[-1] - rho > 2.0 * noise)):
            return lowest_eigenvalues(diag, offdiag, count)
        levels.append(rho)
    levels.reverse()
    # floor is a bound in exact arithmetic, and equals level 0 of a constant
    # diagonal: 2 noise lower, no Sturm count can place a level below it
    bottom, top = floor - 2.0 * noise, levels[-1] + 2.0 * noise
    # range 1 counts by value, so il = iu = 0 go unread
    m, _, _, _, info = _flapack().dstebz(diag, off, 1, bottom, top, 0, 0, top - bottom, "E")
    if info != 0 or m != count:
        return lowest_eigenvalues(diag, offdiag, count)
    return levels


def richardson(e_h: float, e_h2: float) -> float:
    """Eliminate the leading h^2 error of the three-point operator from a
    step-halving pair."""
    if not (math.isfinite(e_h) and math.isfinite(e_h2)):
        raise NonFinite(f"need finite inputs, got {e_h}, {e_h2}")
    return (4.0 * e_h2 - e_h) / 3.0


def ode_residual(wavefunction, p: PtPotential, energy: float, samples) -> float:
    """Scaled worst-case defect of R'' + (eps - V')R over the samples.

    The second derivative uses the centered fourth-order five-point
    stencil with step 1e-4 of the well width; samples must keep at least
    1e-3 of the well width away from both singular endpoints.
    """
    import numpy as np

    length = p.r_max
    margin = 1e-3 * length
    step = 1e-4 * length
    r = np.asarray(samples, dtype=float)
    if r.size == 0:
        raise DomainError("need at least one sample")
    if np.any(r <= margin) or np.any(r >= length - margin):
        raise DomainError(f"samples must lie in ({margin}, {length - margin})")
    eps = 2.0 * p.m * energy
    values = np.asarray(wavefunction(r), dtype=float)
    second = (-wavefunction(r - 2 * step) + 16.0 * wavefunction(r - step)
              - 30.0 * values + 16.0 * wavefunction(r + step)
              - wavefunction(r + 2 * step)) / (12.0 * step * step)
    v_prime = p.v1_prime / np.sin(p.alpha * r) ** 2 + p.v2_prime / np.cos(p.alpha * r) ** 2
    defect = second + (eps - v_prime) * values
    peak = float(np.max(np.abs(values)))
    if peak == 0.0 or not np.all(np.isfinite(defect)):
        raise NonFinite("wavefunction vanished on all samples or defect not finite")
    return float(np.max(np.abs(defect))) / peak
