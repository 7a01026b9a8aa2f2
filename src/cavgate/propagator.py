"""Propagation of states under a time-independent non-Hermitian generator.

The generator never changes during a run, so ``propagate`` works in two
steps.  It decomposes the generator once: it takes the block of states
reachable from the initial state's support and, where the block's diagonal
falls into well-separated clusters (the far-detuned Raman excited states:
none, one or two atoms excited), block-diagonalises it exactly, one end
cluster at a time: a Riccati equation for the invariant subspace, then a
Sylvester equation for its complement, each solved by a contracting
fixed-point sweep (Stewart, SIAM Rev. 15, 727 (1973); Bavely & Stewart,
SIAM J. Numer. Anal. 16, 359 (1979)).  A block that does not split, or
whose sweeps fail to contract to unit roundoff, is one leaf, whole.  It
then applies the leaf exponentials, taken once per distinct gap between
requested times, each over an exact fraction of the run (a gate run is one
exponential at exactly its length), so cost does not grow with the pulse
length.  Each split-off leaf is exponentiated shifted by the mean imaginary
part of its diagonal (a pure phase, so nothing overflows): the squarings
see norms of order the couplings times the pulse length rather than the
detuning times it, and their roundoff no longer dominates the result.  A
whole (unsplit) block is exponentiated unshifted, with omega = 0.

The exponential is scaling and squaring with the diagonal degree-13 Pade
core (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), the matrix halved until its
1-norm is below Higham's theta_13 (SIAM J. Matrix Anal. Appl. 26, 1179
(2005)), where the backward error is at unit roundoff.  Below a
logarithmic norm of -1075 ln 2 the result is the exact zero matrix (see
``expm``).  With atomic decay the excited Raman clusters of a gate pulse
end there: at delta = 1000, gamma >= 0.1 and omega20 = omega21 in
[0.01, 0.1] both do, with mu T from -3e3 to -3.1e5.

The squarings of each exponential carry roundoff up to u |G t|_1, so
``expm`` refuses every one where that exceeds 1e-6 (ArithmeticError; tiny
drives, whose pulse lengths make |G t|_1 huge), unless its result is exact.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .hilbert import ConditionalGenerator, StateVector, as_integer

__all__ = [
    "DEFAULT_OUTPUTS",
    "expm",
    "PropagatorPlan",
    "plan",
    "propagate",
    "output_times",
]

DEFAULT_OUTPUTS = 500

# diagonal Pade coefficients of degree 13
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)

# largest 1-norm at which degree 13 has backward error below 2**-53
# (Higham 2005, table 2.3)
_THETA_13 = 5.371920351148152

# below this logarithmic norm every entry of the exponential is under half
# the smallest subnormal, 2^-1075, and rounds to zero
_UNDERFLOW = -1075.0 * math.log(2.0)


# diagonal clusters further apart than _SEP times the largest off-diagonal
# absolute row sum are decoupled; a Riccati or Sylvester sweep that has not
# reached unit roundoff _UNIT_ROUNDOFF after _SWEEPS sweeps, or whose
# contraction estimate reaches 1/2, leaves its block whole
_SEP = 8.0
_SWEEPS = 30
_UNIT_ROUNDOFF = 2.0 ** -53

# largest roundoff u |G t|_1 an exponential may carry: the p0 accuracy that
# DEFAULT_N_MAX is chosen for
_ROUNDOFF_BOUND = 1e-6


def _pade13_uv(a: np.ndarray) -> tuple:
    """Degree-13 U and V, each sum taken left to right as written."""
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return u, v


def _norm_mu(a: np.ndarray) -> tuple:
    """The 1-norm of a and its logarithmic infinity-norm
    mu(A) = max_i (Re a_ii + sum_{j != i} |a_ij|); inf or NaN on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        abs_a = np.abs(a)
        norm = float(abs_a.sum(axis=0).max(initial=0.0))
        mu = float((abs_a.sum(axis=1) - abs_a.diagonal() + a.diagonal().real).max(initial=-math.inf))
    return norm, mu


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Pade core,
    after the fewest halvings that bring the 1-norm below theta_13.

    Two results are exact without a Pade evaluation: the identity for a
    zero matrix, and the zero matrix when the logarithmic infinity-norm
    mu(A) = max_i (Re a_ii + sum_{j != i} |a_ij|) is below -1075 ln 2.
    Every entry of e^A is bounded by |e^A|_inf <= e^mu(A) < 2^-1075, half
    the smallest subnormal, so zero is its correctly rounded value.

    A matrix whose 1-norm is not finite (a non-finite entry, or a sum that
    overflows) raises ValueError, and squarings that overflow raise
    ArithmeticError: no inf or NaN entry is ever returned.  So do squarings
    whose roundoff u |A|_1 exceeds _ROUNDOFF_BOUND; exact results are exempt.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm, mu = _norm_mu(a)
    if not math.isfinite(norm):
        raise ValueError(f"matrix 1-norm is {norm!r}: an entry is not finite or the norm overflows")
    if norm == 0.0:
        return np.eye(a.shape[0], dtype=np.complex128)
    if mu < _UNDERFLOW:
        return np.zeros_like(a)

    # fewest halvings: each squaring amplifies roundoff
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    u, v = _pade13_uv(a / (2.0 ** s) if s else a)
    f = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            f = f @ f
    if not np.isfinite(f).all():
        raise ArithmeticError(f"matrix exponential overflows: 1-norm {norm:.3g}, {s} squarings")
    if _UNIT_ROUNDOFF * norm > _ROUNDOFF_BOUND:
        raise ArithmeticError(
            f"roundoff of the squarings u*|G t|_1 = {_UNIT_ROUNDOFF * norm:.3g} exceeds "
            f"{_ROUNDOFF_BOUND:g} on a block of {a.shape[0]} states: the result cannot be trusted")
    return f


@dataclass(frozen=True)
class PropagatorPlan:
    """Time grid of a run under one generator.

    ``dt`` only snaps requested times onto the grid; ``propagate`` takes k
    steps as t_total * (k / (n_outputs * n_sub)).  Immutable.
    """

    generator: ConditionalGenerator
    t_total: float
    n_outputs: int
    n_sub: int
    dt: float


def plan(generator: ConditionalGenerator, t_total: float,
         n_outputs: int = DEFAULT_OUTPUTS, min_substeps: int = 1) -> PropagatorPlan:
    """Fix the time grid of a run.

    The grid step is dt = t_total / (n_outputs * min_substeps); the two
    counts, positive integers, only set which times ``propagate`` accepts:
    a run to t_total is one exponential at exactly t_total whatever they
    are, at unit roundoff (see ``expm``).  A count that is not an integer, a
    product above 2**53 (past which step indices are not exact floats), or
    a dt below the smallest normal float, raises ValueError.
    """
    if not np.all(np.isfinite(generator.matrix)):
        raise ValueError("generator contains non-finite entries")
    t_total = float(t_total)
    if not (t_total > 0.0) or not math.isfinite(t_total):
        raise ValueError(f"t_total must be positive and finite, got {t_total!r}")
    n_outputs = _count("n_outputs", n_outputs)
    n_sub = _count("min_substeps", min_substeps)
    if n_outputs * n_sub > 2 ** 53:
        raise ValueError(f"n_outputs={n_outputs} times min_substeps={n_sub} exceeds 2**53 grid steps")
    dt = t_total / (n_outputs * n_sub)
    if dt < sys.float_info.min:
        raise ValueError(f"t_total={t_total!r} over {n_outputs * n_sub} grid steps gives a step "
                         f"dt={dt!r} below the smallest normal float")
    return PropagatorPlan(generator=generator, t_total=t_total, n_outputs=n_outputs, n_sub=n_sub, dt=dt)


def _count(name: str, value) -> int:
    """``value`` as a positive int; a ValueError naming ``name`` otherwise."""
    n = as_integer(name, value)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return n


def _reachable(g: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Indices of the states G connects to ``support`` (a boolean mask).

    Memoised on the zero pattern of G and on the support, so every
    generator with one structure gets the same read-only index array.
    """
    link = g != 0.0
    return _reachable_block(link.shape, link.tobytes(), support.tobytes())


@functools.lru_cache(maxsize=16)
def _reachable_block(shape: tuple, link: bytes, support: bytes) -> np.ndarray:
    block = _closure(np.frombuffer(link, dtype=bool).reshape(shape),
                     np.frombuffer(support, dtype=bool))
    block.flags.writeable = False
    return block


def _closure(link: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Indices reachable from ``support`` along the nonzero pattern ``link``."""
    reach = support
    while True:
        grown = reach | link[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _grid_steps(p: PropagatorPlan, t_grid) -> np.ndarray:
    """Map output times to cumulative step counts on the plan grid."""
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence of times")
    if not np.isfinite(ts).all():
        raise ValueError(f"t_grid must hold finite times, got {float(ts[~np.isfinite(ts)][0])!r}")
    if np.any(np.diff(ts) < 0.0):
        raise ValueError("t_grid must be non-decreasing")
    with np.errstate(over="ignore"):  # an overflowing ts/dt is out of range
        steps = np.rint(ts / p.dt)
    if not (0.0 <= steps[0] and steps[-1] <= p.n_outputs * p.n_sub):
        raise ValueError(
            f"t_grid must lie within [0, t_total={p.t_total!r}], "
            f"got range [{float(ts[0])!r}, {float(ts[-1])!r}]"
        )
    ks = steps.astype(np.int64)
    misfit = np.abs(ts - ks * p.dt)
    bad = misfit > 1e-6 * p.dt
    if np.any(bad):
        t_bad = float(ts[bad][0])
        raise ValueError(
            f"time {t_bad!r} is not a multiple of the plan step dt={p.dt!r}; "
            "use output_times(plan) or pass min_substeps to refine the grid"
        )
    return ks


def _clusters(g: np.ndarray) -> list:
    """Indices of g grouped by the imaginary part of its diagonal.

    Sorted by that part, a new group starts wherever two neighbours differ
    by more than _SEP times the largest off-diagonal absolute row sum.
    """
    diag = g.diagonal()
    order = np.argsort(diag.imag, kind="stable")
    coupling = float((np.abs(g).sum(axis=1) - np.abs(diag)).max(initial=0.0))
    cuts = np.flatnonzero(np.diff(diag.imag[order]) > _SEP * coupling) + 1
    return np.split(order, cuts)


def _norm(m: np.ndarray) -> float:
    """Frobenius norm: submultiplicative, and cheaper than the 1-norm."""
    return math.sqrt(np.vdot(m, m).real)


def _fixed_point(step, x: np.ndarray, rate):
    """Fixed point of ``step``, swept from its first iterate ``x``.

    Stops once the predicted remainder q |dx| / (1 - q) is below unit
    roundoff of |x|, q = rate(|x|) being the contraction estimate; None if
    q reaches 1/2 or _SWEEPS sweeps do not suffice.
    """
    for _ in range(_SWEEPS):
        new = step(x)
        size = _norm(new)
        q = rate(size)
        if not q < 0.5:
            return None
        if q * _norm(new - x) <= (1.0 - q) * _UNIT_ROUNDOFF * size:
            return new
        x = new
    return None


def _split(g: np.ndarray, s: int):
    """Block-diagonalise g = [[A, B], [C, D]], A being the leading s states.

    X solves C + D X - X A - X B X = 0, so A + B X generates the motion in
    the invariant subspace (I; X), and Y solves (A + B X) Y - Y (D - X B)
    + B = 0.  Both are fixed points of sweeps shifted by the mean diagonal
    mu of A, which share one inverse of D - mu and contract by at most
    q = |(D - mu)^-1| (|A - mu| + 2 |B| |X|) in the Frobenius norm.  Returns
    (X, Y, A + B X, D - X B), or None if a sweep does not contract to
    roundoff.
    """
    a, b, c, d = g[:s, :s], g[:s, s:], g[s:, :s], g[s:, s:]
    mu = a.diagonal().mean()
    a_mu = a - mu * np.eye(s)
    d_inv = np.linalg.inv(d - mu * np.eye(d.shape[0]))
    d_inv_norm, a_norm, b_norm = _norm(d_inv), _norm(a_mu), _norm(b)

    def rate(x_norm):
        return d_inv_norm * (a_norm + 2.0 * b_norm * x_norm)

    x = _fixed_point(lambda x: d_inv @ (x @ (a_mu + b @ x) - c), -(d_inv @ c), rate)
    if x is None:
        return None
    a_eff_mu = a_mu + b @ x
    xb = x @ b
    q = rate(_norm(x))
    y = _fixed_point(lambda y: (a_eff_mu @ y + b + y @ xb) @ d_inv, b @ d_inv, lambda _: q)
    if y is None:
        return None
    return x, y, a_eff_mu + mu * np.eye(s), d - xb


@dataclass(frozen=True)
class _Decomposition:
    """The reachable block of a generator, split exactly by diagonal cluster.

    ``block`` holds the full-space indices of the block in leaf order;
    ``splits`` one ``(start, stop, X, Y)`` per split, outermost first, where
    [start, stop) is the cluster split off the states from ``start`` on;
    ``leaves`` one ``(slice, generator, omega)`` per diagonal block, with
    omega the mean imaginary part of its diagonal.  All maps act on axis 0.
    """

    block: np.ndarray
    splits: list
    leaves: list

    def into(self, v: np.ndarray) -> np.ndarray:
        """Full-space amplitudes v in decoupled coordinates: b = v_f - X v_s,
        then a = v_s - Y b."""
        cur = v[self.block]
        for start, stop, x, y in self.splits:
            cur[stop:] -= x @ cur[start:stop]
            cur[start:stop] -= y @ cur[stop:]
        return cur

    def exps(self, t: float) -> list:
        """exp(m t) of each leaf, as e^(i omega t) exp((m - i omega) t).  A
        whole block has omega = 0: expm sees exactly m t, and the factor
        1 + 0j changes at most the sign of a zero."""
        es = []
        for _, m, omega in self.leaves:
            shifted = m * t
            shifted.reshape(-1)[::m.shape[0] + 1] -= 1j * omega * t
            es.append(np.exp(1j * omega * t) * expm(shifted))
        return es

    def out(self, cur: np.ndarray, like: np.ndarray) -> np.ndarray:
        """Decoupled coordinates back, innermost split first (v_s = a + Y b,
        v_f = b + X v_s), scattered into zeros shaped like ``like``."""
        v = cur.copy()
        for start, stop, x, y in reversed(self.splits):
            v[start:stop] += y @ v[stop:]
            v[stop:] += x @ v[start:stop]
        full = np.zeros_like(like)
        full[self.block] = v
        return full


def _decompose(g: np.ndarray, support: np.ndarray) -> _Decomposition:
    """The states g connects to ``support`` (a boolean mask), split off one
    end cluster at a time for as long as ``_split`` succeeds.  A block that
    does not split is one leaf, in reachable order, with omega = 0."""
    block = _reachable(g, support)
    g = g[np.ix_(block, block)]
    groups = _clusters(g)
    order = np.concatenate(groups)
    rest = g[np.ix_(order, order)]
    splits, leaves, start = [], [], 0
    for group in groups[:-1]:
        parts = _split(rest, len(group))
        if parts is None:
            break
        x, y, a_eff, rest = parts
        stop = start + len(group)
        splits.append((start, stop, x, y))
        leaves.append((slice(start, stop), a_eff, a_eff.diagonal().imag.mean()))
        start = stop
    if not splits:
        return _Decomposition(block, [], [(slice(None), g, 0.0)])
    leaves.append((slice(start, None), rest, rest.diagonal().imag.mean()))
    return _Decomposition(block[order], splits, leaves)


def propagate(p: PropagatorPlan, state0: StateVector, t_grid) -> list:
    """Conditioned (unnormalized) states at the requested grid times.

    Squared norms of the returned states are the no-photon probabilities.
    Grid times must be multiples of the plan step, in increasing order,
    within [0, t_total]; a gap of k steps spans t_total * (k / steps).
    Initial amplitudes must be finite.
    """
    return [StateVector(state0.basis, a) for a in _amplitudes(p, state0, t_grid)]


def _amplitudes(p: PropagatorPlan, state0: StateVector, t_grid):
    """``propagate``'s states as full-space amplitude arrays, one at a time,
    so a caller keeps only what it needs; the checks run on the first."""
    if state0.basis != p.generator.basis:
        raise ValueError("state basis does not match the generator basis")
    ks = _grid_steps(p, t_grid)
    amps = state0.amplitudes
    bad = np.flatnonzero(~np.isfinite(amps))
    if bad.size:
        raise ValueError(f"initial amplitude at {state0.basis.labels[bad[0]]!r} is not finite, "
                         f"got {complex(amps[bad[0]])!r}")
    d = _decompose(p.generator.matrix, amps != 0.0)
    cur = d.into(amps)
    exps = {}
    for gap in np.diff(ks, prepend=0):
        if gap:
            if gap not in exps:
                exps[gap] = d.exps(p.t_total * (gap / (p.n_outputs * p.n_sub)))
            for (part, _, _), e in zip(d.leaves, exps[gap]):
                cur[part] = e @ cur[part]
        yield d.out(cur, amps)


def output_times(p: PropagatorPlan) -> np.ndarray:
    """The n_outputs + 1 even times t_total * (k / n_outputs), the last t_total."""
    return p.t_total * (np.arange(p.n_outputs + 1) / p.n_outputs)
