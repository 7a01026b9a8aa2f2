"""Truncated Hilbert spaces for atom-cavity systems.

Three level schemes are supported:

``lambda``
    Two three-level atoms (ground states 0, 1 and excited state 2) sharing
    one cavity mode.  The two-atom configurations are kept in a partially
    symmetrized form: the combinations of one atom in 1 and the other in 2
    are replaced by the antisymmetric/symmetric pair ``a`` and ``s``, because
    only ``s`` couples to the cavity while ``a`` is the entangled bus state.
``raman``
    Two six-level atoms (ground states 0, 1, 2 plus excited states e0, e1,
    e2) sharing one cavity mode; plain product configurations, no
    symmetrization.
``shelving``
    A single three-level atom with states A, B, C and no cavity mode.

Units: hbar = 1 and every rate is expressed in units of the atom-cavity
coupling g, which no parameter sets (g = 1).  Basis ordering is photon-
number major with a fixed configuration order inside each photon sector.
``CNOT_MATRIX`` is the target gate over ``QUBIT_CONFIGS``, the zero-photon
qubit states of lambda and raman.

Generators are assembled from constant operator terms, one per rate, kept
as their nonzero entries (``sparse_term``) and scaled and summed by
``assemble``; the scheme modules cache the terms of each photon cutoff.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LAMBDA_CONFIGS",
    "LAMBDA_PRODUCT_CONFIGS",
    "RAMAN_LEVELS",
    "RAMAN_CONFIGS",
    "SHELVING_CONFIGS",
    "QUBIT_CONFIGS",
    "CNOT_MATRIX",
    "DFS_LABELS",
    "SCHEMES",
    "SchemeMismatchError",
    "Basis",
    "StateVector",
    "Operator",
    "ConditionalGenerator",
    "build_basis",
    "basis_state",
    "as_integer",
    "as_rate",
    "set_rates",
    "qubit_state",
    "qubit_indices",
    "lambda_symmetrization_matrix",
    "fock_lowering",
    "ket_bra",
    "two_atom",
    "sparse_term",
    "assemble",
]

#: Partially symmetrized two-atom configurations of the lambda scheme, in
#: storage order.  "a" and "s" are (|12> -+ |21>)/sqrt(2).
LAMBDA_CONFIGS = ("00", "01", "10", "11", "02", "20", "a", "s", "22")

#: Plain product configurations (atom 1 major) used internally to assemble
#: lambda-scheme operators before rotating into the symmetrized basis.
LAMBDA_PRODUCT_CONFIGS = ("00", "01", "02", "10", "11", "12", "20", "21", "22")

#: Single-atom levels of the six-level (Raman) scheme.
RAMAN_LEVELS = ("0", "1", "2", "e0", "e1", "e2")

#: All 36 two-atom product configurations, atom 1 major.
RAMAN_CONFIGS = tuple(x1 + x2 for x1 in RAMAN_LEVELS for x2 in RAMAN_LEVELS)

#: States of the three-level shelving model: metastable A, intermediate B,
#: rapidly decaying C.
SHELVING_CONFIGS = ("A", "B", "C")

#: Computational-basis configurations (control atom first).
QUBIT_CONFIGS = ("00", "01", "10", "11")

#: Ideal CNOT over ``QUBIT_CONFIGS``, control atom first.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=np.complex128,
)
CNOT_MATRIX.flags.writeable = False  # every fidelity in the process reads it

#: Decoherence-free subspace of the lambda scheme: the zero-photon states
#: that the undriven generator leaves alone (a test derives this list).
DFS_LABELS = ((0, "00"), (0, "01"), (0, "10"), (0, "11"), (0, "a"))

SCHEMES = ("lambda", "raman", "shelving")

_CONFIGS = dict(zip(SCHEMES, (LAMBDA_CONFIGS, RAMAN_CONFIGS, SHELVING_CONFIGS)))


class SchemeMismatchError(ValueError):
    """An operation received a basis built for a different level scheme."""


def as_integer(name: str, value) -> int:
    """``value`` as an int: integers and integral floats such as 2.0 pass;
    True, 2.7, "3" or inf raise a ValueError naming ``name``."""
    try:
        if not isinstance(value, bool):  # a flag, not a count, though operator.index takes it
            return operator.index(value)
    except TypeError:
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_rate(name: str, value) -> float:
    """``value`` as a float; a ValueError naming ``name`` unless it is a
    finite non-negative rate."""
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"{name} must be a finite non-negative rate, got {v!r}")
    return v


def set_rates(params, names) -> None:
    """Store the named fields of a frozen parameter dataclass as floats, each
    checked by ``as_rate``; the first that fails raises."""
    for name in names:
        object.__setattr__(params, name, as_rate(name, getattr(params, name)))


def qubit_state(psi) -> np.ndarray:
    """``psi`` as 4 complex amplitudes over ``QUBIT_CONFIGS``; it must have
    shape (4,) and unit norm (to 1e-9)."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.shape != (4,):
        raise ValueError(f"expected 4 amplitudes over (00, 01, 10, 11), got shape {v.shape}")
    norm2 = float(np.vdot(v, v).real)
    if not abs(norm2 - 1.0) <= 1e-9:  # NaN too, e.g. from inf*0 products
        raise ValueError(f"qubit state must be unit norm, got |psi|^2 = {norm2!r}")
    return v


@dataclass(frozen=True)
class Basis:
    """Ordered, truncated basis of (photon number, atomic configuration) labels.

    Immutable after construction.
    """

    scheme: str
    n_max: int
    labels: tuple
    _index: dict = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, n: int, config: str) -> int:
        """Integer index of the label (n, config), config being one of the
        scheme's configuration strings, e.g. "1e2" for raman; raises
        ValueError on unknown labels and on a non-integral n."""
        key = (as_integer("n", n), config)
        try:
            return self._index[key]
        except (KeyError, TypeError):  # an unhashable config is no label either
            raise ValueError(
                f"label (n={key[0]}, config={key[1]!r}) is not in the "
                f"{self.scheme} basis with n_max={self.n_max}"
            ) from None

    def require_scheme(self, scheme: str) -> None:
        if self.scheme != scheme:
            raise SchemeMismatchError(f"expected a {scheme!r} basis, got {self.scheme!r}")


def build_basis(scheme: str, n_max: int) -> Basis:
    """Construct the deterministic basis for a level scheme.

    Dimensions: (n_max+1)*9 for lambda, (n_max+1)*36 for raman, and always 3
    for shelving, which has no cavity mode: its cutoff is checked, then
    stored as 0, so all shelving bases are equal.  Memoised: equal arguments
    return the same (immutable) ``Basis``.

    Parameters
    ----------
    scheme : {"lambda", "raman", "shelving"}
    n_max : int
        Photon-number cutoff, >= 0; 2.0 counts as 2, 2.7 raises ValueError.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    n_max = as_integer("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return _basis(scheme, 0 if scheme == "shelving" else n_max)


# keyed on checked arguments: True == 1 would otherwise hit the cutoff-1 entry
@functools.lru_cache(maxsize=32)
def _basis(scheme: str, n_max: int) -> Basis:
    labels = tuple((n, c) for n in range(n_max + 1) for c in _CONFIGS[scheme])
    index = {lab: i for i, lab in enumerate(labels)}
    return Basis(scheme=scheme, n_max=n_max, labels=labels, _index=index)


@dataclass
class StateVector:
    """Complex amplitudes over a basis.

    States evolved under a conditional (no-emission) generator are kept
    unnormalized: the squared norm is the no-photon probability.
    """

    basis: Basis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({self.basis.dim},)"
            )
        self.amplitudes = amps

    def squared_norm(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def amplitude(self, n: int, config: str) -> complex:
        return complex(self.amplitudes[self.basis.index(n, config)])

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>; bases must match."""
        if self.basis != other.basis:
            raise ValueError("cannot take the overlap of states over different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Dense square operator over a basis; the matrix is stored as complex128
    and must be basis.dim x basis.dim."""

    basis: Basis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis dimension {self.basis.dim}")
        object.__setattr__(self, "matrix", m)


class ConditionalGenerator(Operator):
    """Generator G of conditional no-emission dynamics, d(psi)/dt = G psi.

    G = -i H with H the (non-Hermitian) conditional Hamiltonian, so the
    squared norm of the evolved state decays monotonically.  The matrix is
    checked and stored as for ``Operator``.
    """


def basis_state(basis: Basis, n: int, config: str) -> StateVector:
    """Unit vector with amplitude 1 at the label (n, config)."""
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(n, config)] = 1.0
    return StateVector(basis, amps)


def qubit_indices(basis: Basis) -> tuple:
    """Indices of the four zero-photon computational configurations.

    Order follows ``QUBIT_CONFIGS`` (control atom first); valid for a
    scheme whose configurations contain them (lambda and raman).
    """
    if not set(QUBIT_CONFIGS) <= set(_CONFIGS[basis.scheme]):
        raise SchemeMismatchError(f"no qubit subspace in the {basis.scheme!r} scheme")
    return tuple(basis.index(0, c) for c in QUBIT_CONFIGS)


def lambda_symmetrization_matrix() -> np.ndarray:
    """Unitary mapping symmetrized lambda coordinates to product coordinates.

    Columns are the ``LAMBDA_CONFIGS`` vectors expressed over
    ``LAMBDA_PRODUCT_CONFIGS``: a unit entry for each of the seven labels
    the two share, and (|12> -+ |21>)/sqrt(2) for ``a`` and ``s``.  Use
    ``W.conj().T @ H_prod @ W`` to rotate an operator from the product basis
    into the stored basis.
    """
    row = LAMBDA_PRODUCT_CONFIGS.index
    w = np.zeros((9, 9), dtype=np.complex128)
    for j, c in enumerate(LAMBDA_CONFIGS):
        if c not in ("a", "s"):
            w[row(c), j] = 1.0
    r = 1.0 / np.sqrt(2.0)
    a, s = LAMBDA_CONFIGS.index("a"), LAMBDA_CONFIGS.index("s")
    w[row("12"), [a, s]] = r
    w[row("21"), [a, s]] = -r, r
    return w


def fock_lowering(n_max: int) -> np.ndarray:
    """Photon annihilation operator on the truncated Fock space."""
    if as_integer("n_max", n_max) < 0:
        raise ValueError("n_max must be >= 0")
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(np.complex128)


def ket_bra(dim: int, i: int, j: int) -> np.ndarray:
    """|i><j| on a dim-dimensional space."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def two_atom(atom1: np.ndarray | None = None, atom2: np.ndarray | None = None) -> np.ndarray:
    """atom1 (x) I + I (x) atom2 on the product space of two atoms, atom 1
    major; a single-atom operator left None drops its term."""
    eye = np.eye(len(atom2 if atom1 is None else atom1), dtype=np.complex128)
    first = 0.0 if atom1 is None else np.kron(atom1, eye)
    return first + (0.0 if atom2 is None else np.kron(eye, atom2))


def sparse_term(m: np.ndarray) -> tuple:
    """Nonzero entries of a constant operator term.

    Returns read-only ``(flat_index, values)`` arrays, flat indices in
    row-major order, for ``assemble``.
    """
    flat = np.flatnonzero(m)
    values = m.reshape(-1)[flat]
    flat.flags.writeable = False
    values.flags.writeable = False
    return flat, values


def assemble(dim: int, coefficients, terms) -> np.ndarray:
    """The dense matrix sum_k c_k A_k of sparse terms A_k.

    The terms are added one after another into one zero matrix, so every
    entry receives its contributions in term order: the result is bitwise
    equal to accumulating the dense products c_k * A_k in that order.
    """
    h = np.zeros(dim * dim, dtype=np.complex128)
    for c, (flat, values) in zip(coefficients, terms, strict=True):
        h[flat] += c * values
    return h.reshape(dim, dim)
