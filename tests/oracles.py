"""Independent oracles shared by the unit and acceptance suites.

Everything here is transcribed or brute-forced without touching the
package's operator builders, so agreement is a genuine cross-check.  The
kron builders are the package's earlier dense implementations, with every
operation and its order kept, and ``reference_expm`` is the scaling and
squaring of ``expm`` without its checks and exact early returns: the
cached-term builders and ``expm`` must reproduce them bit for bit.
"""

import math

import numpy as np

from cavgate.hilbert import (
    ConditionalGenerator,
    RAMAN_LEVELS,
    fock_lowering,
    ket_bra,
)

SYM = ("00", "01", "10", "11", "02", "20", "a", "s", "22")


def _sym_vector(label):
    """A ``SYM`` configuration as a two-atom product vector, atom 1 major."""
    ket = np.eye(3, dtype=np.complex128)
    if label in ("a", "s"):
        sign = -1.0 if label == "a" else 1.0
        return (np.kron(ket[1], ket[2]) + sign * np.kron(ket[2], ket[1])) / np.sqrt(2.0)
    return np.kron(ket[int(label[0])], ket[int(label[1])])


#: Unitary whose columns are the ``SYM`` vectors over the product configurations.
W_SYM = np.column_stack([_sym_vector(c) for c in SYM])
W_SYM.flags.writeable = False


def transcribed_generator(g, omega0, kappa, gamma, n_max):
    """The coupled amplitude equations of the three-level scheme, written
    out coefficient by coefficient as a matrix d(c)/dt = O c.

    Couplings into photon sectors above the cutoff are simply absent, so
    every retained entry must match the operator-built generator.
    """
    om = omega0 / np.sqrt(2.0)
    nf = n_max + 1
    idx = {(n, x): n * 9 + i for n in range(nf) for i, x in enumerate(SYM)}
    o = np.zeros((nf * 9, nf * 9), dtype=complex)

    def put(row, col, val):
        if col in idx:
            o[idx[row], idx[col]] += val

    for n in range(nf):
        put((n, "00"), (n, "02"), -0.5j * np.sqrt(2) * om)
        put((n, "00"), (n, "00"), -0.5 * n * kappa)

        if n >= 1:
            put((n, "01"), (n - 1, "02"), -np.sqrt(n) * g)
        put((n, "01"), (n, "01"), -0.5 * n * kappa)

        if n >= 1:
            put((n, "10"), (n - 1, "20"), -np.sqrt(n) * g)
        put((n, "10"), (n, "20"), -0.5j * np.sqrt(2) * om)
        put((n, "10"), (n, "a"), -0.5j * om)
        put((n, "10"), (n, "s"), -0.5j * om)
        put((n, "10"), (n, "10"), -0.5 * n * kappa)

        if n >= 1:
            put((n, "11"), (n - 1, "s"), -np.sqrt(2 * n) * g)
        put((n, "11"), (n, "s"), -0.5j * om)
        put((n, "11"), (n, "a"), +0.5j * om)
        put((n, "11"), (n, "11"), -0.5 * n * kappa)

        put((n, "02"), (n + 1, "01"), np.sqrt(n + 1) * g)
        put((n, "02"), (n, "00"), -0.5j * np.sqrt(2) * om)
        put((n, "02"), (n, "02"), -0.5 * (n * kappa + gamma))

        put((n, "20"), (n + 1, "10"), np.sqrt(n + 1) * g)
        put((n, "20"), (n, "10"), -0.5j * np.sqrt(2) * om)
        put((n, "20"), (n, "22"), -0.5j * np.sqrt(2) * om)
        put((n, "20"), (n, "20"), -0.5 * (n * kappa + gamma))

        put((n, "a"), (n, "10"), -0.5j * om)
        put((n, "a"), (n, "11"), +0.5j * om)
        put((n, "a"), (n, "22"), -0.5j * om)
        put((n, "a"), (n, "a"), -0.5 * (n * kappa + gamma))

        put((n, "s"), (n + 1, "11"), np.sqrt(2 * (n + 1)) * g)
        if n >= 1:
            put((n, "s"), (n - 1, "22"), -np.sqrt(2 * n) * g)
        put((n, "s"), (n, "10"), -0.5j * om)
        put((n, "s"), (n, "11"), -0.5j * om)
        put((n, "s"), (n, "22"), -0.5j * om)
        put((n, "s"), (n, "s"), -0.5 * (n * kappa + gamma))

        put((n, "22"), (n + 1, "s"), np.sqrt(2 * (n + 1)) * g)
        put((n, "22"), (n, "20"), -0.5j * np.sqrt(2) * om)
        put((n, "22"), (n, "a"), -0.5j * om)
        put((n, "22"), (n, "s"), -0.5j * om)
        put((n, "22"), (n, "22"), -0.5 * (n * kappa + 2 * gamma))
    return o


def align_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the largest-magnitude component onto the positive real axis."""
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) < 1e-14:
        return v
    return v * (abs(v[k]) / v[k])


# --------------------------------------------------------------- kron builders

_LEV = {name: i for i, name in enumerate(RAMAN_LEVELS)}
_I6 = np.eye(6, dtype=np.complex128)
_I3 = np.eye(3, dtype=np.complex128)
_T21 = ket_bra(3, 2, 1)   # |2><1|
_T02 = ket_bra(3, 0, 2)   # |0><2|
_T12 = ket_bra(3, 1, 2)   # |1><2|
_P22 = ket_bra(3, 2, 2)


def kron_generator_raman(params, basis):
    """Six-level generator built densely with np.kron, term by term."""
    basis.require_scheme("raman")
    atom1 = lambda op: np.kron(op, _I6)
    atom2 = lambda op: np.kron(_I6, op)
    n_max = basis.n_max
    nf = n_max + 1
    b = fock_lowering(n_max)

    at = np.zeros((36, 36), dtype=np.complex128)
    weak = (params.omega21 / 2.0) * atom1(ket_bra(6, _LEV["2"], _LEV["e1"]))
    weak += (params.omega20 / 2.0) * atom2(ket_bra(6, _LEV["2"], _LEV["e0"]))
    at += weak + weak.conj().T
    for j in range(3):
        drive = ket_bra(6, _LEV[str(j)], _LEV[f"e{j}"])
        strong = (params.omega_diag[j] / 2.0) * (atom1(drive) + atom2(drive))
        at += strong + strong.conj().T
        proj = ket_bra(6, _LEV[f"e{j}"], _LEV[f"e{j}"])
        at += (params.delta[j] - 0.5j * params.gamma[j]) * (atom1(proj) + atom2(proj))

    h = np.kron(np.eye(nf, dtype=np.complex128), at)
    for emb in (atom1, atom2):
        t = 1j * np.kron(b, emb(ket_bra(6, _LEV["e2"], _LEV["1"])))
        h += t + t.conj().T
    h += -0.5j * params.kappa * np.kron(b.conj().T @ b, np.eye(36, dtype=np.complex128))
    return ConditionalGenerator(basis, -1j * h)


def kron_hamiltonian_lambda(g, omega0, kappa, gamma, basis):
    """Three-level Hamiltonian in the symmetrized basis, built densely with np.kron."""
    basis.require_scheme("lambda")
    atom1 = lambda op: np.kron(op, _I3)
    atom2 = lambda op: np.kron(_I3, op)
    n_max = basis.n_max
    nf = n_max + 1
    b = fock_lowering(n_max)
    h = np.zeros((nf * 9,) * 2, dtype=np.complex128)
    for emb in (atom1, atom2):
        t = 1j * g * np.kron(b, emb(_T21))
        h += t + t.conj().T
    lower = (omega0 / 2.0) * (atom2(_T02) + atom1(_T12))
    h += np.kron(np.eye(nf, dtype=np.complex128), lower + lower.conj().T)
    h += -0.5j * kappa * np.kron(b.conj().T @ b, np.eye(9, dtype=np.complex128))
    h += -0.5j * gamma * np.kron(np.eye(nf, dtype=np.complex128), atom1(_P22) + atom2(_P22))
    w = np.kron(np.eye(nf, dtype=np.complex128), W_SYM)
    return w.conj().T @ h @ w


def kron_generator_lambda(params, basis):
    return ConditionalGenerator(
        basis, -1j * kron_hamiltonian_lambda(1.0, params.omega0, params.kappa, params.gamma, basis))


def kron_shift_hamiltonian(view, n_max):
    """Light-shift terms of the reduced Raman model, built densely with np.kron."""
    atom1 = lambda op: np.kron(op, _I3)
    atom2 = lambda op: np.kron(_I3, op)
    sh = np.zeros((9, 9), dtype=np.complex128)
    for j in range(3):
        pj = ket_bra(3, j, j)
        sh += -view.ground_shift[j] * (atom1(pj) + atom2(pj))
    p2 = ket_bra(3, 2, 2)
    sh += -view.weak_shift_atom1 * atom1(p2)
    sh += -view.weak_shift_atom2 * atom2(p2)

    nf = n_max + 1
    b = fock_lowering(n_max)
    p1 = ket_bra(3, 1, 1)
    h = np.kron(np.eye(nf, dtype=np.complex128), sh)
    h += -view.cavity_shift * np.kron(b.conj().T @ b, atom1(p1) + atom2(p1))
    w = np.kron(np.eye(nf, dtype=np.complex128), W_SYM)
    return w.conj().T @ h @ w


# --------------------------------------------------------------- reference expm

_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


def reference_expm(a):
    """The degree-13 scaling-and-squaring path of ``expm``, with its sums
    and squarings out of place (one temporary per operation)."""
    a = np.asarray(a, dtype=np.complex128)
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    a = a / (2.0 ** s) if s else a
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    f = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        f = f @ f
    return f
