"""Phase-sensitive stabilizer engine.

States are kept in the CH-style canonical form

    |psi> = scalar * U_C * U_H * |s>

where U_C is a control-type Clifford (product of CX, CZ, S and phases) fixing
|0..0>, U_H = H^v is a layer of Hadamards, and |s> is a basis state.  U_C is
tracked through three n x n binary matrices G, F, M and a mod-4 vector g:

    U_C^dag Z_p U_C = Z^{G[p,:]}
    U_C^dag X_p U_C = i^{g[p]} X^{F[p,:]} Z^{M[p,:]}

The tableau rows are bool arrays.  A Pauli comes as pauli's i^k X^x Z^z with
bit-mask ints x and z, and its image is the XOR of the rows at its set bits.

The scalar is exact for every Clifford operation and Pauli projection: it is
stored as an integer power of sqrt(2), an eighth root of unity, and a residual
complex factor that only changes when a caller explicitly multiplies a phase
in.  This is what makes amplitudes and inner products trustworthy at 1e-10
against a dense reference instead of drifting over long circuits.

Overlaps use each state's amplitude form (Bravyi et al., arXiv:1808.00128):
with K = M F^T, <y|psi> = c i^(L.y + 2 y^T T y) on {y : R y = t} and zero
elsewhere, where L = g + 2 diag(K) + 2 F (v & s) mod 4, T is the strict
upper triangle of K^T mod 2, R = F[:, ~v]^T, t = s[~v] and
c = scalar 2^(-|v|/2).  Since G F^T = I that set is also {Y (w, 1)} over
all bit vectors w, with Y = [G[:, v] | G (s & ~v)].  <a|b> is then one
exponential sum over the intersection of the two sets, evaluated exactly
(see overlap).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .pauli import (GATE_NAMES, PauliOp, StabProjector, _conjugate_pauli_unchecked, _echelon, _I_POW,
                    _set_bits, check_gate, conjugate_pauli)

# exp(i*pi/4*k) for k = 0..7; even entries are exact in floating point
_W8 = np.array([np.exp(1j * np.pi / 4 * k) for k in range(8)])


def _parity(bits: np.ndarray) -> int:
    return int(np.count_nonzero(bits)) & 1


def _bit_rows(mat: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as ints, column j at bit j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(len(packed))]


class StabState:
    """CH-form stabilizer state with exact scalar.

    The scalar is 2^{p2/2} * w8-th eighth root * unit, or zero when null is
    set.  Mutating methods are private; the public module functions copy
    first, so states behave as values.
    """

    __slots__ = ("n", "G", "F", "M", "g", "v", "s", "p2", "w8", "unit", "null")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.G = np.eye(n, dtype=bool)
        self.F = np.eye(n, dtype=bool)
        self.M = np.zeros((n, n), dtype=bool)
        self.g = np.zeros(n, dtype=np.int64)
        self.v = np.zeros(n, dtype=bool)
        self.s = np.zeros(n, dtype=bool)
        self.p2 = 0
        self.w8 = 0
        self.unit = 1.0 + 0j
        self.null = False

    # -- scalar bookkeeping -------------------------------------------------

    def _mul_w8(self, k: int) -> None:
        self.w8 = (self.w8 + k) & 7

    def _mul_i_pow(self, k: int) -> None:
        self.w8 = (self.w8 + 2 * k) & 7

    def _mul_m1_pow(self, k: int) -> None:
        if k & 1:
            self.w8 = (self.w8 + 4) & 7

    def scalar(self) -> complex:
        if self.null:
            return 0j
        return (2.0 ** (0.5 * self.p2)) * complex(_W8[self.w8]) * self.unit

    def amplitude(self) -> float:
        if self.null:
            return 0.0
        return (2.0 ** (0.5 * self.p2)) * abs(self.unit)

    def phase(self) -> complex:
        if self.null:
            return 1.0 + 0j
        u = complex(_W8[self.w8]) * self.unit
        a = abs(u)
        return u / a if a > 0 else 1.0 + 0j

    def copy(self) -> "StabState":
        out = StabState.__new__(StabState)
        out.n = self.n
        out.G = self.G.copy()
        out.F = self.F.copy()
        out.M = self.M.copy()
        out.g = self.g.copy()
        out.v = self.v.copy()
        out.s = self.s.copy()
        out.p2 = self.p2
        out.w8 = self.w8
        out.unit = self.unit
        out.null = self.null
        return out

    # -- left multiplications (gates) ---------------------------------------

    def _s_gate(self, a: int) -> None:
        self.M[a] ^= self.G[a]
        self.g[a] = (self.g[a] - 1) % 4

    def _sdg_gate(self, a: int) -> None:
        self.M[a] ^= self.G[a]
        self.g[a] = (self.g[a] + 1) % 4

    def _z_gate(self, a: int) -> None:
        self.g[a] = (self.g[a] + 2) % 4

    def _x_gate(self, a: int) -> None:
        u = self.s ^ (self.F[a] & ~self.v) ^ (self.M[a] & self.v)
        beta = (
            _parity(self.M[a] & ~self.v & self.s)
            + _parity(self.F[a] & self.v & self.M[a])
            + _parity(self.F[a] & self.v & self.s)
        )
        self._mul_i_pow(int(self.g[a]))
        self._mul_m1_pow(beta)
        self.s = u

    def _y_gate(self, a: int) -> None:
        # Y = i X Z
        self._z_gate(a)
        self._x_gate(a)
        self._mul_i_pow(1)

    def _cz_gate(self, a: int, b: int) -> None:
        self.M[a] ^= self.G[b]
        self.M[b] ^= self.G[a]

    def _cx_gate(self, c: int, t: int) -> None:
        self.g[c] = (self.g[c] + self.g[t] + 2 * _parity(self.M[c] & self.F[t])) % 4
        self.G[t] ^= self.G[c]
        self.F[c] ^= self.F[t]
        self.M[c] ^= self.M[t]

    def _swap_gate(self, a: int, b: int) -> None:
        self._cx_gate(a, b)
        self._cx_gate(b, a)
        self._cx_gate(a, b)

    def _h_gate(self, a: int) -> None:
        t = self.s ^ (self.G[a] & self.v)
        u = self.s ^ (self.F[a] & ~self.v) ^ (self.M[a] & self.v)
        alpha = _parity(self.G[a] & ~self.v & self.s)
        beta = (
            _parity(self.M[a] & ~self.v & self.s)
            + _parity(self.F[a] & self.v & self.M[a])
            + _parity(self.F[a] & self.v & self.s)
        )
        delta = int(self.g[a] + 2 * (alpha + beta)) % 4
        self._update_sum(t, u, delta, alpha)

    # -- right multiplications (tableau-only, no state change) ---------------

    def _s_right(self, q: int) -> None:
        self.g = (self.g - self.F[:, q].astype(np.int64)) % 4
        self.M[:, q] ^= self.F[:, q]

    def _cz_right(self, q: int, r: int) -> None:
        self.g = (self.g + 2 * (self.F[:, q] & self.F[:, r]).astype(np.int64)) % 4
        self.M[:, q] ^= self.F[:, r]
        self.M[:, r] ^= self.F[:, q]

    def _cx_right(self, q: int, r: int) -> None:
        self.G[:, q] ^= self.G[:, r]
        self.F[:, r] ^= self.F[:, q]
        self.M[:, q] ^= self.M[:, r]

    # -- superposition closure ----------------------------------------------

    @staticmethod
    def _h_decompose(v: bool, y: bool, z: bool, delta: int) -> tuple[int, int, bool, bool, bool]:
        """Rewrite H^v (|y> + i^delta |z>)/sqrt(2) as w8 * 2^{p2/2} S^a H^b |c>.

        Single-qubit identity used by _update_sum; y != z required.  Returns
        (w8, p2, a, b, c).  p2 is nonzero only in the non-normalized branches
        that arise from projections, never from gates.
        """
        if y == z:
            raise ValueError("superposed kets must differ")
        if not v:
            w8 = (2 * delta * int(y)) % 8
            d2 = (delta * (-1 if y else 1)) % 4
            return w8, 0, bool(d2 & 1), True, bool(d2 >> 1)
        if delta % 2 == 0:
            c = bool(delta >> 1)
            w8 = 4 if (c and y) else 0
            return w8, 0, False, False, c
        w8 = 1 if delta % 4 == 1 else 7
        c = not ((delta >> 1) ^ int(y))
        return w8, 0, True, True, c

    def _update_sum(self, t: np.ndarray, u: np.ndarray, delta: int, alpha: int = 0) -> None:
        """Fold (|t> + i^delta |u>)/sqrt(2), expressed in the U_C U_H frame,
        back into canonical form, times (-1)^alpha."""
        self._mul_m1_pow(alpha)
        if np.array_equal(t, u):
            # single ket: scalar picks up (1 + i^delta)/sqrt(2)
            self.s = t.copy()
            if delta % 2 == 1:
                self._mul_w8(1 if delta == 1 else 7)
            elif delta == 0:
                self.p2 += 1
            else:
                self.null = True
            return
        diff = t ^ u
        set0 = np.flatnonzero(~self.v & diff)
        set1 = np.flatnonzero(self.v & diff)
        if set0.size:
            q = int(set0[0])
            for i in set0[1:]:
                self._cx_right(q, int(i))
            for i in set1:
                self._cz_right(q, int(i))
        else:
            q = int(set1[0])
            for i in set1[1:]:
                self._cx_right(int(i), q)
        if t[q]:
            y = u.copy()
            y[q] = not y[q]
            z = u
        else:
            y = t
            z = t.copy()
            z[q] = not z[q]
        w8, p2, a, b, c = self._h_decompose(bool(self.v[q]), bool(y[q]), bool(z[q]), delta)
        self.s = y.copy()
        self.s[q] = c
        self._mul_w8(w8)
        self.p2 += p2
        if a:
            self._s_right(q)
        self.v[q] = b

    # -- amplitudes ----------------------------------------------------------

    def amplitude_of(self, bits: np.ndarray) -> complex:
        """Exact <bits|psi> including the global scalar."""
        if self.null:
            return 0j
        y = np.asarray(bits, dtype=bool)
        if y.size != self.n:
            raise ValueError("bit-string length mismatch")
        mu = int(self.g[y].sum())
        u = np.zeros(self.n, dtype=bool)
        for p in np.flatnonzero(y):
            u ^= self.F[p]
            mu += 2 * _parity(self.M[p] & u)
        if np.any(~self.v & (u ^ self.s)):
            return 0j
        sign = _parity(self.v & u & self.s)
        val = self.scalar() * (2.0 ** (-0.5 * int(np.count_nonzero(self.v))))
        val *= complex(_I_POW[mu % 4])
        return -val if sign else val

    def _apply_named(self, gate: tuple) -> None:
        # gate names are the keys of gate_rules._GATE_ARITY, each with its _<name>_gate method
        getattr(self, f"_{gate[0].lower()}_gate")(*gate[1:])

    def __repr__(self) -> str:
        if self.null:
            return f"StabState(n={self.n}, null)"
        return f"StabState(n={self.n}, amp={self.amplitude():.6g})"


# -- constructors ------------------------------------------------------------


def zero_state(n: int) -> StabState:
    return StabState(n)


def basis_state(bits) -> StabState:
    arr = np.asarray(bits, dtype=bool)
    st = StabState(arr.size)
    st.s = arr.copy()
    return st


def plus_state(n: int) -> StabState:
    st = StabState(n)
    st.v[:] = True
    return st


# -- public operations -------------------------------------------------------



def apply_gate(state: StabState, gate: tuple) -> StabState:
    """Apply one named gate; gate = (name, qubit) or (name, control, target)."""
    check_gate(gate, state.n)
    out = state.copy()
    out._apply_named(gate)
    return out


def apply_circuit(state: StabState, gates) -> StabState:
    out = state.copy()
    for gate in gates:
        check_gate(gate, out.n)
        out._apply_named(gate)
    return out


def apply_pauli(state: StabState, p: PauliOp) -> StabState:
    """Apply i^k X^x Z^z as a unitary (any phase allowed)."""
    if p.n != state.n:
        raise ValueError("dimension mismatch")
    out = state.copy()
    for q in _set_bits(p.z):
        out._z_gate(q)
    for q in _set_bits(p.x):
        out._x_gate(q)
    out._mul_i_pow(p.k)
    return out


def multiply_phase(state: StabState, factor: complex) -> StabState:
    """Multiply the scalar by an arbitrary complex factor (absorbed exactly
    into the residual, so later Clifford arithmetic stays exact)."""
    out = state.copy()
    out.unit *= complex(factor)
    if out.unit == 0:
        out.null = True
    return out


def with_unit_amplitude(state: StabState) -> tuple[StabState, float]:
    """Rescale amplitude to 1 keeping the phase; returns (state, old amplitude)."""
    amp = state.amplitude()
    out = state.copy()
    if out.null or amp == 0.0:
        out.null = True
        return out, 0.0
    out.p2 = 0
    out.unit = out.unit / abs(out.unit)
    return out, amp


def _pauli_image(state: StabState, p: PauliOp) -> tuple[np.ndarray, np.ndarray, int]:
    """(rx, rz, rk) with U_H^dag U_C^dag p U_C U_H = i^rk X^rx Z^rz."""
    # U_C^dag p U_C, composed from the tracked generator images
    rx = np.zeros(state.n, dtype=bool)
    rz = np.zeros(state.n, dtype=bool)
    rk = p.k
    for q in _set_bits(p.x):
        rk = (rk + 2 * _parity(rz & state.F[q]) + int(state.g[q])) % 4
        rx ^= state.F[q]
        rz ^= state.M[q]
    for q in _set_bits(p.z):
        rz ^= state.G[q]
    # commute through the Hadamard layer: swap x/z on v qubits
    rk = (rk + 2 * _parity(rx & rz & state.v)) % 4
    swap = state.v
    return (rx & ~swap) | (rz & swap), (rz & ~swap) | (rx & swap), rk


def pauli_expectation(state: StabState, p: PauliOp) -> complex:
    """Exact <state|p|state> for a Pauli of any phase, read off the tableau.

    With p pulled back to i^rk X^rx Z^rz on the basis state |s>, the value is
    |scalar|^2 i^rk (-1)^{rz.s} when rx is zero and 0 otherwise.
    """
    if p.n != state.n:
        raise ValueError("dimension mismatch")
    if state.null:
        return 0j
    rx, rz, rk = _pauli_image(state, p)
    if rx.any():
        return 0j
    return state.amplitude() ** 2 * complex(_I_POW[(rk + 2 * _parity(rz & state.s)) % 4])



def project_pauli(state: StabState, p: PauliOp, sign: int) -> tuple[StabState, float]:
    """Apply (1 + sign*p)/2; returns the projected state and its norm
    relative to the input amplitude (one of 0, 1/sqrt(2), 1)."""
    if p.n != state.n:
        raise ValueError("dimension mismatch")
    if not p.is_hermitian():
        raise ValueError("projector Pauli must have phase +1 or -1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = state.copy()
    if out.null:
        return out, 0.0
    rx, rz, rk = _pauli_image(out, p)
    # act on |s>: i^rk X^rx Z^rz |s> = i^rk (-1)^{rz.s} |s + rx>
    dk = (rk + 2 * _parity(rz & out.s) + (0 if sign > 0 else 2)) % 4
    if not rx.any():
        # outcome deterministic: factor (1 + i^dk)/2 with dk even
        if dk % 2 != 0:
            raise ValueError("inconsistent projector (non-Hermitian image)")
        if dk == 0:
            return out, 1.0
        out.null = True
        return out, 0.0
    t = out.s.copy()
    u = out.s ^ rx
    out._update_sum(t, u, dk)
    out.p2 -= 1
    if out.null:
        return out, 0.0
    return out, 2.0 ** -0.5


def project_stab(state: StabState, proj: StabProjector) -> tuple[StabState, float]:
    """Apply a multi-generator stabilizer projector; norm is relative."""
    if proj.n != state.n:
        raise ValueError("dimension mismatch")
    out = state
    norm = 1.0
    for op, sign in proj.generators:
        out, f = project_pauli(out, op, sign)
        norm *= f
        if out.null:
            return out, 0.0
    return out, norm


def tensor(*states: StabState) -> StabState:
    """Tensor product of one or more states, the first one's qubits first."""
    out = StabState.__new__(StabState)
    out.n = n = sum(st.n for st in states)
    offsets = np.cumsum([0] + [st.n for st in states]).tolist()
    for name in ("G", "F", "M"):
        block = np.zeros((n, n), dtype=bool)
        for st, lo, hi in zip(states, offsets, offsets[1:]):
            block[lo:hi, lo:hi] = getattr(st, name)
        setattr(out, name, block)
    for name in ("g", "v", "s"):
        setattr(out, name, np.concatenate([getattr(st, name) for st in states]))
    out.p2 = sum(st.p2 for st in states)
    out.w8 = sum(st.w8 for st in states) & 7
    out.unit = math.prod(st.unit for st in states)
    out.null = any(st.null for st in states)
    return out


# -- overlaps as exponential sums ---------------------------------------------


class AmplitudeForm(NamedTuple):
    """psi(y) = c i^(L.y + 2 y^T T y) on the support {y : R y = t}, which is
    also the set of Y (w, 1) over all bit vectors w; L counts mod 4, T mod 2,
    and Y, R, t are 0/1."""

    c: complex
    L: np.ndarray
    T: np.ndarray
    Y: np.ndarray
    R: np.ndarray
    t: np.ndarray


def amplitude_form(state: StabState) -> AmplitudeForm:
    """The amplitude form of a non-null state, read off its tableau."""
    G, F, M = state.G.view(np.uint8), state.F.view(np.uint8), state.M.view(np.uint8)
    v, fixed, s = state.v, ~state.v, state.s.view(np.uint8)
    # amplitude_of sums g.y + 2 sum_{q<=p} y_p y_q K[p, q] over the rows p of
    # y, and its sign is (-1)^((F^T y).(v & s))
    K = M @ F.T
    L = (state.g + 2 * (K.diagonal() + F @ (s & v))) & 3
    rows = np.arange(state.n)
    c = state.scalar() * 2.0 ** (-0.5 * np.count_nonzero(v))
    # F^T y = x with x = s off v and free on v; G F^T = I gives y = G x
    Y = np.column_stack([G[:, v], (G @ (s & fixed)) & 1])
    return AmplitudeForm(c, L, K.T * (rows[:, None] < rows), Y, F[:, fixed].T, s[fixed])


def equatorial_form(A: np.ndarray) -> AmplitudeForm:
    """Form of |phi_A> = 2^(-n/2) sum_x i^(x^T A x) |x> for symmetric integer A."""
    A = np.asarray(A).astype(np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.array_equal(A, A.T):
        raise ValueError("A must be square and symmetric")
    n = len(A)
    return AmplitudeForm(2.0 ** (-0.5 * n), np.diagonal(A) & 3, np.triu(A, 1) & 1,
                         np.eye(n, n + 1, dtype=np.uint8), np.zeros((0, n), np.uint8), np.zeros(0, np.uint8))


def overlap(bra: AmplitudeForm, ket: AmplitudeForm) -> complex:
    """Exact <bra|ket> of two amplitude forms of one width.

    y = Y (w, 1) runs over the support of the form with fewer free
    variables w, which one GF(2) elimination cuts down to the other's
    support as w = W (z, 1).  Substituting into i^(q_ket(y) - q_bra(y))
    leaves i^(const + a.z + 2 z^T B z), summed exactly by _exp_sum.
    """
    base, other = (bra, ket) if bra.Y.shape[1] <= ket.Y.shape[1] else (ket, bra)
    Y = base.Y
    if other.t.size:
        r = Y.shape[1] - 1
        aug = (other.R @ Y) & 1
        aug[:, r] ^= other.t
        piv = dict(_echelon(_bit_rows(aug)))
        if r in piv:
            return 0j
        free = [f for f in range(r) if f not in piv] + [r]
        W = [[piv[j] >> f & 1 if j in piv else int(j == f) for f in free] for j in range(r + 1)]
        Y = (Y @ np.array(W, np.uint8)) & 1
    L, Q = (ket.L - bra.L) & 3, ket.T ^ bra.T
    # y_j = XOR_k Y_jk z_k with z_r = 1, and XOR_k x_k = sum_k x_k - 2 sum_{k<l} x_k x_l mod 4
    P = Y.T @ Q @ Y
    a = Y.T @ L + 2 * P.diagonal()
    B = (P + P.T + Y.T @ (Y * (L & 1)[:, None])) & 1
    np.fill_diagonal(B, 0)
    r = len(a) - 1
    lin = ((a[:r] + 2 * B[:r, r]) & 3).tolist()
    return np.conj(bra.c) * ket.c * _I_POW[a[r] & 3] * _exp_sum(lin, _bit_rows(B[:r, :r]))


def inner_product(left: StabState, right: StabState) -> complex:
    """Exact <left|right> with both scalars included."""
    if left.n != right.n:
        raise ValueError("dimension mismatch")
    if left.null or right.null:
        return 0j
    return overlap(amplitude_form(left), amplitude_form(right))


def _exp_sum(a: list[int], adj: list[int]) -> complex:
    """Exact sum over z in {0,1}^r of i^(a.z + 2 sum_{k<l} B_kl z_k z_l).

    adj[k] is row k of the symmetric, zero-diagonal B as a bit mask.  Each
    step sums out a variable with odd a_k, sum_{z_k} i^(z_k (a_k + 2 x)) =
    sqrt2 w^e i^(-e x) with w = exp(i pi/4), e = +-1 and x the XOR of its
    neighbours; or, when every a_k is even, a coupled pair,
    sum_{z_k, z_l} (-1)^(z_k z_l + z_k x + z_l y) = 2 (-1)^(x y).  Either
    folds back into the form on the rest.  An even uncoupled z_k adds 2 or 0.
    """
    p = k8 = 0
    live = set(range(len(a)))
    while live:
        k = next((j for j in live if a[j] & 1), None)
        if k is not None:
            e, u = (1 if a[k] == 1 else -1), adj[k]
            p, k8 = p + 1, k8 + e
            for m in [m for m in live if u >> m & 1]:
                a[m] = (a[m] - e) & 3
                adj[m] ^= u ^ (1 << m) ^ (1 << k)
            live.remove(k)
        elif not adj[k := min(live)]:
            if a[k]:
                return 0j
            p += 2
            live.remove(k)
        else:
            l = (adj[k] & -adj[k]).bit_length() - 1
            uk, ul = adj[k] ^ (1 << l), adj[l] ^ (1 << k)
            # (-1)^((a_k/2 + x)(a_l/2 + y)) with x = uk.z and y = ul.z
            p, k8 = p + 2, k8 + a[k] * a[l]
            for m in [m for m in live if (uk | ul) >> m & 1]:
                ik, il = uk >> m & 1, ul >> m & 1
                a[m] = (a[m] + ik * a[l] + il * a[k] + 2 * ik * il) & 3
                adj[m] = (adj[m] ^ ik * ul ^ il * uk) & ~((1 << k) | (1 << l))
            live -= {k, l}
    return 2.0 ** (0.5 * p) * _W8[k8 & 7]
