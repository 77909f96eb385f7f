"""Phase-sensitive stabilizer engine.

States are kept in the CH-style canonical form

    |psi> = scalar * U_C * U_H * |s>

where U_C is a control-type Clifford (product of CX, CZ, S and phases) fixing
|0..0>, U_H = H^v is a layer of Hadamards, and |s> is a basis state.  U_C is
tracked through three n x n binary matrices G, F, M and a mod-4 vector g:

    U_C^dag Z_p U_C = Z^{G[p,:]}
    U_C^dag X_p U_C = i^{g[p]} X^{F[p,:]} Z^{M[p,:]}

Each tableau row, and each of v and s, is a bit-mask int with bit q for
column q, the form pauli holds a Pauli's x and z in: the image of a Pauli is
the XOR of the rows at its set bits, and nothing here loads numpy.

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

import cmath
import math
from typing import NamedTuple

from .pauli import (GATE_NAMES, PauliOp, StabProjector, _conjugate_pauli_unchecked, _echelon, _I_POW,
                    _set_bits, check_gate, conjugate_pauli)

# exp(i*pi/4*k) for k = 0..7
_W8 = tuple(cmath.exp(1j * math.pi / 4 * k) for k in range(8))


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


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
        self.G = [1 << q for q in range(n)]
        self.F = self.G[:]
        self.M = [0] * n
        self.g = [0] * n
        self.v = 0
        self.s = 0
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
        return (2.0 ** (0.5 * self.p2)) * _W8[self.w8] * self.unit

    def amplitude(self) -> float:
        if self.null:
            return 0.0
        return (2.0 ** (0.5 * self.p2)) * abs(self.unit)

    def phase(self) -> complex:
        if self.null:
            return 1.0 + 0j
        u = _W8[self.w8] * self.unit
        a = abs(u)
        return u / a if a > 0 else 1.0 + 0j

    def copy(self) -> "StabState":
        out = StabState.__new__(StabState)
        out.n = self.n
        out.G = self.G[:]
        out.F = self.F[:]
        out.M = self.M[:]
        out.g = self.g[:]
        out.v = self.v
        out.s = self.s
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

    def _x_beta(self, a: int) -> int:
        f, m, v, s = self.F[a], self.M[a], self.v, self.s
        return (m & ~v & s).bit_count() + (f & v & m).bit_count() + (f & v & s).bit_count()

    def _x_gate(self, a: int) -> None:
        v = self.v
        self._mul_i_pow(self.g[a])
        self._mul_m1_pow(self._x_beta(a))
        self.s ^= (self.F[a] & ~v) ^ (self.M[a] & v)

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
        v, s = self.v, self.s
        t = s ^ (self.G[a] & v)
        u = s ^ (self.F[a] & ~v) ^ (self.M[a] & v)
        alpha = _parity(self.G[a] & ~v & s)
        delta = (self.g[a] + 2 * (alpha + self._x_beta(a))) & 3
        self._update_sum(t, u, delta, alpha)

    # -- right multiplications (tableau-only, no state change) ---------------

    def _fold_fixed(self, qb: int, xs: int, zs: int) -> None:
        """Right-multiply by CX(q, i) for each bit i of xs, then CZ(q, i) for
        each bit i of zs, with qb = 1 << q and q in neither mask.  No step
        writes a column that another reads, so one pass over the rows does
        them all."""
        G, F, M, g = self.G, self.F, self.M, self.g
        for p in range(self.n):
            f, m = F[p], M[p]
            if _parity(G[p] & xs):
                G[p] ^= qb
            flip = _parity(m & xs) ^ _parity(f & zs)
            if f & qb:
                F[p] = f ^ xs
                m ^= zs
                g[p] = (g[p] + 2 * (f & zs).bit_count()) & 3
            M[p] = m ^ qb if flip else m

    def _fold_free(self, qb: int, xs: int) -> None:
        """Right-multiply by CX(i, q) for each bit i of xs, one pass as above."""
        G, F, M = self.G, self.F, self.M
        for p in range(self.n):
            if G[p] & qb:
                G[p] ^= xs
            if _parity(F[p] & xs):
                F[p] ^= qb
            if M[p] & qb:
                M[p] ^= xs

    def _s_right(self, qb: int) -> None:
        F, M, g = self.F, self.M, self.g
        for p in range(self.n):
            if F[p] & qb:
                g[p] = (g[p] - 1) & 3
                M[p] ^= qb

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

    def _update_sum(self, t: int, u: int, delta: int, alpha: int = 0) -> None:
        """Fold (|t> + i^delta |u>)/sqrt(2), expressed in the U_C U_H frame,
        back into canonical form, times (-1)^alpha."""
        self._mul_m1_pow(alpha)
        if t == u:
            # single ket: scalar picks up (1 + i^delta)/sqrt(2)
            self.s = t
            if delta % 2 == 1:
                self._mul_w8(1 if delta == 1 else 7)
            elif delta == 0:
                self.p2 += 1
            else:
                self.null = True
            return
        diff = t ^ u
        fixed, free = diff & ~self.v, diff & self.v
        if fixed:
            qb = fixed & -fixed
            if fixed ^ qb or free:
                self._fold_fixed(qb, fixed ^ qb, free)
        else:
            qb = free & -free
            if free ^ qb:
                self._fold_free(qb, free ^ qb)
        # in the folded frame the kets differ only at q: y has t's bit there, z u's
        y = u ^ qb if t & qb else t
        w8, p2, a, b, c = self._h_decompose(bool(self.v & qb), bool(t & qb), bool(u & qb), delta)
        self.s = y | qb if c else y & ~qb
        self._mul_w8(w8)
        self.p2 += p2
        if a:
            self._s_right(qb)
        self.v = self.v | qb if b else self.v & ~qb

    # -- amplitudes ----------------------------------------------------------

    def amplitude_of(self, bits) -> complex:
        """Exact <bits|psi> including the global scalar; bits[q] is qubit q."""
        if self.null:
            return 0j
        bits = list(bits)
        if len(bits) != self.n:
            raise ValueError("bit-string length mismatch")
        mu = u = 0
        for p in (q for q, b in enumerate(bits) if b):
            u ^= self.F[p]
            mu += self.g[p] + 2 * _parity(self.M[p] & u)
        if (u ^ self.s) & ~self.v:
            return 0j
        val = self.scalar() * (2.0 ** (-0.5 * self.v.bit_count()))
        val *= complex(_I_POW[mu % 4])
        return -val if _parity(self.v & u & self.s) else val

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
    """|bits>, bits[q] being qubit q."""
    bits = list(bits)
    st = StabState(len(bits))
    st.s = sum(1 << q for q, b in enumerate(bits) if b)
    return st


def plus_state(n: int) -> StabState:
    st = StabState(n)
    st.v = (1 << n) - 1
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


def _pauli_image(state: StabState, p: PauliOp) -> tuple[int, int, int]:
    """(rx, rz, rk) with U_H^dag U_C^dag p U_C U_H = i^rk X^rx Z^rz."""
    # U_C^dag p U_C, composed from the tracked generator images
    rx = rz = 0
    rk = p.k
    for q in _set_bits(p.x):
        rk += 2 * _parity(rz & state.F[q]) + state.g[q]
        rx ^= state.F[q]
        rz ^= state.M[q]
    for q in _set_bits(p.z):
        rz ^= state.G[q]
    # commute through the Hadamard layer: swap x/z on v qubits
    v = state.v
    rk = (rk + 2 * _parity(rx & rz & v)) % 4
    return (rx & ~v) | (rz & v), (rz & ~v) | (rx & v), rk


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
    if rx:
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
    if not rx:
        # outcome deterministic: factor (1 + i^dk)/2 with dk even
        if dk % 2 != 0:
            raise ValueError("inconsistent projector (non-Hermitian image)")
        if dk == 0:
            return out, 1.0
        out.null = True
        return out, 0.0
    out._update_sum(out.s, out.s ^ rx, dk)
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
    out.G, out.F, out.M, out.g = [], [], [], []
    out.v = out.s = lo = 0
    for st in states:
        out.G += [row << lo for row in st.G]
        out.F += [row << lo for row in st.F]
        out.M += [row << lo for row in st.M]
        out.g += st.g
        out.v |= st.v << lo
        out.s |= st.s << lo
        lo += st.n
    out.n = lo
    out.p2 = sum(st.p2 for st in states)
    out.w8 = sum(st.w8 for st in states) & 7
    out.unit = math.prod(st.unit for st in states)
    out.null = any(st.null for st in states)
    return out


# -- overlaps as exponential sums ---------------------------------------------


class AmplitudeForm(NamedTuple):
    """psi(y) = c i^(L.y + 2 y^T T y) on the support {y : R y = t}, which is
    also the set of Y (w, 1) over all r-bit vectors w.  L counts mod 4; T, Y
    and R are rows of bit masks, row j of T holding T_jl at bit l > j and
    row j of Y holding Y_jk at bit k, its constant column at bit r; R has a
    row per fixed qubit, and bit i of t is the target of row i."""

    c: complex
    L: list[int]
    T: list[int]
    Y: list[int]
    R: list[int]
    t: int
    r: int


def amplitude_form(state: StabState) -> AmplitudeForm:
    """The amplitude form of a non-null state, read off its tableau."""
    n, G, F, M, v, s = state.n, state.G, state.F, state.M, state.v, state.s
    free, fixed = _set_bits(v), _set_bits(((1 << n) - 1) & ~v)
    r = len(free)
    # amplitude_of sums g.y + 2 sum_{q<=p} y_p y_q K[p, q] over the rows p of
    # y, and its sign is (-1)^((F^T y).(v & s))
    L = [(gp + 2 * ((mp & fp).bit_count() + (fp & s & v).bit_count())) & 3
         for gp, fp, mp in zip(state.g, F, M)]
    T = [sum(_parity(M[l] & F[j]) << l for l in range(j + 1, n)) for j in range(n)]
    c = state.scalar() * 2.0 ** (-0.5 * r)
    # F^T y = x with x = s off v and free on v; G F^T = I gives y = G x
    s_fixed = s & ~v
    Y = [sum((row >> q & 1) << k for k, q in enumerate(free)) | _parity(row & s_fixed) << r for row in G]
    R = [sum((fp >> q & 1) << p for p, fp in enumerate(F)) for q in fixed]
    t = sum((s >> q & 1) << i for i, q in enumerate(fixed))
    return AmplitudeForm(c, L, T, Y, R, t, r)


def overlap(bra: AmplitudeForm, ket: AmplitudeForm) -> complex:
    """Exact <bra|ket> of two amplitude forms of one width.

    y = Y (w, 1) runs over the support of the form with fewer free
    variables w, which one GF(2) elimination cuts down to the other's
    support as w = W (z, 1).  Substituting into i^(q_ket(y) - q_bra(y))
    leaves i^(const + a.z + 2 z^T B z), summed exactly by _exp_sum.
    """
    base, other = (bra, ket) if bra.r <= ket.r else (ket, bra)
    Y, r = base.Y, base.r
    if other.R:
        aug = []
        for i, row in enumerate(other.R):
            acc = (other.t >> i & 1) << r
            for j in _set_bits(row):
                acc ^= Y[j]
            aug.append(acc)
        piv = dict(_echelon(aug))
        if r in piv:
            return 0j
        free = [f for f in range(r) if f not in piv] + [r]
        # column m of W, over the old variables j
        cols = [1 << f | sum(1 << j for j, row in piv.items() if row >> f & 1) for f in free]
        Y = [sum(_parity(y & col) << m for m, col in enumerate(cols)) for y in Y]
        r = len(free) - 1
    L = [(lk - lb) & 3 for lk, lb in zip(ket.L, bra.L)]
    Q = [tk ^ tb for tk, tb in zip(ket.T, bra.T)]
    # y_j = XOR_k Y_jk z_k with z_r = 1, and XOR_k x_k = sum_k x_k - 2 sum_{k<l} x_k x_l mod 4,
    # so a = Y^T L + 2 diag(P) and B = P + P^T + Y^T diag(L mod 2) Y with P = Y^T Q Y
    a = [0] * (r + 1)
    B = [0] * (r + 1)
    diag = 0
    for yj, qj, lj in zip(Y, Q, L):
        if not yj:
            continue
        qy = 0  # row j of Q Y
        for m in _set_bits(qj):
            qy ^= Y[m]
        diag ^= yj & qy
        add = qy ^ yj if lj & 1 else qy
        for k in _set_bits(yj):
            B[k] ^= add
            a[k] += lj
        for k in _set_bits(qy):
            B[k] ^= yj
    lin = [(a[k] + 2 * ((diag >> k) + (B[k] >> r))) & 3 for k in range(r)]
    adj = [B[k] & ~(1 << k) & ((1 << r) - 1) for k in range(r)]
    const = _I_POW[(a[r] + 2 * (diag >> r)) & 3]
    return bra.c.conjugate() * ket.c * const * _exp_sum(lin, adj)


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
