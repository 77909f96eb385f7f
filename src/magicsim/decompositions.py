"""Stabilizer expansions of single-qubit states, the simulators' per-qubit input.

Pure states get optimal expansions, certified by monotones.lambda_plus_1q;
the three-term expansion of a face state sits at the Fermat point of three
anchors in the complex plane.  Mixed states split into pure parts of equal extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stab_core as sc
from .monotones import (Q_MIN, SQRT2, SQRT3, SQRT6, BlochState, canonicalize_PY, invert_word,
                        lambda_plus_1q)


# -- pure-state extent --------------------------------------------------------

def axis_state(bloch: BlochState) -> sc.StabState:
    """StabState for a Bloch vector sitting exactly on a coordinate axis."""
    key = tuple(int(round(c)) for c in bloch.as_tuple())
    gates = {
        (0, 0, 1): (),
        (0, 0, -1): (("X", 0),),
        (1, 0, 0): (("H", 0),),
        (-1, 0, 0): (("H", 0), ("Z", 0)),
        (0, 1, 0): (("H", 0), ("S", 0)),
        (0, -1, 0): (("H", 0), ("SDG", 0)),
    }[key]
    return sc.apply_circuit(sc.zero_state(1), gates)


def _fermat_l1(particular: np.ndarray, null_dir: np.ndarray) -> np.ndarray:
    """Minimize sum_j |particular_j + t*null_dir_j| over complex t, |null_dir_j| = 1.

    The sum is sum_j |t - z_j| with anchors z_j = -particular_j/null_dir_j, so
    the optimum is the Fermat point of the anchor triangle: the vertex whose
    angle is at least 120 degrees, or a repeated anchor; otherwise the point
    with barycentric coordinates a csc(A+60) : b csc(B+60) : c csc(C+60).
    """
    z = -particular / null_dir
    ahead, behind = np.roll(z, -1) - z, np.roll(z, 1) - z
    if not np.all(ahead):
        t = z[int(np.argmin(np.abs(ahead)))]
    else:
        angles = np.abs(np.angle(ahead / behind))  # interior angle at each anchor
        k = int(np.argmax(angles))
        if angles[k] >= 2.0 * np.pi / 3.0:
            t = z[k]
        else:
            opposite = np.abs(np.roll(ahead, -1))  # side length facing each anchor
            w = opposite / np.sin(angles + np.pi / 3.0)
            t = np.sum(w * z) / np.sum(w)
    return particular + t * null_dir


def extent_pure_1q(psi: BlochState) -> tuple[float, list[tuple[complex, sc.StabState]]]:
    """Optimal stabilizer expansion of a pure single-qubit state.

    The witness maximum picks the terms.  Above q = sqrt(2/3) + 1e-9 the
    state expands over |0> and |+> with fixed coefficients.  A maximum pinned
    at sqrt(2/3) (the boundary faces of P_Y) adds |+i>; the one free complex
    coefficient is then the Fermat point of _fermat_l1.  The returned l1
    weight squared is certified against the witness value to 1e-8.
    """
    if not psi.is_pure():
        raise ValueError("extent_pure_1q needs a pure state")
    xi, witness = lambda_plus_1q(psi)
    word = list(witness.clifford)
    inverse = invert_word(word)
    canon = psi.rotated(word)
    if psi.in_octahedron(1e-9):
        term = sc.apply_circuit(axis_state(canon), inverse)
        return 1.0, [(1.0 + 0j, term)]
    vec = canon.pure_vector()
    a = vec[0] - vec[1]
    b = SQRT2 * vec[1]
    if witness.q > Q_MIN + 1e-9:
        coeffs = np.array([a, b])
        axes = ((0, 0, 1), (1, 0, 0))
    else:
        particular = np.array([a, b, 0.0 + 0j])
        null_dir = np.array([-(1.0 - 1j) / SQRT2, -1j, 1.0 + 0j])
        coeffs = _fermat_l1(particular, null_dir)
        axes = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    l1 = float(np.sum(np.abs(coeffs)))
    if abs(l1 * l1 - xi) > 1e-8:
        raise RuntimeError(f"extent certificate failed: primal {l1 * l1}, dual {xi}")
    terms = []
    for c, axis in zip(coeffs, axes):
        if abs(c) < 1e-12:
            continue
        terms.append((complex(c), sc.apply_circuit(axis_state(BlochState(*axis)), inverse)))
    return xi, terms


# -- equimagical decompositions ----------------------------------------------


@dataclass(frozen=True)
class EquimagicalDecomp:
    """Convex decomposition into pure parts of equal extent."""

    parts: tuple  # of (weight, BlochState)
    common_extent: float


def _special_a(f: float) -> float:
    """Distance parameter of the three special states at magic level f."""
    a = (2.0 * SQRT3 * f - SQRT6 * float(np.sqrt(max(0.0, 1.0 - f * f)))) / 6.0
    return min(max(a, 0.0), 1.0 / SQRT3)


def special_states(f: float) -> tuple[BlochState, BlochState, BlochState]:
    """The X, Y, Z special states of magic level f (all extent-equal)."""
    a = _special_a(f)
    big = float(np.sqrt(max(0.0, 1.0 - 2.0 * a * a)))
    return (
        BlochState(big, a, a),
        BlochState(a, big, a),
        BlochState(a, a, big),
    )


def equimagical_decompose(rho: BlochState) -> EquimagicalDecomp:
    """Decompose a P_Y state into pure parts sharing one extent.

    Inside the special-state triangle the parts are the three special states;
    outside, the two pure states obtained by pushing the residual onto the
    sigma_B axis.  Stabilizer inputs are rejected; canonicalize first.
    """
    if not rho.in_PY(1e-9):
        raise ValueError("state must be canonicalized into P_Y first")
    if rho.in_octahedron():
        raise ValueError("stabilizer-polytope state has no magic to decompose")
    if rho.is_pure():
        ext, _ = lambda_plus_1q(rho)
        return EquimagicalDecomp(parts=((1.0, rho),), common_extent=ext)
    f = rho.f
    r_A = rho.r_A
    r_B = rho.r_B
    psi_x, psi_y, psi_z = special_states(f)
    R = psi_x.r_A
    S = psi_x.r_B
    tol = 1e-9
    if R > tol:
        w_y = (1.0 - r_A / R) / 3.0
        diff = r_B / S
        w_x = (1.0 - w_y + diff) / 2.0
        w_z = (1.0 - w_y - diff) / 2.0
        if w_x >= -tol and w_y >= -tol and w_z >= -tol:
            raw = ((w_x, psi_x), (w_y, psi_y), (w_z, psi_z))
            parts = tuple((max(w, 0.0), st) for w, st in raw if w > tol)
            ext, _ = lambda_plus_1q(parts[0][1])
            return EquimagicalDecomp(parts=parts, common_extent=ext)
    s_sq = 1.0 - r_A * r_A - f * f
    if s_sq < r_B * r_B - 1e-12:
        raise RuntimeError("state outside the unit ball in rotated coordinates")
    s = float(np.sqrt(max(s_sq, 0.0)))
    phis = []
    for sgn in (+1.0, -1.0):
        rb = sgn * s
        x = r_A / SQRT6 + rb / SQRT2 + f / SQRT3
        y = -2.0 * r_A / SQRT6 + f / SQRT3
        z = r_A / SQRT6 - rb / SQRT2 + f / SQRT3
        phis.append(BlochState(min(x, 1.0), y, max(z, -1.0)))
    p_plus = 0.5 * (1.0 + (r_B / s if s > 0 else 0.0))
    p_minus = 1.0 - p_plus
    for phi in phis:
        if not phi.in_PY(1e-7):
            raise RuntimeError("equimagical parts left the canonical region")
    parts = tuple((p, phi) for p, phi in zip((p_plus, p_minus), phis) if p > 1e-12)
    ext, _ = lambda_plus_1q(parts[0][1])
    return EquimagicalDecomp(parts=parts, common_extent=ext)


def decompose_1q_state(rho: BlochState) -> tuple[float, list[tuple[float, float, list[tuple[complex, sc.StabState]]]]]:
    """Full single-qubit preparation pipeline, in the original frame.

    Returns (Lambda_plus, parts) with parts = [(weight, extent, terms)], the
    terms being an optimal stabilizer expansion of each pure part.  Polytope
    members decompose over octahedron vertices with Lambda_plus = 1.
    """
    if rho.in_octahedron():
        parts = []
        rem = 1.0 - rho.l1
        for val, axis in (
            (rho.bx, (1.0, 0.0, 0.0)),
            (rho.by, (0.0, 1.0, 0.0)),
            (rho.bz, (0.0, 0.0, 1.0)),
        ):
            if abs(val) > 1e-14:
                vertex = BlochState(*(np.sign(val) * np.array(axis)))
                parts.append((abs(val), 1.0, [(1.0 + 0j, axis_state(vertex))]))
        if rem > 1e-14 or not parts:
            for sgn in (1.0, -1.0):
                vertex = BlochState(0.0, 0.0, sgn)
                parts.append((max(rem, 0.0) / 2.0, 1.0, [(1.0 + 0j, axis_state(vertex))]))
        return 1.0, parts
    if rho.is_pure():
        xi, terms = extent_pure_1q(rho)
        return xi, [(1.0, xi, terms)]
    word, canon = canonicalize_PY(rho)
    inverse = invert_word(word)
    eq = equimagical_decompose(canon)
    parts = []
    for weight, part_canon in eq.parts:
        xi, terms_canon = extent_pure_1q(part_canon)
        terms = [(c, sc.apply_circuit(t, inverse)) for c, t in terms_canon]
        parts.append((float(weight), float(xi), terms))
    return eq.common_extent, parts
