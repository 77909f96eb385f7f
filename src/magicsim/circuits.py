"""Circuit entries of a run document, read into plain branch lists.

An entry is a builtin channel {"type", "qubits", "params"} or an explicit
{"unitary": [[p, gates], ...], "kraus": [[q, h, generators, gates], ...]}.
read_entry checks its shape, targets and gates and returns the branches as
(p, gates) and (q, h, [(PauliOp, sign), ...], gates) tuples.  channels wraps
them in StabKraus and SimulableChannel; the `sample` prefix reads them as they are.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliOp, check_gate


class ChannelError(ValueError):
    pass


def check_circuit(gates, n: int) -> None:
    for g in gates:
        try:
            check_gate(g, n)
        except ValueError as exc:
            raise ChannelError(str(exc)) from None


def gates_from_json(spec, n: int | None = None) -> tuple:
    """Gate list [[name, targets...], ...] as (NAME, targets...) tuples.

    Checks the shape, and given n the names, arities and targets at width n.
    """
    if not isinstance(spec, (list, tuple)):
        raise ChannelError(f"gate list must be an array, got {spec!r}")
    for g in spec:
        if (not isinstance(g, (list, tuple)) or not g or not isinstance(g[0], str)
                or any(isinstance(t, bool) or not isinstance(t, (int, np.integer)) for t in g[1:])):
            raise ChannelError(f"bad gate spec {g!r}; expected [name, integer targets...]")
    gates = tuple((g[0].upper(), *(int(t) for t in g[1:])) for g in spec)
    if n is not None:
        check_circuit(gates, n)
    return gates


_JSON_KINDS = {"number": (int, float), "integer": (int,), "string": (str,), "array": (list, tuple),
               "object": (dict,)}


def _json_value(value, kind: str, what: str):
    """value as a JSON value of that kind, else ChannelError naming it."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ChannelError(f"bad channel entry {what}={value!r}; expected {kind}")
    return value


def _json_entry(entry, *kinds: str):
    """entry as a JSON array of len(kinds) values of those kinds, else ChannelError."""
    if (not isinstance(entry, (list, tuple)) or len(entry) != len(kinds)
            or any(isinstance(v, bool) or not isinstance(v, _JSON_KINDS[k])
                   for v, k in zip(entry, kinds))):
        raise ChannelError(f"bad channel entry {entry!r}; expected [{', '.join(kinds)}]")
    return entry


def _letters_at(n: int, positions: dict[int, str]) -> PauliOp:
    word = "".join(positions.get(q, "I") for q in range(n))
    return PauliOp.from_letters(word)


def _check_targets(qubits, n: int, expect: int | None = None) -> list[int]:
    if (not isinstance(qubits, (list, tuple))
            or any(isinstance(q, bool) or not isinstance(q, (int, np.integer)) for q in qubits)):
        raise ChannelError(f"bad channel entry qubits={qubits!r}; expected array of integers")
    qs = [int(q) for q in qubits]
    if expect is not None and len(qs) != expect:
        raise ChannelError(f"channel needs exactly {expect} target qubit(s)")
    if len(set(qs)) != len(qs):
        raise ChannelError("duplicate target qubits")
    if any(not (0 <= q < n) for q in qs):
        raise ChannelError("target qubit out of range")
    return qs


def builtin_branches(name: str, qubits, n: int, params: dict | None = None) -> tuple[list, list]:
    """(unitary, kraus) branches of a builtin channel embedded at global width n.

    clifford_mix: params {"terms": [[p, gates], ...]} with local qubit
    indices into `qubits`.  depolarizing: params {"lambda": l} on one qubit.
    t_gadget: qubits = [data, ancilla].  pauli_measure_and_forward: params
    {"pauli": letters} over `qubits`.
    """
    params = _json_value({} if params is None else params, "object", "params")
    if name == "depolarizing":
        (q,) = _check_targets(qubits, n, expect=1)
        key = "lambda" if "lambda" in params else "p"
        lam = float(_json_value(params.get(key, 0.0), "number", key))
        if not 0.0 <= lam <= 1.0:
            raise ChannelError("depolarizing strength must lie in [0, 1]")
        raw = [
            (1.0 - 0.75 * lam, ()),
            (0.25 * lam, (("X", q),)),
            (0.25 * lam, (("Y", q),)),
            (0.25 * lam, (("Z", q),)),
        ]
        return [(p, gates) for p, gates in raw if p > 0.0], []
    if name == "clifford_mix":
        qs = _check_targets(qubits, n)
        terms = _json_value(params.get("terms", []), "array", "terms")
        if not terms:
            raise ChannelError("clifford_mix needs a nonempty terms list")
        unitary = []
        for entry in terms:
            p, gates = _json_entry(entry, "number", "array")
            local = gates_from_json(gates, len(qs))
            unitary.append((float(p), tuple((g[0], *(qs[t] for t in g[1:])) for g in local)))
        return unitary, []
    if name == "t_gadget":
        d, a = _check_targets(qubits, n, expect=2)
        zz = _letters_at(n, {d: "Z", a: "Z"})
        return [], [(0.5, 1, [(zz, sign)], circuit)
                    for sign, circuit in ((+1, (("CX", d, a),)), (-1, (("CX", d, a), ("S", d))))]
    if name == "pauli_measure_and_forward":
        qs = _check_targets(qubits, n)
        if not qs:
            raise ChannelError("pauli_measure_and_forward needs at least one target qubit")
        letters = _json_value(params.get("pauli", "Z" * len(qs)), "string", "pauli")
        if len(letters) != len(qs) or any(c not in "XYZ" for c in letters):
            raise ChannelError("pauli string must give X, Y or Z per target")
        op = _letters_at(n, dict(zip(qs, letters)))
        return [], [(0.5, 1, [(op, sign)], ()) for sign in (+1, -1)]
    raise ChannelError(f"unknown channel {name!r}")


def read_entry(obj: dict, n: int) -> tuple[list, list]:
    """(unitary, kraus) branches of one circuit entry at width n.

    An explicit unitary entry is [p, gates] and a Kraus entry is
    [q, h, generators, gates] with generators [[word, sign], ...]; a key
    outside type/qubits/params or unitary/kraus is refused, not ignored.
    """
    unknown = set(obj) - ({"type", "qubits", "params"} if "type" in obj else {"unitary", "kraus"})
    if unknown:
        raise ChannelError(f"unknown circuit entry keys: {sorted(unknown)}")
    if "type" in obj:
        return builtin_branches(obj["type"], obj.get("qubits", []), n, obj.get("params"))
    unitary_spec, kraus_spec = obj.get("unitary", []), obj.get("kraus", [])
    if not isinstance(unitary_spec, (list, tuple)) or not isinstance(kraus_spec, (list, tuple)):
        raise ChannelError("explicit 'unitary' and 'kraus' parts must be arrays")
    unitary = []
    for entry in unitary_spec:
        p, gates = _json_entry(entry, "number", "array")
        unitary.append((float(p), gates_from_json(gates, n)))
    kraus = []
    for entry in kraus_spec:
        q, h, generators, gates = _json_entry(entry, "number", "integer", "array", "array")
        ops = []
        for generator in generators:
            word, sign = _json_entry(generator, "string", "integer")
            ops.append((PauliOp.from_letters(word), sign))
        kraus.append((float(q), h, ops, gates_from_json(gates, n)))
    return unitary, kraus
