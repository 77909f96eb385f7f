"""Command-line front end for the simulator suite.

Subcommands share one JSON input-document format and a common flag set.
Every primary output is a deterministic function of the parsed run spec
and the seed, so repeated invocations are byte-identical; wall-clock
timings go to stderr only.  Each subcommand imports the layers it uses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# rows of the `monotone` table; 10^5 rows already take about 2 s and 2 MB
MAX_COPIES = 10**5
# joint terms of an `ensemble` state; a joint term costs about 4 KiB, so
# this caps the list near 1 GiB
MAX_JOINT_TERMS = 2**18

SUBCOMMANDS = ("estimate", "sample", "constrained", "monotone", "distill", "selftest")

_PARAM_KEYS = {
    "estimate": {"epsilon", "p_fail"},
    "sample": {"w", "delta", "p_fail", "samples", "norm_backend"},
    "constrained": {"epsilon", "p_fail"},
    "monotone": {"copies"},
    "distill": {"target", "m", "epsilon", "p"},
}


class CLIError(ValueError):
    """Run-spec problem the caller can fix; reported as exit code 2."""

    def __init__(self, message: str, kind: str = "validation"):
        super().__init__(message)
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures emit a JSON diagnostic on stderr."""

    def error(self, message):
        sys.stderr.write(json.dumps({"error": {"kind": "usage", "message": message}}) + "\n")
        raise SystemExit(2)


def _is_number(x, kinds=(int, float)) -> bool:
    return isinstance(x, kinds) and not isinstance(x, bool)


def _as_float(x, what: str) -> float:
    if not _is_number(x):
        raise CLIError(f"{what} must be a number, got {x!r}")
    return float(x)


def _as_int(x, what: str) -> int:
    if not _is_number(x, int):
        raise CLIError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _opt(flag, params: dict, key: str, default):
    """Resolution order: explicit flag, then input params, then default."""
    if flag is not None:
        return flag
    if key in params:
        return params[key]
    return default


def _params(doc: dict, subcommand: str) -> dict:
    params = doc.get("params", {})
    unknown = set(params) - _PARAM_KEYS.get(subcommand, set())
    if unknown:
        raise CLIError(f"unknown params for {subcommand}: {sorted(unknown)}")
    return params


def _load_input(path: str) -> dict:
    from . import _schema

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise CLIError("input document must be a JSON object")
    errs = _schema.validate(doc, _schema.load_schema("input"))
    if errs:
        raise CLIError("invalid input document: " + "; ".join(errs))
    return doc


def _require_doc(args) -> dict:
    if not args.input:
        raise CLIError(f"'{args.subcommand}' needs --input pointing at a run document")
    return _load_input(args.input)


def _bloch_entry(entry) -> mt.BlochState:
    """One product factor: a state name, a Bloch triple, or a scaled variant."""
    from . import monotones as mt

    if isinstance(entry, str):
        return mt.BlochState.named(entry)
    if isinstance(entry, list):
        if len(entry) != 3:
            raise CLIError(f"Bloch triple needs three components, got {entry!r}")
        return mt.BlochState(*(_as_float(x, "Bloch component") for x in entry))
    if isinstance(entry, dict):
        unknown = set(entry) - {"named", "bloch", "alpha"}
        if unknown:
            raise CLIError(f"unknown state entry keys: {sorted(unknown)}")
        if ("named" in entry) == ("bloch" in entry):
            raise CLIError("state entry needs exactly one of 'named' or 'bloch'")
        if "named" in entry:
            base = mt.BlochState.named(entry["named"])
        else:
            base = _bloch_entry(entry["bloch"])
        return base.scaled(_as_float(entry.get("alpha", 1.0), "alpha"))
    raise CLIError(f"cannot parse state entry {entry!r}")


def _product_factors(state, subcommand: str) -> list[mt.BlochState]:
    if not isinstance(state, dict) or set(state) != {"product"}:
        raise CLIError(f"'{subcommand}' needs a state of the form {{\"product\": [...]}}")
    factors = [_bloch_entry(e) for e in state["product"]]
    if not factors:
        raise CLIError("product state needs at least one factor")
    return factors


def _complex_weight(x) -> complex:
    if isinstance(x, list) and len(x) == 2:
        return complex(_as_float(x[0], "weight"), _as_float(x[1], "weight"))
    return complex(_as_float(x, "weight"))


def _decomp_from_state(state) -> ch.DyadicDecomposition:
    """Build the dyadic input from a product, dyad list, or ensemble spec."""
    from . import channels as ch, stab_core as sc
    from .circuits import gates_from_json

    if not isinstance(state, dict):
        raise CLIError("the input document needs a 'state' object")
    kinds = [k for k in ("product", "dyads", "ensemble") if k in state]
    if len(kinds) != 1:
        raise CLIError("state needs exactly one of 'product', 'dyads', 'ensemble'")
    kind = kinds[0]
    if "n" in state and kind != "dyads":
        raise CLIError("explicit 'n' only accompanies 'dyads'")
    if kind == "product":
        return ch.dyadic_decompose_product(_product_factors(state, "estimate"))
    if kind == "dyads":
        if "n" not in state:
            raise CLIError("'dyads' needs the qubit count 'n'")
        n = state["n"]
        if n < 1:
            raise CLIError("n must be positive")
        terms = []
        for d in state["dyads"]:
            left = sc.apply_circuit(sc.zero_state(n), gates_from_json(d["left"]))
            right = sc.apply_circuit(sc.zero_state(n), gates_from_json(d.get("right", d["left"])))
            terms.append((_complex_weight(d.get("alpha", 1.0)), ch.Dyad(left, right)))
        return ch.DyadicDecomposition(terms)
    terms = []
    total = 0.0
    for e in state["ensemble"]:
        weight = float(e["weight"])
        if weight <= 0:
            raise CLIError("ensemble weights must be positive")
        sub = ch.dyadic_decompose_product([_bloch_entry(x) for x in e["product"]])
        # the mixture is one list of joint terms, so count them before any is built
        if len(terms) + len(sub.terms) > MAX_JOINT_TERMS:
            raise CLIError(f"ensemble expands to more than {MAX_JOINT_TERMS} joint terms")
        terms.extend((weight * a, d) for a, d in sub.terms)
        total += weight
    if not terms:
        raise CLIError("ensemble needs at least one entry")
    if abs(total - 1.0) > 1e-9:
        raise CLIError("ensemble weights must sum to 1")
    # a convex mixture of validated products needs no second check
    return ch.DyadicDecomposition(terms, validate=False)


def _circuit(doc: dict, n: int) -> list[ch.SimulableChannel]:
    from . import channels as ch

    return [ch.channel_from_json(obj, n) for obj in doc.get("circuit", [])]


def _clifford_prefix(doc: dict, n: int) -> tuple:
    """Flatten a circuit of deterministic Clifford layers, each read as one unitary
    branch of weight within 1e-9 of 1, into a gate list; any other layer is
    refused once channel_from_json has reported its faults."""
    from .circuits import read_entry

    gates: list[tuple] = []
    for obj in doc.get("circuit", []):
        unitary, kraus = read_entry(obj, n)
        if kraus or len(unitary) != 1 or not 1.0 - 1e-9 <= unitary[0][0] <= 1.0 + 1e-12:
            from . import channels as ch

            ch.channel_from_json(obj, n)
            raise CLIError("'sample' supports only deterministic Clifford circuits")
        gates.extend(unitary[0][1])
    return tuple(gates)


def _measurement(doc: dict, n: int):
    from . import stab_core as sc

    m = doc.get("measurement")
    if not isinstance(m, dict):
        raise CLIError("this subcommand needs a 'measurement' object")
    if ("pauli" in m) == ("projector" in m):
        raise CLIError("measurement needs exactly one of 'pauli' or 'projector'")
    if "pauli" in m:
        word = m["pauli"]
        if len(word) != n:
            raise CLIError(f"Pauli word length {len(word)} differs from qubit count {n}")
        return sc.PauliOp.from_letters(word)
    pairs = []
    for item in m["projector"]:
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], str):
            raise CLIError(f"bad projector generator {item!r}; expected [letters, sign]")
        pairs.append((item[0], _as_int(item[1], "projector sign")))
    proj = sc.StabProjector.from_strings(pairs)
    if proj.n != n:
        raise CLIError(f"projector width {proj.n} differs from qubit count {n}")
    return proj


def _plain(x):
    """A numpy scalar as the Python value it holds, without importing numpy."""
    np = sys.modules.get("numpy")
    return x.item() if np is not None and isinstance(x, np.generic) else x


def _json_safe(x):
    """Replace non-finite floats so the output stays strict JSON."""
    x = _plain(x)
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _dump_json(payload: dict) -> str:
    return json.dumps(_json_safe(payload), indent=2) + "\n"


def _cell(x) -> str:
    if x is None:
        return ""
    x = _plain(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, payload: dict, header, rows, default_fmt: str = "json") -> str:
    fmt = args.format or default_fmt
    if fmt == "json":
        return _dump_json(payload)
    return _csv_text(header, rows)


def _run_estimate(args) -> tuple[str, int]:
    from . import dyadic_sim as ds

    doc = _require_doc(args)
    params = _params(doc, "estimate")
    decomp = _decomp_from_state(doc.get("state"))
    n = decomp.n
    chans = _circuit(doc, n)
    meas = _measurement(doc, n)
    epsilon = _as_float(_opt(args.epsilon, params, "epsilon", 0.05), "epsilon")
    p_fail = _as_float(_opt(args.pfail, params, "p_fail", 0.05), "p_fail")
    rep = ds.estimate_born(decomp, chans, meas, epsilon=epsilon, p_fail=p_fail,
                           seed=args.seed, workers=args.workers)
    payload = {
        "subcommand": "estimate",
        "mu_hat": rep.mu_hat,
        "epsilon": rep.epsilon,
        "p_fail": rep.p_fail,
        "samples": rep.M,
        "seed": rep.seed,
        "per_sample_bound": rep.per_sample_bound,
        "aborted": rep.aborted,
        "l1": decomp.l1,
    }
    return _emit(args, payload, tuple(payload), [tuple(payload.values())]), 0


def _run_sample(args) -> tuple[str, int]:
    from . import rank_sim as rs

    doc = _require_doc(args)
    params = _params(doc, "sample")
    factors = _product_factors(doc.get("state"), "sample")
    n = len(factors)
    prefix = _clifford_prefix(doc, n)
    w = _as_int(params.get("w", n), "w")
    delta = _as_float(_opt(args.delta, params, "delta", 0.1), "delta")
    p_fail = _as_float(_opt(args.pfail, params, "p_fail", 0.05), "p_fail")
    count = _as_int(_opt(args.samples, params, "samples", 100), "samples")
    backend = params.get("norm_backend", "fastnorm")
    rs.check_sample_cost(factors, w, delta, p_fail, count, backend)
    inp = rs.mixed_input_product(factors)
    strings, rep = rs.sample_bitstrings(inp, w, delta, p_fail, count, args.seed,
                                        norm_backend=backend, prefix=prefix)
    stats = rep.to_dict()
    sys.stderr.write(f"sample wall time: {stats.pop('wall_time_s'):.3f}s\n")
    payload = {"subcommand": "sample", "strings": strings, **stats}
    return _emit(args, payload, ("bitstring",), [(s,) for s in strings]), 0


def _run_constrained(args) -> tuple[str, int]:
    from . import constrained_sim as cs

    doc = _require_doc(args)
    params = _params(doc, "constrained")
    factors = _product_factors(doc.get("state"), "constrained")
    pair = cs.optimal_pair(factors)
    n = pair.n
    chans = _circuit(doc, n)
    meas = _measurement(doc, n)
    c = _as_float(_opt(args.epsilon, params, "epsilon", 0.05), "epsilon")
    p_fail = _as_float(_opt(args.pfail, params, "p_fail", 0.05), "p_fail")
    rep = cs.constrained_estimate(pair, chans, meas, c=c, p_fail=p_fail,
                                  seed=args.seed, workers=args.workers)
    payload = {"subcommand": "constrained", **rep.to_dict()}
    return _emit(args, payload, tuple(payload), [tuple(payload.values())]), 0


def _named_factors(args) -> list[mt.BlochState] | None:
    from . import monotones as mt

    if args.state is None:
        return None
    alpha = args.alpha if args.alpha is not None else 1.0
    return [mt.BlochState.named(args.state).scaled(alpha)]


def _state_factors(args, doc: dict, subcommand: str) -> list[mt.BlochState]:
    named = _named_factors(args)
    if named is not None:
        return named
    if "state" in doc:
        return _product_factors(doc["state"], subcommand)
    raise CLIError(f"'{subcommand}' needs --state or an input document with a product state")


def _run_monotone(args) -> tuple[str, int]:
    from . import monotones as mt

    doc = _load_input(args.input) if args.input else {}
    params = _params(doc, "monotone")
    factors = _state_factors(args, doc, "monotone")
    copies = _as_int(_opt(args.copies, params, "copies", 1), "copies")
    if not 1 <= copies <= MAX_COPIES:
        raise CLIError(f"copies must lie in [1, {MAX_COPIES}], the row ceiling")
    q = len(factors)
    lam1 = mt.product_monotone(factors)
    d1 = math.prod(mt.stab_norm_1q(b) for b in factors)
    r1 = math.prod(mt.robustness_1q(b) for b in factors)
    top = max(lam1, d1, r1)
    if copies * math.log(top) > math.log(sys.float_info.max):
        limit = math.floor(math.log(sys.float_info.max) / math.log(top))
        raise CLIError(f"copies above {limit} overflow a float for this state")
    rows = []
    for n_cop in range(1, copies + 1):
        width = q * n_cop
        r_lp = None
        if width <= 3:
            r_lp = float(mt.robustness_lp(mt.product_density_rows(factors * n_cop))[0])
        scale = 2.0 ** (-width)
        rows.append((
            n_cop,
            lam1**n_cop,
            r_lp,
            (d1**n_cop - scale) / (1.0 - scale),
            r1**n_cop,
        ))
    header = ("n", "lam", "r_lp", "r_lower", "r_upper")
    payload = {"subcommand": "monotone", "header": list(header),
               "rows": [list(r) for r in rows]}
    return _emit(args, payload, header, rows, default_fmt="csv"), 0


def _grid_tokens(grid: str | None) -> list[str]:
    if not grid:
        raise CLIError("--sweep needs --grid with comma-separated values")
    tokens = [t.strip() for t in grid.split(",") if t.strip()]
    if not tokens:
        raise CLIError("empty --grid")
    return tokens


def _parse_num(token: str, what: str, integer: bool = False):
    try:
        return int(token) if integer else float(token)
    except ValueError:
        raise CLIError(f"bad {what} value {token!r}") from None


def _run_distill(args) -> tuple[str, int]:
    from . import distill, monotones as mt

    doc = _load_input(args.input) if args.input else {}
    params = _params(doc, "distill")
    target = args.target if args.target is not None else params.get("target", "H")
    m = _as_int(_opt(args.copies, params, "m", 1), "m")
    epsilon = _as_float(_opt(args.epsilon, params, "epsilon", 0.0), "epsilon")
    p = _as_float(_opt(args.psuccess, params, "p", 1.0), "p")
    if args.sweep is not None:
        tokens = _grid_tokens(args.grid)
        if args.sweep == "alpha":
            grid = [_parse_num(t, "alpha") for t in tokens]
            header, rows = distill.sweep_alpha(target, grid, m, epsilon, p)
        elif args.sweep == "eps":
            states = tuple(_state_factors(args, doc, "distill"))
            grid = [_parse_num(t, "epsilon") for t in tokens]
            header, rows = distill.sweep_epsilon(states, target, m, p, grid)
        else:
            states = tuple(_state_factors(args, doc, "distill"))
            grid = [_parse_num(t, "m", integer=True) for t in tokens]
            header, rows = distill.sweep_m(states, target, grid, epsilon, p)
        payload = {"subcommand": "distill", "header": list(header),
                   "rows": [list(r) for r in rows]}
        return _emit(args, payload, header, rows, default_fmt="csv"), 0
    states = tuple(_state_factors(args, doc, "distill"))
    query = distill.DistillQuery(states=states, target=target, m=m, eps=epsilon, p=p)
    k1, k2, k = distill.copies_lower_bound(query)
    payload = {
        "subcommand": "distill",
        "target": target,
        "m": m,
        "epsilon": epsilon,
        "p": p,
        "lam": mt.product_monotone(list(states)),
        "k1": k1,
        "k2": k2,
        "k": k,
        "rate": distill.asymptotic_rate_bound(states, target),
    }
    return _emit(args, payload, tuple(payload), [tuple(payload.values())]), 0


def _pick(rng, m: int) -> int:
    """A uniform integer below m, from one double of the stream."""
    return int(rng.random() * m)


def _random_gate(rng, n: int) -> tuple:
    from . import stab_core as sc

    name = sc.GATE_NAMES[_pick(rng, len(sc.GATE_NAMES))]
    if name in ("CX", "CZ", "SWAP"):
        if n < 2:
            name = "H"
        else:
            a = _pick(rng, n)
            return (name, a, (a + 1 + _pick(rng, n - 1)) % n)
    return (name, _pick(rng, n))


def _random_pauli_word(rng, n: int) -> str:
    letters = ["IXYZ"[_pick(rng, 4)] for _ in range(n)]
    letters[_pick(rng, n)] = "XYZ"[_pick(rng, 3)]
    return "".join(letters)


def _run_selftest(args) -> tuple[str, int]:
    """Random stabilizer programs replayed against the dense oracle."""
    import numpy as np

    from . import dense_oracle as do, monotones as mt, stab_core as sc
    from ._util import sample_rng

    if args.format == "csv":
        raise CLIError("selftest emits JSON only")
    programs = args.samples if args.samples is not None else 200
    if programs < 1:
        raise CLIError("selftest needs at least one program")
    rng = sample_rng(args.seed, 0)
    failures = 0
    max_error = 0.0
    for _ in range(programs):
        n = 1 + _pick(rng, 4)
        state = sc.zero_state(n)
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = 1.0
        for _ in range(5 + _pick(rng, 20)):
            if rng.random() < 0.25:
                op = sc.PauliOp.from_letters(_random_pauli_word(rng, n))
                sign = 1 if rng.random() < 0.5 else -1
                cand = 0.5 * (vec + sign * (do.pauli_matrix(op) @ vec))
                if np.linalg.norm(cand) < 1e-8:
                    continue
                state, _ = sc.project_pauli(state, op, sign)
                vec = cand
            else:
                gate = _random_gate(rng, n)
                state = sc.apply_gate(state, gate)
                vec = do.apply_gate_dense(vec, n, gate)
        err = float(np.max(np.abs(do.expand(state) - vec)))
        max_error = max(max_error, err)
        if err > 1e-10:
            failures += 1
    sqrt2 = math.sqrt(2.0)
    constants_ok = (
        abs(mt.product_monotone([mt.BlochState.named("H")]) - (4.0 - 2.0 * sqrt2)) <= 1e-9
        and abs(mt.product_monotone([mt.BlochState.named("F")]) - (3.0 - math.sqrt(3.0))) <= 1e-9
        and abs(mt.stab_norm_1q(mt.BlochState.named("H")) - (1.0 + sqrt2) / 2.0) <= 1e-9
    )
    passed = failures == 0 and constants_ok
    payload = {"subcommand": "selftest", "programs": programs, "failures": failures,
               "max_error": max_error, "constants_ok": constants_ok,
               "passed": passed, "seed": args.seed}
    return _dump_json(payload), 0 if passed else 1


_DISPATCH = {
    "estimate": _run_estimate,
    "sample": _run_sample,
    "constrained": _run_constrained,
    "monotone": _run_monotone,
    "distill": _run_distill,
    "selftest": _run_selftest,
}

_HELP = {
    "estimate": "Born-probability estimate from a dyadic input decomposition",
    "sample": "approximate measurement bit strings from a mixed product input",
    "constrained": "constant-cost interval estimate through a robustness pair",
    "monotone": "per-copy monotone table with LP robustness points and bounds",
    "distill": "distillation copy-count lower bounds and asymptotic rate",
    "selftest": "random-program oracle equivalence plus monotone constants",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="path to a JSON run document")
    p.add_argument("--output", help="write the primary output to this file instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed, surfaced in outputs")
    p.add_argument("--epsilon", type=float, help="additive accuracy (or distill infidelity)")
    p.add_argument("--delta", type=float, help="sampling l1 accuracy")
    p.add_argument("--pfail", type=float, help="allowed failure probability")
    p.add_argument("--samples", type=int, help="sample/program count where applicable")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for estimate and constrained, each walking "
                        "one contiguous span of chunks; other subcommands ignore it")
    p.add_argument("--format", choices=("json", "csv"), help="primary output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="magicsim",
                     description="Classical simulators for stabilizer circuits with magic-state inputs.")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    parsers = {}
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=_HELP[name], description=_HELP[name])
        _add_common(p)
        parsers[name] = p
    for name in ("monotone", "distill"):
        parsers[name].add_argument("--state", help="named input state (0/1/+/-/+i/-i/H/T/F)")
        parsers[name].add_argument("--alpha", type=float,
                                   help="depolarization weight applied to --state")
        parsers[name].add_argument("--copies", type=int,
                                   help="copy count (monotone table length, distill targets)")
    # sorted(distill.TARGET_FIDELITY_INV), spelled out so parsing loads no distill
    parsers["distill"].add_argument("--target", choices=["F", "H", "T"],
                                    help="distillation target state")
    parsers["distill"].add_argument("--psuccess", type=float, help="protocol success probability")
    parsers["distill"].add_argument("--sweep", choices=("eps", "m", "alpha"),
                                    help="emit a parameter sweep instead of one point")
    parsers["distill"].add_argument("--grid", help="comma-separated sweep values")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    0 is success and 1 a failed selftest.  2 is a problem the caller can
    fix (usage, parse, io, validation) and 3 an internal failure (a broken
    sample bound, extent certificate or LP); both print the JSON error
    diagnostic on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.error("a subcommand is required")
    try:
        if args.workers < 1:
            raise CLIError(f"workers must be at least 1, got {args.workers}")
        text, code = _DISPATCH[args.subcommand](args)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, RuntimeError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            kind = "parse"
        elif isinstance(exc, OSError):
            kind = "io"
        elif isinstance(exc, RuntimeError):
            kind = "internal"
        else:
            kind = getattr(exc, "kind", "validation")
        sys.stderr.write(json.dumps({"error": {"kind": kind, "message": str(exc)}}) + "\n")
        return 3 if kind == "internal" else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
