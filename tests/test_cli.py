"""End-to-end checks of the command-line front end."""

import argparse
import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from magicsim import _schema
from magicsim import _simplex
from magicsim import channels
from magicsim import cli
from magicsim import distill
from magicsim import dyadic_sim
from magicsim import monotones


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_doc(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


H_FIXTURE = {
    "state": {"product": ["H"]},
    "circuit": [],
    "measurement": {"projector": [["Z", 1]]},
    "params": {"epsilon": 0.02},
}


def assert_schema(payload, name):
    errs = _schema.validate(payload, _schema.load_schema(name))
    assert errs == [], errs


class TestEstimate:
    def test_h_fixture_value(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        rc, out, _ = run_cli(capsys, "estimate", "--input", path, "--seed", "7")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "estimate")
        assert abs(payload["mu_hat"] - (1.0 + 1.0 / math.sqrt(2.0)) / 2.0) <= 0.02
        assert payload["epsilon"] == 0.02
        assert payload["seed"] == 7

    def test_flag_overrides_params(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        rc, out, _ = run_cli(capsys, "estimate", "--input", path, "--epsilon", "0.1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["epsilon"] == 0.1
        assert payload["samples"] < 2000

    def test_dyad_input(self, capsys, tmp_path):
        doc = {
            "state": {"dyads": [{"alpha": 1.0, "left": [["H", 0]]}], "n": 1},
            "measurement": {"pauli": "X"},
        }
        path = write_doc(tmp_path, doc)
        rc, out, _ = run_cli(capsys, "estimate", "--input", path, "--epsilon", "0.3")
        assert rc == 0
        assert abs(json.loads(out)["mu_hat"] - 1.0) <= 1e-12

    def test_ensemble_input(self, capsys, tmp_path):
        doc = {
            "state": {"ensemble": [
                {"weight": 0.5, "product": ["0"]},
                {"weight": 0.5, "product": ["1"]},
            ]},
            "measurement": {"projector": [["Z", 1]]},
        }
        path = write_doc(tmp_path, doc)
        rc, out, _ = run_cli(capsys, "estimate", "--input", path, "--epsilon", "0.05",
                             "--seed", "11")
        assert rc == 0
        assert abs(json.loads(out)["mu_hat"] - 0.5) <= 0.05

    def test_csv_format(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        rc, out, _ = run_cli(capsys, "estimate", "--input", path, "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("subcommand,mu_hat,epsilon")
        assert len(lines) == 2
        assert lines[1].startswith("estimate,0.8")

    def test_output_file(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        out_path = tmp_path / "result.json"
        rc, out, _ = run_cli(capsys, "estimate", "--input", path,
                             "--output", str(out_path))
        assert rc == 0
        assert out == ""
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert_schema(payload, "estimate")


class TestReproducibility:
    def test_identical_runs_bitwise(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        outs = [run_cli(capsys, "estimate", "--input", path, "--seed", "5")[1]
                for _ in range(2)]
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_output(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        base = run_cli(capsys, "estimate", "--input", path, "--seed", "5")[1]
        alt = run_cli(capsys, "estimate", "--input", path, "--seed", "5",
                      "--workers", "3")[1]
        assert base == alt

    def test_worker_count_does_not_change_block_walk(self, capsys, tmp_path):
        # two independent gadget blocks, {0, 2} and {1, 3}, over three runs of chunks
        doc = {
            "state": {"product": ["+", "+", "T", "T"]},
            "circuit": [
                {"type": "t_gadget", "qubits": [0, 2]},
                {"type": "t_gadget", "qubits": [1, 3]},
                {"type": "clifford_mix", "qubits": [0, 1], "params": {"terms": [[1.0, [["CX", 0, 1]]]]}},
                {"type": "depolarizing", "qubits": [1], "params": {"lambda": 0.1}},
            ],
            "measurement": {"pauli": "XYII"},
            "params": {"epsilon": 0.05},
        }
        path = write_doc(tmp_path, doc)
        outs = [run_cli(capsys, "estimate", "--input", path, "--seed", "8", "--workers", w)[1]
                for w in ("1", "2")]
        assert json.loads(outs[0])["samples"] > 2 * 8 * 256
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, capsys, tmp_path):
        path = write_doc(tmp_path, H_FIXTURE)
        a = json.loads(run_cli(capsys, "estimate", "--input", path, "--seed", "1")[1])
        b = json.loads(run_cli(capsys, "estimate", "--input", path, "--seed", "2")[1])
        assert a["mu_hat"] != b["mu_hat"]


class TestSample:
    DOC = {
        "state": {"product": [{"named": "H", "alpha": 0.9},
                              {"named": "H", "alpha": 0.9}]},
        "circuit": [{"unitary": [[1.0, [["CX", 0, 1]]]]}],
        "params": {"w": 2, "delta": 0.3},
    }

    def test_strings_and_schema(self, capsys, tmp_path):
        path = write_doc(tmp_path, self.DOC)
        rc, out, err = run_cli(capsys, "sample", "--input", path, "--samples", "6",
                               "--seed", "3")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "sample")
        assert len(payload["strings"]) == 6
        assert all(len(s) == 2 and set(s) <= {"0", "1"} for s in payload["strings"])
        # equimagical product input: every string costs the same term count
        assert payload["k_min"] == payload["k_max"]
        assert "wall time" in err

    def test_csv_lists_bitstrings(self, capsys, tmp_path):
        path = write_doc(tmp_path, self.DOC)
        rc, out, _ = run_cli(capsys, "sample", "--input", path, "--samples", "4",
                             "--seed", "3", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "bitstring"
        assert len(lines) == 5

    def test_noisy_circuit_rejected(self, capsys, tmp_path):
        doc = {
            "state": {"product": ["H"]},
            "circuit": [{"type": "depolarizing", "qubits": [0],
                         "params": {"p": 0.5}}],
        }
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, "sample", "--input", path, "--samples", "2")
        assert rc == 2
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert "Clifford" in diag["error"]["message"]

    def test_depolarizing_prefix_message(self, capsys, tmp_path):
        doc = {"state": {"product": ["H", "H"]},
               "circuit": [{"unitary": [[1.0, [["CX", 0, 1]]]]},
                           {"type": "depolarizing", "qubits": [1], "params": {"lambda": 0.2}}]}
        rc, out, err = run_cli(capsys, "sample", "--input", write_doc(tmp_path, doc))
        assert (rc, out) == (2, "")
        assert json.loads(err)["error"] == {
            "kind": "validation", "message": "'sample' supports only deterministic Clifford circuits"}

    def test_unknown_norm_backend_refused(self, capsys, tmp_path):
        doc = {**self.DOC, "params": {**self.DOC["params"], "norm_backend": "dense"}}
        rc, out, err = run_cli(capsys, "sample", "--input", write_doc(tmp_path, doc))
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "'dense'" in diag["error"]["message"]


def _channel_prefix(doc, n):
    """The Clifford prefix as read through channels.channel_from_json."""
    gates = []
    for obj in doc.get("circuit", []):
        chan = channels.channel_from_json(obj, n)
        if chan.kraus_part or len(chan.unitary_part) != 1 or abs(chan.P_U - 1.0) > 1e-9:
            raise cli.CLIError("'sample' supports only deterministic Clifford circuits")
        gates.extend(chan.unitary_part[0][1])
    return tuple(gates)


def _prefix_outcome(read, layer, n=3):
    try:
        return read({"circuit": [layer]}, n)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _mix(terms, qubits=(2, 0), **extra):
    return {"type": "clifford_mix", "qubits": list(qubits), "params": {"terms": terms}, **extra}


def _depol(qubits=(1,), **params):
    return {"type": "depolarizing", "qubits": list(qubits), "params": params}


# circuit entries the `sample` prefix reader must take or refuse as channel_from_json does
PREFIX_LAYERS = {
    "unitary": {"unitary": [[1.0, [["CX", 0, 1], ["h", 2], ["SDG", 1]]]]},
    "unitary-int-weight": {"unitary": [[1, [["SWAP", 0, 2]]]], "kraus": []},
    "unitary-near-one": {"unitary": [[1.0 - 5e-10, [["S", 0]]]]},
    "unitary-just-below": {"unitary": [[1.0 - 5e-9, [["S", 0]]]]},
    "unitary-above-range": {"unitary": [[1.0 + 5e-10, [["S", 0]]]]},
    "unitary-extra-keys": {"unitary": [[1.0, []]], "params": "x", "qubits": 7},
    "unitary-two-branches": {"unitary": [[1.0, [["X", 0]]], [0.0, []]]},
    "unitary-none": {"unitary": []},
    "unitary-bool-weight": {"unitary": [[True, []]]},
    "unitary-bool-target": {"unitary": [[1.0, [["X", True]]]]},
    "unitary-arity": {"unitary": [[1.0, [["CX", 0]]]]},
    "unitary-range": {"unitary": [[1.0, [["X", 3]]]]},
    "unitary-empty-gate": {"unitary": [[1.0, [[]]]]},
    "unitary-unknown-gate": {"unitary": [[1.0, [["T", 0]]]]},
    "unitary-not-array": {"unitary": {"p": 1.0}},
    "kraus-valid": {"kraus": [[0.5, 1, [["ZII", 1]], []], [0.5, 1, [["ZII", -1]], []]]},
    "kraus-incomplete": {"kraus": [[0.5, 1, [["ZII", 1]], []]]},
    "kraus-malformed": {"unitary": [[1.0, []]], "kraus": [[0.5, 1, [["Z"]], []]]},
    "kraus-not-array": {"unitary": [[1.0, []]], "kraus": 5},
    "mix": _mix([[1.0, [["CX", 0, 1], ["H", 1]]]]),
    "mix-null-params": {"type": "clifford_mix", "qubits": [0], "params": None},
    "mix-two-terms": _mix([[0.7, [["X", 0]]], [0.3, []]]),
    "mix-local-range": _mix([[1.0, [["X", 2]]]]),
    "mix-duplicate-qubits": _mix([[1.0, []]], qubits=(1, 1)),
    "mix-qubit-range": _mix([[1.0, []]], qubits=(3,)),
    "mix-bool-qubit": _mix([[1.0, []]], qubits=(True,)),
    "mix-params-array": {"type": "clifford_mix", "qubits": [0], "params": []},
    "depolarizing-zero": _depol(**{"lambda": 0.0}),
    "depolarizing-default": {"type": "depolarizing", "qubits": [2]},
    "depolarizing-p-zero": _depol(p=0),
    "depolarizing-subnormal": _depol(**{"lambda": 5e-324}),
    "depolarizing-noisy": _depol(**{"lambda": 0.2}),
    "depolarizing-negative": _depol(**{"lambda": -0.0001}),
    "depolarizing-two-qubits": _depol(qubits=(0, 1), **{"lambda": 0.0}),
    "depolarizing-params-array": {"type": "depolarizing", "qubits": [0], "params": []},
    "t-gadget": {"type": "t_gadget", "qubits": [0, 1]},
    "t-gadget-arity": {"type": "t_gadget", "qubits": [0]},
    "measure-identity": {"type": "pauli_measure_and_forward", "qubits": [], "params": {"pauli": ""}},
    "measure": {"type": "pauli_measure_and_forward", "qubits": [0, 2], "params": {"pauli": "XZ"}},
    "unknown-type": {"type": "reset", "qubits": [0]},
    "null-type": {"type": None, "unitary": [[1.0, []]]},
}


class TestCliffordPrefix:
    @pytest.mark.parametrize("case", sorted(PREFIX_LAYERS))
    def test_same_gates_or_error_as_channel_from_json(self, case):
        layer = PREFIX_LAYERS[case]
        assert _prefix_outcome(cli._clifford_prefix, layer) == _prefix_outcome(_channel_prefix, layer)

    def test_unitary_and_mix_read_their_gates(self):
        for layer in (PREFIX_LAYERS["unitary"], PREFIX_LAYERS["mix"]):
            want = channels.channel_from_json(layer, 3).unitary_part[0][1]
            assert cli._clifford_prefix({"circuit": [layer]}, 3) == want
        assert cli._clifford_prefix({"circuit": [PREFIX_LAYERS["mix"]]}, 3) == (("CX", 2, 0), ("H", 0))

    def test_first_faulty_layer_reports(self):
        doc = {"circuit": [PREFIX_LAYERS["unitary"], PREFIX_LAYERS["kraus-incomplete"],
                           PREFIX_LAYERS["unitary-arity"]]}
        with pytest.raises(channels.ChannelError, match="completeness"):
            cli._clifford_prefix(doc, 3)


class TestFaceFactor:
    @pytest.mark.parametrize("subcommand", ["estimate", "sample"])
    def test_face_factor_runs(self, capsys, tmp_path, subcommand):
        # an iterative l1 minimizer fails the extent certificate on this pure
        # face factor, which would exit 3
        doc = {"state": {"product": [[0.8447514230648699, 0.09941294937138408,
                                      0.5258441772304414]]},
               "measurement": {"pauli": "Z"}}
        path = write_doc(tmp_path, doc)
        rc, out, err = run_cli(capsys, subcommand, "--input", path, "--epsilon", "0.3",
                               "--samples", "2", "--seed", "1")
        assert rc == 0, err
        assert_schema(json.loads(out), subcommand)


class TestConstrained:
    def test_h_expectation_interval(self, capsys, tmp_path):
        doc = {"state": {"product": ["H"]}, "measurement": {"pauli": "X"}}
        path = write_doc(tmp_path, doc)
        rc, out, _ = run_cli(capsys, "constrained", "--input", path,
                             "--epsilon", "0.05", "--seed", "1")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "constrained")
        truth = 1.0 / math.sqrt(2.0)
        assert payload["E_min"] <= truth <= payload["E_max"]
        assert payload["case"] == "constant_error"
        assert payload["lam"] == pytest.approx(4.0 - 2.0 * math.sqrt(2.0))


class TestMonotone:
    def test_h_copies_10_matches_power(self, capsys):
        rc, out, _ = run_cli(capsys, "monotone", "--state", "H", "--copies", "10")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,lam,r_lp,r_lower,r_upper"
        assert len(lines) == 11
        last = lines[-1].split(",")
        assert int(last[0]) == 10
        lam10 = float(last[1])
        assert lam10 == pytest.approx((4.0 - 2.0 * math.sqrt(2.0)) ** 10, rel=1e-12)
        assert math.log2(lam10) / 10.0 == pytest.approx(0.228443, abs=5e-6)
        # LP column present through width 3, empty afterwards
        assert lines[3].split(",")[2] != ""
        assert last[2] == ""

    def test_bounds_sandwich_lp(self, capsys):
        rc, out, _ = run_cli(capsys, "monotone", "--state", "H", "--copies", "3")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            lower, lp, upper = float(row[3]), float(row[2]), float(row[4])
            assert lower - 1e-9 <= lp <= upper + 1e-9

    def test_json_wrapper(self, capsys):
        rc, out, _ = run_cli(capsys, "monotone", "--state", "T", "--copies", "2",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "sweep")
        assert payload["rows"][1][2] is not None

    def test_noisy_state_flag(self, capsys):
        rc, out, _ = run_cli(capsys, "monotone", "--state", "H", "--alpha", "0.75",
                             "--copies", "1")
        assert rc == 0
        lam = float(out.strip().split("\n")[1].split(",")[1])
        assert lam == pytest.approx(1.75 / (1.0 + 1.0 / math.sqrt(2.0)), abs=1e-12)


class TestDistill:
    def test_point_example(self, capsys):
        rc, out, _ = run_cli(capsys, "distill", "--state", "H", "--alpha", "0.75",
                             "--target", "H", "--copies", "4", "--epsilon", "1e-10",
                             "--psuccess", "0.9")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "distill")
        assert payload["k1"] == pytest.approx(21.2779, abs=2e-3)
        assert payload["k2"] == pytest.approx(22.9713, abs=2e-3)
        assert payload["k"] == payload["k2"]
        assert payload["rate"] == pytest.approx(0.15672, abs=5e-5)

    def test_alpha_sweep_with_inf_rows(self, capsys):
        rc, out, _ = run_cli(capsys, "distill", "--target", "H", "--sweep", "alpha",
                             "--grid", "0.6,0.72,0.9", "--copies", "24",
                             "--epsilon", "1e-20", "--psuccess", "0.9")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,lam,k1,k2,k"
        assert lines[1].endswith("inf,inf,inf")
        assert "inf" not in lines[2]

    def test_eps_sweep_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "distill", "--state", "H", "--alpha", "0.8",
                             "--sweep", "eps", "--grid", "1e-2,1e-6,1e-10",
                             "--copies", "2", "--psuccess", "0.9",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "sweep")
        ks = [row[3] for row in payload["rows"]]
        assert ks == sorted(ks)

    def test_sweep_needs_grid(self, capsys):
        rc, _, err = run_cli(capsys, "distill", "--state", "H", "--alpha", "0.8",
                             "--sweep", "eps")
        assert rc == 2
        assert json.loads(err)["error"]["kind"] == "validation"


class TestBenchAndSelftest:
    def test_selftest_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest", "--samples", "60", "--seed", "4")
        assert rc == 0
        payload = json.loads(out)
        assert_schema(payload, "selftest")
        assert payload["passed"] is True
        assert payload["failures"] == 0
        assert payload["max_error"] <= 1e-10

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "magicsim.cli", "selftest", "--samples", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


class TestValidation:
    @pytest.mark.parametrize("argv", [
        ("estimate", "--input", "/no/such/file.json"),
        ("monotone", "--state", "H", "--output", "/no/such/dir/out.csv"),
    ], ids=["input", "output"])
    def test_missing_input_file(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "io"

    def test_unknown_top_level_key(self, capsys, tmp_path):
        path = write_doc(tmp_path, {**H_FIXTURE, "bogus": 1})
        rc, _, err = run_cli(capsys, "estimate", "--input", path)
        assert rc == 2
        assert "bogus" in json.loads(err)["error"]["message"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc, _, err = run_cli(capsys, "estimate", "--input", str(path))
        assert rc == 2
        assert json.loads(err)["error"]["kind"] == "parse"

    def test_unknown_param_rejected(self, capsys, tmp_path):
        doc = {**H_FIXTURE, "params": {"epsilon": 0.05, "zeta": 1}}
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, "estimate", "--input", path)
        assert rc == 2
        assert "zeta" in json.loads(err)["error"]["message"]

    def test_measurement_needs_exactly_one_kind(self, capsys, tmp_path):
        doc = {"state": {"product": ["H"]},
               "measurement": {"pauli": "Z", "projector": [["Z", 1]]}}
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, "estimate", "--input", path)
        assert rc == 2
        assert "exactly one" in json.loads(err)["error"]["message"]

    def test_ensemble_weights_must_sum_to_one(self, capsys, tmp_path):
        doc = {"state": {"ensemble": [{"weight": 0.4, "product": ["0"]}]},
               "measurement": {"pauli": "Z"}}
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, "estimate", "--input", path)
        assert rc == 2
        assert "sum to 1" in json.loads(err)["error"]["message"]

    def test_pauli_width_mismatch(self, capsys, tmp_path):
        doc = {"state": {"product": ["H", "0"]}, "measurement": {"pauli": "Z"}}
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, "estimate", "--input", path)
        assert rc == 2
        assert "length" in json.loads(err)["error"]["message"]

    def test_unknown_state_name(self, capsys):
        rc, _, err = run_cli(capsys, "monotone", "--state", "Q")
        assert rc == 2
        assert_schema(json.loads(err), "error")

    def test_usage_error_is_json(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "magicsim.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        diag = json.loads(proc.stderr)
        assert diag["error"]["kind"] == "usage"

    def test_incomplete_channel_refused_above_dense_cap(self, capsys):
        # Kraus terms 0.5 * 2 (1 + ZZ)/2 and 0.5 * 2 (1 + XX)/2 at n=7: the weights
        # sum to 1 and every branch sum on |+0...0> is 1, but the channel is not
        # complete
        path = str(pathlib.Path(__file__).parent / "data" / "estimate_zz_xx_n7.json")
        rc, out, err = run_cli(capsys, "estimate", "--input", path, "--seed", "1")
        assert rc == 2 and out == ""
        diag = json.loads(err)["error"]
        assert diag["kind"] == "validation"
        assert "completeness" in diag["message"]

    @pytest.mark.parametrize("subcommand", ["estimate", "constrained"])
    def test_projector_over_generator_ceiling_refused(self, capsys, tmp_path, subcommand):
        # one Z generator per qubit, one more than the ceiling: 2^9 Pauli terms a sample
        n = dyadic_sim.MAX_PROJECTOR_GENERATORS + 1
        doc = {"state": {"product": ["0"] * n},
               "measurement": {"projector": [["I" * q + "Z" + "I" * (n - q - 1), 1] for q in range(n)]}}
        rc, out, err = run_cli(capsys, subcommand, "--input", write_doc(tmp_path, doc), "--epsilon", "0.3")
        assert (rc, out) == (2, "")
        assert "Traceback" not in err
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "generators" in diag["error"]["message"]

    def test_bloch_outside_ball_rejected(self, capsys, tmp_path):
        doc = {"state": {"product": [[0.9, 0.9, 0.9]]},
               "measurement": {"pauli": "Z"}}
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, "estimate", "--input", path)
        assert rc == 2
        assert "ball" in json.loads(err)["error"]["message"]


def _kraus_doc(n):
    # measure-and-forward on qubit 0 whose first branch applies X to qubit 9
    return {"state": {"product": ["H"] + ["0"] * (n - 1)},
            "circuit": [{"kraus": [[0.5, 1, [["Z" + "I" * (n - 1), 1]], [["X", 9]]],
                                   [0.5, 1, [["Z" + "I" * (n - 1), -1]], []]]}],
            "measurement": {"pauli": "Z" * n}}


MALFORMED_GATE_DOCS = {
    "unitary-arity": ("estimate", {"state": {"product": ["H", "0"]},
                                   "circuit": [{"unitary": [[1.0, [["CX", 0]]]]}],
                                   "measurement": {"pauli": "ZZ"}}),
    "unitary-empty-gate": ("estimate", {"state": {"product": ["H", "0"]},
                                        "circuit": [{"unitary": [[1.0, [[]]]]}],
                                        "measurement": {"pauli": "ZZ"}}),
    "kraus-empty-gate": ("estimate", {"state": {"product": ["H"]},
                                      "circuit": [{"kraus": [[0.5, 1, [["Z", 1]], [[]]],
                                                             [0.5, 1, [["Z", -1]], []]]}],
                                      "measurement": {"pauli": "Z"}}),
    "kraus-target-n2": ("estimate", _kraus_doc(2)),
    "kraus-target-n7": ("estimate", _kraus_doc(7)),
    "dyads-target": ("estimate", {"state": {"n": 2, "dyads": [{"left": [["H", 5]]}]},
                                  "measurement": {"pauli": "ZZ"}}),
    "sample-prefix-arity": ("sample", {"state": {"product": ["H", "H"]},
                                       "circuit": [{"unitary": [[1.0, [["CX", 0]]]]}]}),
    "ensemble-product-number": ("estimate", {"state": {"ensemble": [{"weight": 1.0, "product": 5}]},
                                             "measurement": {"pauli": "Z"}}),
    "clifford-mix-local-index": ("estimate", {
        "state": {"product": ["H", "0"]},
        "circuit": [{"type": "clifford_mix", "qubits": [1],
                     "params": {"terms": [[1.0, [["X", -1]]]]}}],
        "measurement": {"pauli": "ZZ"}}),
}


def _channel_doc(channel):
    return ("estimate", {"state": {"product": ["H"]}, "circuit": [channel],
                         "measurement": {"pauli": "Z"}})


# channels whose entries around the gate lists are malformed
MALFORMED_CHANNEL_DOCS = {
    "unitary-bare-weight": _channel_doc({"unitary": [1.0]}),
    "unitary-weight-array": _channel_doc({"unitary": [[[1.0], []]]}),
    "unitary-entry-arity": _channel_doc({"unitary": [[1.0, [], []]]}),
    "unitary-not-array": _channel_doc({"unitary": {"p": 1.0}}),
    "kraus-generator-arity": _channel_doc({"kraus": [[0.5, 1, [["Z"]], []],
                                                     [0.5, 1, [["Z", -1]], []]]}),
    "kraus-entry-arity": _channel_doc({"kraus": [[0.5, 1, [["Z", 1]]]]}),
    "kraus-h-array": _channel_doc({"kraus": [[0.5, [1], [["Z", 1]], []]]}),
    "kraus-word-number": _channel_doc({"kraus": [[0.5, 1, [[3, 1]], []]]}),
    "builtin-qubits-number": _channel_doc({"type": "depolarizing", "qubits": 0}),
    "builtin-lambda-array": _channel_doc({"type": "depolarizing", "qubits": [0],
                                          "params": {"lambda": [0.1]}}),
    "builtin-params-string": _channel_doc({"type": "depolarizing", "qubits": [0], "params": "x"}),
    "builtin-term-arity": _channel_doc({"type": "clifford_mix", "qubits": [0],
                                        "params": {"terms": [[0.5]]}}),
    "builtin-misspelt-params": _channel_doc({"type": "depolarizing", "qubits": [0],
                                             "param": {"lambda": 1.0}}),
    "unitary-extra-key": _channel_doc({"unitary": [[1.0, []]], "qubits": [0]}),
}


# documents that once ended in a traceback or an internal error
MALFORMED_STATE_DOCS = {
    "named-not-string": ("estimate", {"state": {"product": [{"named": [0]}]},
                                      "measurement": {"pauli": "Z"}}),
    "alpha-overflow": ("monotone", {"state": {"product": [{"named": "H", "alpha": 1e308}]}}),
    "alpha-nan": ("monotone", {"state": {"product": [{"named": "T", "alpha": math.nan}]}}),
    "bloch-overflow": ("sample", {"state": {"product": [[1e308, 0.0, 0.0]]}}),
    "distill-target-not-string": ("distill", {"state": {"product": ["H"]}, "params": {"target": ["H"]}}),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_STATE_DOCS))
    def test_malformed_state_is_validation_error(self, capsys, tmp_path, case):
        subcommand, doc = MALFORMED_STATE_DOCS[case]
        rc, out, err = run_cli(capsys, subcommand, "--input", write_doc(tmp_path, doc))
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "1e308"])
    def test_out_of_range_alpha_flag_is_validation_error(self, capsys, alpha):
        rc, out, err = run_cli(capsys, "monotone", "--state", "H", f"--alpha={alpha}")
        assert (rc, out) == (2, "")
        assert json.loads(err)["error"] == {
            "kind": "validation", "message": "Bloch components must be finite and at most 1 in magnitude"}

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHANNEL_DOCS))
    def test_malformed_channel_entry_is_validation_error(self, capsys, tmp_path, case):
        subcommand, doc = MALFORMED_CHANNEL_DOCS[case]
        path = write_doc(tmp_path, doc)
        rc, out, err = run_cli(capsys, subcommand, "--input", path, "--epsilon", "0.3")
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "entry" in diag["error"]["message"] or "arrays" in diag["error"]["message"]

    def test_unknown_entry_key_is_named(self, capsys, tmp_path):
        # read as absent, the misspelt params would run the channel at lambda = 0
        _, doc = MALFORMED_CHANNEL_DOCS["builtin-misspelt-params"]
        rc, out, err = run_cli(capsys, "estimate", "--input", write_doc(tmp_path, doc))
        assert (rc, out) == (2, "")
        assert json.loads(err)["error"] == {
            "kind": "validation", "message": "unknown circuit entry keys: ['param']"}

    @pytest.mark.parametrize("params", [{"pauli": ""}, {}])
    def test_measure_without_targets_names_the_channel(self, capsys, tmp_path, params):
        _, doc = _channel_doc({"type": "pauli_measure_and_forward", "qubits": [], "params": params})
        rc, out, err = run_cli(capsys, "estimate", "--input", write_doc(tmp_path, doc))
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert diag["error"]["message"] == "pauli_measure_and_forward needs at least one target qubit"

    @pytest.mark.parametrize("subcommand", ["estimate", "constrained"])
    def test_over_budget_sample_count_refused(self, capsys, tmp_path, subcommand):
        # about 1e19 samples: refused before a single chunk is laid out
        path = write_doc(tmp_path, H_FIXTURE)
        t0 = time.monotonic()
        rc, out, err = run_cli(capsys, subcommand, "--input", path, "--epsilon", "1e-9")
        assert time.monotonic() - t0 < 10.0
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert diag["error"]["kind"] == "validation"
        assert "ceiling" in diag["error"]["message"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_refused(self, capsys, tmp_path, workers):
        path = write_doc(tmp_path, H_FIXTURE)
        rc, out, err = run_cli(capsys, "estimate", "--input", path, "--workers", workers)
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "workers" in diag["error"]["message"]

    @pytest.mark.parametrize("subcommand,workers", [
        ("monotone", "0"), ("sample", "-3"), ("estimate", "0"), ("constrained", "-1"),
        ("distill", "0"), ("selftest", "-2"), ("monotone", "2"), ("sample", "4"), ("distill", "2"),
        ("selftest", "3"),
    ])
    def test_workers_below_one_refused_before_input(self, capsys, tmp_path, monkeypatch,
                                                    subcommand, workers):
        def unread(path):
            raise AssertionError("input read before --workers was checked")

        monkeypatch.setattr(cli, "_load_input", unread)
        path = write_doc(tmp_path, H_FIXTURE)
        rc, out, err = run_cli(capsys, subcommand, "--input", path, "--workers", workers)
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "workers" in diag["error"]["message"]

    @pytest.mark.parametrize("subcommand", ["monotone", "sample"])
    def test_one_worker_accepted(self, capsys, tmp_path, subcommand):
        argv = ("--state", "H", "--copies", "2") if subcommand == "monotone" else \
            ("--input", write_doc(tmp_path, TestSample.DOC), "--samples", "2")
        rc, out, _ = run_cli(capsys, subcommand, *argv, "--workers", "1")
        assert rc == 0 and out

    def test_incomplete_channel_above_dense_cap_is_validation_error(self, capsys, tmp_path):
        doc = {"state": {"product": ["0"] * 7}, "circuit": [{"unitary": [[0.5, []]]}],
               "measurement": {"pauli": "Z" * 7}}
        rc, out, err = run_cli(capsys, "estimate", "--input", write_doc(tmp_path, doc), "--epsilon", "0.3")
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"

    def test_wide_product_runs(self, capsys, tmp_path):
        # 4^12 joint dyads are drawn factor by factor, and none is built
        doc = {"state": {"product": ["H"] * 12}, "measurement": {"pauli": "Z" * 12}}
        t0 = time.monotonic()
        rc, out, err = run_cli(capsys, "estimate", "--input", write_doc(tmp_path, doc), "--epsilon", "0.3")
        assert time.monotonic() - t0 < 5.0
        assert rc == 0, err
        payload = json.loads(out)
        assert_schema(payload, "estimate")
        # <Z> = 2^-1/2 on each H factor
        radius = payload["l1"] * math.sqrt(2.0 * math.log(2.0 / 1e-9) / payload["samples"])
        assert abs(payload["mu_hat"] - 2.0**-6) <= radius

    def test_oversized_ensemble_refused(self, capsys, tmp_path):
        # an ensemble is one list of joint terms: 4^10 of them are refused before any is built
        doc = {"state": {"ensemble": [{"weight": 1.0, "product": ["H"] * 10}]},
               "measurement": {"pauli": "Z" * 10}}
        t0 = time.monotonic()
        rc, out, err = run_cli(capsys, "estimate", "--input", write_doc(tmp_path, doc), "--epsilon", "0.3")
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "joint terms" in diag["error"]["message"]

    def test_non_hermitian_dyads_above_dense_cap_refused(self, capsys, tmp_path):
        # |0..0><0..0| + 0.5 |10..0><0..0| at n=7: unit trace, not Hermitian
        doc = {"state": {"n": 7, "dyads": [{"alpha": 1.0, "left": []},
                                           {"alpha": 0.5, "left": [["X", 0]], "right": []}]},
               "measurement": {"pauli": "Z" + "I" * 6}}
        rc, out, err = run_cli(capsys, "estimate", "--input", write_doc(tmp_path, doc), "--epsilon", "0.3")
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert "Hermitian" in diag["error"]["message"]

    @pytest.mark.parametrize("factor, extra, phrase", [
        ("H", {}, "use norm_backend 'exact'"),
        ({"named": "H", "alpha": 0.9}, {"norm_backend": "exact"}, "ceiling"),
    ], ids=["pure", "noisy"])
    def test_sample_over_cost_ceiling_refused(self, capsys, tmp_path, factor, extra, phrase):
        # seven factors: the noisy input's Gram checks alone need 2^21 overlaps,
        # and the fastnorm sketch is refused above the dense cap
        doc = {"state": {"product": [factor] * 7}, "params": {"w": 2, "delta": 0.15, **extra}}
        t0 = time.monotonic()
        rc, out, err = run_cli(capsys, "sample", "--input", write_doc(tmp_path, doc), "--samples", "2")
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert phrase in diag["error"]["message"]

    @pytest.mark.parametrize("argv, phrase", [
        (("--state", "T", "--alpha", "0.85", "--copies", "5000"), "overflow"),
        (("--state", "F", "--alpha", "1", "--copies", "2000"), "overflow"),
        (("--state", "+", "--copies", "100000000"), "row ceiling"),
    ], ids=["T-overflow", "F-overflow", "row-ceiling"])
    def test_monotone_copies_refused(self, capsys, argv, phrase):
        t0 = time.monotonic()
        rc, out, err = run_cli(capsys, "monotone", *argv)
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"
        assert phrase in diag["error"]["message"]

    def test_monotone_copies_at_overflow_limit_stay_finite(self, capsys, tmp_path):
        # four factors skip the LP, so the whole table is closed forms
        path = write_doc(tmp_path, {"state": {"product": [{"named": "F", "alpha": 1.0}] * 4}})
        _, _, err = run_cli(capsys, "monotone", "--input", path, "--copies", "100000")
        limit = int(json.loads(err)["error"]["message"].split()[2])
        rc, out, _ = run_cli(capsys, "monotone", "--input", path, "--copies", str(limit), "--format", "json")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == limit
        assert all(math.isfinite(v) for v in rows[-1][1:] if v is not None)
        rc, _, _ = run_cli(capsys, "monotone", "--input", path, "--copies", str(limit + 1))
        assert rc == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_GATE_DOCS))
    def test_malformed_gate_is_validation_error(self, capsys, tmp_path, case):
        subcommand, doc = MALFORMED_GATE_DOCS[case]
        path = write_doc(tmp_path, doc)
        rc, out, err = run_cli(capsys, subcommand, "--input", path, "--epsilon", "0.3")
        assert rc == 2
        assert out == ""
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"]["kind"] == "validation"

    @pytest.mark.parametrize("exc", [RuntimeError, _simplex.LPError], ids=["runtime", "lp"])
    def test_internal_error_exits_3(self, capsys, monkeypatch, exc):
        def broken(rho):
            raise exc("solver failed")

        monkeypatch.setattr(monotones, "robustness_lp", broken)
        rc, out, err = run_cli(capsys, "monotone", "--state", "H")
        assert rc == 3
        assert out == ""
        diag = json.loads(err)
        assert_schema(diag, "error")
        assert diag["error"] == {"kind": "internal", "message": "solver failed"}


class TestParser:
    def test_target_choices_are_the_distill_targets(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        target = next(a for a in sub.choices["distill"]._actions if a.dest == "target")
        assert list(target.choices) == sorted(distill.TARGET_FIDELITY_INV)


class TestSchemaValidator:
    def test_rejects_wrong_type(self):
        schema = {"type": "object", "properties": {"a": {"type": "integer"}},
                  "required": ["a"], "additionalProperties": False}
        assert _schema.validate({"a": 1}, schema) == []
        assert _schema.validate({"a": True}, schema) != []
        assert _schema.validate({"a": 1, "b": 2}, schema) != []
        assert _schema.validate({}, schema) != []

    def test_enum_and_items(self):
        schema = {"type": "array", "items": {"enum": ["x", "y"]}}
        assert _schema.validate(["x", "y"], schema) == []
        assert _schema.validate(["z"], schema) != []

    def test_all_shipped_schemas_load(self):
        for name in ("estimate", "sample", "constrained", "sweep", "distill",
                     "selftest", "error", "input"):
            schema = _schema.load_schema(name)
            assert isinstance(schema, dict) and schema.get("type") == "object"


# the names `magicsim` exports, keyed by the submodule that owns each
PACKAGE_EXPORTS = {
    "pauli": ("PauliOp", "StabProjector"),
    "stab_core": ("StabState", "apply_circuit", "apply_gate", "basis_state", "inner_product",
                  "plus_state", "project_pauli", "project_stab", "tensor", "zero_state"),
    "channels": ("DyadicDecomposition", "SimulableChannel", "builtin_channel",
                 "channel_from_json", "dyadic_decompose_product"),
    "dyadic_sim": ("estimate_born", "required_samples"),
    "monotones": ("BlochState", "lambda_plus_1q", "robustness_lp"),
    "decompositions": ("decompose_1q_state", "extent_pure_1q"),
    "rank_sim": ("MixedInput", "SparseDecomposition", "fast_norm", "mixed_input_product",
                 "sample_bitstrings", "sparsify"),
    "constrained_sim": ("ConstrainedReport", "RobustnessPair", "constrained_estimate",
                        "interval_from_estimate", "optimal_pair"),
    "distill": ("DistillQuery", "asymptotic_rate_bound", "copies_lower_bound"),
}

SCOPE_DOCS = {
    "estimate": {"state": {"product": ["H", "0"]},
                 "circuit": [{"type": "depolarizing", "qubits": [0], "params": {"lambda": 0.1}}],
                 "measurement": {"pauli": "ZZ"}},
    "constrained": {"state": {"product": [{"named": "H", "alpha": 0.8}] * 2},
                    "measurement": {"pauli": "ZZ"}},
}


# modules no run may load: numpy's generators, and through them secrets,
# hashlib and OpenSSL; every sample is drawn from _util's SplitMix64 stream
RNG_MODULES = ("numpy.random", "secrets", "_hashlib")


def _loaded_by(argv: list[str], numpy: bool = True) -> tuple[list[str], list[str], list[str]]:
    """Submodules loaded in a fresh process by `import magicsim`, then by
    `import magicsim.cli`, then by cli.main(argv), which must load none of
    RNG_MODULES.  Neither import loads numpy, and with numpy=False the run
    must not either."""
    script = (
        "import json, os, sys\n"
        "def loaded():\n"
        "    return sorted(m.split('.')[1] for m in sys.modules if m.startswith('magicsim.'))\n"
        "import magicsim\n"
        "package = loaded()\n"
        "import magicsim.cli as cli\n"
        "imported = loaded()\n"
        "numpy_at_import = 'numpy' in sys.modules\n"
        f"rc = cli.main({argv!r} + ['--output', os.devnull])\n"
        f"rng = [m for m in {RNG_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps([rc, package, imported, loaded(), rng,\n"
        "                  [numpy_at_import, 'numpy' in sys.modules]]))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rc, package, imported, ran, rng, (numpy_at_import, numpy_at_run) = json.loads(
        res.stdout.splitlines()[-1])
    assert rc == 0
    assert rng == []
    assert not numpy_at_import
    assert numpy or not numpy_at_run
    return package, imported, ran


class TestScopedImports:
    def test_cli_and_monotone_load_only_their_layers(self):
        package, imported, monotone = _loaded_by(
            ["monotone", "--state", "H", "--alpha", "0.9", "--copies", "3"], numpy=False)
        assert package == []
        assert imported == ["cli"]
        assert not set(imported) & {"channels", "dyadic_sim", "rank_sim", "constrained_sim",
                                    "monotones", "distill", "dense_oracle", "_schema", "_simplex"}
        assert {"monotones", "_simplex"} <= set(monotone)
        assert not set(monotone) & {"pauli", "gate_rules", "stab_core", "decompositions", "distill",
                                    "channels", "rank_sim", "dyadic_sim", "constrained_sim", "dense_oracle"}

    def test_distill_loads_no_numpy(self):
        _, _, ran = _loaded_by(["distill", "--state", "H", "--alpha", "0.8", "--target", "H"],
                               numpy=False)
        assert {"distill", "monotones"} <= set(ran)

    def test_sample_loads_no_channel_layer(self):
        doc = str(pathlib.Path(__file__).parent / "data" / "sample_h4_cx.json")
        _, _, sample = _loaded_by(["sample", "--input", doc])
        assert {"rank_sim", "decompositions", "stab_core", "_schema"} <= set(sample)
        assert not set(sample) & {"channels", "dense_oracle", "distill", "dyadic_sim",
                                  "constrained_sim", "_simplex"}

    @pytest.mark.parametrize("subcommand", sorted(SCOPE_DOCS))
    def test_walks_load_neither_distill_nor_rank_sim(self, tmp_path, subcommand):
        path = write_doc(tmp_path, SCOPE_DOCS[subcommand])
        _, _, ran = _loaded_by([subcommand, "--input", path, "--epsilon", "0.3"])
        assert {"channels", "dyadic_sim"} <= set(ran)
        assert not set(ran) & {"distill", "rank_sim", "dense_oracle"}

    def test_selftest_draws_from_the_stream(self):
        _, _, ran = _loaded_by(["selftest", "--samples", "5", "--seed", "3"])
        assert {"_util", "dense_oracle", "stab_core"} <= set(ran)

    def test_package_exports_are_the_submodule_objects(self):
        import importlib

        import magicsim

        assert sorted(magicsim.__all__) == sorted(n for names in PACKAGE_EXPORTS.values()
                                                  for n in names)
        for module, names in PACKAGE_EXPORTS.items():
            sub = importlib.import_module(f"magicsim.{module}")
            for name in names:
                assert getattr(magicsim, name) is getattr(sub, name)
        with pytest.raises(AttributeError):
            magicsim.no_such_name
