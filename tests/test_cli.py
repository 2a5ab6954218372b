import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import pytest

from relaycap import cli
from relaycap.errors import VerificationFailure


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _full_gains(t):
    return [[0.0 if i == j else 1.0 for j in range(t)] for i in range(t)]


def _ref_doc(**over):
    doc = {
        "nodes": [
            {"id": 1, "role": "source", "power": 1.0},
            {"id": 2, "role": "relay", "power": 1.0, "noise": 1.0},
            {"id": 3, "role": "relay", "power": 1.0, "noise": 1.0},
            {"id": 4, "role": "destination", "noise": 1.0},
        ],
        "gains": _full_gains(4),
    }
    doc.update(over)
    return doc


def _single_relay_doc(**relay_over):
    relay = {"id": 2, "role": "relay", "power": 1000.0, "noise": 1.0}
    relay.update(relay_over)
    return {
        "nodes": [
            {"id": 1, "role": "source", "power": 1.0},
            relay,
            {"id": 3, "role": "destination", "noise": 1.0},
        ],
        "gains": _full_gains(3),
    }


def _geometry_doc(position=(0.0, 0.0), kappa=1.0):
    """Three nodes on a line under the path-loss law; ``position`` is the
    source's."""
    return {
        "nodes": [
            {"id": 1, "role": "source", "power": 1.0, "position": list(position)},
            {"id": 2, "role": "relay", "power": 1.0, "noise": 1.0, "position": [0.0, 1.0]},
            {"id": 3, "role": "destination", "noise": 1.0, "position": [0.0, 2.0]},
        ],
        "path_loss": {"kappa": kappa, "eta": 2.0},
    }


#: A field the CLI reads as a number: its name in errors, the command
#: that reads it, and a config with a given value there.
_NUMBER_FIELDS = {
    "gains[0][1]": ("bound", lambda v: _ref_doc(gains=[[0, v, 1, 1]] + _full_gains(4)[1:])),
    "node 1: position": ("bound", lambda v: _geometry_doc(position=[0.0, v])),
    "path_loss.kappa": ("bound", lambda v: _geometry_doc(kappa=v)),
    "sweep.gammas[1]": ("sweep", lambda v: _ref_doc(sweep={"gammas": [1, v]})),
}


def _big_doc(t=12):
    nodes = [{"id": 1, "role": "source", "power": 1.0}]
    nodes += [{"id": j, "role": "relay", "power": 1.0, "noise": 1.0} for j in range(2, t)]
    nodes.append({"id": t, "role": "destination", "noise": 1.0})
    return {"nodes": nodes, "gains": _full_gains(t)}


def _seeded_doc(t, seed):
    """Random asymmetric gains in [0.1, 10], relay powers in [10, 10^4]."""
    rng = random.Random(seed)
    nodes = [{"id": 1, "role": "source", "power": 1.0}]
    nodes += [
        {"id": j, "role": "relay", "power": 10.0 ** rng.uniform(1, 4), "noise": 1.0}
        for j in range(2, t)
    ]
    nodes.append({"id": t, "role": "destination", "noise": 1.0})
    gains = [[0.0 if i == j else 10.0 ** rng.uniform(-1, 1) for j in range(t)] for i in range(t)]
    return {"nodes": nodes, "gains": gains}


_SMALL_VERIFY = {
    "verify": {
        "alpha_offsets": [-1.0, -0.5, 0.0, 0.5, 1.0],
        "beta_grid": [-0.5, 0.0, 0.5],
        "det_samples": 40,
        "network_samples": 8,
        "seed": 7,
    }
}

_CSV_HEADER = "gamma,upper_bound_bits,cf_rate_bits,gap_bits,q_uniform,feasible"


def _value_after(out, label):
    for line in out.splitlines():
        if line.startswith(label):
            return float(line[len(label) :].split()[0])
    raise AssertionError(f"no line starting with {label!r} in output:\n{out}")


def _argparse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser`` ending on ``argv``."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--config", "x.json", "--bogus"],
            ["cfrate", "--config", "x.json", "--mode", "fast"],
            ["cfrate", "--config", "x.json", "--top-k", "many"],
            ["cfrate", "--help"],
            ["sweep"],
            ["verify", "--bogus"],
        ],
    )
    def test_one_command_parser_answers_as_the_full_parser(self, argv, capsys):
        # Its usage line still names all four commands.
        got = _argparse_outcome(cli._parser((argv[0],)), argv, capsys)
        assert got == _argparse_outcome(cli._parser(tuple(cli._COMMANDS)), argv, capsys)

    def test_main_builds_only_the_named_command(self, tmp_path, monkeypatch, capsys):
        built, real = [], cli._parser

        def recording(names):
            built.append(names)
            return real(names)

        monkeypatch.setattr(cli, "_parser", recording)
        assert cli.main(["bound", "--config", _write(tmp_path, "ref.json", _ref_doc())]) == 0
        for argv in (["--help"], [], ["frobnicate"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert built == [("bound",)] + [("bound", "cfrate", "sweep", "verify")] * 3


class TestCommandsSucceed:
    def test_bound_reference(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc())
        assert cli.main(["bound", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert _value_after(out, "source-cut bound:") == pytest.approx(1.0, abs=1e-11)
        assert "min cut:" in out
        assert "{1,2,3}" in out  # every cut listed

    def test_cfrate_reference(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc())
        assert cli.main(["cfrate", "--config", cfg, "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        bound = _value_after(out, "upper bound:")
        rate = _value_after(out, "cf rate:")
        gap = _value_after(out, "gap:")
        assert bound == pytest.approx(1.0, abs=1e-11)
        assert 0.0 < rate < bound
        assert gap == pytest.approx(bound - rate, abs=1e-9)
        assert "relay 2: Q =" in out
        assert "S={2,3}" in out
        assert out.count("margin_log2") == 3

    def test_cfrate_top_k_zero_prints_no_rows(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc())
        assert cli.main(["cfrate", "--config", cfg, "--top-k", "0"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("tightest constraints (top 0):\n")
        assert "none" not in out

    def test_cfrate_without_relays_says_so(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": 1, "role": "source", "power": 1.0},
                {"id": 2, "role": "destination", "noise": 1.0},
            ],
            "gains": _full_gains(2),
        }
        cfg = _write(tmp_path, "p2p.json", doc)
        assert cli.main(["cfrate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.endswith("tightest constraints (top 0):\n  (none: no relay subsets)\n")

    def test_sweep_csv_shape(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc(sweep={"gammas": [1, 10, 100]}))
        assert cli.main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == _CSV_HEADER
        assert len(lines) == 4
        assert all(line.endswith(",true") for line in lines[1:])
        assert lines[1].startswith("1,")

    @pytest.mark.parametrize(
        "source_power, relay_power, noise, bound",
        [(1.0, 1.0, 1e-13, 0.5 * math.log2(1.0 + 3e13)), (1e-200, 1e-200, 1e-200, 1.0)],
        ids=["tiny-noise", "tiny-power-and-noise"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound"],
            ["cfrate"],
            ["cfrate", "--quantifier", "exists"],
            ["cfrate", "--mode", "coordinate"],
            ["cfrate", "--mode", "coordinate", "--quantifier", "exists"],
            ["sweep"],
        ],
        ids=" ".join,
    )
    def test_tiny_scales(self, tmp_path, capsys, argv, source_power, relay_power, noise, bound):
        # Rates depend on powers and noises only through their ratios.
        doc = _ref_doc(sweep={"gammas": [1, 10, 100]})
        src, relay_2, relay_3, dst = doc["nodes"]
        src["power"] = source_power
        relay_2.update(power=relay_power, noise=noise)
        relay_3.update(power=relay_power, noise=noise)
        dst["noise"] = noise
        cfg = _write(tmp_path, "tiny.json", doc)
        assert cli.main(argv + ["--config", cfg]) == 0
        out = capsys.readouterr().out
        if argv[0] == "sweep":
            printed = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        elif argv[0] == "bound":
            printed = [_value_after(out, "source-cut bound:")]
        else:
            printed = [_value_after(out, "upper bound:")]
        assert printed == pytest.approx([bound] * len(printed), rel=0.0, abs=1e-9)

    def test_verify_small_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "v.json", _SMALL_VERIFY)
        assert cli.main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "5/5 suites passed" in out
        assert out.count("PASS") == 5


def _extreme_doc(p1, relays, dest_noise, gain):
    """T = len(relays) + 2 nodes, every gain ``gain``; relays is [(power,
    noise)]. Swept over gammas 1..1e6."""
    t = len(relays) + 2
    nodes = [{"id": 1, "role": "source", "power": p1}]
    nodes += [
        {"id": j, "role": "relay", "power": p, "noise": n} for j, (p, n) in enumerate(relays, 2)
    ]
    nodes.append({"id": t, "role": "destination", "noise": dest_noise})
    gains = [[0.0 if i == j else gain for j in range(t)] for i in range(t)]
    return {"nodes": nodes, "gains": gains, "sweep": {"gammas": [10**k for k in range(7)]}}


class TestExitCodes:
    @pytest.mark.parametrize(
        "doc, exits",
        [
            pytest.param(
                _extreme_doc(1.0, [(1e100, 1e-300), (1e250, 1.0), (1e300, 1e300)], 1.0, 1.0),
                {"bound": 2, "cfrate": 2, "sweep": 0},
                id="huge-power-T5",
            ),
            pytest.param(
                _extreme_doc(1e10, [(1e10, 1e-300)], 1e-300, 10.0),
                {"bound": 0, "cfrate": ValueError, "sweep": 1},
                id="tiny-noise-gain-10-T3",
            ),
        ],
    )
    def test_extreme_snr_exits_stand(self, tmp_path, doc, exits):
        # Every uniform search here ends. A cut that cannot be factored
        # exits 2 (see the next test); the NaN gap past the double range is
        # pinned as it stands until it gets a clear error of its own.
        cfg = _write(tmp_path, "extreme.json", doc)
        for argv in (
            ["bound"],
            ["cfrate"],
            ["cfrate", "--mode", "coordinate"],
            ["cfrate", "--quantifier", "exists"],
            ["sweep"],
            ["sweep", "--quantifier", "exists"],
        ):
            want = exits[argv[0]]
            argv = argv[:1] + ["--config", cfg] + argv[1:]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if isinstance(want, int):
                    assert cli.main(argv) == want
                else:
                    with pytest.raises(want):
                        cli.main(argv)

    @pytest.mark.parametrize("argv", [["bound"], ["cfrate"], ["cfrate", "--mode", "coordinate"]])
    def test_cut_past_double_precision_exits_2(self, tmp_path, capsys, argv):
        # huge-power-T5: relay powers 1e100..1e300 over noises 1e-300..1e300.
        # Cut {1,2} loses a Schur pivot to rounding; the run prints one line
        # and no warning (pytest turns a warning into an error).
        doc = _extreme_doc(1.0, [(1e100, 1e-300), (1e250, 1.0), (1e300, 1e300)], 1.0, 1.0)
        cfg = _write(tmp_path, "extreme.json", doc)
        assert cli.main(argv[:1] + ["--config", cfg] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical error: cut {1,2}: pivot 0.000000e+00 is <= epsilon 1e-12; "
            "the network's SNR is past double precision\n"
        )

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["bound", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_config_root_that_is_not_an_object(self, tmp_path, capsys, command):
        cfg = _write(tmp_path, "list.json", [])
        assert cli.main([command, "--config", cfg]) == 2
        assert "config error: config root must be a JSON object" in capsys.readouterr().err

    def test_verification_failure_from_a_library_call(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise VerificationFailure("sweep rows disagree")

        monkeypatch.setattr(cli, "convergence_sweep", failing)
        cfg = _write(tmp_path, "ref.json", _ref_doc(sweep={"gammas": [1, 10]}))
        assert cli.main(["sweep", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verification failure: sweep rows disagree\n"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        assert cli.main(["bound", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "cfrate", "sweep", "verify"])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin.json"
        path.write_bytes(json.dumps(_ref_doc(sweep={"gammas": [1]})).encode() + b"\xff")
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not valid UTF-8: ")

    def test_integer_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # 5,000 digits: past Python's int-string conversion limit (4,300),
        # which json raises as a plain ValueError.
        text = json.dumps(_ref_doc()).replace('"power": 1.0', '"power": ' + "1" * 5000, 1)
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["bound", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: config {path} cannot be read: ")
        assert "Traceback" not in captured.err

    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys):
        depth = 200_000
        path = tmp_path / "deep.json"
        path.write_text('{"nodes": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        assert cli.main(["bound", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: config {path} nests too deeply: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["bound", "cfrate", "sweep", "verify"])
    def test_out_path_that_cannot_be_opened(self, tmp_path, capsys, command):
        doc = dict(_ref_doc(sweep={"gammas": [1]}), **_SMALL_VERIFY)
        cfg = _write(tmp_path, "ref.json", doc)
        out = tmp_path / "missing" / "x.txt"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write output {out}: ")

    def test_two_sources(self, tmp_path, capsys):
        doc = _ref_doc()
        doc["nodes"][1] = {"id": 2, "role": "source", "power": 1.0}
        cfg = _write(tmp_path, "two.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "invalid network" in capsys.readouterr().err

    def test_empty_gammas(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _ref_doc(sweep={"gammas": []}))
        assert cli.main(["sweep", "--config", cfg]) == 2

    def test_unsorted_gammas(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _ref_doc(sweep={"gammas": [10, 1]}))
        assert cli.main(["sweep", "--config", cfg]) == 2

    def test_gamma_below_one(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _ref_doc(sweep={"gammas": [0.5, 1]}))
        assert cli.main(["sweep", "--config", cfg]) == 2

    def test_power_and_power_db_conflict(self, tmp_path, capsys):
        doc = _single_relay_doc(power_db=30.0)
        cfg = _write(tmp_path, "p.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "not both" in capsys.readouterr().err

    def test_gains_and_path_loss_conflict(self, tmp_path):
        doc = _ref_doc(path_loss={"kappa": 1.0, "eta": 2.0})
        cfg = _write(tmp_path, "g.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2

    def test_neither_gains_nor_path_loss(self, tmp_path):
        doc = _ref_doc()
        del doc["gains"]
        cfg = _write(tmp_path, "g.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2

    def test_unknown_node_key(self, tmp_path, capsys):
        doc = _ref_doc()
        doc["nodes"][0]["powr"] = 2.0
        cfg = _write(tmp_path, "k.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_negative_gain_prints_a_plain_float(self, tmp_path, capsys):
        doc = _ref_doc()
        doc["gains"][0][3] = -1.0
        cfg = _write(tmp_path, "g.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "gain from node 1 to node 4 must be finite and >= 0, got -1.0" in err
        assert "source gain to node 4 must be strictly positive, got -1.0" in err

    def test_bool_count_rejected(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {"verify": {"det_samples": True}})
        assert cli.main(["verify", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "field",
        [
            {"power": "abc"},
            {"power": [1.0]},
            {"power_db": 1e5},
            {"noise_db": "x"},
            {"power": True},
            {"noise": True},
            {"power_db": True},
            {"noise_db": False},
        ],
    )
    def test_unreadable_power_or_noise_rejected(self, tmp_path, capsys, field):
        doc = _single_relay_doc()
        for key, value in field.items():
            del doc["nodes"][1][key.removesuffix("_db")]
            doc["nodes"][1][key] = value
        cfg = _write(tmp_path, "p.json", doc)
        assert cli.main(["cfrate", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", list(_NUMBER_FIELDS))
    def test_boolean_number_is_refused_by_name(self, tmp_path, capsys, field):
        # JSON true is not the number 1: the error names the field.
        command, doc = _NUMBER_FIELDS[field]
        cfg = _write(tmp_path, "b.json", doc(True))
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {field} must be a number, got True\n"

    @pytest.mark.parametrize("field", list(_NUMBER_FIELDS))
    def test_integer_past_the_double_range_is_refused_by_name(self, tmp_path, capsys, field):
        command, doc = _NUMBER_FIELDS[field]
        cfg = _write(tmp_path, "i.json", doc(10**400))
        assert cli.main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} must be a number:")

    @pytest.mark.parametrize(
        "node, key", [(0, "power"), (1, "power"), (1, "noise"), (2, "noise")]
    )
    def test_non_finite_power_or_noise_rejected(self, tmp_path, capsys, node, key):
        doc = _single_relay_doc()
        doc["nodes"][node][key] = "HUGE"
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"), encoding="utf-8")
        assert cli.main(["cfrate", "--config", str(path)]) == 2
        assert "invalid network" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "index, node",
        [
            (0, {"id": True, "role": "source", "power": 1.0}),
            (0, {"id": 1, "role": "source", "power": 1.0, "noise": 1.0}),
            (1, {"id": 2, "power": 1.0, "noise": 1.0}),
            (1, {"id": 2, "role": "router", "power": 1.0, "noise": 1.0}),
            (1, {"id": "2", "role": "relay", "power": 1.0, "noise": 1.0}),
            (1, {"id": 2, "role": "relay", "noise": 1.0}),
            (1, {"id": 2, "role": "relay", "power": 1.0}),
            (2, {"id": 3, "role": "destination", "power": 1.0, "noise": 1.0}),
        ],
    )
    def test_node_contract_checked_once(self, tmp_path, capsys, index, node):
        doc = _single_relay_doc()
        doc["nodes"][index] = node
        cfg = _write(tmp_path, "n.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_size_guard(self, tmp_path, capsys):
        cfg = _write(tmp_path, "big.json", _big_doc())
        assert cli.main(["bound", "--config", cfg]) == 3
        assert "size guard:" in capsys.readouterr().err

    def test_size_guard_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, "big.json", _big_doc())
        assert cli.main(["bound", "--config", cfg, "--override-guard"]) == 0
        assert "min cut:" in capsys.readouterr().out

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    def test_cfrate_override_guard_at_t12(self, tmp_path, capsys, quantifier):
        cfg = _write(tmp_path, "t12.json", _seeded_doc(12, seed=12))
        argv = ["cfrate", "--config", cfg, "--override-guard", "--quantifier", quantifier]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert _value_after(out, "cf rate:") <= _value_after(out, "upper bound:")

    def test_cfrate_guard(self, tmp_path):
        cfg = _write(tmp_path, "big.json", _big_doc())
        assert cli.main(["cfrate", "--config", cfg]) == 3

    def test_powerless_relay_infeasible(self, tmp_path, capsys):
        cfg = _write(tmp_path, "z.json", _single_relay_doc(power=0.0))
        assert cli.main(["cfrate", "--config", cfg]) == 4
        assert "infeasible:" in capsys.readouterr().err

    def test_verify_detects_injected_fault(self, tmp_path, capsys, injected_fault):
        cfg = _write(tmp_path, "v.json", _SMALL_VERIFY)
        assert cli.main(["verify", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "4/5 suites passed" in out

    def test_bad_verify_section(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {"verify": {"det_samples": 0}})
        assert cli.main(["verify", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--mode", "coordinate"],
            ["bound", "--quantifier", "exists"],
            ["sweep", "--mode", "uniform"],
            ["sweep", "--tol", "1e-6"],
            ["verify", "--override-guard"],
            ["verify", "--tol", "1e-6"],
            ["cfrate", "--tol", "1e-6"],
        ],
    )
    def test_flag_the_command_ignores_is_rejected(self, tmp_path, argv):
        cfg = _write(tmp_path, "ref.json", _ref_doc(sweep={"gammas": [1, 10]}))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv[:1] + ["--config", cfg] + argv[1:])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["cfrate", "sweep"])
    @pytest.mark.parametrize(
        "cf",
        [
            {"top_k": math.inf},
            {"top_k": -math.inf},
            {"mode": []},
            {"mode": {}},
            {"top_k": True},
            {"top_k": -1},
            {"top_k": 2.7},
            {"top_k": "3"},
        ],
    )
    def test_unusable_cf_value_is_a_config_error(self, tmp_path, capsys, command, cf):
        cfg = _write(tmp_path, "cf.json", _ref_doc(cf=cf, sweep={"gammas": [1, 10]}))
        assert cli.main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_negative_top_k_flag_is_a_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc())
        assert cli.main(["cfrate", "--config", cfg, "--top-k", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: top_k must be >= 0, got -3\n"

    @pytest.mark.parametrize("gammas, power", [([1, math.inf], 1.0), ([1, 1e308], 10.0)])
    def test_gamma_that_overflows_a_relay_power(self, tmp_path, capsys, gammas, power):
        doc = _single_relay_doc(power=power)
        doc["sweep"] = {"gammas": gammas}
        cfg = _write(tmp_path, "s.json", doc)
        assert cli.main(["sweep", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and "not finite" in captured.err

    @pytest.mark.parametrize(
        "grid",
        [
            {"alpha_offsets": [0.5]},
            {"alpha_offsets": [1]},
            {"alpha_offsets": [True]},
            {"alpha_offsets": [False, True]},
            {"alpha_offsets": [0.0, 2.0]},
            {"alpha_offsets": [0.0, math.inf]},
            {"alpha_offsets": [0.0, -math.inf]},
            {"alpha_offsets": [0.0, math.nan]},
            {"beta_grid": [math.inf]},
            {"beta_grid": [0.0, -math.inf]},
            {"beta_grid": [math.nan]},
        ],
    )
    def test_verify_grid_that_cannot_pass(self, tmp_path, capsys, grid):
        cfg = _write(tmp_path, "v.json", {"verify": {**_SMALL_VERIFY["verify"], **grid}})
        assert cli.main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: verify.")

    def test_gamma_errors_name_the_problem(self, tmp_path, capsys):
        for gammas, words in (([10, 1], "sorted ascending"), ([0.5, 1], "must be >= 1")):
            cfg = _write(tmp_path, "s.json", _ref_doc(sweep={"gammas": gammas}))
            assert cli.main(["sweep", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and words in err


class TestOutputDiscipline:
    def test_sweep_runs_are_byte_identical(self, tmp_path):
        cfg = _write(
            tmp_path, "ref.json", _ref_doc(sweep={"gammas": [1, 10, 100, 1000]})
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text(encoding="utf-8").splitlines()[0] == _CSV_HEADER

    def test_verify_runs_are_byte_identical_and_untimed(self, tmp_path, capsys):
        cfg = _write(tmp_path, "v.json", _SMALL_VERIFY)
        outs = []
        for _ in range(2):
            assert cli.main(["verify", "--config", cfg]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[-1] == "5/5 suites passed"
        assert not any(re.search(r"\(.*s\)$", line) for line in lines)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc(sweep={"gammas": [1, 10]}))
        assert cli.main(["sweep", "--config", cfg]) == 0
        streamed = capsys.readouterr().out
        path = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == streamed

    def test_db_fields_match_linear(self, tmp_path):
        lin = _write(tmp_path, "lin.json", _single_relay_doc(power=1000.0))
        db_doc = _single_relay_doc()
        del db_doc["nodes"][1]["power"]
        db_doc["nodes"][1]["power_db"] = 30.0
        db_doc["nodes"][2] = {"id": 3, "role": "destination", "noise_db": 0.0}
        db = _write(tmp_path, "db.json", db_doc)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(["cfrate", "--config", lin, "--out", str(a)]) == 0
        assert cli.main(["cfrate", "--config", db, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGeometryConfig:
    def test_path_loss_network(self, tmp_path, capsys):
        cfg = _write(tmp_path, "geo.json", _geometry_doc())
        assert cli.main(["bound", "--config", cfg]) == 0
        out = capsys.readouterr().out
        # lambda_12 = 1, lambda_13 = 1/4, so 1/2 log2(1 + 1 + 1/4)
        want = 0.5 * math.log2(2.25)
        assert _value_after(out, "source-cut bound:") == pytest.approx(want, abs=1e-9)

    def test_coincident_positions_rejected(self, tmp_path, capsys):
        doc = _geometry_doc()
        doc["nodes"][1]["position"] = [0.0, 0.0]
        cfg = _write(tmp_path, "geo.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "CoincidentNodes" in capsys.readouterr().err

    def test_missing_position_rejected(self, tmp_path):
        doc = _geometry_doc()
        del doc["nodes"][1]["position"]
        cfg = _write(tmp_path, "geo.json", doc)
        assert cli.main(["bound", "--config", cfg]) == 2


class TestFlagsAndConfig:
    def test_exists_rate_at_least_forall(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc())
        assert cli.main(["cfrate", "--config", cfg, "--quantifier", "forall"]) == 0
        forall = _value_after(capsys.readouterr().out, "cf rate:")
        assert cli.main(["cfrate", "--config", cfg, "--quantifier", "exists"]) == 0
        exists = _value_after(capsys.readouterr().out, "cf rate:")
        assert exists >= forall - 1e-12

    def test_flag_overrides_config_quantifier(self, tmp_path, capsys):
        doc = _ref_doc(cf={"quantifier": "exists"})
        cfg = _write(tmp_path, "ref.json", doc)
        assert cli.main(["cfrate", "--config", cfg]) == 0
        assert "quantifier: exists" in capsys.readouterr().out
        assert cli.main(["cfrate", "--config", cfg, "--quantifier", "forall"]) == 0
        assert "quantifier: forall" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cf, flags, want",
        [
            ({}, [], "uniform"),
            ({}, ["--mode", "uniform"], "uniform"),
            ({}, ["--mode", "coordinate"], "coordinate"),
            ({"mode": "coordinate"}, [], "coordinate"),
            ({"mode": "coordinate"}, ["--mode", "uniform"], "uniform"),
        ],
    )
    def test_mode_line_names_the_mode(self, tmp_path, capsys, cf, flags, want):
        # The flag wins over cf.mode, which wins over the default.
        cfg = _write(tmp_path, "ref.json", _ref_doc(cf=cf))
        assert cli.main(["cfrate", "--config", cfg, *flags]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"quantifier: forall   mode: {want}"

    def test_bad_mode_in_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc(cf={"mode": "annealing"}))
        assert cli.main(["cfrate", "--config", cfg]) == 2
        want = "config error: mode must be uniform or coordinate, got 'annealing'\n"
        assert capsys.readouterr().err == want

    def test_bad_quantifier_in_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ref.json", _ref_doc(cf={"quantifier": "some"}))
        assert cli.main(["cfrate", "--config", cfg]) == 2
        want = "config error: quantifier must be forall or exists, got 'some'\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("command", ["cfrate", "sweep"])
    @pytest.mark.parametrize("tol", [1e-9, -1.0, math.inf, "abc", True])
    def test_tol_in_config_is_ignored(self, tmp_path, capsys, command, tol):
        # The descent stops at its fixed point, and no command reads cf.tol:
        # any value gives the bytes of a config without one.
        def run(cf):
            doc = _ref_doc(cf={"mode": "coordinate", **cf}, sweep={"gammas": [1, 10]})
            code = cli.main([command, "--config", _write(tmp_path, "ref.json", doc)])
            return code, capsys.readouterr()

        assert run({"tol": tol}) == run({})


def test_importing_the_cli_leaves_the_verify_suites_out(tmp_path):
    # bound, cfrate and sweep never import selftest; only verify does.
    code = (
        "import sys, relaycap.cli\n"
        "print('relaycap.selftest' in sys.modules)\n"
        "relaycap.cli.main(['verify', '--config', sys.argv[1]])\n"
        "print('relaycap.selftest' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, _write(tmp_path, "v.json", _SMALL_VERIFY)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
        check=True,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-2], lines[-1]) == ("False", "5/5 suites passed", "True")
