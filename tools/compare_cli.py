"""Compare the command-line output of two relaycap source trees.

Usage: python3 tools/compare_cli.py PARENT_DIR CHANGE_DIR

Each directory is the root of a relaycap checkout. The script builds one
fixed, seeded corpus of configs, runs every command line of it through
``relaycap.cli.main`` in one subprocess per tree (``PYTHONPATH=<dir>/src``),
and compares stdout, stderr and exit code run by run. Each run executes
inside ``warnings.catch_warnings()``: entering it clears the per-module
warning registries, so a run prints every warning it hits, as it would in
a fresh process, not only the first run to reach a warning's code
location. Each tree's own path is masked in the output, so a warning
that names its source file reads the same from both trees, and so is the
source line number such a warning carries (``bounds.py:302:`` reads
``bounds.py:<line>:``), so an edit that only shifts lines moves no
output. It prints:

- how many runs are identical;
- how many output lines moved, where a moved line is one whose text is
  unchanged once every number in it is masked;
- the largest |delta| of each command and column over the moved lines,
  with how many of its numbers went up and how many went down;
- every change of exit code (an uncaught exception counts as an exit
  code), with the first line that differs in its stdout and its stderr;
- every other difference: each line pair that differs other than in its
  numbers (numbers moved on other lines of that output are still
  counted), or, where the line counts differ, the counts and the first
  line that differs.

Corpus: the README example, the 4-node reference network, five seeded
families at T = 3..10 (random, asymmetric, tied-power, unit-gain,
powerless-relay), random T = 11 and 12 networks under ``--override-guard``,
one geometry config, and two tiny-scale configs (every noise 1e-13; every
power and noise 1e-200). Each network runs ``bound``, ``cfrate`` (uniform
and coordinate, forall and exists, and ``--top-k 1000`` under both
quantifiers) and ``sweep`` (forall and exists). Six configs that the
CLI rejects (a negative relay-to-relay gain, a zero source gain, a zero
relay noise, a negative source power, a NaN relay noise, and a source
power written as JSON ``true``, which trees that read a boolean as the
number 1 run) run ``bound``, ``cfrate`` and ``sweep``, so config-error
texts are compared too. Two more random networks, T = 6 and T = 9, run
only ``sweep`` (forall and exists) over gammas 10^0..10^200 in steps of
10^20, where the rows' uniform frontiers lie hundreds of binades apart. One
more, the T = 6 network
``oracles.random_network(default_rng(2), 6)`` draws, runs only ``sweep``
(forall and exists) over gammas [1, 1e305], where some lambda_ir P_i
overflows a double although every power is finite. Two T = 3 unit-gain
networks with relay noise 1e308 and relay power 2.2 or 1.5, whose
frontier Q lies where N + Q overflows a double, run ``cfrate`` and
``sweep --quantifier forall``. Two extreme-SNR networks run ``bound``,
``cfrate`` and ``sweep``: T = 5 with unit gains, relay powers
1e100/1e250/1e300 and relay noises 1e-300/1/1e300, whose whitened Gram
stack overflows; and T = 3 with source and relay power 1e10, every gain 10
and every noise 1e-300, whose SNR lies past the double range. Their exits
show whether a change mends the cut side there (ROADMAP item 7). Two
more networks reach the uniform optimum's other exits, each with
``bound``, ``cfrate`` and ``sweep``: a relay-free T = 2 network (the empty
Q), and T = 4 with unit gains and relay powers 1e-310 and 10, swept over
gammas [1, 1e300], whose ``cfrate`` finds no finite Q (exit 4) and whose
sweep gives one infeasible row and then one feasible row. The T = 6
network ``oracles.random_network(default_rng(0), 6)`` draws, with relay 3
at power 1e-17, and again with every relay at power 1e-20, runs ``cfrate
--top-k 1000`` under both quantifiers: merged and split blocks tie or
nearly tie there, so every printed witness shows whether a change keeps
the forall DP's tie-break and the exists table's singleton witnesses. A
random T = 14 network runs ``cfrate`` (uniform, forall and exists) under
``--override-guard``: with 12 relays, its tables have the corpus's widest
subset-DP layers. Two more networks run ``cfrate --mode uniform --top-k
1000`` under both quantifiers and ``--override-guard``: a tied-power
T = 16 network, whose 14-relay DP layers run in chunks, and a
powerless-relay T = 12 network, whose tied totals exercise the subset
DP's tie-break. A random T = 15 network runs ``sweep`` (forall and
exists) under ``--override-guard`` over 13 gammas, 10^0..10^6 in half
decades: its 13 tables of 13 relays are built in one stack, whose DP
layers run in chunks. Five runs show which error comes first, without
``--override-guard``: a T = 6 sweep whose last row's relay powers
overflow (exit 2), and a T = 11 network past the size guard, swept over
gammas [1e308] (the scale error first, exit 2) and [1, 1e308] (the guard,
exit 3), and run through ``bound`` and ``cfrate`` (exit 3). A small
network with ``cf.tol`` = -1 runs ``cfrate`` and ``sweep``: trees that
still read ``cf.tol`` reject it (exit 2), and later trees ignore it.
The T = 4 near-tie network (relay powers 1e13, gain 2 -> 3 raised by 4
ulps, so that relay 2's two snrs differ but give one log2) runs ``cfrate
--top-k 1000`` under both quantifiers: its printed receivers show
whether a change picks each block's receiver on the snr. A T = 4
network whose relays' floors lambda_1r P1 + N_r overflow a double
(source power 1e300, gains 1e10 among nodes 1-3) runs ``bound``,
``cfrate`` and ``sweep``. Its T = 3 counterpart, whose lone relay's floor
overflows while the destination's is finite, runs ``bound``, ``cfrate``
(uniform and coordinate, forall and exists) and ``sweep``.
``verify`` runs with its defaults, with seeds 1, 2, 5 and 12345 and with
two large seeds like the benchmark's (3 * 1234567 and 3 * 1234568), with 1
and 7 network samples and 1 and 7 determinant samples, the edge cases of
batching the random suites by size, and with 250 network samples and 2000
determinant samples, whose stacked draws are larger than the defaults'.
It also runs with alpha offsets [-1, 0, 1], [0] and the uneven
[-0.8, -0.2, 0, 0.2, 0.6], and with beta grids [-0.5, 0, 0.5] and [0]
and the three failing grids [-1e6, 0], [0, 1e8] and [0, 1e200], where
the relay-correlation check stops at its first failing parameter set. Fifteen runs end in
argparse: ``--help`` alone and after each command, no argument, an
unknown command, an unknown flag after each command, ``cfrate`` without
``--config``, a bad ``--mode``, a non-integer ``--top-k`` and ``cfrate
--tol 1e-6`` (a flag that later trees no longer have): 529 runs in all. Only the standard library and numpy are used.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from itertools import zip_longest

import numpy as np

GAMMAS = [1, 10, 100, 1000, 1e4, 1e5, 1e6]

NETWORK_COMMANDS = (
    ["bound"],
    ["cfrate", "--mode", "uniform", "--quantifier", "forall"],
    ["cfrate", "--mode", "uniform", "--quantifier", "exists"],
    ["cfrate", "--mode", "coordinate", "--quantifier", "forall"],
    ["cfrate", "--mode", "coordinate", "--quantifier", "exists"],
    ["cfrate", "--top-k", "1000", "--quantifier", "forall"],
    ["cfrate", "--top-k", "1000", "--quantifier", "exists"],
    ["sweep", "--quantifier", "forall"],
    ["sweep", "--quantifier", "exists"],
)

PLAIN_COMMANDS = (["bound"], ["cfrate"], ["sweep"])

CF_COMMANDS = PLAIN_COMMANDS[1:]

#: Relay power multipliers of the huge-gamma sweeps: 10^0..10^200.
HUGE_GAMMAS = [10.0**k for k in range(0, 201, 20)]

SWEEP_COMMANDS = (["sweep", "--quantifier", "forall"], ["sweep", "--quantifier", "exists"])

HUGE_NOISE_COMMANDS = (["cfrate"], ["sweep", "--quantifier", "forall"])

TOP_K_COMMANDS = NETWORK_COMMANDS[5:7]

WIDE_COMMANDS = NETWORK_COMMANDS[1:3]

LONE_FLOOR_COMMANDS = (["bound"], *NETWORK_COMMANDS[1:5], ["sweep"])

UNIFORM_TOP_K_COMMANDS = tuple(
    ["cfrate", "--mode", "uniform", "--top-k", "1000", "--quantifier", quantifier]
    for quantifier in ("forall", "exists")
)

# Runs inside each tree's interpreter: reads a JSON list of argv lists on
# stdin and writes [exit code, stdout, stderr] per run as JSON on stdout.
WORKER = """
import contextlib, io, json, sys, warnings
from relaycap import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")
LABEL_NOISE = re.compile(r"\{[^}]*\}|\([^)]*\)|\+|->")
SOURCE_LINE = re.compile(r"\.py:\d+:")


def _doc(source_power, relays, dest_noise, gains):
    """Config for T = len(relays) + 2 nodes; relays is [(power, noise)]."""
    t = len(relays) + 2
    nodes = [{"id": 1, "role": "source", "power": float(source_power)}]
    nodes += [
        {"id": j, "role": "relay", "power": float(p), "noise": float(n)}
        for j, (p, n) in enumerate(relays, start=2)
    ]
    nodes.append({"id": t, "role": "destination", "noise": float(dest_noise)})
    g = np.array(gains, dtype=float)
    np.fill_diagonal(g, 0.0)
    return {"nodes": nodes, "gains": g.tolist(), "sweep": {"gammas": GAMMAS}}


def _near_unity(rng, size=None):
    return 10.0 ** rng.uniform(-0.5, 0.5, size=size)


def _symmetric_gains(rng, t):
    g = 10.0 ** rng.uniform(-1.0, 1.0, size=(t, t))
    return 0.5 * (g + g.T)


def _random_doc(rng, t):
    """The library's random-network law: symmetric gains, relay powers in
    [10, 10^4], source power and noises near unity."""
    r = t - 2
    return _doc(
        _near_unity(rng),
        list(zip(10.0 ** rng.uniform(1.0, 4.0, r), _near_unity(rng, r))),
        _near_unity(rng),
        _symmetric_gains(rng, t),
    )


def _tied_power_doc(rng, t):
    """Relay powers 1, 10 and 100 in turn, every noise 1, symmetric gains."""
    return _doc(1.0, [(10.0 ** (j % 3), 1.0) for j in range(2, t)], 1.0, _symmetric_gains(rng, t))


def _powerless_relay_doc(rng, t):
    """Every other relay (2, 4, ...) at power 0, the others at 100;
    asymmetric gains."""
    return _doc(
        1.0,
        [(float(j % 2) * 100.0, n) for j, n in zip(range(2, t), _near_unity(rng, t - 2))],
        1.0,
        10.0 ** rng.uniform(-1.0, 1.0, size=(t, t)),
    )


def corpus() -> list[tuple[str, dict]]:
    """The fixed list of (name, config) pairs; the same on every call."""
    rng = np.random.default_rng(20261018)
    docs = [
        (
            "readme",
            {
                "nodes": [
                    {"id": 1, "role": "source", "power": 1.0},
                    {"id": 2, "role": "relay", "power_db": 30, "noise": 1.0},
                    {"id": 3, "role": "relay", "power": 1000, "noise": 1.0},
                    {"id": 4, "role": "destination", "noise": 1.0},
                ],
                "gains": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
                "sweep": {"gammas": [1, 10, 100, 1000]},
            },
        ),
        ("reference", _doc(1.0, [(1.0, 1.0)] * 2, 1.0, np.ones((4, 4)))),
    ]
    for t in range(3, 11):
        r = t - 2
        docs.append((f"random-T{t}", _random_doc(rng, t)))
        docs.append((
            f"asymmetric-T{t}",
            _doc(
                _near_unity(rng),
                list(zip(10.0 ** rng.uniform(0.0, 3.0, r), _near_unity(rng, r))),
                _near_unity(rng),
                10.0 ** rng.uniform(-1.0, 1.0, size=(t, t)),
            ),
        ))
        docs.append((f"tied-power-T{t}", _tied_power_doc(rng, t)))
        docs.append((
            f"unit-gain-T{t}",
            _doc(1.0, [(p, 1.0) for p in 10.0 ** rng.uniform(0.0, 3.0, r)], 1.0, np.ones((t, t))),
        ))
        docs.append((f"powerless-relay-T{t}", _powerless_relay_doc(rng, t)))
    for t in (11, 12):
        docs.append((f"override-T{t}", _random_doc(rng, t)))
    docs.append((
        "geometry",
        {
            "nodes": [
                {"id": 1, "role": "source", "power": 1.0, "position": [0.0, 0.0]},
                {"id": 2, "role": "relay", "power": 100.0, "noise": 1.0, "position": [1.0, 0.5]},
                {"id": 3, "role": "relay", "power_db": 25, "noise": 0.5, "position": [1.5, -0.5]},
                {"id": 4, "role": "destination", "noise": 1.0, "position": [3.0, 0.0]},
            ],
            "path_loss": {"kappa": 1.0, "eta": 2.0},
            "sweep": {"gammas": GAMMAS},
        },
    ))
    docs.append(("tiny-noise", _doc(1.0, [(1.0, 1e-13)] * 2, 1e-13, np.ones((4, 4)))))
    docs.append(("tiny-scale", _doc(1e-200, [(1e-200, 1e-200)] * 2, 1e-200, np.ones((4, 4)))))
    return docs


def config_errors() -> list[tuple[str, dict]]:
    """Configs that the CLI rejects (exit 2): (name, config) pairs. A NaN
    noise is written as the bare ``NaN`` that the CLI's json.load accepts."""
    negative = _doc(1.0, [(1.0, 1.0)] * 2, 1.0, np.ones((4, 4)))
    negative["gains"][1][2] = -1.0
    zero_source = _doc(1.0, [(1.0, 1.0)] * 2, 1.0, np.ones((4, 4)))
    zero_source["gains"][0][2] = 0.0
    boolean_power = _doc(1.0, [(10.0, 1.0)] * 2, 1.0, np.ones((4, 4)))
    boolean_power["nodes"][0]["power"] = True
    return [
        ("negative-gain", negative),
        ("zero-source-gain", zero_source),
        ("zero-relay-noise", _doc(1.0, [(10.0, 0.0), (10.0, 1.0)], 1.0, np.ones((4, 4)))),
        ("negative-source-power", _doc(-1.0, [(10.0, 1.0)] * 2, 1.0, np.ones((4, 4)))),
        ("nan-relay-noise", _doc(1.0, [(10.0, math.nan), (10.0, 1.0)], 1.0, np.ones((4, 4)))),
        ("boolean-source-power", boolean_power),
    ]


def huge_gamma_sweeps() -> list[tuple[str, dict]]:
    """Random T = 6 and T = 9 networks swept over HUGE_GAMMAS: (name,
    config) pairs, drawn from their own seed so the corpus stays as it is."""
    rng = np.random.default_rng(20261019)
    docs = []
    for t in (6, 9):
        doc = _random_doc(rng, t)
        doc["sweep"] = {"gammas": HUGE_GAMMAS}
        docs.append((f"huge-gamma-T{t}", doc))
    return docs


def _oracle_network_doc(seed: int, t: int) -> dict:
    """Config of the network that
    ``oracles.random_network(np.random.default_rng(seed), t)`` builds
    (``tests/oracles.py``), drawn here in that function's order."""
    rng = np.random.default_rng(seed)
    source_power = 10.0 ** rng.uniform(-0.5, 0.5)
    relays = [
        (10.0 ** rng.uniform(1.0, 4.0), 10.0 ** rng.uniform(-0.5, 0.5)) for _ in range(t - 2)
    ]
    return _doc(source_power, relays, 10.0 ** rng.uniform(-0.5, 0.5), _symmetric_gains(rng, t))


def overflow_sweep() -> tuple[str, dict]:
    """(name, config) of the overflow sweep: the network that
    ``oracles.random_network(np.random.default_rng(2), 6)`` builds, swept
    over gammas [1, 1e305]."""
    doc = _oracle_network_doc(2, 6)
    doc["sweep"] = {"gammas": [1, 1e305]}
    return "overflow-gamma-T6", doc


def weak_relays() -> list[tuple[str, dict]]:
    """(name, config) pairs of the network that
    ``oracles.random_network(np.random.default_rng(0), 6)`` builds, with
    relay 3 at power 1e-17, and with every relay at power 1e-20: relays
    weak enough that merged and split blocks tie or nearly tie."""
    docs = []
    for name, power in (
        ("weak-relay-3-T6", {3: 1e-17}),
        ("all-weak-T6", dict.fromkeys((2, 3, 4, 5), 1e-20)),
    ):
        doc = _oracle_network_doc(0, 6)
        for node in doc["nodes"]:
            if node["id"] in power:
                node["power"] = power[node["id"]]
        docs.append((name, doc))
    return docs


def huge_noise() -> list[tuple[str, dict]]:
    """(name, config) pairs of the huge-noise networks: T = 3, unit gains,
    source power 1, relay noise 1e308, destination noise 1."""
    return [
        (f"huge-noise-P{power}", _doc(1.0, [(power, 1e308)], 1.0, np.ones((3, 3))))
        for power in (2.2, 1.5)
    ]


def extreme_snr() -> list[tuple[str, dict]]:
    """(name, config) pairs of the extreme-SNR networks: huge relay powers
    over noises 1e-300..1e300 at T = 5, and tiny noises at T = 3."""
    return [
        (
            "huge-power-T5",
            _doc(1.0, [(1e100, 1e-300), (1e250, 1.0), (1e300, 1e300)], 1.0, np.ones((5, 5))),
        ),
        ("tiny-noise-gain-10-T3", _doc(1e10, [(1e10, 1e-300)], 1e-300, np.full((3, 3), 10.0))),
    ]


def search_exits() -> list[tuple[str, dict]]:
    """(name, config) pairs of the relay-free network and the network whose
    first sweep row has no finite uniform frontier."""
    no_frontier = _doc(1.0, [(1e-310, 1.0), (10.0, 1.0)], 1.0, np.ones((4, 4)))
    no_frontier["sweep"] = {"gammas": [1, 1e300]}
    return [
        ("relay-free-T2", _doc(1.0, [], 1.0, np.ones((2, 2)))),
        ("no-frontier-T4", no_frontier),
    ]


def wide_network() -> tuple[str, dict]:
    """(name, config) of a random T = 14 network, drawn from its own seed
    so the corpus stays as it is: 12 relays, the widest constraint tables
    and subset-DP layers of the corpus."""
    return "override-T14", _random_doc(np.random.default_rng(20261020), 14)


def tie_break_networks() -> list[tuple[str, dict]]:
    """(name, config) pairs of a tied-power T = 16 network, whose 14-relay
    DP layers run in chunks, and a powerless-relay T = 12 network, whose
    tied totals exercise the subset DP's tie-break, drawn from their own
    seed so the corpus stays as it is."""
    rng = np.random.default_rng(20261021)
    return [
        ("tied-power-T16", _tied_power_doc(rng, 16)),
        ("powerless-relay-T12", _powerless_relay_doc(rng, 12)),
    ]


def wide_sweep() -> tuple[str, dict]:
    """(name, config) of a random T = 15 network swept over 13 gammas,
    10^0..10^6 in half decades, drawn from its own seed so the corpus
    stays as it is: a stack of 13 tables of 13 relays, whose subset-DP
    layers run in chunks."""
    doc = _random_doc(np.random.default_rng(20261022), 15)
    doc["sweep"] = {"gammas": [10.0 ** (k / 2) for k in range(13)]}
    return "sweep-T15", doc


def error_precedence() -> list[tuple[tuple[str, dict], tuple]]:
    """((name, config), commands) of the runs that show which error comes
    first, none of them under ``--override-guard``. The T = 6 network that
    ``oracles.random_network(np.random.default_rng(2), 6)`` builds is
    swept over gammas [1, 1e3, 1e308]: its last row's relay powers
    overflow (exit 2). The T = 11 network that
    ``oracles.random_network(np.random.default_rng(0), 11)`` builds lies
    past the size guard. Swept over [1e308], its first row's scale error
    comes first (exit 2); swept over [1, 1e308], its first row scales and
    then meets the guard (exit 3), as do its ``bound`` and ``cfrate``."""
    overflow = _oracle_network_doc(2, 6)
    overflow["sweep"] = {"gammas": [1, 1e3, 1e308]}
    scale_first = _oracle_network_doc(0, 11)
    scale_first["sweep"] = {"gammas": [1e308]}
    guard_first = _oracle_network_doc(0, 11)
    guard_first["sweep"] = {"gammas": [1, 1e308]}
    return [
        (("overflow-last-row-T6", overflow), (["sweep"],)),
        (("guarded-scale-first-T11", scale_first), (["sweep"],)),
        (("guarded-T11", guard_first), (["sweep"], ["bound"], ["cfrate"])),
    ]


def retired_tol() -> tuple[str, dict]:
    """A small network whose ``cf`` section sets ``tol`` = -1."""
    doc = _doc(1.0, [(10.0, 1.0)] * 2, 1.0, np.ones((4, 4)))
    doc["cf"] = {"tol": -1.0}
    return "retired-cf-tol", doc


def near_tie() -> tuple[str, dict]:
    """(name, config) of the T = 4 near-tie network: unit gains and
    noises, relay powers 1e13, and gain 2 -> 3 raised by 4 ulps, so that
    relay 2's snr at receiver 3 lies 4 ulps above its snr at the
    destination and both give one log2."""
    doc = _doc(1.0, [(1e13, 1.0)] * 2, 1.0, np.ones((4, 4)))
    doc["gains"][1][2] += 4 * 2.0**-52
    return "near-tie-T4", doc


def floor_overflow() -> tuple[str, dict]:
    """(name, config) of the T = 4 network whose relays' floors
    lambda_1r P1 + N_r overflow a double: source power 1e300, relays at
    power and noise 1e300, destination noise 1e300, gains 1e10 among
    nodes 1-3 and 1 to and from node 4, swept over gammas [1, 10]."""
    gains = np.full((4, 4), 1e10)
    gains[3, :] = gains[:, 3] = 1.0
    doc = _doc(1e300, [(1e300, 1e300)] * 2, 1e300, gains)
    doc["sweep"] = {"gammas": [1, 10]}
    return "floor-overflow-T4", doc


def lone_floor_overflow() -> tuple[str, dict]:
    """(name, config) of the T = 3 network whose lone relay's floor
    lambda_12 P1 + N_2 overflows a double while the destination's is
    finite: source power 1e300, the relay at power and noise 1e300,
    destination noise 1e300, gain 1e10 between nodes 1 and 2 and 1 to and
    from node 3, swept over gammas [1, 10]."""
    gains = np.full((3, 3), 1e10)
    gains[2, :] = gains[:, 2] = 1.0
    doc = _doc(1e300, [(1e300, 1e300)], 1e300, gains)
    doc["sweep"] = {"gammas": [1, 10]}
    return "lone-floor-overflow-T3", doc


def argparse_runs(config: str) -> list[list[str]]:
    """Command lines that argparse answers itself: help, a missing or
    unknown command, an unknown flag on each command, a missing
    ``--config``, a bad ``--mode`` choice, a non-integer ``--top-k`` and
    ``cfrate --tol``, which trees before the descent's fixed-point stop
    run. ``config`` is the path of a valid config."""
    commands = ("bound", "cfrate", "sweep", "verify")
    return [
        ["--help"],
        *([command, "--help"] for command in commands),
        [],
        ["frobnicate"],
        *([command, "--config", config, "--bogus"] for command in commands),
        ["cfrate"],
        ["cfrate", "--config", config, "--mode", "fast"],
        ["cfrate", "--config", config, "--top-k", "many"],
        ["cfrate", "--config", config, "--tol", "1e-6"],
    ]


def runs(config_dir: str) -> list[tuple[str, list[str]]]:
    """Write the corpus into config_dir; return (run name, argv) pairs."""
    out = []
    plans = [(entry, NETWORK_COMMANDS) for entry in corpus()]
    plans += [(entry, PLAIN_COMMANDS) for entry in config_errors()]
    plans += [(entry, SWEEP_COMMANDS) for entry in huge_gamma_sweeps()]
    plans.append((overflow_sweep(), SWEEP_COMMANDS))
    plans += [(entry, HUGE_NOISE_COMMANDS) for entry in huge_noise()]
    plans += [(entry, PLAIN_COMMANDS) for entry in extreme_snr()]
    plans += [(entry, PLAIN_COMMANDS) for entry in search_exits()]
    plans += [(entry, TOP_K_COMMANDS) for entry in weak_relays()]
    plans.append((wide_network(), WIDE_COMMANDS))
    plans += [(entry, UNIFORM_TOP_K_COMMANDS) for entry in tie_break_networks()]
    plans.append((wide_sweep(), SWEEP_COMMANDS))
    plans.append((retired_tol(), CF_COMMANDS))
    plans.append((near_tie(), TOP_K_COMMANDS))
    plans.append((floor_overflow(), PLAIN_COMMANDS))
    plans.append((lone_floor_overflow(), LONE_FLOOR_COMMANDS))
    precedence = error_precedence()
    guarded = {name for (name, _), _ in precedence}
    for (name, doc), commands in plans + precedence:
        path = os.path.join(config_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        big = len(doc["nodes"]) > 10 and name not in guarded
        for command in commands:
            argv = command + ["--config", path] + (["--override-guard"] if big else [])
            out.append((f"{name}: {' '.join(command)}", argv))
    out.append(("verify", ["verify"]))
    verify_docs = [("seed", seed) for seed in (1, 2, 5, 12345, 3 * 1234567, 3 * 1234568)]
    verify_docs += [(key, n) for key in ("network_samples", "det_samples") for n in (1, 7)]
    verify_docs += [("network_samples", 250), ("det_samples", 2000)]
    verify_docs += [
        ("alpha_offsets", grid) for grid in ([-1, 0, 1], [0], [-0.8, -0.2, 0, 0.2, 0.6])
    ]
    verify_docs += [
        ("beta_grid", grid)
        for grid in ([-0.5, 0, 0.5], [0], [-1e6, 0], [0, 1e8], [0, 1e200])
    ]
    for i, (key, value) in enumerate(verify_docs):
        path = os.path.join(config_dir, f"verify-{i}-{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"verify": {key: value}}, fh)
        out.append((f"verify {key} {value}", ["verify", "--config", path]))
    readme = os.path.join(config_dir, "readme.json")
    for argv in argparse_runs(readme):
        words = " ".join("CONFIG" if word == readme else word for word in argv)
        out.append((f"argparse: {words or '(no argument)'}", argv))
    return out


def run_tree(tree: str, argvs: list[list[str]], cwd: str) -> list[list]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"worker for {tree} failed:\n{proc.stderr}")
    # A warning names the file and line that raised it; mask the tree's
    # own path, then the line number.
    root = os.path.abspath(tree)

    def masked(text: str) -> str:
        return SOURCE_LINE.sub(".py:<line>:", text.replace(root, "<tree>"))

    return [[code, masked(out), masked(err)] for code, out, err in json.loads(proc.stdout)]


def _column(line: str, start: int, previous: list[str]) -> str:
    """Name of the number starting at ``start``: the text before it with
    numbers and node sets removed, or, in a table row, its header."""
    label = " ".join(NUMBER.sub("", LABEL_NOISE.sub("", line[:start])).split()).strip(" ,")
    if label:
        return label
    header = next((p for p in reversed(previous) if not re.search(r"\d", p)), "")
    if "," in line and "," in header:
        return header.split(",")[line[:start].count(",")]
    return header.split()[-1] if header.split() else "(unlabelled)"


def first_difference(old_text, new_text):
    """The first line pair at which two texts differ, a missing line read
    as ``(no line)``; None if their lines are equal."""
    pairs = zip_longest(old_text.splitlines(), new_text.splitlines(), fillvalue="(no line)")
    return next(((a, b) for a, b in pairs if a != b), None)


def compare_lines(name, command, old_text, new_text, deltas):
    """Record moved numbers into ``deltas``; return (moved line count,
    every line pair that differs other than in its numbers). Texts of
    different lengths give their line counts and first differing pair."""
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if len(old_lines) != len(new_lines):
        counts = (f"{len(old_lines)} lines", f"{len(new_lines)} lines")
        return 0, [counts, first_difference(old_text, new_text)]
    moved, other = 0, []
    for k, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a == b:
            continue
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            other.append((a, b))
            continue
        moved += 1
        for ma, mb in zip(NUMBER.finditer(a), NUMBER.finditer(b)):
            if ma.group() != mb.group():
                x, y = float(ma.group()), float(mb.group())
                delta = abs(x - y)
                entry = deltas[(command, _column(a, ma.start(), old_lines[:k]))]
                if delta > entry[0]:
                    entry[0], entry[3] = delta, name
                if delta > 0.0:
                    entry[1] = max(entry[1], delta / max(abs(x), abs(y)))
                entry[2] += 1
                entry[4] += y > x
                entry[5] += y < x
    return moved, other


def _shown(pairs, indent):
    return "".join(f"\n{indent}- {a}\n{indent}+ {b}" for a, b in pairs)


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = sys.argv[1:]
    with tempfile.TemporaryDirectory() as config_dir:
        plan = runs(config_dir)
        argvs = [argv for _, argv in plan]
        old = run_tree(parent, argvs, config_dir)
        new = run_tree(change, argvs, config_dir)

    identical = moved_lines = moved_runs = 0
    total_lines = sum(len((out + err).splitlines()) for _, out, err in old)
    deltas = defaultdict(lambda: [0.0, 0.0, 0, "", 0, 0])
    code_changes, other, other_pairs = [], [], 0
    for (name, argv), (c0, out0, err0), (c1, out1, err1) in zip(plan, old, new):
        if (c0, out0, err0) == (c1, out1, err1):
            identical += 1
            continue
        streams = (("stdout", out0, out1), ("stderr", err0, err1))
        if c0 != c1:
            firsts = ((stream, first_difference(a, b)) for stream, a, b in streams)
            shown = "".join(
                f"\n    {stream}:{_shown([diff], '      ')}" for stream, diff in firsts if diff
            )
            code_changes.append(f"  {name}: {c0} -> {c1}{shown}")
            continue
        moved = 0
        for stream, a, b in streams:
            n, diffs = compare_lines(name, argv[0], a, b, deltas)
            moved += n
            if diffs:
                other.append(f"  {name} ({stream}):{_shown(diffs, '    ')}")
                other_pairs += len(diffs)
        moved_lines += moved
        moved_runs += moved > 0

    print(f"runs: {len(plan)}, identical: {identical}")
    print(f"moved lines: {moved_lines} of {total_lines} in {moved_runs} runs")
    print(
        "largest |delta| per command and column "
        "(abs, rel, numbers moved, up, down, run of abs):"
    )
    for (command, column), (d_abs, d_rel, count, where, up, down) in sorted(deltas.items()):
        print(
            f"  {command:7s} {column:18s} {d_abs:.3e}  {d_rel:.3e}  {count:4d}"
            f"  {up:4d}  {down:4d}  {where}"
        )
    print(f"exit-code changes: {len(code_changes)}")
    print("\n".join(code_changes) if code_changes else "  (none)")
    print(f"other differences: {other_pairs} line pairs in {len(other)} outputs")
    print("\n".join(other) if other else "  (none)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
