"""Config fuzz through the CLI's front door, one malformed field at a time.

Each case takes a small valid base config, replaces one key or array
element with one value from a fixed list (or deletes one key), and runs
the result through ``cli.main`` with every command that reads that field.
No exception and no warning may escape, and the exit code must be one the
CLI documents for a config it could not run. The value list is fixed, so
the fuzz is deterministic.
"""

import copy
import functools
import json
import math
import warnings

import pytest

from relaycap import cli, selftest

_VALUES = (None, True, "x", [], {}, [1], {"a": 1}, -1, 0, 0.5, math.inf, -math.inf, math.nan)
_DELETE = object()

_GAINS_BASE = {
    "nodes": [
        {"id": 1, "role": "source", "power": 1.0},
        {"id": 2, "role": "relay", "power_db": 20, "noise": 1.0},
        {"id": 3, "role": "destination", "noise_db": 0},
    ],
    "gains": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    "cf": {"quantifier": "forall", "mode": "coordinate", "top_k": 5},
    "sweep": {"gammas": [1, 10]},
    "verify": {
        "alpha_offsets": [-1, 0, 1],
        "beta_grid": [0, 0.5],
        "det_samples": 2,
        "network_samples": 1,
        "seed": 3,
    },
}

_GEOMETRY_BASE = {
    "nodes": [
        {"id": 1, "role": "source", "power": 1.0, "position": [0, 0]},
        {"id": 2, "role": "relay", "power": 100, "noise": 1.0, "position": [1, 1]},
        {"id": 3, "role": "destination", "noise": 1.0, "position": [2, 0]},
    ],
    "path_loss": {"kappa": 1.0, "eta": 2.0},
}

_NETWORK_COMMANDS = ("bound", "cfrate", "sweep")
#: (base, section, the commands that read it)
_CASES = [
    ("gains", "nodes", _NETWORK_COMMANDS),
    ("gains", "gains", _NETWORK_COMMANDS),
    ("gains", "cf", ("cfrate", "sweep")),
    ("gains", "sweep", ("sweep",)),
    ("gains", "verify", ("verify",)),
    ("geometry", "nodes", _NETWORK_COMMANDS),
    ("geometry", "path_loss", _NETWORK_COMMANDS),
]
_BASES = {"gains": _GAINS_BASE, "geometry": _GEOMETRY_BASE}


def _paths(node, path):
    """Every key and array element below ``node``, as key paths."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutants(base, section):
    """(path, value, document) for each one-field change to ``section``."""
    for path in [(section,), *_paths(base[section], (section,))]:
        deletable = isinstance(path[-1], str)
        for value in _VALUES + ((_DELETE,) if deletable else ()):
            doc = copy.deepcopy(base)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, doc


def _run(argv):
    """Exit code of one CLI run, or the exception (a warning counts) that
    escaped it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return cli.main(argv)
        except Exception as exc:  # any escape is the finding
            return exc


@pytest.mark.parametrize("base, section, commands", _CASES)
def test_malformed_field_exits_cleanly(tmp_path, capsys, monkeypatch, base, section, commands):
    # A verify mutant that drops a setting falls back to the suites'
    # default sizes. Sizes are not config input, so shrink them to the base
    # config's: the fallback path still runs, at the base config's cost.
    monkeypatch.setattr(selftest, "DEFAULT_OFFSETS", (-1.0, 0.0, 1.0))
    monkeypatch.setattr(
        selftest, "run_all", functools.partial(selftest.run_all, det_samples=2, net_samples=1)
    )
    cfg, out = tmp_path / "fuzz.json", str(tmp_path / "out.txt")
    problems = []
    for path, value, doc in _mutants(_BASES[base], section):
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        for command in commands:
            allowed = (0, 2) if command == "verify" else (0, 2, 3, 4)
            result = _run([command, "--config", str(cfg), "--out", out])
            if result not in allowed:
                shown = "deleted" if value is _DELETE else json.dumps(value)
                problems.append(f"{command} {'.'.join(map(str, path))}={shown}: {result!r}")
        capsys.readouterr()
    assert problems == []
