"""Command-line front end: config ingestion, dispatch, CSV emission.

Commands: ``bound`` (cut table and min-cut report), ``cfrate`` (optimized
compress-forward rate with binding constraints), ``sweep`` (relay-power
convergence CSV), ``verify`` (built-in verification suites).

The config is one JSON document::

    {
      "nodes": [
        {"id": 1, "role": "source", "power": 1.0, "position": [0.0, 0.0]},
        {"id": 2, "role": "relay", "power_db": 30, "noise": 1.0},
        {"id": 3, "role": "destination", "noise_db": 0}
      ],
      "gains": [[0,1,1],[1,0,1],[1,1,0]],
      "sweep": {"gammas": [1, 10, 100]},
      "cf": {"quantifier": "forall", "mode": "uniform", "top_k": 5},
      "verify": {"det_samples": 500, "network_samples": 100}
    }

``gains`` and ``path_loss`` are mutually exclusive: give the matrix
directly, or give per-node positions plus the path-loss law. Powers and
noises may be linear (``power``) or dB (``power_db``, converted as
10^(db/10)); exactly one of the pair. Every number may be a JSON number
or a numeric string, never a boolean: ``true`` is a config error naming
its field, not the number 1. Command-line flags override the ``cf``
section.

Exit codes: 0 success, 1 verification failure, 2 config error or a
network whose SNR is past double precision (a cut that cannot be
factored, or a receiver whose source-plus-noise floor overflows), 3 size
guard, 4 no feasible quantization. All numbers print with 12 significant
digits, so identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bounds import (
    _OPT_MODES,
    _QUANTIFIERS,
    _cut_rates,
    _min_cut,
    build_rate_report,
    convergence_sweep,
)
from .enumeration import subsets
from .errors import (
    ConfigError,
    DimensionMismatch,
    GuardExceeded,
    Infeasible,
    InvalidScale,
    NotPositiveDefinite,
    VerificationFailure,
)
from .topology import (
    NetworkSpec,
    NodeSpec,
    PathLossParams,
    from_gains,
    from_geometry,
)

_NODE_KEYS = {"id", "role", "position", "power", "power_db", "noise", "noise_db"}


def _fmt(x: float) -> str:
    return format(x, ".12g")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # e.g. an integer past the int-string digit limit
        raise ConfigError(f"config {path} cannot be read: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _number(value: object, where: str) -> float:
    """A config number as a float. A numeric string reads as its number;
    a JSON boolean is not a number."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number: {exc}") from exc


def _linear_field(entry: dict, base: str, node_id: object) -> float | None:
    lin, db = entry.get(base), entry.get(f"{base}_db")
    if lin is not None and db is not None:
        raise ConfigError(f"node {node_id}: give {base} or {base}_db, not both")
    if db is None:
        return None if lin is None else _number(lin, f"node {node_id}: {base}")
    db = _number(db, f"node {node_id}: {base}_db")
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError as exc:
        raise ConfigError(f"node {node_id}: bad {base}_db: {exc}") from exc


def _node_from_entry(entry: object, index: int) -> NodeSpec:
    """One node from its config entry. Roles, ids, and which of power and
    noise a role needs are checked by NodeSpec and ``topology.validate``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"nodes[{index}] must be an object")
    unknown = set(entry) - _NODE_KEYS
    if unknown:
        raise ConfigError(f"nodes[{index}] has unknown keys {sorted(unknown)}")
    node_id = entry.get("id")
    position = entry.get("position")
    if position is not None:
        if not (isinstance(position, (list, tuple)) and len(position) == 2):
            raise ConfigError(f"node {node_id}: position must be [x, y]")
        position = [_number(c, f"node {node_id}: position") for c in position]
    power = _linear_field(entry, "power", node_id)
    noise = _linear_field(entry, "noise", node_id)
    try:
        return NodeSpec(
            id=node_id, role=entry.get("role"), position=position, power=power, noise=noise
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"node {node_id}: {exc}") from exc


def network_from_config(doc: dict) -> NetworkSpec:
    nodes_doc = doc.get("nodes")
    if not isinstance(nodes_doc, list) or not nodes_doc:
        raise ConfigError("config needs a nonempty 'nodes' array")
    nodes = [_node_from_entry(e, i) for i, e in enumerate(nodes_doc)]
    has_gains = "gains" in doc
    has_pl = "path_loss" in doc
    if has_gains == has_pl:
        raise ConfigError("give exactly one of 'gains' or 'path_loss'")
    if has_gains:
        rows = doc["gains"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ConfigError("'gains' must be an array of rows")
        try:
            gains = np.array(
                [[_number(g, f"gains[{i}][{j}]") for j, g in enumerate(row)]
                 for i, row in enumerate(rows)]
            )
        except ValueError as exc:
            raise ConfigError(f"'gains' must be a numeric matrix: {exc}") from exc
        try:
            net = from_gains(nodes, gains)
        except DimensionMismatch as exc:
            raise ConfigError(str(exc)) from exc
    else:
        pl = doc["path_loss"]
        if not isinstance(pl, dict) or not {"kappa", "eta"} <= set(pl):
            raise ConfigError("'path_loss' must be an object with kappa and eta")
        kappa, eta = (_number(pl[key], f"path_loss.{key}") for key in ("kappa", "eta"))
        try:
            params = PathLossParams(kappa=kappa, eta=eta)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad path_loss: {exc}") from exc
        try:
            net = from_geometry(nodes, params)
        except (ValueError, DimensionMismatch) as exc:
            raise ConfigError(str(exc)) from exc
    # The library's read validates the network once and caches its arrays;
    # its ValueError lists every problem.
    try:
        net._arrays
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return net


def _cf_settings(doc: dict, args: argparse.Namespace) -> tuple[str, str, int]:
    cf = doc.get("cf", {})
    if not isinstance(cf, dict):
        raise ConfigError("'cf' must be an object")
    quantifier = args.quantifier or cf.get("quantifier", "forall")
    if quantifier not in _QUANTIFIERS:
        raise ConfigError(
            f"quantifier must be {' or '.join(_QUANTIFIERS)}, got {quantifier!r}"
        )
    # sweep has no --mode flag; it still validates cf.mode. A cf key that
    # no command reads is ignored.
    mode = getattr(args, "mode", None) or cf.get("mode", "uniform")
    if mode not in _OPT_MODES:
        raise ConfigError(f"mode must be {' or '.join(_OPT_MODES)}, got {mode!r}")
    top_k = getattr(args, "top_k", None)
    if top_k is None:
        top_k = cf.get("top_k", 5)
    if isinstance(top_k, bool) or not isinstance(top_k, int):
        raise ConfigError(f"top_k must be an integer, got {top_k!r}")
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    return quantifier, mode, top_k


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


def _cut_label(ids: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def cmd_bound(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    net = network_from_config(doc)
    rates = _cut_rates(net, args.override_guard)
    best_val, best_cut = _min_cut(net, rates)
    labels = [_cut_label((1,) + extra) for extra in subsets(net.relay_ids)]
    width = max(map(len, labels))
    lines = [
        f"nodes: {net.num_nodes} (relays {_cut_label(net.relay_ids)})",
        f"source-cut bound: {_fmt(float(rates[0]))} bits",
        f"min cut: {_cut_label(best_cut.sorted_ids())} at {_fmt(best_val)} bits",
        "",
        "per-cut rates (independent Gaussian inputs; the source cut is the",
        "binding upper bound, other cuts are input-law estimates):",
        f"  {'tx_side'.ljust(width)}  rate_bits",
    ]
    lines += [f"  {label.ljust(width)}  {_fmt(val)}" for label, val in zip(labels, rates.tolist())]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_cfrate(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    net = network_from_config(doc)
    quantifier, mode, top_k = _cf_settings(doc, args)
    report = build_rate_report(
        net,
        mode=mode,
        quantifier=quantifier,
        top_k=top_k,
        override_guard=args.override_guard,
    )
    lines = [
        f"quantifier: {report.quantifier}   mode: {mode}",
        f"upper bound:   {_fmt(report.upper_bound_bits)} bits",
        f"cf rate:       {_fmt(report.cf_rate_bits)} bits",
        f"gap:           {_fmt(report.gap_bits)} bits",
        f"min cut:       {_cut_label(report.min_cut.sorted_ids())} at "
        f"{_fmt(report.min_cut_bits)} bits",
        "",
        "optimal quantization noise:",
    ]
    for rid, val in report.q_star.entries:
        lines.append(f"  relay {rid}: Q = {_fmt(val)}")
    if not report.q_star.entries:
        lines.append("  (no relays)")
    lines.append("")
    lines.append(f"tightest constraints (top {len(report.binding_constraints)}):")
    for cm in report.binding_constraints:
        inst = cm.instance
        blocks = "+".join(_cut_label(b) for b in inst.partition)
        recv = ",".join(str(r) for r in inst.assignment)
        lines.append(
            f"  S={_cut_label(inst.s)} blocks {blocks} -> receivers ({recv})"
            f"  margin_log2 {_fmt(cm.margin_log2)}"
        )
    if not report.q_star.entries:
        lines.append("  (none: no relay subsets)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    net = network_from_config(doc)
    quantifier, _, _ = _cf_settings(doc, args)
    sweep_doc = doc.get("sweep")
    if not isinstance(sweep_doc, dict) or "gammas" not in sweep_doc:
        raise ConfigError("config needs a 'sweep' object with a 'gammas' array")
    raw = sweep_doc["gammas"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'sweep.gammas' must be a nonempty array")
    gammas = [_number(g, f"sweep.gammas[{i}]") for i, g in enumerate(raw)]
    try:
        rows = convergence_sweep(net, gammas, quantifier, override_guard=args.override_guard)
    except InvalidScale as exc:
        raise ConfigError(str(exc)) from exc
    out = ["gamma,upper_bound_bits,cf_rate_bits,gap_bits,q_uniform,feasible"]
    for r in rows:
        out.append(
            ",".join(
                (
                    _fmt(r.gamma),
                    _fmt(r.upper_bound_bits),
                    _fmt(r.cf_rate_bits),
                    _fmt(r.gap_bits),
                    _fmt(r.q_uniform),
                    "true" if r.feasible else "false",
                )
            )
        )
    _emit("\n".join(out) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Only verify needs the suites; the other commands never import them.
    from . import selftest

    overrides: dict = {}
    if args.config:
        doc = load_config(args.config)
        vdoc = doc.get("verify", {})
        if not isinstance(vdoc, dict):
            raise ConfigError("'verify' must be an object")
        if "alpha_offsets" in vdoc:
            offsets = _grid(vdoc["alpha_offsets"], "verify.alpha_offsets")
            # Offsets scale the power-feasible alpha interval, and the suite
            # checks that the best alpha is 0, so 0 must be on the grid.
            if 0.0 not in offsets or any(abs(o) > 1.0 for o in offsets):
                raise ConfigError(
                    f"verify.alpha_offsets must lie in [-1, 1] and include 0, got {offsets}"
                )
            overrides["alpha_offsets"] = offsets
        if "beta_grid" in vdoc:
            overrides["beta_grid"] = _grid(vdoc["beta_grid"], "verify.beta_grid")
        if "det_samples" in vdoc:
            overrides["det_samples"] = _count(vdoc["det_samples"], "verify.det_samples")
        if "network_samples" in vdoc:
            overrides["net_samples"] = _count(vdoc["network_samples"], "verify.network_samples")
        if "seed" in vdoc:
            overrides["seed"] = _count(vdoc["seed"], "verify.seed", minimum=0)
    results = selftest.run_all(**overrides)
    name_w = max(len(r.name) for r in results)
    lines = []
    for r in results:
        word = "PASS" if r.passed else "FAIL"
        lines.append(f"{word}  {r.name.ljust(name_w)}  {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} suites passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 1


def _grid(value: object, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty array of numbers")
    grid = tuple(_number(v, where) for v in value)
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"{where} must be finite, got {grid}")
    return grid


def _count(value: object, where: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


#: Each subcommand by name: its help summary and options. Its handler is
#: ``cmd_<name>``, looked up when a parser is built, so that a handler
#: wrapped after import (a tracer's span) is the one that runs.
_COMMANDS = {
    "bound": ("cut rates and the min-cut upper bound", ("--override-guard",)),
    "cfrate": ("optimize quantization and report the achievable rate",
               ("--quantifier", "--mode", "--override-guard", "--top-k")),
    "sweep": ("relay-power convergence CSV", ("--quantifier", "--override-guard")),
    "verify": ("run the built-in verification suites", ()),
}


def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser with the subcommands ``names``. A parser with one names
    all four in its usage line, as the full parser's default does; the
    full parser keeps that default, since a metavar would also rename the
    argument ``command`` in its missing-command and unknown-command
    errors."""
    parser = argparse.ArgumentParser(
        prog="relaycap",
        description=(
            "Cut-set capacity bounds and compress-forward achievable rates "
            "for Gaussian single-source relay networks"
        ),
    )
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    options = {
        "--quantifier": dict(
            choices=_QUANTIFIERS, default=None,
            help="constraint family quantifier (default from config, else forall)",
        ),
        "--mode": dict(choices=_OPT_MODES, default=None,
                       help="quantization optimizer (default from config, else uniform)"),
        "--top-k": dict(type=int, default=None, dest="top_k",
                        help="how many binding constraints to list (default 5)"),
        "--override-guard": dict(action="store_true",
                                 help="allow networks larger than the size guard"),
    }
    for name in names:
        summary, flags = _COMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", required=name != "verify", help="JSON config path")
        sp.add_argument("--out", default=None, help="write output to this file instead of stdout")
        for flag in flags:
            sp.add_argument(flag, **options[flag])
        sp.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named command's parser is built; -h, no argument or an
    # unknown word get all four.
    named = tuple(argv[:1]) if argv[:1] and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = _parser(named).parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotPositiveDefinite as exc:
        print(
            f"numerical error: {exc}; the network's SNR is past double precision",
            file=sys.stderr,
        )
        return 2
    except GuardExceeded as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
