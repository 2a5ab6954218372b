"""Correctness checks for one benchmark op, independent of its timing.

The closed forms below are recomputed from the config the op was given, in
plain floating point, so a wrong number printed by the program cannot agree
with them by sharing its code. Only the frontier check calls the library
(``cf_feasible``), because feasibility has no closed form.

Every check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import math
import re

#: Agreement required between a printed rate and its closed form, in bits.
TOL_BITS = 1e-9

#: Relative shrink of Q* that must leave the feasible region.
FRONTIER_SHRINK = 1e-6

SWEEP_HEADER = "gamma,upper_bound_bits,cf_rate_bits,gap_bits,q_uniform,feasible"

_NUM = r"([-+0-9.eE]+|nan|inf|-inf)"
_CFRATE = {
    "bound": re.compile(rf"^upper bound:\s+{_NUM} bits$", re.M),
    "rate": re.compile(rf"^cf rate:\s+{_NUM} bits$", re.M),
    "gap": re.compile(rf"^gap:\s+{_NUM} bits$", re.M),
}
_ELAPSED = re.compile(r"\(\d+\.\d+s\)$", re.M)
_HEAD = re.compile(r"^quantifier: (\w+)\s+mode: (\w+)$", re.M)
_Q = re.compile(rf"^  relay (\d+): Q = {_NUM}$", re.M)


def _nodes(doc: dict) -> tuple[float, list[float], list[float]]:
    """Source power, source gains to nodes 2..T, noises of nodes 2..T."""
    nodes = doc["nodes"]
    lam = [doc["gains"][0][j] for j in range(1, len(nodes))]
    noise = [n["noise"] for n in nodes[1:]]
    return nodes[0]["power"], lam, noise


def bound_bits(doc: dict) -> float:
    """Broadcast cut-set bound 1/2 log2(1 + P1 sum_j lambda_1j / N_j)."""
    p1, lam, noise = _nodes(doc)
    return 0.5 * math.log2(1.0 + p1 * sum(l / n for l, n in zip(lam, noise)))


def rate_bits(doc: dict, q: dict[int, float]) -> float:
    """Compress-forward rate for quantization noises ``q`` (relay id -> Q):
    the destination and the quantized relay observations decode the source,
    1/2 log2(1 + P1 (sum_relays lambda_1j/(N_j + Q_j) + lambda_1T/N_T))."""
    p1, lam, noise = _nodes(doc)
    t = len(lam) + 1
    snr = lam[-1] / noise[-1]
    for j in range(2, t):
        snr += lam[j - 2] / (noise[j - 2] + q[j])
    return 0.5 * math.log2(1.0 + p1 * snr)


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def parse_cfrate(text: str) -> dict:
    """Fields of ``cfrate`` output; raises ValueError when one is missing."""
    got: dict = {}
    for key, pattern in _CFRATE.items():
        m = pattern.search(text)
        if m is None:
            raise ValueError(f"cfrate output has no {key} line")
        got[key] = float(m.group(1))
    head = _HEAD.search(text)
    if head is None:
        raise ValueError("cfrate output has no quantifier line")
    got["quantifier"], got["mode"] = head.groups()
    got["q"] = {int(i): float(v) for i, v in _Q.findall(text)}
    return got


def parse_sweep(text: str) -> list[dict]:
    """Rows of ``sweep`` CSV output; raises ValueError on a malformed row."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError("sweep output lacks the CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6 or cells[5] not in ("true", "false"):
            raise ValueError(f"malformed sweep row {line!r}")
        gamma, bound, rate, gap, q = (float(c) for c in cells[:5])
        rows.append(
            {"gamma": gamma, "bound": bound, "rate": rate, "gap": gap, "q": q,
             "feasible": cells[5] == "true"}
        )
    return rows


def comparable(command: str, out: str) -> str:
    """Output as compared between two runs of one op. ``verify`` prints
    each suite's elapsed seconds, which differ run to run; they are masked,
    and every other byte must match."""
    return _ELAPSED.sub("(elapsed)", out) if command == "verify" else out


def _rate_problems(doc: dict, where: str, bound: float, rate: float, gap: float,
                   q: dict[int, float]) -> list[str]:
    problems = []
    want_bound = bound_bits(doc)
    if not abs(bound - want_bound) <= TOL_BITS:
        problems.append(f"{where}: bound {bound!r} != closed form {want_bound!r}")
    relays = list(range(2, len(doc["nodes"])))
    if sorted(q) != relays:
        return problems + [f"{where}: Q covers relays {sorted(q)}, network has {relays}"]
    want_rate = rate_bits(doc, q)
    if not abs(rate - want_rate) <= TOL_BITS:
        problems.append(f"{where}: rate {rate!r} != {want_rate!r} recomputed from Q")
    if not gap >= 0.0:
        problems.append(f"{where}: negative gap {gap!r}")
    if not abs(gap - (bound - rate)) <= TOL_BITS:
        problems.append(f"{where}: gap {gap!r} != bound - rate {bound - rate!r}")
    return problems


def check_output(command: str, argv: list[str], doc: dict, code: object, out: str,
                 expected_code: int = 0) -> list[str]:
    """Problems with one op's exit code and printed output."""
    if code != expected_code:
        return [f"exit code {code!r}, expected {expected_code}"]
    try:
        if command == "cfrate":
            got = parse_cfrate(out)
            want_q = _flag(argv, "--quantifier", "forall")
            problems = [] if got["quantifier"] == want_q else [
                f"quantifier {got['quantifier']!r}, asked for {want_q!r}"]
            return problems + _rate_problems(
                doc, "cfrate", got["bound"], got["rate"], got["gap"], got["q"])
        if command == "sweep":
            return _sweep_problems(doc, parse_sweep(out))
        if command == "verify":
            lines = out.splitlines()
            if not lines or lines[-1] != "5/5 suites passed":
                return [f"verify did not pass all suites: {lines[-1:]!r}"]
            return []
    except ValueError as exc:
        return [str(exc)]
    return [f"no oracle for command {command!r}"]


def _sweep_problems(doc: dict, rows: list[dict]) -> list[str]:
    gammas = [float(g) for g in doc["sweep"]["gammas"]]
    if [r["gamma"] for r in rows] != [float(format(g, ".12g")) for g in gammas]:
        return [f"sweep rows {[r['gamma'] for r in rows]} do not match gammas {gammas}"]
    problems = []
    if len({r["bound"] for r in rows}) != 1:
        problems.append("sweep bound column is not constant")
    relays = range(2, len(doc["nodes"]))
    for r in rows:
        where = f"sweep gamma={r['gamma']:g}"
        if not r["feasible"]:
            problems.append(f"{where}: row infeasible")
            continue
        problems += _rate_problems(doc, where, r["bound"], r["rate"], r["gap"],
                                   {j: r["q"] for j in relays})
    for a, b in zip(rows, rows[1:]):
        if b["rate"] < a["rate"] - TOL_BITS:
            problems.append(
                f"sweep rate falls from {a['rate']!r} at gamma={a['gamma']:g} "
                f"to {b['rate']!r} at gamma={b['gamma']:g}"
            )
    return problems


def frontier_problems(command: str, argv: list[str], doc: dict, out: str,
                      row: int = 0) -> list[str]:
    """Q* printed by the op lies on the feasibility frontier: feasible with
    margin >= -TOL_BITS, and infeasible once shrunk by FRONTIER_SHRINK.

    For a sweep op the check runs on sweep row ``row`` (modulo the row
    count), on the network with relay powers scaled by that row's gamma.
    """
    from relaycap.bounds import QuantizationVector, cf_feasible
    from relaycap.cli import network_from_config
    from relaycap.topology import scaled

    net = network_from_config(doc)
    quantifier = _flag(argv, "--quantifier", "forall")
    if command == "cfrate":
        q = QuantizationVector.per_relay(parse_cfrate(out)["q"])
    elif command == "sweep":
        rows = parse_sweep(out)
        picked = rows[row % len(rows)]
        net = scaled(net, float(doc["sweep"]["gammas"][row % len(rows)]))
        q = QuantizationVector.uniform(picked["q"], net.relay_ids)
    else:
        return []
    problems = []
    _, margins = cf_feasible(net, q, quantifier, override_guard=True)
    worst = min(m.margin_log2 for m in margins)
    if not worst >= -TOL_BITS:
        problems.append(f"Q* is infeasible: margin {worst!r}")
    shrunk_ok, _ = cf_feasible(net, q.scaled_by(1.0 - FRONTIER_SHRINK), quantifier,
                               override_guard=True)
    if shrunk_ok:
        problems.append(f"Q* shrunk by {FRONTIER_SHRINK:g} is still feasible: not on the frontier")
    return problems
