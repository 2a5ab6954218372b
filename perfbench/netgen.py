"""Seeded inputs for the benchmark workloads.

Each workload is one `relaycap` command line run over and over on fresh
inputs. Op i's input comes from (seed, workload, i) alone, so the same seed
gives the same configs on any machine, and no input repeats within a run:
a fresh CLI process never benefits from an in-process cache, so the
benchmark must not let one win either.

Networks follow the library's own random-network law (log-uniform gains in
[0.1, 10], symmetrised; relay powers log-uniform in [10, 1e4]; source power
and noises log-uniform in 10^+-0.5), drawn here with the standard library so
the benchmark does not depend on the code it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Relay power multipliers of the sweep workload: 10^(k/2), k = 0..12.
GAMMAS = tuple(10.0 ** (k / 2.0) for k in range(13))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # relaycap subcommand
    nodes: int  # network size T; 0 for verify
    flags: tuple[str, ...]
    quantifiers: tuple[str, ...] = ()  # op i uses quantifiers[i % len]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "descent-t8",
            "coordinate descent at T=8: feasibility queries against a small table",
            "cfrate",
            8,
            ("--mode", "coordinate"),
            ("forall",),
        ),
        Workload(
            "wide-t11",
            "uniform search at T=11 past the guard: two 115,974-partition table builds per op",
            "cfrate",
            11,
            ("--mode", "uniform", "--override-guard"),
            ("forall", "exists"),
        ),
        Workload(
            "sweep-t9",
            "13-gamma sweep at T=9: the only workload whose work repeats across rows",
            "sweep",
            9,
            (),
        ),
        Workload(
            "verify-default",
            "the verify suites: Gaussian algebra plus ~200 tiny networks",
            "verify",
            0,
            (),
        ),
    )
}


def random_network(rng: random.Random, num_nodes: int) -> dict:
    """A valid network config document with ``num_nodes`` nodes."""
    t = num_nodes
    nodes = [{"id": 1, "role": "source", "power": 10.0 ** rng.uniform(-0.5, 0.5)}]
    for j in range(2, t):
        nodes.append(
            {
                "id": j,
                "role": "relay",
                "power": 10.0 ** rng.uniform(1.0, 4.0),
                "noise": 10.0 ** rng.uniform(-0.5, 0.5),
            }
        )
    nodes.append({"id": t, "role": "destination", "noise": 10.0 ** rng.uniform(-0.5, 0.5)})
    raw = [[10.0 ** rng.uniform(-1.0, 1.0) for _ in range(t)] for _ in range(t)]
    gains = [
        [0.0 if a == b else 0.5 * (raw[a][b] + raw[b][a]) for b in range(t)] for a in range(t)
    ]
    return {"nodes": nodes, "gains": gains}


def op_config(workload: Workload, seed: int, index: int) -> tuple[dict, tuple[str, ...]]:
    """Config document and extra CLI flags for op ``index`` of a run."""
    if workload.command == "verify":
        # verify offsets its three seeded suites by seed, seed+1 and seed+2
        # (see selftest.run_all); a stride of 3 keeps every suite's draws
        # distinct across the ops of a run.
        base = random.Random(f"{seed}/{workload.name}").randrange(1 << 24)
        return {"verify": {"seed": 3 * (base + index)}}, ()
    rng = random.Random(f"{seed}/{workload.name}/{index}")
    doc = random_network(rng, workload.nodes)
    flags = workload.flags
    if workload.quantifiers:
        flags += ("--quantifier", workload.quantifiers[index % len(workload.quantifiers)])
    if workload.command == "sweep":
        doc["sweep"] = {"gammas": list(GAMMAS)}
    return doc, flags


def warmup_config(seed: int) -> tuple[dict, tuple[str, ...]]:
    """A small cfrate op, distinct from every timed op, that loads what the
    first real op would otherwise load lazily."""
    return random_network(random.Random(f"{seed}/warmup"), 4), ("--mode", "coordinate")


def write_ops(workload: Workload, seed: int, count: int, directory: Path) -> list[dict]:
    """Write ``count`` op configs plus the warm-up config as JSON files.

    Returns the op list ``[{"index", "config", "argv"}]``; op -1 is the
    warm-up. Raises ValueError if two ops of the run would share an input.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    seen: set[str] = set()
    items = [(-1, "cfrate", *warmup_config(seed))]
    items += [(i, workload.command, *op_config(workload, seed, i)) for i in range(count)]
    for index, command, doc, flags in items:
        text = json.dumps(doc)
        if text in seen:
            raise ValueError(f"{workload.name} seed {seed}: op {index} repeats an earlier input")
        seen.add(text)
        path = directory / f"op{index:05d}.json" if index >= 0 else directory / "warmup.json"
        path.write_text(text, encoding="utf-8")
        ops.append(
            {
                "index": index,
                "config": str(path),
                "argv": [command, "--config", str(path), *flags],
            }
        )
    return ops
