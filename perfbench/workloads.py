"""Seeded inputs for the three workloads.

Every scenario seed, topology seed and adversary choice is drawn from
:func:`stream_seed`, a SHA-256 of the workload seed and the item's
position, so the same ``--seed`` always yields the same scenarios and
the program sees only the finished :class:`repro.api.Scenario` objects.
Families, mixes and timing profiles are the ones the lab registers
(``repro.lab``), looked up by name.

Inputs come in *batches*: batch ``rep`` of a workload is a fixed list of
items, distinct from every other batch, so a run can keep measuring
cold stores for as long as ``--seconds`` allows while batch 0 stays the
same for the output digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Iterator

from repro.api.scenario import Scenario
from repro.digraph.generators import complete_digraph, random_strongly_connected
from repro.lab import get_family, get_mix, get_timing

ENGINE = "herlihy"

#: The lab families of ``sim-adversarial``: (family, params).
SIM_SHAPES: tuple[tuple[str, dict], ...] = (
    ("clique", {"n": 4}),
    ("clique", {"n": 5}),
    ("clique", {"n": 6}),
    ("wheel", {"rim": 5}),
    ("wheel", {"rim": 6}),
    ("erdos-renyi", {"n": 8, "p": 0.2}),
    ("erdos-renyi", {"n": 10, "p": 0.2}),
    ("power-law", {"n": 10}),
)
SIM_MIXES = ("phase-crash", "last-moment", "free-ride", "colluding-crash")
#: ``cycle`` runs with these mixes under ``jittered`` timing.
CYCLE_SIZES = (6, 8)
CYCLE_MIXES = ("all-conforming", "phase-crash")
CYCLE_TIMING = "jittered"

#: Every (family, params, mix, timing) combination of one grid copy.
SIM_COMBOS: tuple[tuple[str, dict, str, str], ...] = tuple(
    (family, params, mix, "uniform")
    for family, params in SIM_SHAPES
    for mix in SIM_MIXES
) + tuple(
    ("cycle", {"n": n}, mix, CYCLE_TIMING)
    for n in CYCLE_SIZES
    for mix in CYCLE_MIXES
)

#: Grid copies per ``sim-adversarial`` batch: the deterministic shapes
#: recur with new scenario seeds, the random ones get new shapes too.
SIM_GRIDS_PER_BATCH = 4

#: The hot shapes of ``analytic-grid``: the E28 grid's K4, K6 and
#: sparse n=10/15 digraphs.
HOT_SHAPES: tuple[tuple[str, object, dict], ...] = (
    ("K4", complete_digraph(4), {}),
    ("K6", complete_digraph(6), {}),
    ("sparse10", random_strongly_connected(10, 0.15, Random(1)), {}),
    ("sparse15", random_strongly_connected(15, 0.10, Random(2)), {"exact_limit": 12}),
)
HOT_SHARE = 0.9
COLD_SIZES = (5, 6, 7, 8, 9)
COLD_DENSITY = 0.15
ANALYTIC_BATCH = 600

#: ``serve-mixed`` request classes and their shares.
SERVE_MIX = (("simulated", 0.4), ("analytic", 0.4), ("resubmit", 0.2))


@dataclass(frozen=True)
class Item:
    """One run the benchmark asks for, with what it knows about it."""

    engine: str
    scenario: Scenario
    cls: str
    """``simulated`` or ``analytic``: which kind of item was generated."""
    conforming: bool
    """All parties follow the protocol under ``uniform`` timing, so
    Theorem 4.2 (all-Deal) must hold.  An all-conforming item under
    ``jittered`` timing is not: the README's timing-model table says
    liveness can erode there at the exact-Δ boundary, and only Theorem
    4.9 (safety) is claimed for it."""


def stream_seed(*parts: object) -> int:
    """A 31-bit seed from the benchmark's own hash of ``parts``."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") & 0x7FFFFFFF


def sim_item(combo: tuple[str, dict, str, str], *tag: object) -> Item:
    family, params, mix, timing = combo
    topology = get_family(family).generate(params, seed=stream_seed("topology", *tag))
    overrides = get_mix(mix).apply(topology, Random(stream_seed("mix", *tag)))
    spec = get_timing(timing).spec
    if spec is not None:
        overrides["timing"] = spec
    label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    scenario = Scenario(
        topology=topology,
        name=f"bench:{family}:{label}:{mix}:{timing}",
        seed=stream_seed("scenario", *tag),
        **overrides,
    )
    conforming = mix == "all-conforming" and timing == "uniform"
    return Item(ENGINE, scenario, "simulated", conforming=conforming)


def analytic_item(rng: Random, index: int, hot: int | None, cold_size: int = 0) -> Item:
    """A hot shape (``hot`` indexes :data:`HOT_SHAPES`) with a fresh
    seed, or a fresh random shape of ``cold_size`` parties."""
    if hot is not None:
        label, topology, kwargs = HOT_SHAPES[hot]
    else:
        topology = random_strongly_connected(cold_size, COLD_DENSITY, Random(rng.getrandbits(32)))
        label, kwargs = f"cold{cold_size}", {}
    scenario = Scenario(
        topology=topology,
        name=f"bench:analytic:{label}#{index}",
        seed=rng.getrandbits(31),
        **kwargs,
    )
    return Item(ENGINE, scenario, "analytic", conforming=True)


def random_analytic_item(rng: Random, index: int) -> Item:
    if rng.random() < HOT_SHARE:
        return analytic_item(rng, index, rng.randrange(len(HOT_SHAPES)))
    return analytic_item(rng, index, None, rng.choice(COLD_SIZES))


def sim_adversarial_batch(seed: int, rep: int) -> list[Item]:
    batch = [
        sim_item(combo, "sim", seed, rep, grid, index)
        for grid in range(SIM_GRIDS_PER_BATCH)
        for index, combo in enumerate(SIM_COMBOS)
    ]
    # In grid order the heavy families sit together, so some pool
    # chunks would be all heavy and the sweep's tail would depend on
    # where they fall; a seeded order spreads them over the chunks.
    Random(stream_seed("order", seed, rep)).shuffle(batch)
    return batch


def analytic_grid_batch(seed: int, rep: int) -> list[Item]:
    """Exactly :data:`HOT_SHARE` hot items, evenly over the hot shapes,
    and the rest fresh shapes evenly over :data:`COLD_SIZES`, in a
    seeded order: the batch's cost does not hinge on how many large
    fresh shapes one draw happened to pick."""
    rng = Random(stream_seed("analytic", seed, rep))
    hot = round(ANALYTIC_BATCH * HOT_SHARE)
    kinds: list[tuple[int | None, int]] = [
        (index % len(HOT_SHAPES), 0) for index in range(hot)
    ] + [(None, COLD_SIZES[index % len(COLD_SIZES)]) for index in range(ANALYTIC_BATCH - hot)]
    rng.shuffle(kinds)
    return [analytic_item(rng, index, shape, size) for index, (shape, size) in enumerate(kinds)]


BATCHES = {
    "sim-adversarial": sim_adversarial_batch,
    "analytic-grid": analytic_grid_batch,
}
BATCH_SIZES = {
    "sim-adversarial": SIM_GRIDS_PER_BATCH * len(SIM_COMBOS),
    "analytic-grid": ANALYTIC_BATCH,
}


def serve_requests(seed: int, client: int) -> Iterator[tuple[str, Item]]:
    """One client's endless, fixed request sequence.

    Yields ``(kind, item)`` with ``kind`` one of :data:`SERVE_MIX`.  A
    ``resubmit`` repeats one of this client's own earlier fresh
    requests, which the closed loop has already seen settle, so it is
    always a cache hit and never coalesces.  Clients draw from disjoint
    seed streams, so no two clients submit the same run.
    """
    rng = Random(stream_seed("serve", seed, client))
    fresh: list[Item] = []
    index = 0
    while True:
        roll = rng.random()
        if roll < SERVE_MIX[0][1]:
            combo = SIM_COMBOS[rng.randrange(len(SIM_COMBOS))]
            item = sim_item(combo, "serve", seed, client, index)
            kind = "simulated"
        elif roll < SERVE_MIX[0][1] + SERVE_MIX[1][1] or not fresh:
            item = random_analytic_item(rng, index)
            kind = "analytic"
        else:
            yield "resubmit", fresh[rng.randrange(len(fresh))]
            index += 1
            continue
        fresh.append(item)
        index += 1
        yield kind, item
