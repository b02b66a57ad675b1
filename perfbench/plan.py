"""Seeded workload plans.

A plan is plain JSON: the only thing the program sees of a workload.
The same seed gives a byte-identical plan (:func:`plan_bytes`), a
different seed a different one.  Campaigns are drawn only from the
paper grid (default flags, ``a64fx``, ten runs), so the expected
digests in ``expected/cells.json`` cover every cell a plan can ask for.

The seed picks *which* benchmarks, compilers and scenarios each slot
uses and the order of the slots; the *shape* of each round or cycle
(campaign sizes, repeat shares, searches, arrival times) is fixed, so
that runs with different seeds measure the same kind of work.
"""

from __future__ import annotations

import random

from common import canonical_json

GEMM = "gemm-int8-sdot"

#: A session round: (benchmarks, compilers) per campaign, ascending,
#: each taking ceil(k/2) benchmarks the round has not run yet and the
#: rest from those it has.  The new halves add up to about half of the
#: grid (56 benchmarks); every second round then ends with the full
#: grid.  ``(1, 1)`` is a one-cell repeat.  Runs stop only after such a
#: pair of rounds.  With one full grid per pair and three equal largest
#: campaigns per round, the tail percentile (the 11th slowest campaign)
#: lands among the largest campaigns for anything from 2 to 10 pairs
#: per run.
SESSION_ROUND = ((1, 5), (1, 1), (2, 5), (2, 5), (3, 5), (4, 5), (6, 5), (8, 5),
                 (12, 5), (24, 5), (24, 5), (24, 5))
#: Slots of a round after which a tune search runs: the gemm search,
#: two placement searches and one repeat of the round's first (a
#: tuner-cache hit).
SESSION_SEARCHES = {2: "gemm", 5: "placement", 7: "repeat", 9: "placement"}

#: Service: campaigns per second (both tenants together); below the
#: rate at which the service falls behind on this mix.
SERVICE_RATE = 3.0
#: Service: one arrival cycle (10 s at SERVICE_RATE).  ``"search"`` is
#: a one-cell placement search, ``"full"`` the full grid, an int a
#: campaign of that many benchmarks on all five compilers.
SERVICE_CYCLE = (("search",) * 7 + ("full",)
                 + (1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 6, 8, 8, 10, 12, 12, 16, 16, 20, 24))
#: Service: cycles in the schedule; runs use a prefix of it.
SERVICE_CYCLES = 6
TENANTS = ("alice", "bob")


def benchmarks_of(cells: list[list[str]]) -> list[str]:
    return list(dict.fromkeys(bench for bench, _v, _d in cells))


def variants_of(cells: list[list[str]]) -> list[str]:
    return list(dict.fromkeys(variant for _b, variant, _d in cells))


#: Placement searches are drawn from scenarios with this many candidate
#: placements, the commonest search space that is not trivial (serial
#: codes have one candidate and finish without a search); one size
#: keeps the searches of different seeds alike.
SEARCH_SPACE = 8


def _placements(spaces: dict[str, int]) -> list[str]:
    """The placement searches a plan draws from, in sorted order.  (The
    scenario spec joins variants with ``+``, so ``LLVM+Polly`` has no
    scenario of its own.)"""
    return sorted(s for s, n in spaces.items()
                  if s.startswith("placement:") and n == SEARCH_SPACE)


def oneshot_plan(seed: int, cells: list[list[str]], spaces: dict[str, int]) -> dict:
    """Rounds of two full-grid CLI campaigns and one CLI tune search
    (every fourth search is the gemm search)."""
    rng = random.Random(f"oneshot:{seed}")
    placements = _placements(spaces)
    items = []
    for rnd in range(32):
        campaign = {"kind": "campaign", "round": rnd, "benchmarks": None, "variants": None}
        scenario = GEMM if rnd % 4 == 3 else rng.choice(placements)
        items += [campaign, dict(campaign), {"kind": "search", "round": rnd,
                                             "scenario": scenario}]
    return {"workload": "oneshot", "seed": seed, "items": items}


def session_plan(seed: int, cells: list[list[str]], spaces: dict[str, int],
                 rounds: int = 40) -> dict:
    """Rounds of a researcher's study, each on a fresh cache dir; about
    half of every campaign's cells repeat earlier ones of the round.
    ``block`` numbers the pairs of rounds a run may stop after."""
    rng = random.Random(f"session:{seed}")
    benches, variants = benchmarks_of(cells), variants_of(cells)
    placements = _placements(spaces)
    items = []
    for rnd in range(rounds):
        fresh = benches[:]
        rng.shuffle(fresh)
        seen: list[str] = []
        first_search = None
        for slot, (k, n_variants) in enumerate(SESSION_ROUND):
            n_new = (k + 1) // 2 if k > 1 or not seen else 0
            chosen = rng.sample(seen, k - n_new) + [fresh.pop() for _ in range(n_new)]
            seen.extend(chosen[k - n_new:])
            vs = None if n_variants == len(variants) else sorted(
                rng.sample(variants, n_variants), key=variants.index)
            items.append({"kind": "campaign", "round": rnd, "block": rnd // 2,
                          "benchmarks": sorted(chosen, key=benches.index),
                          "variants": vs})
            search = SESSION_SEARCHES.get(slot)
            if search is not None:
                if search == "gemm":
                    scenario = GEMM
                elif search == "repeat" and first_search is not None:
                    scenario = first_search
                else:
                    scenario = rng.choice(placements)
                    first_search = first_search or scenario
                items.append({"kind": "search", "round": rnd, "block": rnd // 2,
                              "scenario": scenario})
        if rnd % 2:
            items.append({"kind": "campaign", "round": rnd, "block": rnd // 2,
                          "benchmarks": None, "variants": None})
    return {"workload": "session", "seed": seed, "items": items}


def service_plan(seed: int, cells: list[list[str]], spaces: dict[str, int]) -> dict:
    """A fixed-rate open-loop schedule of two tenants' submissions.

    Each cycle submits the slots of :data:`SERVICE_CYCLE` in a seeded
    order, evenly spaced; a campaign shares half of its benchmarks with
    the other tenant's previous campaign, and a one-cell search picks a
    cell of it.
    """
    rng = random.Random(f"service:{seed}")
    benches, variants = benchmarks_of(cells), variants_of(cells)
    last: dict[str, list[str]] = {t: [] for t in TENANTS}
    items = []
    for _cycle in range(SERVICE_CYCLES):
        slots = list(SERVICE_CYCLE)
        rng.shuffle(slots)
        for slot in slots:
            due = round((len(items) + 0.5) / SERVICE_RATE, 6)
            tenant = TENANTS[len(items) % 2]
            other = last[TENANTS[1 - TENANTS.index(tenant)]] or benches
            if slot == "search":
                item = {"kind": "search", "benchmarks": [rng.choice(other)],
                        "variants": [rng.choice(variants)]}
            elif slot == "full":
                item = {"kind": "campaign", "benchmarks": None, "variants": None}
            else:
                shared = rng.sample(other, min(len(other), slot // 2))
                rest = [b for b in benches if b not in shared]
                chosen = sorted(shared + rng.sample(rest, slot - len(shared)),
                                key=benches.index)
                last[tenant] = chosen
                item = {"kind": "campaign", "benchmarks": chosen, "variants": None}
            items.append({**item, "due": due, "tenant": tenant})
    return {"workload": "service", "seed": seed, "rate_per_s": SERVICE_RATE,
            "items": items}


PLANS = {"oneshot": oneshot_plan, "session": session_plan, "service": service_plan}


def make_plan(workload: str, seed: int, cells: list[list[str]],
              spaces: dict[str, int]) -> dict:
    return PLANS[workload](seed, cells, spaces)


def plan_bytes(plan: dict) -> bytes:
    return canonical_json(plan).encode()


def item_cells(item: dict, cells: list[list[str]]) -> list[tuple[str, str]]:
    """The (benchmark, variant) cells a campaign item asks for, in the
    grid's canonical (benchmark-major) order."""
    benches = None if item.get("benchmarks") is None else set(item["benchmarks"])
    variants = item.get("variants") or variants_of(cells)
    return [(b, v) for b, v, _d in cells
            if (benches is None or b in benches) and v in variants]
