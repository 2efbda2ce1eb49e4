"""The four benchmark workloads: inputs, the timed experiment call, the check.

Each workload is three functions over public ``repro`` calls:

* ``setup(seed, size)`` builds the inputs (grid, identifiers, labels,
  problem) from the seed;
* ``solve(inputs)`` is the experiment call exactly as a user makes it —
  the only timed region;
* ``check(inputs, output)`` verifies the output outside the timed region
  and returns the exact counts that must repeat across samples of one
  seed. It raises :class:`CheckFailed` on a wrong output.

``size`` is ``"full"`` for the measured benchmark and ``"toy"`` for the
smoke test and the untimed warm-up, which run the same code paths on
inputs small enough to finish in about a second (``edge96`` has no smaller
working size and runs in full).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, NamedTuple

from repro.colouring.edge_colouring import edge_colouring
from repro.colouring.impossibility import (
    edge_colouring_parity_obstruction,
    exhaustive_edge_colouring_infeasible,
)
from repro.core.catalog import vertex_colouring_problem
from repro.core.verifier import verify_node_labelling, verify_proper_edge_colouring
from repro.errors import UnsolvableInstanceError
from repro.grid.identifiers import IdentifierAssignment, random_identifiers
from repro.grid.torus import ToroidalGrid
from repro.local_model import LocalRule, SchedulePhase, run_schedule
from repro.orientation.algorithms import (
    in_degrees_from_edge_directions,
    solve_x_orientation_globally,
)
from repro.orientation.classify import counting_obstruction
from repro.orientation.problems import x_orientation_problem
from repro.synthesis.lookup import build_lookup_algorithm
from repro.synthesis.synthesiser import clear_synthesis_cache, synthesise_with_budget


class CheckFailed(Exception):
    """A workload's output failed its correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload(NamedTuple):
    setup: Callable[[int, str], Dict[str, Any]]
    solve: Callable[[Dict[str, Any]], Any]
    check: Callable[[Dict[str, Any], Any], Dict[str, Any]]


# --------------------------------------------------------------------------
# edge96 — Theorem 15: (2d+1)-edge-colouring of the 96x96 torus
# --------------------------------------------------------------------------

#: No smaller torus works with the default constants (50-72 fail for
#: every seed tried), so the toy size is the full size.
EDGE_SIDE = 96

#: With its default constants, edge_colouring on the 96x96 torus fails for
#: most identifier assignments, a known defect (see README.md): for seeds 0,
#: 1, 3, 4 and 5 of random_identifiers the attempts at separation 3 and 4
#: fail and the third raises UnsolvableInstanceError. Seed 2, the one the
#: repository's own E4a benchmark and test use, succeeds in one attempt.
#: The benchmark's seed picks a torus translation of that assignment: the
#: inputs differ per seed while the work, and every exact count, stays
#: that of the paper experiment.
EDGE_IDENTIFIER_SEED = 2


def edge96_setup(seed: int, size: str) -> Dict[str, Any]:
    del size
    grid = ToroidalGrid.square(EDGE_SIDE)
    base = random_identifiers(grid, seed=EDGE_IDENTIFIER_SEED).mapping
    shift = random.Random(seed)
    dx, dy = shift.randrange(EDGE_SIDE), shift.randrange(EDGE_SIDE)
    identifiers = IdentifierAssignment(
        {(x, y): base[(x + dx) % EDGE_SIDE, (y + dy) % EDGE_SIDE] for x, y in base}
    )
    return {"grid": grid, "identifiers": identifiers}


def edge96_solve(inputs: Dict[str, Any]) -> Any:
    return edge_colouring(inputs["grid"], inputs["identifiers"])


def edge96_check(inputs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    grid = inputs["grid"]
    colours = 2 * grid.dimension + 1
    verification = verify_proper_edge_colouring(grid, result.edge_labels, colours)
    _require(verification.valid, f"edge colouring has {len(verification.violations)} violations")
    return {
        "local_rounds": result.rounds,
        "marked_edges": result.metadata["marked_edges"],
        "separation": result.metadata["separation"],
    }


# --------------------------------------------------------------------------
# certify — Theorems 21 and 22 and Lemma 24 by exhaustive SAT search
# --------------------------------------------------------------------------

# (side, colours) for the edge-colouring certificates and (X, side) for the
# orientation ones. The 5x5 {1,3} refutation is left out: it needs ~74k
# conflicts (minutes) with the current solver.
CERTIFY_EDGE = {"full": ((5, 4), (4, 4)), "toy": ((3, 4), (4, 4))}
CERTIFY_ORIENTATION = {
    "full": (
        ((1, 3), 3), ((1, 3), 4),
        ((0, 4), 5), ((0, 4), 7), ((0, 4), 4),
        ((0, 3, 4), 5), ((0, 3, 4), 7),
    ),
    "toy": (((1, 3), 3), ((0, 4), 3), ((0, 3, 4), 3)),
}


def certify_setup(seed: int, size: str) -> Dict[str, Any]:
    del seed  # the instances are fixed; the seed only sets PYTHONHASHSEED
    return {
        "edge": [(ToroidalGrid.square(side), colours) for side, colours in CERTIFY_EDGE[size]],
        "orientation": [
            (ToroidalGrid.square(side), allowed) for allowed, side in CERTIFY_ORIENTATION[size]
        ],
    }


def certify_solve(inputs: Dict[str, Any]) -> Dict[str, Any]:
    edge = [
        exhaustive_edge_colouring_infeasible(grid, colours) for grid, colours in inputs["edge"]
    ]
    orientation = []
    for grid, allowed in inputs["orientation"]:
        try:
            orientation.append(solve_x_orientation_globally(grid, allowed))
        except UnsolvableInstanceError:
            orientation.append(None)
    return {"edge": edge, "orientation": orientation}


def certify_check(inputs: Dict[str, Any], output: Dict[str, Any]) -> Dict[str, Any]:
    counts: Dict[str, Any] = {}
    for (grid, colours), infeasible in zip(inputs["edge"], output["edge"]):
        name = f"edge{grid.sides[0]}x{colours}"
        obstructed = edge_colouring_parity_obstruction(grid, colours) is not None
        _require(infeasible == obstructed, f"{name}: search says infeasible={infeasible}")
        counts[name] = "unsat" if infeasible else "sat"
    for (grid, allowed), found in zip(inputs["orientation"], output["orientation"]):
        side = grid.sides[0]
        name = "orient" + "".join(map(str, allowed)) + f"@{side}"
        obstructed = counting_obstruction(allowed, side) is not None
        _require((found is None) == obstructed, f"{name}: search disagrees with counting")
        if found is None:
            counts[name] = "unsat"
            continue
        directions, result = found
        degrees = in_degrees_from_edge_directions(grid, directions)
        _require(
            len(degrees) == grid.node_count and set(degrees.values()) <= set(allowed),
            f"{name}: in-degrees {sorted(set(degrees.values()))} outside {allowed}",
        )
        counts[name] = result.metadata["conflicts"]
    return counts


# --------------------------------------------------------------------------
# synth4 — Section 7: synthesise A' for 4-colouring, run A' o S_k
# --------------------------------------------------------------------------

# Toy size synthesises {1,3,4}-orientation, which succeeds at k = 1
# (Lemma 23), through the same loop and normal-form runtime.
SYNTH = {
    "full": {"problem": lambda: vertex_colouring_problem(4), "max_k": 3, "side": 128},
    "toy": {"problem": lambda: x_orientation_problem({1, 3, 4}), "max_k": 1, "side": 12},
}


def synth4_setup(seed: int, size: str) -> Dict[str, Any]:
    spec = SYNTH[size]
    grid = ToroidalGrid.square(spec["side"])
    clear_synthesis_cache()
    return {
        "problem": spec["problem"](),
        "max_k": spec["max_k"],
        "grid": grid,
        "identifiers": random_identifiers(grid, seed=seed),
    }


def synth4_solve(inputs: Dict[str, Any]) -> Dict[str, Any]:
    # engine="sat" is pinned: the default "auto" runs the recursive CSP
    # first, which raises RecursionError on the 2,079-tile k = 3 instance.
    search = synthesise_with_budget(inputs["problem"], max_k=inputs["max_k"], engine="sat")
    if not search.succeeded:
        return {"search": search, "result": None}
    algorithm = build_lookup_algorithm(search.best)
    return {"search": search, "result": algorithm.run(inputs["grid"], inputs["identifiers"])}


def synth4_check(inputs: Dict[str, Any], output: Dict[str, Any]) -> Dict[str, Any]:
    search, result = output["search"], output["result"]
    _require(search.succeeded and result is not None, "synthesis did not succeed")
    best = search.best
    _require(best.k == inputs["max_k"], f"synthesis succeeded at k = {best.k}")
    verification = verify_node_labelling(inputs["grid"], inputs["problem"], result.node_labels)
    _require(verification.valid, f"normal form output has {len(verification.violations)} violations")
    counts: Dict[str, Any] = {"local_rounds": result.rounds}
    for attempt in search.attempts:
        name = f"k{attempt.k}_{attempt.width}x{attempt.height}"
        counts[name] = [
            attempt.success,
            attempt.tile_count,
            attempt.stats.get("conflicts"),
            attempt.stats.get("decisions"),
        ]
    return counts


# --------------------------------------------------------------------------
# flood512 — 16 rounds of a min-label rule through run_schedule(engine="auto")
# --------------------------------------------------------------------------

FLOOD = {"full": (512, 16), "toy": (128, 4)}


class MinLabelRule(LocalRule):
    """Each node takes the least label in its radius-1 L1 ball.

    The labels are identifiers, far too many for a compiled lookup table,
    so the sharded list path runs.
    """

    radius = 1
    norm = "l1"
    parallel_safe = True

    def update(self, view):
        return min(view.values())


def flood512_setup(seed: int, size: str) -> Dict[str, Any]:
    side, rounds = FLOOD[size]
    grid = ToroidalGrid.square(side)
    identifiers = random_identifiers(grid, seed=seed)
    return {
        "grid": grid,
        "labels": dict(identifiers.mapping),
        "schedule": [SchedulePhase(MinLabelRule(), name="flood", iterations=rounds)],
    }


def flood512_solve(inputs: Dict[str, Any]) -> Any:
    return run_schedule(inputs["grid"], inputs["labels"], inputs["schedule"], engine="auto")


def flood512_check(inputs: Dict[str, Any], store: Any) -> Dict[str, Any]:
    import numpy as np

    grid = inputs["grid"]
    side = grid.sides[0]
    rounds = inputs["schedule"][0].iterations
    start = np.zeros((side, side), dtype=np.int64)
    for (x, y), label in inputs["labels"].items():
        start[x, y] = label
    # Minimum over the whole L1 ball of radius `rounds`, offset by offset:
    # independent of the round-by-round rule the engine runs.
    expected = start.copy()
    for dx in range(-rounds, rounds + 1):
        shifted = np.roll(start, dx, axis=0)
        reach = rounds - abs(dx)
        for dy in range(-reach, reach + 1):
            np.minimum(expected, np.roll(shifted, dy, axis=1), out=expected)
    final = store.to_dict()
    _require(len(final) == grid.node_count, "flood output is not a total labelling")
    wrong = sum(1 for (x, y), label in final.items() if label != expected[x, y])
    _require(wrong == 0, f"flood output differs from the L1-ball minimum at {wrong} nodes")
    return {"distinct_labels": len(set(final.values()))}


WORKLOADS: Dict[str, Workload] = {
    "edge96": Workload(edge96_setup, edge96_solve, edge96_check),
    "certify": Workload(certify_setup, certify_solve, certify_check),
    "synth4": Workload(synth4_setup, synth4_solve, synth4_check),
    "flood512": Workload(flood512_setup, flood512_solve, flood512_check),
}
