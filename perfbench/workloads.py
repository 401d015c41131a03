"""Seeded inputs for the four workloads, as ulrichmf command lines.

Each workload turns a seed into one *round*: a fixed-length list of
operations, each an argv for ``ulrichmf.cli.main`` plus the check its JSON
output must pass.  A run repeats its round, so every run attempts whole
rounds of the same operations.  The program sees only the command lines.

Where an operation's cost depends on the shape of its input (the sizes of I,
J and I & J in a group law), the round fixes the shapes and the seed picks
the values, so that rounds from different seeds cost about the same.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import checks

P = checks.P


@dataclass(frozen=True)
class Operation:
    argv: tuple
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int], list]
    perturb: Callable[[dict], dict]


def _global_flags(field: str, seed: int) -> list:
    return ["--format", "json", "--field", field, "--seed", str(seed)]


def _banded(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """One value from each of ``count`` equal bands of lo..hi, in shuffled order.

    Fixing the bands fixes the cost profile of a round: root searches scan
    candidates in increasing order and rational arithmetic grows with the
    size of the roots.
    """
    width = (hi - lo + 1) // count
    picked = []
    for band in range(count):
        picked.append(rng.randrange(lo + band * width, lo + (band + 1) * width))
    rng.shuffle(picked)
    return picked


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _pair(rng: random.Random, npoints: int, size_i: int, size_j: int, meet: int):
    """Subsets I, J of 1..npoints with the given sizes and |I & J| = meet."""
    perm = rng.sample(range(1, npoints + 1), npoints)
    subset_i = perm[:size_i]
    subset_j = perm[size_i - meet:size_i - meet + size_j]
    return sorted(subset_i), sorted(subset_j)


# (|I|, |J|, |I & J|): even-even, odd-odd (these take the H-twist) and mixed.
GENUS3_SHAPES = [
    (2, 2, 0), (2, 2, 1), (2, 4, 1), (2, 4, 2), (4, 4, 2), (4, 4, 3),
    (1, 1, 0), (1, 3, 0), (1, 3, 1), (3, 3, 1), (3, 3, 2),
    (1, 2, 0), (1, 4, 1), (2, 3, 1), (3, 4, 1), (3, 4, 2),
]
GENUS2_SHAPES = [
    (2, 2, 0), (2, 2, 1), (1, 1, 0), (1, 3, 0), (1, 3, 1), (3, 3, 1),
    (3, 3, 2), (1, 2, 0), (1, 2, 1), (2, 3, 0), (2, 3, 1), (2, 3, 2),
]


def _grouplaw_round(seed: int, field: str, genus: int, shapes, root_range) -> list:
    rng = random.Random(seed)
    npoints = 2 * genus + 2
    ops = []
    for size_i, size_j, meet in shapes:
        roots = _banded(rng, npoints, *root_range)
        subset_i, subset_j = _pair(rng, npoints, size_i, size_j, meet)
        argv = _global_flags(field, rng.randrange(1000)) + [
            "mf", "grouplaw", "--g", str(genus), "--roots", _csv(roots),
            "--i", _csv(subset_i), "--j", _csv(subset_j),
        ]
        check = functools.partial(checks.check_grouplaw, g=genus, subset_i=subset_i, subset_j=subset_j)
        ops.append(Operation(tuple(argv), check))
    return ops


def grouplaw_round(seed: int) -> list:
    return _grouplaw_round(seed, str(P), 3, GENUS3_SHAPES, (1, P - 1))


def rational_round(seed: int) -> list:
    # positive roots: argparse would read "--roots -3,..." as a flag
    return _grouplaw_round(seed, "Q", 2, GENUS2_SHAPES, (1, 60))


BGG_GENUS, BGG_WINDOW = 2, (0, 1)
BGG_ROUND = 4


def bgg_round(seed: int) -> list:
    rng = random.Random(seed)
    k0, k1 = BGG_WINDOW
    ops = []
    for _ in range(BGG_ROUND):
        roots = _banded(rng, 2 * BGG_GENUS + 2, 1, P - 1)
        argv = _global_flags(str(P), rng.randrange(1000)) + [
            "clifford", "bgg", "--g", str(BGG_GENUS), "--roots", _csv(roots),
            "--window", f"{k0}:{k1}",
        ]
        ops.append(Operation(tuple(argv), functools.partial(checks.check_bgg, g=BGG_GENUS, k0=k0, k1=k1)))
    return ops


ULRICH_TARGETS = 6
ULRICH_ROUND = 4
SQUARES = frozenset(x * x % P for x in range(1, P))


def ulrich_targets(rng: random.Random) -> list:
    """Six distinct nonzero targets near the centres of the sixths of F_p.

    Three are squares, so the even-ambient construction finds the fourth
    square chart root it needs among its fresh roots.  The program's root
    search scans F_p upwards, so the positions of the targets set an
    operation's cost; keeping each within 1/16 of a sixth of its centre keeps
    rounds from different seeds at the same cost.
    """
    width = (P - 1) // ULRICH_TARGETS
    jitter = width // 16
    picked = []
    for band in range(ULRICH_TARGETS):
        centre = 1 + band * width + width // 2
        v = rng.randrange(centre - jitter, centre + jitter)
        while (v in SQUARES) != (band % 2 == 0):
            v = rng.randrange(centre - jitter, centre + jitter)
        picked.append(v)
    rng.shuffle(picked)
    return picked


def ulrich_round(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for _ in range(ULRICH_ROUND):
        targets = ulrich_targets(rng)
        op_seed = rng.randrange(1000)
        argv = _global_flags(str(P), op_seed) + ["ulrich", "for-roots", "--roots", _csv(targets)]
        check = functools.partial(checks.check_ulrich, targets=targets, seed=op_seed)
        ops.append(Operation(tuple(argv), check))
    return ops


WORKLOADS = {
    "grouplaw": Workload(grouplaw_round, checks.perturb_grouplaw),
    "bgg": Workload(bgg_round, checks.perturb_bgg),
    "ulrich": Workload(ulrich_round, checks.perturb_ulrich),
    "rational": Workload(rational_round, checks.perturb_grouplaw),
}
