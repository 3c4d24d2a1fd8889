"""Seeded inputs for the three benchmark workloads.

Every function here is a pure function of its arguments: the same seed gives
the same ops in the same order.  A workload's stream is cut into *units* (a
block of CLI requests, or one full type sweep) and a run always executes whole
units, so the mix of a run does not depend on where the clock stopped.

Nothing here imports parabolica: the program under test receives only the
generated tokens and weights.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("exact-cli", "exact-sweep", "spectral-cli")
DEFAULT_SEED = 0

# Every finite simple type of rank <= 8 that the CLI accepts, isomorphic
# duplicates (B2/C2, A3/D3) included because they take different code paths.
EXACT_TYPES = (
    tuple(f"A{n}" for n in range(1, 9))
    + tuple(f"B{n}" for n in range(2, 9))
    + tuple(f"C{n}" for n in range(2, 9))
    + tuple(f"D{n}" for n in range(3, 9))
    + ("E6", "E7", "E8", "F4", "G2")
)

# Units a traced run executes.  Fixed, so that call counts repeat exactly.
TRACE_UNITS = {"exact-cli": 20, "exact-sweep": 1, "spectral-cli": 3}

# The tail percentile each workload reports: the highest of p50/p75/p90/p95/p99
# with at least 10 samples beyond it in a 30 s run of the parent commit.  It is
# fixed rather than picked per run, so that a faster program, which collects
# more samples, is not compared at a higher percentile than its parent.
TAIL_PERCENTILE = {"exact-cli": 99, "exact-sweep": 99, "spectral-cli": 75}

SWEEP_WEIGHTS_PER_PARABOLIC = 6
_LEVI_COORDS = range(0, 4)  # Levi-dominant: non-negative on Levi nodes
_PICARD_COORDS = range(-3, 4)  # any sign off the Levi
_KAHLER_COEFFS = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4")

# spectral-cli block: stratified log-uniform --modes per dimension, so each
# block spans the whole range and the lru_cache on the mode table rarely hits.
_SPECTRAL_STRATA = {1: (7, 64, 4096), 2: (3, 16, 512)}  # dim: (ops per block, lo, hi)
# Where each dimension's Kronecker sequence of positions in the strata starts.
# The same for every seed; see spectral_cli_block.
_SPECTRAL_START = {1: 0.0, 2: 0.5}

# Steps of three Kronecker sequences.  The properties that set an op's cost
# (request kind, Levi size, whether a Kahler class is given, --modes) follow
# them from block to block, so any run of consecutive blocks holds nearly the
# same mix whatever the seed; on exact-cli the seed picks the offsets, and
# everything else is drawn at random.
_STEP_A = (math.sqrt(5) - 1) / 2
_STEP_B = math.sqrt(2) - 1
_STEP_C = math.sqrt(3) - 1


def rank_of(lie_type: str) -> int:
    return int(lie_type[1:])


@dataclass(frozen=True)
class CliOp:
    """One closed-loop request: parabolica.cli.main(tokens)."""

    kind: str  # analyze, curvature, dump-roots or spectral
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class SweepGroup:
    """One parabolic of the type sweep and the weights queried on it.

    ``levi`` holds 0-based Levi nodes; the empty tuple is the Borel parabolic.
    """

    lie_type: str
    levi: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _spread(offset: float, step: float, index: int) -> float:
    """Point ``index`` of a Kronecker sequence in [0, 1)."""
    return (offset + index * step) % 1.0


def _offsets(name: str, seed: int, count: int) -> list[float]:
    rng = random.Random(f"{name}-offsets/{seed}")
    return [rng.random() for _ in range(count)]


def _random_weight(rng: random.Random, rank: int, levi: tuple[int, ...]) -> tuple[int, ...]:
    inside = set(levi)
    return tuple(
        rng.choice(_LEVI_COORDS) if i in inside else rng.choice(_PICARD_COORDS) for i in range(rank)
    )


def _kahler_line_tokens(rng: random.Random, picard: int, line_prob: float) -> list[str]:
    tokens = [f"--kahler={_csv(rng.choice(_KAHLER_COEFFS) for _ in range(picard))}"]
    if rng.random() < line_prob:
        tokens.append(f"--line={_csv(rng.choice(_PICARD_COORDS) for _ in range(picard))}")
    return tokens


def _exact_cli_op(rng: random.Random, lie_type: str, roll: float, size_roll: float, option_roll: float) -> CliOp:
    """Kind from ``roll``; a Levi set whose size, from ``size_roll``, is uniform
    in 1..rank-1; the optional Kahler class and line from ``option_roll``.

    An analyze request with --kahler= costs several times one without it, so
    drawing that choice at random would move the tail from seed to seed.
    """
    # Every vector goes out in --flag=value form: a leading negative
    # coordinate would otherwise be read by argparse as an option.
    rank = rank_of(lie_type)
    if roll < 0.08 or rank == 1:
        # A1 has no non-empty proper Levi set the CLI can name.
        return CliOp("dump-roots", ("dump-roots", f"--type={lie_type}"))
    levi = tuple(sorted(rng.sample(range(rank), 1 + int(size_roll * (rank - 1)))))
    picard = rank - len(levi)
    tokens = [f"--type={lie_type}", f"--parabolic={_csv(i + 1 for i in levi)}"]
    if roll < 0.65:
        tokens.append(f"--weight={_csv(_random_weight(rng, rank, levi))}")
        if option_roll < 0.5:
            tokens += _kahler_line_tokens(rng, picard, line_prob=0.5)
        return CliOp("analyze", ("analyze", *tokens))
    if option_roll < 0.5:
        tokens += _kahler_line_tokens(rng, picard, line_prob=0.5)
    elif option_roll < 0.75:
        tokens.append(f"--line={_csv(rng.choice(_PICARD_COORDS) for _ in range(picard))}")
    return CliOp("curvature", ("curvature", *tokens))


def exact_cli_block(seed: int, block: int) -> tuple[CliOp, ...]:
    """One request per type, in a seeded order."""
    kind_offsets = _offsets("exact-cli-kind", seed, len(EXACT_TYPES))
    size_offsets = _offsets("exact-cli-levi", seed, len(EXACT_TYPES))
    option_offsets = _offsets("exact-cli-options", seed, len(EXACT_TYPES))
    rng = random.Random(f"exact-cli/{seed}/{block}")
    ops = [
        _exact_cli_op(rng, t, _spread(k, _STEP_A, block), _spread(z, _STEP_B, block), _spread(o, _STEP_C, block))
        for t, k, z, o in zip(EXACT_TYPES, kind_offsets, size_offsets, option_offsets)
    ]
    rng.shuffle(ops)
    return tuple(ops)


def _spectral_op(rng: random.Random, dim: int, modes: int) -> CliOp:
    if rng.random() < 0.5:
        codim, profile = dim, "point:s={s}"
    else:
        codim = rng.randint(1, dim)
        profile = f"subtorus:s={{s}},codim={codim}"
    # s strictly below codim/2 keeps the profile square integrable.
    s = round(rng.uniform(0.05, codim / 2 - 0.05), 4)
    tokens = ["spectral", f"--dim={dim}", f"--modes={modes}", f"--profile={profile.format(s=s)}"]
    if rng.random() < 0.3:
        tokens.append(f"--hym={round(rng.uniform(0.25, 2.0), 3)}")
    return CliOp("spectral", tuple(tokens))


def spectral_cli_block(seed: int, block: int) -> tuple[CliOp, ...]:
    """Seven d=1 and three d=2 requests; each takes --modes log-uniformly
    from its own stratum of the dimension's range.

    A request's cost is nearly proportional to --modes, and a 30 s run holds
    only eight or nine blocks.  With a seeded start, the --modes of so few
    blocks alone spread a run's modelled throughput by about 0.05 between
    seeds.  So every seed sends the same --modes in the same block; the seed
    draws the profile, s, codim, --hym and the order.
    """
    rng = random.Random(f"spectral-cli/{seed}/{block}")
    ops = []
    for dim, (count, lo, hi) in _SPECTRAL_STRATA.items():
        within = _spread(_SPECTRAL_START[dim], _STEP_A, block)
        for k in range(count):
            modes = int(lo * (hi / lo) ** ((k + within) / count))
            ops.append(_spectral_op(rng, dim, modes))
    rng.shuffle(ops)
    return tuple(ops)


def sweep_parabolics() -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Every type of rank <= 8 with each maximal parabolic and the Borel."""
    out = []
    for lie_type in EXACT_TYPES:
        rank = rank_of(lie_type)
        levis = {tuple(i for i in range(rank) if i != drop) for drop in range(rank)}
        levis.add(())  # Borel; for A1 it is also the only maximal parabolic
        out += [(lie_type, levi) for levi in sorted(levis)]
    return tuple(out)


def sweep_pass(seed: int, index: int) -> tuple[SweepGroup, ...]:
    """One full type sweep in a seeded order, with fresh seeded weights."""
    groups = []
    for lie_type, levi in sweep_parabolics():
        rng = random.Random(f"exact-sweep/{seed}/{index}/{lie_type}/{_csv(levi)}")
        rank = rank_of(lie_type)
        weights = tuple(_random_weight(rng, rank, levi) for _ in range(SWEEP_WEIGHTS_PER_PARABOLIC))
        groups.append(SweepGroup(lie_type, levi, weights))
    random.Random(f"exact-sweep-order/{seed}/{index}").shuffle(groups)
    return tuple(groups)


UNIT_OF = {"exact-cli": exact_cli_block, "exact-sweep": sweep_pass, "spectral-cli": spectral_cli_block}
