"""Trail search for round-reduced Gimli (paper Table 1 context).

The Gimli designers found optimal trail weights with SAT/SMT solvers —
out of scope for pure Python.  What we *can* do exactly is evaluate any
given trail (the per-column SP-box DP of :mod:`repro.diffcrypt.spbox`
is exact) and search heuristically:

* :func:`find_weight_zero_trails` enumerates the "safe" differences
  whose nonlinear disturbance bits are all shifted out of the word, and
  closes them under deterministic propagation — a complete search for
  probability-1 trails within the safe set, which exhibits the
  designers' weight-0 results for 1 and 2 rounds.
* :func:`greedy_trail` / :func:`beam_search_trail` extend a seed
  difference round by round, choosing locally optimal (or near-optimal)
  SP-box transitions; this exhibits low-weight trails for 3+ rounds
  (upper bounds on the optimum).

All weights produced here are exact for the trail they describe; only
*optimality* is heuristic, and EXPERIMENTS.md reports our exhibited
weights against the designers' Table 1.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ciphers.gimli import GIMLI_ROUNDS
from repro.diffcrypt.spbox import (
    spbox_deterministic_output,
    spbox_differential_probability,
)
from repro.diffcrypt.trail import DifferentialTrail
from repro.errors import SearchError
from repro.utils.bitops import rotl32

StateDiff = Tuple[int, ...]
ColumnDiff = Tuple[int, int, int]

_MASK32 = 0xFFFFFFFF

#: Bits (in state coordinates) that propagate deterministically through
#: the SP-box: Δs0 bit 7 (x bit 31), Δs1 bits 21/22 (y bits 30/31),
#: Δs2 bit 31 (z bit 31).
SAFE_COLUMN_BITS = {
    "s0": (7,),
    "s1": (21, 22),
    "s2": (31,),
}


def _columns(diff: StateDiff) -> List[ColumnDiff]:
    return [(diff[j], diff[4 + j], diff[8 + j]) for j in range(4)]


def _from_columns(cols: Sequence[ColumnDiff]) -> StateDiff:
    top = [c[0] for c in cols]
    mid = [c[1] for c in cols]
    bot = [c[2] for c in cols]
    return tuple(top + mid + bot)


def _apply_swap(diff: StateDiff, r: int) -> StateDiff:
    top = list(diff[0:4])
    if r % 4 == 0:
        top = [top[1], top[0], top[3], top[2]]
    elif r % 4 == 2:
        top = [top[2], top[3], top[0], top[1]]
    return tuple(top) + diff[4:]


def _undo_swap(diff: StateDiff, r: int) -> StateDiff:
    # Both swaps are involutions.
    return _apply_swap(diff, r)


def round_differential_probability(
    input_diff: StateDiff, output_diff: StateDiff, r: int
) -> float:
    """Exact probability of one full Gimli round transition at round ``r``.

    ``output_diff`` is the difference *after* the swap layer (the
    constant addition never affects differences).  Columns are treated
    as independent, which holds exactly for a uniform state.
    """
    pre_swap = _undo_swap(tuple(output_diff), r)
    probability = 1.0
    for din, dout in zip(_columns(tuple(input_diff)), _columns(pre_swap)):
        p = spbox_differential_probability(din, dout)
        if p == 0.0:
            return 0.0
        probability *= p
    return probability


def propagate_deterministic(
    diff: StateDiff, rounds: int, start_round: int = GIMLI_ROUNDS
) -> Optional[DifferentialTrail]:
    """Propagate ``diff`` with probability 1 for ``rounds`` rounds, or fail."""
    current = tuple(int(w) & _MASK32 for w in diff)
    trail = DifferentialTrail((current,))
    for r in range(start_round, start_round - rounds, -1):
        cols = []
        for col in _columns(current):
            out = spbox_deterministic_output(col)
            if out is None:
                return None
            cols.append(out)
        current = _apply_swap(_from_columns(cols), r)
        trail = trail.extend(current, 1.0)
    return trail


def safe_column_diffs() -> List[ColumnDiff]:
    """All non-zero column differences supported on the safe bit set."""
    s0_options = [0, 1 << 7]
    s1_options = [0, 1 << 21, 1 << 22, (1 << 21) | (1 << 22)]
    s2_options = [0, 1 << 31]
    diffs = [
        (a, b, c)
        for a in s0_options
        for b in s1_options
        for c in s2_options
        if (a, b, c) != (0, 0, 0)
    ]
    return diffs


def find_weight_zero_trails(
    rounds: int,
    start_round: int = GIMLI_ROUNDS,
    max_active_columns: int = 2,
) -> List[DifferentialTrail]:
    """Complete search for probability-1 trails seeded in the safe set.

    Enumerates all state differences with at most ``max_active_columns``
    active columns, each drawn from :func:`safe_column_diffs`, and keeps
    those that propagate deterministically for ``rounds`` rounds.
    """
    if rounds < 1:
        raise SearchError(f"rounds must be positive, got {rounds}")
    column_options = safe_column_diffs()
    trails = []
    for active in range(1, max_active_columns + 1):
        for positions in itertools.combinations(range(4), active):
            for choice in itertools.product(column_options, repeat=active):
                cols = [(0, 0, 0)] * 4
                for pos, col in zip(positions, choice):
                    cols[pos] = col
                trail = propagate_deterministic(
                    _from_columns(cols), rounds, start_round
                )
                if trail is not None:
                    trails.append(trail)
    return trails


def _position_tables(col_diff: ColumnDiff) -> List[Dict[Tuple, int]]:
    """Per position, map each achievable ``(g1, g2, g3)`` combo to its count."""
    da, db, dc = col_diff
    dx = rotl32(da & _MASK32, 24)
    dy = rotl32(db & _MASK32, 9)
    dz = dc & _MASK32
    tables = []
    for i in range(32):
        dxi, dyi, dzi = (dx >> i) & 1, (dy >> i) & 1, (dz >> i) & 1
        counts: Dict[Tuple, int] = {}
        for bits in range(8):
            x, y, z = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
            g1 = ((y ^ dyi) & (z ^ dzi)) ^ (y & z)
            g2 = ((x ^ dxi) | (z ^ dzi)) ^ (x | z)
            g3 = ((x ^ dxi) & (y ^ dyi)) ^ (x & y)
            key = (g1, g2, g3)
            counts[key] = counts.get(key, 0) + 1
        tables.append(counts)
    return tables


def column_transitions(
    col_diff: ColumnDiff, variants: int = 1
) -> List[Tuple[ColumnDiff, float]]:
    """Best (and near-best) SP-box output differences for ``col_diff``.

    Per bit position the disturbance-bit choices are independent, so the
    globally optimal output difference is assembled from per-position
    argmax choices — an *exactly* optimal one-round transition.  With
    ``variants > 1``, additional outputs are generated by flipping the
    single cheapest position to its second-best choice, giving the beam
    search alternatives to explore.
    """
    da, db, dc = (w & _MASK32 for w in col_diff)
    dx = rotl32(da, 24)
    dy = rotl32(db, 9)
    tables = _position_tables((da, db, dc))

    # For each position pick the marginal best over consumed g bits.
    best_choice: List[Tuple[Tuple, int]] = []
    second_choice: List[Optional[Tuple[Tuple, int]]] = []
    for i, counts in enumerate(tables):
        consumed = (i + 2 < 32, i + 1 < 32, i + 3 < 32)

        def project(key):
            return tuple(k if used else None for k, used in zip(key, consumed))

        merged: Dict[Tuple, int] = {}
        for key, count in counts.items():
            pk = project(key)
            merged[pk] = merged.get(pk, 0) + count
        ranked = sorted(merged.items(), key=lambda kv: -kv[1])
        best_choice.append(ranked[0])
        second_choice.append(ranked[1] if len(ranked) > 1 else None)

    def assemble(choices: List[Tuple[Tuple, int]]) -> Tuple[ColumnDiff, float]:
        bc = bb = ba = 0
        probability = 1.0
        for i, (key, count) in enumerate(choices):
            g1, g2, g3 = key
            if g1 is not None:
                bc |= g1 << (i + 2)
            if g2 is not None:
                bb |= g2 << (i + 1)
            if g3 is not None:
                ba |= g3 << (i + 3)
            probability *= count / 8.0
        dz = dc
        bc = (bc ^ dx ^ ((dz << 1) & _MASK32)) & _MASK32
        bb = (bb ^ dy ^ dx) & _MASK32
        ba = (ba ^ dz ^ dy) & _MASK32
        return (ba, bb, bc), probability

    results = [assemble(best_choice)]
    if variants > 1:
        # Rank positions by how cheap their second-best alternative is.
        alternatives = []
        for i, second in enumerate(second_choice):
            if second is None or second[1] == 0:
                continue
            penalty = best_choice[i][1] / second[1]
            alternatives.append((penalty, i, second))
        alternatives.sort(key=lambda item: item[0])
        for _, i, second in alternatives[: variants - 1]:
            choices = list(best_choice)
            choices[i] = second
            results.append(assemble(choices))
    return results


def greedy_trail(
    seed: StateDiff, rounds: int, start_round: int = GIMLI_ROUNDS
) -> DifferentialTrail:
    """Extend ``seed`` by locally optimal SP-box transitions per round."""
    current = tuple(int(w) & _MASK32 for w in seed)
    trail = DifferentialTrail((current,))
    for r in range(start_round, start_round - rounds, -1):
        cols = []
        probability = 1.0
        for col in _columns(current):
            (out, p), = column_transitions(col, variants=1)
            cols.append(out)
            probability *= p
        current = _apply_swap(_from_columns(cols), r)
        trail = trail.extend(current, probability)
    return trail


def beam_search_trail(
    seeds: Iterable[StateDiff],
    rounds: int,
    start_round: int = GIMLI_ROUNDS,
    beam_width: int = 32,
    variants: int = 3,
) -> DifferentialTrail:
    """Beam search over near-optimal per-column transitions.

    Returns the lowest-weight trail found.  Weights are exact for the
    returned trail; global optimality is not guaranteed.
    """
    beam: List[Tuple[float, int, DifferentialTrail]] = []
    tiebreak = itertools.count()
    for seed in seeds:
        diff = tuple(int(w) & _MASK32 for w in seed)
        beam.append((0.0, next(tiebreak), DifferentialTrail((diff,))))
    if not beam:
        raise SearchError("beam search needs at least one seed difference")

    for r in range(start_round, start_round - rounds, -1):
        # Keep, per reached difference, only the lowest-weight trail.
        best_by_diff: Dict[StateDiff, Tuple[float, int, DifferentialTrail]] = {}
        for weight, _, trail in beam:
            per_column = [
                column_transitions(col, variants=variants)
                for col in _columns(trail.output_difference)
            ]
            for combo in itertools.product(*per_column):
                probability = 1.0
                cols = []
                for out, p in combo:
                    probability *= p
                    cols.append(out)
                if probability == 0.0:
                    continue
                new_diff = _apply_swap(_from_columns(cols), r)
                new_trail = trail.extend(new_diff, probability)
                current = best_by_diff.get(new_diff)
                if current is None or new_trail.weight < current[0]:
                    best_by_diff[new_diff] = (
                        new_trail.weight,
                        next(tiebreak),
                        new_trail,
                    )
        if not best_by_diff:
            raise SearchError("beam search ran out of viable transitions")
        beam = heapq.nsmallest(beam_width, best_by_diff.values())
    return min(beam, key=lambda item: item[0])[2]


def default_seeds(max_columns: int = 1) -> List[StateDiff]:
    """Reasonable seed set: safe-set diffs plus all single-bit differences."""
    seeds: List[StateDiff] = []
    for positions in itertools.combinations(range(4), max_columns):
        for choice in itertools.product(safe_column_diffs(), repeat=max_columns):
            cols = [(0, 0, 0)] * 4
            for pos, col in zip(positions, choice):
                cols[pos] = col
            seeds.append(_from_columns(cols))
    for word in range(12):
        for bit in range(32):
            diff = [0] * 12
            diff[word] = 1 << bit
            seeds.append(tuple(diff))
    return seeds
