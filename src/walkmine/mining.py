"""Shared mining-run plumbing: configuration, budgets, the per-length driver
that races a miner's searches and orders their programs, and the backward search."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Optional

from .bitset import VertexSet, iter_bits
from .criterion import TosetProgram
from .graph import DirectedGraph
from .setcover import cover_masks

EXACT = "exact"
FEASIBLE = "feasible"

_STATS = {
    "scp": ("triples_expanded", "pseudo_bases", "dedup_hits"),
    "stp": ("chains_expanded", "pseudo_bases", "dedup_hits"),
}
_PROGRAM = {"scp": tuple, "stp": TosetProgram}  # each engine's program type


@dataclass(frozen=True)
class MiningConfig:
    """Limits of a mining run."""

    max_len: int
    max_programs: Optional[int] = None
    max_triples: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self):
        for name, least in (("max_len", 0), ("max_programs", 1), ("max_triples", 1)):
            value = getattr(self, name)
            if value is None and name != "max_len":
                continue
            if type(value) is not int or value < least:  # type(), not isinstance: a bool is no count
                raise ValueError(f"{name} must be an integer >= {least}")
        seconds = self.time_budget
        if seconds is not None and (type(seconds) is bool or not isinstance(seconds, (int, float))
                                    or not seconds >= 0):
            raise ValueError("time_budget must be a number of seconds >= 0")


class Budget:
    """Mutable resource meter shared across the levels of one mining run."""

    def __init__(self, config: MiningConfig):
        self._max_programs = config.max_programs
        self._max_triples = config.max_triples
        self._deadline = None
        if config.time_budget is not None:
            self._deadline = time.monotonic() + config.time_budget
        self.triples = 0
        self.programs = 0
        self.tripped = False

    def charge_triple(self) -> bool:
        """Account for one search step; False, tripping the budget, once over
        ``max_triples`` or past the deadline."""
        if self.tripped:
            return False
        self.triples += 1
        if self._max_triples is not None and self.triples > self._max_triples:
            self.tripped = True
        elif self._deadline is not None and time.monotonic() > self._deadline:
            self.tripped = True
        return not self.tripped

    def charge_program(self) -> bool:
        """Account for one listed program; False, listing nothing, once
        ``max_programs`` have been listed."""
        full = self._max_programs is not None and self.programs >= self._max_programs
        if not full:
            self.programs += 1
            if self.programs == self._max_programs:
                self.tripped = True
        return not full


def render_program(g: DirectedGraph, program) -> list:
    """JSON form of a program: colour names, or one criterion dict per step."""
    if isinstance(program, TosetProgram):
        return program.to_dict(g)
    names = g.color_names
    if not all(0 <= c < len(names) for c in program):  # a negative id would name a colour from the end
        raise ValueError(f"colour program {program!r} names a colour id outside 0..{len(names) - 1}")
    return [names[c] for c in program]


def program_key(g: DirectedGraph, program):
    """Sort key of a program: a colour program's colour names, a criterion
    program's rendered steps; so neither follows the order of the vertices."""
    if isinstance(program, TosetProgram):
        return program.key(g)
    return tuple(render_program(g, program))  # which refuses an id outside the colours


@dataclass
class MiningReport:
    """Result of mining one program length."""

    engine: str
    mode: str
    length: int
    programs: list
    exhausted: bool
    stats: dict = field(default_factory=dict)

    def to_dict(self, g: DirectedGraph) -> dict:
        return {
            "engine": self.engine,
            "mode": self.mode,
            "length": self.length,
            "exhausted": self.exhausted,
            "programs": [render_program(g, p) for p in self.programs],
            "stats": dict(self.stats),
        }


def _validate_instance(g: DirectedGraph, source: VertexSet, target: VertexSet):
    if not source or not target:
        raise ValueError("source and target sets must be nonempty")
    g.check_universe(source, target)


def run_levels(
    g: DirectedGraph,
    source: VertexSet,
    target: VertexSet,
    config: MiningConfig,
    engine: str,
    mode: str,
    empty_program,
    make_searches: Callable,
    extra_stats: tuple = (),
) -> Iterator[MiningReport]:
    """One report per length 0..max_len; a race of searches mines the viable ones.

    ``make_searches(g, S, T, mode)``, on source and target masks, returns the
    searches. Each is a generator ``search(length, positions, budget, found,
    stats)``, with ``positions[j]`` the vertices exactly j steps from the
    source; it yields once per charged step and adds each program it lists
    to ``found``, a dict kept as an ordered set. The searches take one step
    each in turn, and the first to finish answers the length. A length is
    viable when the vertices that many steps from the source contain the
    target (exact mode) or meet it (feasible mode). The empty program counts
    toward ``max_programs``. A report lists its programs by
    :func:`program_key`; it is exhausted unless the budget tripped, and the
    run stops after the length that trips it.
    ``extra_stats`` names the counters the searches keep beyond the engine's own.
    """
    _validate_instance(g, source, target)
    budget = Budget(config)
    searches = make_searches(g, source.mask, target.mask, mode)
    positions = [source.mask]
    for length in range(config.max_len + 1):
        stats, found = dict.fromkeys(_STATS[engine] + extra_stats, 0), {}
        if length == 0:
            ok = source == target if mode == EXACT else source.issubset(target)
            if ok:
                found[empty_program] = None
                budget.charge_program()
        else:
            positions.append(g.out_image(positions[-1]))
            reach = positions[length]
            viable = target.mask & ~reach == 0 if mode == EXACT else target.mask & reach != 0
            if viable:
                for _ in zip(*(search(length, positions, budget, found, stats) for search in searches)):
                    pass  # zip stops as soon as one search finishes
        programs = sorted(found, key=lambda p: program_key(g, p))
        yield MiningReport(engine, mode, length, programs, not budget.tripped, stats)
        if budget.tripped:
            return


def start_states(target: int, mode: str) -> list:
    """Start states (ε, T, T) in exact mode, (ε, {t}, T) for each t in T in
    feasible mode, with ε the empty tuple for both engines."""
    starts = [target] if mode == EXACT else [1 << t for t in iter_bits(target)]
    return [((), B, target) for B in starts]


def backward_search(g, engine, target: int, mode, alike, split, label):
    """A repaired search, breadth-first over states (p, B, M), one (B, M) group per step.

    A state says that any start set between B and M runs the suffix program
    ``p`` into the target; the search starts from :func:`start_states` and
    takes every step back itself. A step back reads a state only through
    (B, M) and the steps still to take, never through p, so each depth maps
    (B, M) to the suffixes reaching it, a group expanded once for all of
    them. The engine's hooks: ``alike(B)``, the vertices a step keeping B
    also keeps, or None when no step keeps all of B, so the safe vertices
    are the base's with no out-neighbour in alike(B) outside M;
    ``split(pool, safe)``, the (pool, keep) class pairs of the safe vertices
    that have an out-neighbour in B; ``label(B, M, safe)``, the step, asked
    only when some pool survives. Each new suffix is that step followed by
    one of the group's suffixes, as a plain tuple, and a full-length suffix
    is listed as the engine's program type (a tuple for ``scp``, a
    :class:`~walkmine.criterion.TosetProgram` for ``stp``). The last step
    back gives the one group (S, S), S the source, when all of S is safe and
    S's image covers B. Any other keeps only the pools whose image covers B,
    and each base drawn from one takes the new suffixes to the group (base,
    keep): B's minimal covers in the pool, or the pool itself one step
    before the last, where the next step reads a base only through its
    class.

    So programs are accepted by construction, and none is simulated. A
    start state holds: ε ends on T (exact) or on a nonempty part of T
    (feasible). A step back keeps it, as a step grows with its start set:
    the new base's step keeps all of B, and the new M is safe: its image
    meets alike(B) only inside M, and the labelled step keeps no other
    vertex of it outside M, so the step stays in M. That holds for a cover,
    for the pool one step before the last and for (S, S); so a full-length
    suffix of (S, S) runs S onto T, or into it, as ``mode`` asks, and each
    set on the way holds a nonempty B.

    Returns ``search(length, positions, budget, found, stats)``, a generator
    that charges the budget and yields once per expanded group and once per
    branch of a cover listing (:func:`walkmine.setcover.cover_masks`), so a
    race switches searches inside a long listing. It stops when a depth
    holds no group or a charge is refused, and it adds each full-length
    suffix to ``found`` while the budget admits it.
    """
    expanded, program = _STATS[engine][0], _PROGRAM[engine]
    # a depth maps (B, M) to the suffix lists its parent groups handed it,
    # each shared by all the parent's children and merged only when the group
    # is expanded; no level is changed once built, so every length starts
    # from this one
    starts = {(B, M): [[p]] for p, B, M in start_states(target, mode)}

    def search(length, positions, budget, found, stats):
        level = starts
        for left in range(length, 0, -1):  # steps back still to take
            nxt = {}
            for (B, M), parts in level.items():
                if not budget.charge_triple():
                    return
                stats[expanded] += 1
                base, like = positions[left - 1], alike(B)
                allowed = None if like is None else base & ~g.in_image(like & ~M)
                if allowed is None:
                    pairs = []
                elif left == 1:
                    # the last base is S itself, and its image is positions[1]
                    pairs = [(base, base)] if allowed == base and B & ~positions[1] == 0 else []
                else:
                    pairs = split(allowed & g.in_image(B), allowed)
                    pairs = [(pool, keep) for pool, keep in pairs if B & ~g.out_image(pool) == 0]
                if pairs:
                    step = label(B, M, allowed)
                    suffixes = dict.fromkeys(chain.from_iterable(parts))  # each suffix once, in order
                    joined = [(step, *p) for p in suffixes]
                for pool, keep in pairs:
                    bases = (yield from cover_masks(g, B, pool, budget)) if left > 2 else [pool]
                    if bases is None:
                        return
                    for basis in bases:
                        stats["pseudo_bases"] += 1
                        stats["dedup_hits"] += (basis, keep) in nxt
                        nxt.setdefault((basis, keep), []).append(joined)
                yield
            level = nxt
        for parts in level.values():  # at most one group, (S, S)
            if not budget.charge_triple():
                return
            stats[expanded] += 1
            for p in chain.from_iterable(parts):
                if p not in found:
                    if not budget.charge_program():
                        return
                    found[program(p)] = None
            yield

    return search
