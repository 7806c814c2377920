"""Shared mining-run plumbing: configuration, budgets, the per-length driver
that races a miner's searches, and the repaired backward search and its hooks."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .bitset import VertexSet, iter_bits
from .graph import DirectedGraph
from .setcover import cover_masks

REPAIRED = "repaired"
LITERAL = "literal"

EXACT = "exact"
FEASIBLE = "feasible"

_STATS = {
    "scp": ("triples_expanded", "pseudo_bases", "dedup_hits"),
    "stp": ("chains_expanded", "pseudo_bases", "dedup_hits", "inseparable"),
}


@dataclass(frozen=True)
class MiningConfig:
    """Limits and behaviour switches for a mining run.

    ``fidelity`` selects between the corrected backward search (default) and
    a literal transcription of its uncorrected form, kept for comparison.
    """

    max_len: int
    max_programs: Optional[int] = None
    max_triples: Optional[int] = None
    time_budget: Optional[float] = None
    fidelity: str = REPAIRED

    def __post_init__(self):
        for name, least in (("max_len", 0), ("max_programs", 1), ("max_triples", 1)):
            value = getattr(self, name)
            if value is None and name != "max_len":
                continue
            if type(value) is not int or value < least:  # type(), not isinstance: a bool is no count
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be a number of seconds >= 0")
        if self.fidelity not in (REPAIRED, LITERAL):
            raise ValueError(f"unknown fidelity {self.fidelity!r}")


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
        """Account for one search step; False once over budget."""
        if self.tripped:
            return False
        self.triples += 1
        if self._max_triples is not None and self.triples > self._max_triples:
            self.tripped = True
        return not self.expired()

    def charge_program(self) -> bool:
        """Account for one listed program; False, listing nothing, once
        ``max_programs`` have been listed."""
        full = self._max_programs is not None and self.programs >= self._max_programs
        if not full:
            self.programs += 1
            if self.programs == self._max_programs:
                self.tripped = True
        return not full

    def expired(self) -> bool:
        """Has the budget tripped? Checks the deadline, and trips on it."""
        if not self.tripped and self._deadline is not None and time.monotonic() > self._deadline:
            self.tripped = True
        return self.tripped


def render_program(g: DirectedGraph, program) -> list:
    """JSON form of a program: colour names, or one criterion dict per step."""
    if isinstance(program, tuple):
        return [g.color_names[c] for c in program]
    return program.to_dict(g)


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
    if source.size != g.n or target.size != g.n:
        raise ValueError("vertex sets must live in the graph's universe")


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

    ``make_searches(g, source, target, mode)`` returns the searches. Each is
    a generator ``search(length, positions, budget, found, stats)``, with
    ``positions[j]`` the vertices exactly j steps from the source; it yields
    once per charged step and records each program p it lists as
    ``found[p] = sort key``. The searches take one step each in turn, and
    the first to finish answers the length. A length is viable when the
    vertices that many steps from the source contain the target (exact mode
    and the literal fidelity) or meet it (repaired feasible mode). The empty
    program counts toward ``max_programs``. A report lists its programs by
    key; it is exhausted unless the budget tripped, and the run stops after
    the length that trips it. ``extra_stats`` names the counters the
    searches keep beyond the engine's own.
    """
    _validate_instance(g, source, target)
    budget = Budget(config)
    searches = make_searches(g, source, target, mode)
    contain = mode == EXACT or config.fidelity == LITERAL
    positions = [source.mask]
    for length in range(config.max_len + 1):
        stats, found = dict.fromkeys(_STATS[engine] + extra_stats, 0), {}
        if length == 0:
            ok = source == target if mode == EXACT else source.issubset(target)
            if ok:
                found[empty_program] = ()
                budget.charge_program()
        else:
            positions.append(g.out_image(positions[-1]))
            reach = positions[length]
            viable = target.mask & ~reach == 0 if contain else target.mask & reach != 0
            if viable:
                for _ in zip(*(search(length, positions, budget, found, stats) for search in searches)):
                    pass  # zip stops as soon as one search finishes
        programs = sorted(found, key=found.__getitem__)
        yield MiningReport(engine, mode, length, programs, not budget.tripped, stats)
        if budget.tripped:
            return


def start_states(target: int, mode: str, empty) -> list:
    """Start states (ε, T, T) in exact mode, (ε, {t}, T) for each t in T in
    feasible mode; ``empty`` is the engine's empty program ε."""
    starts = [target] if mode == EXACT else [1 << t for t in iter_bits(target)]
    return [(empty, B, target) for B in starts]


def backward_search(g, engine, empty, target, mode, safe, split, label, accept):
    """A repaired search, breadth-first over states (p, B, M), one state per step.

    A state says that any start set between B and M runs the suffix program
    ``p`` into the target; the search starts from :func:`start_states` and
    takes every step back itself. The engine's hooks: ``safe(state, base)``,
    the part of ``base`` whose step stays in M, or None when no step leads
    into B; ``split(pool, safe)``, the (pool, keep) class pairs of the safe
    vertices that have an out-neighbour in B; ``label(state, safe, stats)``,
    the new suffix or None, asked only when some pool survives; ``accept(p)``,
    a program's sort key or None. The last step back gives the one state
    (newp, S, S), S the source, when all of S is safe and S's image covers B.
    Any other keeps only the pools whose image covers B, and each base drawn
    from one gives a state (newp, base, keep) unless seen at this length:
    B's minimal covers in the pool, or the pool itself one step before the
    last, where the next step reads a base only through its class.

    Returns ``search(length, positions, budget, found, stats)``, a generator
    that charges the budget for each popped state and yields after it. It
    stops when the queue empties or the budget trips, also in the middle of
    a cover enumeration, and it records each accepted program p, while the
    budget admits it, as ``found[p] = key``.
    """
    expanded = _STATS[engine][0]
    seeds = start_states(target.mask, mode, empty)

    def search(length, positions, budget, found, stats):
        queue = deque(seeds)
        seen = set(seeds)
        while queue and budget.charge_triple():
            state = queue.popleft()
            stats[expanded] += 1
            p, B, _ = state
            left = length - len(p)  # steps back still to take
            if left == 0:
                key = None if p in found else accept(p)
                if key is not None and budget.charge_program():
                    found[p] = key
            else:
                base = positions[left - 1]
                allowed = safe(state, base)
                if allowed is None:
                    pairs = []
                elif left == 1:
                    # the last base is S itself, and its image is positions[1]
                    pairs = [(base, base)] if allowed == base and B & ~positions[1] == 0 else []
                else:
                    pairs = split(allowed & g.in_image(B), allowed)
                    pairs = [(pool, keep) for pool, keep in pairs if B & ~g.out_image(pool) == 0]
                newp = label(state, allowed, stats) if pairs else None
                for pool, keep in pairs if newp is not None else ():
                    for basis in cover_masks(g, B, pool, budget.expired) if left > 2 else [pool]:
                        stats["pseudo_bases"] += 1
                        nxt = (newp, basis, keep)
                        if nxt in seen:
                            stats["dedup_hits"] += 1
                            continue
                        seen.add(nxt)
                        queue.append(nxt)
            yield

    return search
