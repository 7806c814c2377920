"""Shared mining-run plumbing: configuration, budgets, the per-length driver."""

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


def zero_stats(engine: str, extra: tuple = ()) -> dict:
    return dict.fromkeys(_STATS[engine] + extra, 0)


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
        if self.max_len < 0:
            raise ValueError("max_len must be non-negative")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be a number of seconds >= 0")
        if self.fidelity not in (REPAIRED, LITERAL):
            raise ValueError(f"unknown fidelity {self.fidelity!r}")
        for name in ("max_programs", "max_triples"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")


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
    make_level: Callable,
    extra_stats: tuple = (),
) -> Iterator[MiningReport]:
    """One report per length 0..max_len; a level callback searches the viable ones.

    ``make_level(g, source, target, mode)`` returns the callback
    ``level(length, positions, budget) -> (programs, stats)``, where
    ``positions[j]`` is the set of vertices exactly j steps from the source.
    A length is viable when the vertices that many steps from the source
    contain the target (exact mode and the literal fidelity) or meet it
    (repaired feasible mode). The empty program counts toward
    ``max_programs``. A report is exhausted unless the budget tripped, and
    the run stops after the length that trips it. ``extra_stats`` names the
    counters the level callback keeps beyond the engine's own.
    """
    _validate_instance(g, source, target)
    budget = Budget(config)
    level = make_level(g, source, target, mode)
    contain = mode == EXACT or config.fidelity == LITERAL
    positions = [source.mask]
    for length in range(config.max_len + 1):
        programs, stats = [], zero_stats(engine, extra_stats)
        if length == 0:
            ok = source == target if mode == EXACT else source.issubset(target)
            if ok:
                programs = [empty_program]
                budget.charge_program()
        else:
            positions.append(g.out_image(positions[-1]))
            reach = positions[length]
            viable = target.mask & ~reach == 0 if contain else target.mask & reach != 0
            if viable:
                programs, stats = level(length, positions, budget)
        yield MiningReport(engine, mode, length, programs, not budget.tripped, stats)
        if budget.tripped:
            return


def start_states(target: int, mode: str, empty) -> list:
    """Start states (ε, T, T) in exact mode, (ε, {t}, T) for each t in T in
    feasible mode; ``empty`` is the engine's empty program ε."""
    starts = [target] if mode == EXACT else [1 << t for t in iter_bits(target)]
    return [(empty, B, target) for B in starts]


def backward_search(g, engine, empty, target, mode, expand, accept):
    """A repaired search, breadth-first over states (p, B, M), one state per step.

    A state says that any start set between B and M runs the suffix program
    ``p`` into the target; the search starts from :func:`start_states`.
    ``expand(state, length, positions, stats)`` yields ``(newp, pool, keep)``,
    and each base drawn from the pool gives a state (newp, base, keep) unless
    seen before at this length. The bases are B's minimal covers in the pool;
    in the last two steps back, where the next step reads a base only through
    its class, the pool itself, which ``expand`` yields there only if its
    image covers B. ``accept(p)`` returns a program's sort key, or None.

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
            if len(p) == length:
                key = None if p in found else accept(p)
                if key is not None and budget.charge_program():
                    found[p] = key
            else:
                for newp, pool, keep in expand(state, length, positions, stats):
                    bases = cover_masks(g, B, pool, budget.expired) if len(newp) + 1 < length else [pool]
                    for basis in bases:
                        stats["pseudo_bases"] += 1
                        nxt = (newp, basis, keep)
                        if nxt in seen:
                            stats["dedup_hits"] += 1
                            continue
                        seen.add(nxt)
                        queue.append(nxt)
            yield

    return search


def backward_level(g, engine, empty, target, mode, expand, accept):
    """Level callback that runs a :func:`backward_search` to its end."""
    search = backward_search(g, engine, empty, target, mode, expand, accept)

    def level(length, positions, budget):
        stats, found = zero_stats(engine), {}
        for _ in search(length, positions, budget, found, stats):
            pass
        return sorted(found, key=found.__getitem__), stats

    return level
