"""Workload runner: set-up, mining, verify and simulate, checks and metrics.

An operation is one mining run, one verify call or one simulate call. Every
round of a workload runs the same operations, so a failing operation fails
in every round and ``failed`` stays the same share of ``attempted``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from walkmine import criterion, graphio, mining, scp, stp

import reference
from instances import WORKLOADS, Instance
from tracer import Tracer

MODES = ("exact", "feasible")

END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "verify_per_s": "1/s",
    "simulate_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphio.load_graph.self_s": "s",
    "graph.DirectedGraph.self_s": "s",
    "graph.out_image.calls": "count",
    "graph.out_image.self_s": "s",
    "graph.in_image.calls": "count",
    "graph.in_image.self_s": "s",
    "graph.out_mask.calls": "count",
    "graph.out_mask.self_s": "s",
    "setcover.minimal_covers.calls": "count",
    "setcover.minimal_covers.self_s": "s",
    "setcover.minimal_covers.covers": "count",
    "scp.enumerate_pseudo_bases.self_s": "s",
    "scp.classify_scp.calls": "count",
    "scp.classify_scp.self_s": "s",
    "scp.simulate_scp.self_s": "s",
    "scp.mine.self_s": "s",
    "scp.triples_expanded": "count",
    "scp.pseudo_bases": "count",
    "scp.dedup_hits": "count",
    "scp.useful_base_ratio": "ratio",
    "stp.classify_stp.calls": "count",
    "stp.classify_stp.self_s": "s",
    "stp.simulate_stp.self_s": "s",
    "stp.mine.self_s": "s",
    "stp.chains_expanded": "count",
    "stp.pseudo_bases": "count",
    "stp.dedup_hits": "count",
    "stp.inseparable": "count",
    "stp.distinct_program_ratio": "ratio",
    "criterion.compute_criterion.calls": "count",
    "criterion.compute_criterion.self_s": "s",
    "criterion.satisfies.calls": "count",
    "trace.overhead_s": "s",
}

# An untraced run repeats rounds of (set-up, mining pass, verify batch,
# simulate batch) until --seconds have passed, and reports each metric's
# median over the rounds, so every metric samples the whole run. Each set-up,
# verify and simulate sample sums whole repetitions until they make up BATCH_S
# of timed work, since single millisecond-long calls catch the machine at one
# speed or another.
MIN_ROUNDS = 3
BATCH_S = 0.5

# The speed of a shared machine drifts by tens of percent between runs a
# minute apart, so every timed sample is scaled to a reference speed: the
# probe below runs before a sample and after each repetition (each mining run,
# in a mining pass), and the sample is multiplied by PROBE_REF_S over the
# median probe time. PROBE_REF_S is about the probe's time when the 2-core
# machine behind the reference figures in bench/README.md runs fast (its
# median ranged 0.6-1.0 ms from run to run), so scaled times read close to
# the wall times of a fast run. Unscaled medians go to standard error.
PROBE_REF_S = 0.0007


def probe() -> float:
    """Time of a fixed pure-Python loop, the gauge of the machine's speed."""
    start = time.perf_counter()
    acc, counts = 0, {}
    for i in range(2000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc ^= m >> (i & 7)
        counts[m & 1023] = counts.get(m & 1023, 0) + 1
    return time.perf_counter() - start


@dataclass
class Case:
    """One instance: its texts, the reference graph and the loaded graph."""

    inst: Instance
    ref: reference.RefGraph
    graph_text: str
    source_text: str
    target_text: str
    g: object = None
    S: object = None
    T: object = None
    batch: list = field(default_factory=list)  # programs in walkmine form
    batch_src: list = field(default_factory=list)  # the same in generator form


class Run:
    def __init__(self, workload: str, seed: int):
        self.cases = []
        for inst in WORKLOADS[workload](seed):
            ref = reference.RefGraph(inst.names, inst.features, inst.edges)
            self.cases.append(Case(inst, ref, inst.graph_text(), inst.source_text(), inst.target_text()))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs of operations that did not fail
        self.errors: list[str] = []  # operations that raised

    # -- operations -----------------------------------------------------------

    def setup(self) -> float:
        """Set up every graph once; returns the summed wall time."""
        for case in self.cases:
            case.g = case.S = case.T = None
        total = 0.0
        for case in self.cases:
            colour = case.inst.features[0]["color"]
            start = time.perf_counter()
            g = graphio.load_graph(case.graph_text)
            S = graphio.parse_vertex_set(case.source_text, g)
            T = graphio.parse_vertex_set(case.target_text, g)
            g.color_id(colour)
            total += time.perf_counter() - start
            case.g, case.S, case.T = g, S, T
        return total

    def mine_pass(self, probes=None) -> tuple:
        """Every mining run once: the report streams and their summed time.

        A failed run contributes None. With a ``probes`` list, the speed probe
        runs after each mining run and its times are appended.
        """
        streams, total = [], 0.0
        for case in self.cases:
            if case.inst.max_len is None:
                continue
            config = mining.MiningConfig(max_len=case.inst.max_len)
            module = scp if case.inst.engine == "scp" else stp
            for mode in MODES:
                miner = getattr(module, f"mine_{mode}_{case.inst.engine}")
                self.attempted += 1
                start = time.perf_counter()
                try:
                    streams.append(list(miner(case.g, case.S, case.T, config)))
                except Exception as e:  # a failed operation is counted, not fatal
                    self.failed += 1
                    self._error(f"{case.inst.name} {mode} mining raised {e!r}")
                    streams.append(None)
                total += time.perf_counter() - start
                if probes is not None:
                    probes.append(probe())
        return streams, total

    def call_pass(self, verb: str) -> list:
        """One verify (``classify``) or ``simulate`` call per batch program."""
        out = []
        for case in self.cases:
            module = scp if case.inst.engine == "scp" else stp
            fn = getattr(module, f"{verb}_{case.inst.engine}")
            for program in case.batch:
                self.attempted += 1
                try:
                    if verb == "classify":
                        out.append(fn(case.g, case.S, case.T, program))
                    else:
                        out.append(fn(case.g, case.S, program))
                except Exception as e:  # a failed operation is counted, not fatal
                    self.failed += 1
                    self._error(f"{case.inst.name} {verb} raised {e!r}")
                    out.append(None)
        return out

    def batch_size(self) -> int:
        return sum(len(case.batch) for case in self.cases)

    def _note(self, problem: str):
        self.problems.append(problem)

    def _error(self, error: str):
        if error not in self.errors:
            self.errors.append(error)

    # -- program batches and report rendering ----------------------------------

    def _walkmine_program(self, case: Case, program):
        g = case.g
        if case.inst.engine == "scp":
            return tuple(g.color_id(c) for c in program)
        return stp.TosetProgram(tuple(criterion.criterion_from_dict(step, g.schema) for step in program))

    def build_batches(self, streams: list):
        """Batch = an instance's own programs plus, if it has any, its mined ones."""
        mined = iter(streams)
        for case in self.cases:
            found = []
            if case.inst.max_len is not None:
                for _ in MODES:
                    for report in next(mined) or []:
                        for p in report.to_dict(case.g)["programs"]:
                            if p not in found:
                                found.append(p)
            if not case.inst.programs:
                case.batch, case.batch_src = [], []
                continue
            own = ([case.inst.planted] if case.inst.planted else []) + case.inst.programs
            src = []
            for p in [list(p) for p in own] + found:
                if p not in src:
                    src.append(p)
            case.batch_src = src
            case.batch = [self._walkmine_program(case, p) for p in case.batch_src]

    def render(self, streams: list) -> list:
        """Canonical JSON text of every report, for byte comparison."""
        texts = []
        mined = iter(streams)
        for case in self.cases:
            if case.inst.max_len is None:
                continue
            for _ in MODES:
                stream = next(mined)
                texts.append(None if stream is None else [
                    json.dumps(r.to_dict(case.g), sort_keys=True) for r in stream
                ])
        return texts

    # -- checks against the reference -------------------------------------------

    def check_mining(self, streams: list):
        mined = iter(streams)
        for case in self.cases:
            inst = case.inst
            if inst.max_len is None:
                continue
            source, target = frozenset(inst.source), frozenset(inst.target)
            expected = {l: reference.colour_programs(case.ref, source, target, l) for l in range(inst.max_len + 1)}
            for m, mode in enumerate(MODES):
                stream = next(mined)
                if stream is None:
                    continue
                where = f"{inst.name} {inst.engine} {mode}"
                if [r.length for r in stream] != list(range(inst.max_len + 1)):
                    self._note(f"{where}: lengths {[r.length for r in stream]}")
                    continue
                for report in stream:
                    d = report.to_dict(case.g)
                    want = expected[report.length][m]
                    if not d["exhausted"]:
                        self._note(f"{where} length {report.length}: not exhausted")
                    if inst.engine == "scp":
                        got = {tuple(p) for p in d["programs"]}
                        if got != set(want):
                            self._note(f"{where} length {report.length}: {len(got)} programs, "
                                       f"reference has {len(want)}")
                    else:
                        self._check_stp_report(case, where, mode, report.length, d["programs"], want)
                if inst.engine == "scp" and inst.planted is not None and mode == "exact":
                    planted = list(inst.planted)
                    if planted not in stream[len(planted)].to_dict(case.g)["programs"]:
                        self._note(f"{where}: planted program {planted} not mined")

    def _check_stp_report(self, case, where, mode, length, programs, colour_twins):
        ok = ("exact",) if mode == "exact" else ("exact", "feasible")
        source, target = case.inst.source, case.inst.target
        traces = set()
        for program in programs:
            v = reference.classify(case.ref, source, target, reference.keep_sets(case.ref, program))
            if v.kind not in ok:
                self._note(f"{where} length {length}: unsound program {program} ({v.kind})")
            traces.add(v.trace)
        if case.inst.colour_only and traces != set(colour_twins.values()):
            self._note(f"{where} length {length}: {len(traces)} stp traces, "
                       f"{len(set(colour_twins.values()))} colour-program traces")

    def check_calls(self, verdicts: list, traces: list):
        i = 0
        for case in self.cases:
            names = case.g.names
            for program in case.batch_src:
                keeps = reference.keep_sets(case.ref, program)
                want = reference.classify(case.ref, case.inst.source, case.inst.target, keeps)
                got, trace = verdicts[i], traces[i]
                i += 1
                if got is not None:
                    got_v = reference.Verdict(
                        got.kind, got.halt_step, tuple(got.partial_halt_steps),
                        tuple(frozenset(names[v] for v in level) for level in got.trace),
                    )
                    if got_v != want:
                        self._note(f"{case.inst.name}: verify {program} gave {got_v[:3]}, reference {want[:3]}")
                if trace is not None:
                    if tuple(frozenset(names[v] for v in level) for level in trace) != want.trace:
                        self._note(f"{case.inst.name}: simulate {program} trace differs from reference")

    def check_same(self, what: str, first, again):
        if first != again:
            self._note(f"{what} differs between passes")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _sample(timed_repeat, min_s: float) -> tuple:
    """Mean time of whole repeats making up ``min_s``: (scaled, unscaled).

    ``timed_repeat(probes)`` runs once and returns the time of its timed
    part; it may add probe times of its own to ``probes``.
    """
    probes = [probe()]
    total, repeats = 0.0, 0
    while True:
        total += timed_repeat(probes)
        probes.append(probe())
        repeats += 1
        if total >= min_s:
            break
    wall = total / repeats
    return wall * PROBE_REF_S / statistics.median(probes), wall


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    run = Run(workload, seed)
    run.setup()

    # untimed warm-up pass, whose outputs are checked against the reference
    streams, _ = run.mine_pass()
    run.check_mining(streams)
    run.build_batches(streams)
    verdicts = run.call_pass("classify")
    traces = run.call_pass("simulate")
    run.check_calls(verdicts, traces)
    rendered = run.render(streams)

    def mine(probes):
        again, t = run.mine_pass(probes)
        run.check_same("mining reports", rendered, run.render(again))
        return t

    def batch(verb, warm):
        t, out = _timed(lambda: run.call_pass(verb))
        run.check_same(f"{verb} results", warm, out)
        return t

    phases = {
        "setup": (lambda probes: run.setup(), BATCH_S),
        "mine": (mine, 0.0),
        "classify": (lambda probes: batch("classify", verdicts), BATCH_S),
        "simulate": (lambda probes: batch("simulate", traces), BATCH_S),
    }
    scaled = {phase: [] for phase in phases}
    wall = {phase: [] for phase in phases}
    start = time.perf_counter()
    while len(scaled["mine"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        for phase, (fn, min_s) in phases.items():
            s, w = _sample(fn, min_s)
            scaled[phase].append(s)
            wall[phase].append(w)

    median = {phase: statistics.median(v) for phase, v in scaled.items()}
    print("unscaled medians (s):", json.dumps({p: statistics.median(v) for p, v in wall.items()}), file=sys.stderr)
    calls = run.batch_size()
    metrics = {
        "setup_s": median["setup"],
        "mine_s": median["mine"],
        "verify_per_s": calls / median["classify"],
        "simulate_per_s": calls / median["simulate"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _result(run, metrics, END_TO_END)


def _stats_totals(run: Run, streams: list) -> Counter:
    totals = Counter()
    mined = iter(streams)
    for case in run.cases:
        if case.inst.max_len is None:
            continue
        for _ in MODES:
            for report in next(mined) or []:
                for key, value in report.stats.items():
                    totals[f"{report.engine}.{key}"] += value
                if report.engine == "stp":
                    totals["stp.programs"] += len(report.programs)
    return totals


def _round(run: Run) -> tuple:
    """Set-up, one mining pass, one verify batch, one simulate batch."""
    start = time.perf_counter()
    run.setup()
    streams, _ = run.mine_pass()
    verdicts = run.call_pass("classify")
    traces = run.call_pass("simulate")
    return time.perf_counter() - start, streams, verdicts, traces


def run_traced(workload: str, seed: int, seconds: float, trace_path) -> dict:
    run = Run(workload, seed)
    run.setup()
    streams, _ = run.mine_pass()
    run.check_mining(streams)
    run.build_batches(streams)
    rendered = run.render(streams)
    verdicts = run.call_pass("classify")
    traces = run.call_pass("simulate")
    run.check_calls(verdicts, traces)

    plain, traced, layers, first = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        t, s, v, tr = _round(run)
        plain.append(t)
        for what, a, b in (("mining reports", rendered, run.render(s)),
                           ("classify results", verdicts, v), ("simulate results", traces, tr)):
            run.check_same(f"untraced {what}", a, b)
        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            t, s, v, tr = _round(run)
        finally:
            tracer.uninstall()
        traced.append(t)
        for what, a, b in (("mining reports", rendered, run.render(s)),
                           ("classify results", verdicts, v), ("simulate results", traces, tr)):
            run.check_same(f"traced {what}", a, b)
        layers.append(_layer_metrics(tracer, _stats_totals(run, s)))
        if first is None:
            first = tracer

    first.write(trace_path, {"workload": workload, "seed": seed})
    metrics = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return _result(run, metrics, PER_LAYER)


def _layer_metrics(tracer: Tracer, stats: Counter) -> dict:
    out = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "self_s":
            out[name] = tracer.self_seconds(layer)
        elif what == "calls" and name != "criterion.satisfies.calls":
            out[name] = tracer.call_count(layer)
    out["setcover.minimal_covers.covers"] = tracer.counts["setcover.minimal_covers.covers"]
    out["criterion.satisfies.calls"] = tracer.counts["criterion.satisfies.calls"]
    for key in ("scp.triples_expanded", "scp.pseudo_bases", "scp.dedup_hits", "stp.chains_expanded",
                "stp.pseudo_bases", "stp.dedup_hits", "stp.inseparable"):
        out[key] = stats[key]
    pb = stats["scp.pseudo_bases"]
    out["scp.useful_base_ratio"] = (pb - stats["scp.dedup_hits"]) / pb if pb else 0.0
    found = stats["stp.programs"] + stats["stp.dedup_hits"]
    out["stp.distinct_program_ratio"] = stats["stp.programs"] / found if found else 0.0
    return out


def _result(run: Run, metrics: dict, units: dict) -> dict:
    for error in run.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in dict.fromkeys(run.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
