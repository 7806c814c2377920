"""End-to-end acceptance gate.

Each test prints a single [PASS]/[FAIL] line naming the property and the
numbers behind it, then asserts. Thresholds are pinned inline.
"""

import random
import time

import pytest

from helpers import mine_all, name_program
from literal_reference import literal
from oracle_reference import brute_force_mine_scp, walk_traces
from walkmine import (
    Atom,
    Dimension,
    DirectedGraph,
    FeatureSchema,
    InseparableError,
    MiningConfig,
    TosetProgram,
    VertexSet,
    classify_scp,
    classify_stp,
    compute_criterion,
    in_neighbors,
    iterated_in,
    mine_exact_scp,
    mine_exact_stp,
    mine_feasible_scp,
    mine_feasible_stp,
    out_neighbors,
    outspans,
    satisfies,
    select_by_color,
    simulate_scp,
    simulate_stp,
    spans,
)
from walkmine.generate import layered_graph, random_instance
from walkmine.graph import CATEGORICAL, ORDERED
from walkmine.mining import render_program

CORPUS_SIZE = 200
MAX_LEN = 4


@pytest.fixture(scope="module")
def corpus():
    return [random_instance(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture
def announce(capsys):
    def _announce(name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _announce


def _oracle_gap(corpus, miner, which: str) -> tuple:
    mismatches = []
    compared = 0
    for inst in corpus:
        g, S, T = inst.graph, inst.source, inst.target
        reports = mine_all(miner, g, S, T, MiningConfig(max_len=MAX_LEN))
        for length in range(MAX_LEN + 1):
            rep = reports[length]
            assert rep.exhausted, "no caps configured, runs must be exhaustive"
            exact, feasible = brute_force_mine_scp(g, S, T, length)
            expected = exact if which == "exact" else feasible
            got = set(rep.programs)
            compared += len(expected)
            if got != expected:
                mismatches.append((inst.meta["seed"], length, got ^ expected))
    return mismatches, compared


def test_exact_mining_matches_bruteforce(corpus, announce):
    mismatches, compared = _oracle_gap(corpus, mine_exact_scp, "exact")
    announce(
        "exact mining equals brute force",
        not mismatches,
        f"{CORPUS_SIZE} graphs, lengths 0..{MAX_LEN}, {compared} programs, "
        f"{len(mismatches)} mismatching length slots (tolerance 0)",
    )


def test_feasible_mining_matches_bruteforce(corpus, announce):
    mismatches, compared = _oracle_gap(corpus, mine_feasible_scp, "feasible")
    announce(
        "feasible mining equals brute force",
        not mismatches,
        f"{CORPUS_SIZE} graphs, lengths 0..{MAX_LEN}, {compared} programs, "
        f"{len(mismatches)} mismatching length slots (tolerance 0)",
    )


def test_emitted_programs_reclassify_soundly(corpus, announce):
    miners = (
        (mine_exact_scp, classify_scp, "exact"),
        (mine_feasible_scp, classify_scp, "feasible"),
        (mine_exact_stp, classify_stp, "exact"),
        (mine_feasible_stp, classify_stp, "feasible"),
    )
    runs = emitted = 0
    violations = []

    def sweep(g, S, T, rows):
        nonlocal runs, emitted
        for miner, classifier, wanted in rows:
            runs += 1
            for rep in miner(g, S, T, MiningConfig(max_len=3)):
                for p in rep.programs:
                    emitted += 1
                    cls = classifier(g, S, T, p)
                    ok = cls.kind == "exact" if wanted == "exact" else cls.succeeded
                    if not ok:
                        violations.append((g.n, p, cls.kind))

    for inst in corpus:
        sweep(inst.graph, inst.source, inst.target, miners)
    for seed in range(1000, 1150):  # instances with extra ordered dimensions
        inst = random_instance(seed, extra_dims=2)
        sweep(inst.graph, inst.source, inst.target, miners[2:])
    assert runs >= 1000
    announce(
        "mined programs reclassify soundly",
        not violations,
        f"{runs} mining runs, {emitted} programs re-simulated, "
        f"{len(violations)} violations (tolerance 0)",
    )


def test_dead_branch_fixture_regression(dead_branch, announce):
    g, S, T = dead_branch
    wanted = name_program(g, "red", "green", "yellow")
    repaired = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=3))
    found = wanted in set(repaired[3].programs)
    missed = mine_all(literal(mine_exact_scp), g, S, T, MiningConfig(max_len=3))
    literal_count = sum(len(rep.programs) for rep in missed.values())
    announce(
        "dead-branch lookahead regression",
        found and literal_count == 0,
        "repaired search finds red·green·yellow at length 3; "
        f"literal pool rule emits {literal_count} programs (documented miss)",
    )


def _has_spanning_subset(g, A: VertexSet, B: VertexSet, c: int) -> bool:
    ids = A.ids()
    for bits in range(1, 1 << len(ids)):
        sub = VertexSet.from_ids(g.n, [ids[i] for i in range(len(ids)) if bits >> i & 1])
        if spans(g, sub, B, c):
            return True
    return False


def test_neighbourhood_and_cover_identities(corpus, announce):
    counts = {"reach": 0, "walk": 0, "span": 0, "pullback": 0, "reduction": 0}
    bad = []
    for inst in corpus:
        g, S, T = inst.graph, inst.source, inst.target
        mined = []
        for miner, exact in ((mine_exact_scp, True), (mine_feasible_scp, False)):
            for rep in miner(g, S, T, MiningConfig(max_len=3)):
                for p in rep.programs:
                    mined.append((p, classify_scp(g, S, T, p), exact))
        for p, cls, exact in mined:
            n = len(p)
            if not cls.partial_halt_steps:
                # a clean run keeps every step image nonempty and within
                # stepwise reach of the target
                for i in range(n):
                    step = select_by_color(g, out_neighbors(g, cls.trace[i]), g.color_names[p[i]])
                    counts["reach"] += 1
                    if not step or not step.issubset(iterated_in(g, T, n - i - 1)):
                        bad.append(("reach", inst.meta["seed"], p, i))
            if n >= 1:
                # the program reads off the colours of an actual S-to-T walk
                counts["walk"] += 1
                if p not in walk_traces(g, S, T, n, cap=10**7):
                    bad.append(("walk", inst.meta["seed"], p))
            if exact:
                for j in range(n - 1):
                    c = p[j]
                    level, nxt, after = cls.trace[j], cls.trace[j + 1], cls.trace[j + 2]
                    counts["span"] += 1
                    if not spans(g, level, nxt, c):
                        bad.append(("span", inst.meta["seed"], p, j))
                    if (j + 1) not in cls.partial_halt_steps:
                        # with no stuck vertex at the level, its image lies
                        # under the next level's in-neighbourhood
                        counts["pullback"] += 1
                        pulled = select_by_color(g, in_neighbors(g, after), g.color_names[c])
                        if outspans(g, level, pulled, c):
                            bad.append(("pullback", inst.meta["seed"], p, j))
        if g.n <= 10:
            # spanning reduces to subset-basis existence plus no leakage
            rng = random.Random(inst.meta["seed"] * 7 + 1)
            for _ in range(3):
                A = VertexSet.from_ids(g.n, [v for v in range(g.n) if rng.random() < 0.4])
                B = VertexSet.from_ids(g.n, [v for v in range(g.n) if rng.random() < 0.3])
                if not A or not B:
                    continue
                c = rng.randrange(g.num_colors)
                lhs = spans(g, A, B, c)
                rhs = _has_spanning_subset(g, A, B, c) and not outspans(g, A, B, c)
                counts["reduction"] += 1
                if lhs != rhs:
                    bad.append(("reduction", inst.meta["seed"], sorted(A), sorted(B), c))
    assert all(counts.values()), counts
    announce(
        "neighbourhood and cover identities",
        not bad,
        f"{CORPUS_SIZE} graphs; checks per property {counts}, "
        f"{len(bad)} counterexamples (tolerance 0)",
    )


def _random_vector(rng, schema):
    out = []
    for d in schema.dims:
        if rng.random() < 0.15:
            out.append(None)
        elif d.kind == ORDERED:
            out.append(rng.randint(0, 6))
        else:
            out.append(rng.choice("abcd"))
    return tuple(out)


def test_criterion_synthesis_contract(announce):
    rng = random.Random(61)
    schema = FeatureSchema(
        (Dimension("n", ORDERED), Dimension("c", CATEGORICAL), Dimension("m", ORDERED))
    )
    failures = []
    for trial in range(500):
        b = {_random_vector(rng, schema) for _ in range(rng.randint(1, 5))}
        e = {_random_vector(rng, schema) for _ in range(rng.randint(0, 6))} - b
        m = [_random_vector(rng, schema) for _ in range(rng.randint(0, 4))]
        crit = compute_criterion(sorted(b, key=repr), m, sorted(e, key=repr), schema)
        if not all(satisfies(v, crit) for v in b) or any(satisfies(v, crit) for v in e):
            failures.append(("separable", trial))
    for trial in range(100):
        shared = _random_vector(rng, schema)
        b = [shared, _random_vector(rng, schema)]
        e = [_random_vector(rng, schema), shared]
        try:
            compute_criterion(b, [], e, schema)
            failures.append(("collision", trial))
        except InseparableError:
            pass
    announce(
        "criterion synthesis contract",
        not failures,
        "500/500 separable triples perfectly separated, "
        f"100/100 collisions rejected, {len(failures)} failures (tolerance 0)",
    )


def test_colour_only_engines_agree_on_traces(corpus, announce):
    mismatches = []
    for inst in corpus[:50]:
        g, S, T = inst.graph, inst.source, inst.target
        scp = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=3))
        stp = mine_all(mine_exact_stp, g, S, T, MiningConfig(max_len=3))
        for length in range(4):
            scp_traces = {
                tuple(level.mask for level in simulate_scp(g, S, p))
                for p in scp[length].programs
            }
            stp_traces = {
                tuple(level.mask for level in simulate_stp(g, S, p))
                for p in stp[length].programs
            }
            if scp_traces != stp_traces:
                mismatches.append((inst.meta["seed"], length))
    announce(
        "colour-only engines agree on endpoint traces",
        not mismatches,
        f"50 colour-only graphs, lengths 0..3, {len(mismatches)} differing "
        "trace sets (tolerance 0)",
    )


def test_simulation_scales_linearly(announce):
    colors = [f"shade{i}" for i in range(4)]
    g = layered_graph([1000] * 21, colors, out_degree=6, seed=5)
    assert g.num_edges >= 100_000
    S = VertexSet.from_ids(g.n, range(1000))

    def program(length):
        return tuple(g.color_id(colors[i % len(colors)]) for i in range(1, length + 1))

    start = time.perf_counter()
    trace = simulate_scp(g, S, program(10))
    single = time.perf_counter() - start
    assert len(trace) == 11 and trace[-1]

    medians = {}
    for length in (5, 10, 20):
        p = program(length)
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(20):
                simulate_scp(g, S, p)
            samples.append((time.perf_counter() - start) / 20)
        medians[length] = sorted(samples)[2]
    ratios = (medians[10] / medians[5], medians[20] / medians[10])
    ok = single < 1.0 and all(r <= 4.0 for r in ratios)
    announce(
        "simulation scaling",
        ok,
        f"length-10 run on a {g.num_edges}-edge graph took {single * 1000:.1f} ms "
        f"(limit 1 s); doubling ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        "(limit 4.0 = linear growth with factor-2 tolerance)",
    )


def test_vertex_classes_scale_linearly(announce):
    # rows only, no edges: four colours, which an ordered column splits into
    # twelve feature-vector classes
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("w", ORDERED)))
    uses = {"twins": lambda g: g.twins(1), "colour classes": lambda g: g.color_mask(0)}

    def first_uses(n):
        """The best of 3 first-use times of each of ``uses`` on an n-vertex graph."""
        names, rows = [f"v{v}" for v in range(n)], [(f"c{v % 4}", v % 3) for v in range(n)]
        best = dict.fromkeys(uses, float("inf"))
        for _ in range(3):
            g = DirectedGraph(schema, names, rows, [])
            for name, use in uses.items():
                start = time.perf_counter()
                use(g)
                best[name] = min(best[name], time.perf_counter() - start)
        return best

    small, large = first_uses(25_000), first_uses(200_000)
    ratios = {name: large[name] / small[name] for name in uses}
    announce(
        "vertex classes scale linearly",
        all(r <= 16 for r in ratios.values()),
        ", ".join(f"{name} {small[name] * 1000:.1f} → {large[name] * 1000:.1f} ms ({ratios[name]:.1f}×)"
                  for name in uses)
        + " from 25k to 200k vertices (limit 16× = linear growth of 8× with factor-2 tolerance)",
    )


def test_reconstructed_walkthrough_fixtures(fourstep, threestep, twofeature, announce):
    problems = []

    g, S, T = fourstep
    good = name_program(g, "green", "brown", "red", "yellow")
    wrong = name_program(g, "green", "purple", "red", "yellow")
    if classify_scp(g, S, T, good).kind != "exact":
        problems.append("four-step route not exact")
    sup = classify_scp(g, S, T, wrong)
    if sup.kind != "infeasible" or not sup.trace[-1] > T:
        problems.append("four-step detour not an infeasible strict superset")
    if set(mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=4))[4].programs) != {good}:
        problems.append("four-step mining set differs")

    g3, S3, T3 = threestep
    routes = {
        name_program(g3, "green", "red", "yellow"),
        name_program(g3, "green", "blue", "yellow"),
    }
    if any(classify_scp(g3, S3, T3, p).kind != "feasible" for p in routes):
        problems.append("three-step routes not feasible")
    if set(mine_all(mine_feasible_scp, g3, S3, T3, MiningConfig(max_len=3))[3].programs) != routes:
        problems.append("three-step mining set differs")

    g2, S2, T2 = twofeature
    mined = mine_all(mine_exact_stp, g2, S2, T2, MiningConfig(max_len=2))[2].programs
    if len(mined) != 1 or classify_stp(g2, S2, T2, mined[0]).kind != "exact":
        problems.append("two-feature toset program not mined exactly")
    blunt = TosetProgram((Atom(0, "=", "red"), Atom(0, "=", "green")))
    cb = classify_stp(g2, S2, T2, blunt)
    if cb.kind != "infeasible" or not cb.trace[-1] > T2:
        problems.append("two-feature superset program not infeasible-superset")

    announce(
        "reconstructed walkthrough fixtures",
        not problems,
        "four-step exact + detour superset, two feasible three-step routes, "
        f"two-feature exact + superset all verified by classification; problems: {problems or 'none'}",
    )


# the relabelling corpus: (seed, extra_dims) pairs; criterion miners run on
# the instances with extra dimensions only
RELABEL_CORPUS = [(seed, 0) for seed in range(200)] + [(seed, 2) for seed in range(1000, 1150)]
RELABEL_MAX_LEN = 3


def _relabelled(inst):
    """The instance with vertex v renumbered perm[v]; names and rows follow their vertex."""
    g, seed = inst.graph, inst.meta["seed"]
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    names, rows = [None] * g.n, [None] * g.n
    for v in range(g.n):
        names[perm[v]], rows[perm[v]] = g.names[v], g.rows[v]
    h = DirectedGraph(g.schema, names, rows, [(perm[u], perm[v]) for u, v in g.edges()])

    def moved(vs):
        return VertexSet.from_ids(g.n, [perm[v] for v in vs])

    return h, moved(inst.source), moved(inst.target)


def _rendered_reports(miner, g, S, T) -> list:
    """Per length: the exhausted flag and the rendered programs in report order."""
    config = MiningConfig(max_len=RELABEL_MAX_LEN)
    return [(rep.exhausted, [render_program(g, p) for p in rep.programs])
            for rep in miner(g, S, T, config)]


def _verdicts(g, S, T, seed) -> list:
    """Classify and simulate verdicts, by vertex name, of a seeded batch of colour programs."""
    rng = random.Random(seed)
    colors = sorted(g.color_names)
    out = []
    for _ in range(8):
        program = tuple(g.color_id(rng.choice(colors)) for _ in range(rng.randint(0, RELABEL_MAX_LEN)))
        cls = classify_scp(g, S, T, program)
        by_name = [sorted(g.names[v] for v in level) for level in cls.trace]
        stranded = [sorted(g.names[v] for v in stuck) for stuck in cls.partial_halt_vertices]
        simulated = [sorted(g.names[v] for v in level) for level in simulate_scp(g, S, program)]
        out.append((cls.kind, cls.halt_step, cls.partial_halt_steps, by_name, stranded, simulated))
    return out


def _relabelling_gap(miners, criterion_miners, with_verdicts) -> tuple:
    """The number of report streams compared, and what differs between each corpus
    instance and its relabelled copy."""
    compared, moved = 0, []
    for seed, extra_dims in RELABEL_CORPUS:
        inst = random_instance(seed, extra_dims=extra_dims)
        twin = _relabelled(inst)
        for name, miner in miners + (criterion_miners if extra_dims else ()):
            for fidelity, run in (("repaired", miner), ("literal", literal(miner))):
                compared += 1
                ours = _rendered_reports(run, inst.graph, inst.source, inst.target)
                theirs = _rendered_reports(run, *twin)
                if ours != theirs:
                    moved.append((seed, name, fidelity))
        if with_verdicts and _verdicts(inst.graph, inst.source, inst.target, seed) != _verdicts(*twin, seed):
            moved.append((seed, "verdicts"))
    return compared, moved


def test_relabelling_keeps_reports_and_verdicts(announce):
    compared, moved = _relabelling_gap(
        (("exact scp", mine_exact_scp), ("feasible scp", mine_feasible_scp)),
        (("feasible stp", mine_feasible_stp),),
        with_verdicts=True,
    )
    announce(
        "relabelled vertices keep reports and verdicts",
        not moved,
        f"{len(RELABEL_CORPUS)} graphs, each against a seeded renumbering of its vertices; "
        f"{compared} report streams (lengths 0..{RELABEL_MAX_LEN}, both fidelities, programs in report order) "
        f"and {len(RELABEL_CORPUS)} batches of 8 colour-program verdicts, "
        f"{len(moved)} differing (tolerance 0): {moved[:6]}",
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: compute_criterion breaks ties by vertex order")
def test_relabelling_keeps_exact_criterion_reports(announce):
    compared, moved = _relabelling_gap((), (("exact stp", mine_exact_stp),), with_verdicts=False)
    announce(
        "relabelled vertices keep exact criterion reports",
        not moved,
        f"{compared} report streams of the graphs with features "
        f"(lengths 0..{RELABEL_MAX_LEN}, both fidelities), {len(moved)} differing (tolerance 0): {moved}",
    )


# -- completeness gates that need no oracle ----------------------------------------

COMPOSE_MAX_LEN = 4
COMPOSE_PER_REPORT = 3


def test_exact_colour_programs_compose(announce):
    """Split an exact program r of S → T after k steps, with X its k-th trace
    set. A program p that runs S onto X in k steps, followed by a program q
    that runs X onto T in |r| − k, runs S onto T, so the length-|r| report
    must list p·q."""
    checks, missed = 0, []
    for seed, extra_dims in RELABEL_CORPUS:
        inst = random_instance(seed, extra_dims=extra_dims)
        g, S, T = inst.graph, inst.source, inst.target
        for rep in mine_exact_scp(g, S, T, MiningConfig(max_len=COMPOSE_MAX_LEN)):
            n, listed = rep.length, set(rep.programs)
            for r in rep.programs[:COMPOSE_PER_REPORT]:
                trace = simulate_scp(g, S, r)
                for k in range(1, n):
                    heads = mine_all(mine_exact_scp, g, S, trace[k], MiningConfig(max_len=k))[k]
                    tails = mine_all(mine_exact_scp, g, trace[k], T, MiningConfig(max_len=n - k))[n - k]
                    checks += 1
                    if any(p + q not in listed for p in heads.programs for q in tails.programs):
                        missed.append((seed, r, k))
    assert checks >= 700
    announce(
        "exact colour programs compose",
        not missed,
        f"{len(RELABEL_CORPUS)} graphs, lengths 0..{COMPOSE_MAX_LEN}, the first {COMPOSE_PER_REPORT} "
        f"programs of each report split at every inner step: {checks} splits, "
        f"{len(missed)} with a composed program missing (tolerance 0): {missed[:6]}",
    )


CONTAIN_SEEDS = range(1000, 1150)


def _containment_gap(scp_miner, stp_miner) -> tuple:
    """A colour program is a criterion program whose steps test the colour, so
    wherever ``scp_miner`` lists a program of length 1..3 on a feature
    instance, ``stp_miner`` must list one of that length (length 0 is the
    driver's alone). The number of such lengths, and the (seed, length)
    pairs where ``stp_miner`` lists none."""
    checks, missed = 0, []
    for seed in CONTAIN_SEEDS:
        inst = random_instance(seed, extra_dims=2)
        args = (inst.graph, inst.source, inst.target, MiningConfig(max_len=RELABEL_MAX_LEN))
        found = {rep.length for rep in stp_miner(*args) if rep.programs}
        listed = [rep.length for rep in scp_miner(*args) if rep.length and rep.programs]
        checks += len(listed)
        missed += [(seed, n) for n in listed if n not in found]
    return checks, missed


def _announce_containment(announce, mode, checks, missed):
    announce(
        f"{mode} colour programs have criterion twins",
        not missed,
        f"seeds {CONTAIN_SEEDS[0]}-{CONTAIN_SEEDS[-1]} with two ordered dimensions, lengths "
        f"1..{RELABEL_MAX_LEN}: {checks} lengths where {mode} scp lists a program, "
        f"{len(missed)} where {mode} stp lists none (tolerance 0): {missed}",
    )


def test_feasible_colour_programs_have_criterion_twins(announce):
    checks, missed = _containment_gap(mine_feasible_scp, mine_feasible_stp)
    assert checks >= 150
    _announce_containment(announce, "feasible", checks, missed)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: exact stp lists no program at 10 (seed, length) pairs where exact scp lists one: "
    "(1004, 3), (1018, 2), (1031, 2), (1032, 2-3), (1118, 2-3), (1119, 2-3) and (1132, 3)"))
def test_exact_colour_programs_have_criterion_twins(announce):
    checks, missed = _containment_gap(mine_exact_scp, mine_exact_stp)
    assert checks >= 140
    _announce_containment(announce, "exact", checks, missed)
