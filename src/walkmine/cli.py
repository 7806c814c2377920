"""Command-line interface: mine, verify, simulate, convert, gen."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bitset import VertexSet
from .criterion import criterion_from_dict
from .generate import random_instance, write_instance
from .graph import DirectedGraph, MultiGraph, convert_multigraph
from .graphio import GraphFormatError, load_graph, parse_vertex_set, serialize_graph, to_dot
from .mining import MiningConfig, render_program
from .scp import classify_scp, mine_exact_scp, mine_feasible_scp, simulate_scp
from .stp import TosetProgram, classify_stp, mine_exact_stp, mine_feasible_stp, simulate_stp


class CliError(Exception):
    """Input problem; reported on stderr with exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}") from None


def _load_graph(args):
    try:
        g = load_graph(_read_text(args.graph), color_dim=args.color_dim or "color")
    except GraphFormatError as e:
        raise CliError(f"{args.graph}: {e}") from None
    if args.color_dim is not None:
        # an explicit colour dimension must exist even where no walk reads colours
        g.schema.color_index(args.color_dim)
    return g


def _load_simple_graph(args) -> DirectedGraph:
    g = _load_graph(args)
    if isinstance(g, MultiGraph):
        raise CliError(f"{args.graph} is a multigraph; run 'convert' first")
    return g


def _vertex_set(g: DirectedGraph, file_arg, ids_arg, what: str) -> VertexSet:
    if (file_arg is None) == (ids_arg is None):
        raise CliError(f"provide exactly one of --{what} and --{what}-ids")
    if file_arg is not None:
        try:
            vs = parse_vertex_set(_read_text(file_arg), g)
        except GraphFormatError as e:
            raise CliError(f"{file_arg}: {e}") from None
    else:
        ids = []
        for name in ids_arg.split(","):
            name = name.strip()
            if not name:
                continue
            if not g.has_vertex(name):
                raise CliError(f"unknown vertex {name!r} in --{what}-ids")
            ids.append(g.vertex_id(name))
        vs = VertexSet.from_ids(g.n, ids)
    if not vs:
        raise CliError(f"the {what} set must be nonempty")
    return vs


def _program_text(arg: str) -> str:
    return _read_text(arg[1:]) if arg.startswith("@") else arg


def _parse_scp_program(g: DirectedGraph, text: str) -> tuple[int, ...]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    program = []
    for name in names:
        c = g.color_id(name)
        if c < 0:
            raise CliError(f"unknown colour {name!r}")
        program.append(c)
    return tuple(program)


def _parse_stp_program(g: DirectedGraph, text: str) -> TosetProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"program is not valid JSON: {e}") from None
    if not isinstance(doc, list):
        raise CliError("a criterion program is a JSON array of criteria")
    try:
        return TosetProgram(tuple(criterion_from_dict(item, g.schema) for item in doc))
    except ValueError as e:
        raise CliError(str(e)) from None


def _names(g: DirectedGraph, vs: VertexSet) -> list[str]:
    return [g.names[v] for v in vs]


def _program_line(rendered: list) -> str:
    """Text form of a rendered program: colours joined by '·', criteria as JSON."""
    if not rendered:
        return "ε"
    return "·".join(rendered) if isinstance(rendered[0], str) else json.dumps(rendered)


# -- mine ----------------------------------------------------------------------


def _cmd_mine(args) -> int:
    g = _load_simple_graph(args)
    source = _vertex_set(g, args.source, args.source_ids, "source")
    target = _vertex_set(g, args.target, args.target_ids, "target")
    config = MiningConfig(
        max_len=args.max_len,
        max_programs=args.max_programs,
        max_triples=args.max_triples,
        time_budget=args.time_budget,
        fidelity=args.fidelity,
    )
    miner = {
        ("scp", "exact"): mine_exact_scp,
        ("scp", "feasible"): mine_feasible_scp,
        ("stp", "exact"): mine_exact_stp,
        ("stp", "feasible"): mine_feasible_stp,
    }[(args.engine, args.mode)]
    reports = miner(g, source, target, config)
    found = 0
    for report in (r.to_dict(g) for r in reports):
        found += len(report["programs"])
        if args.output == "json":
            print(json.dumps(report))
        else:
            status = "complete" if report["exhausted"] else "cut off"
            print(f"length {report['length']}: {len(report['programs'])} program(s), {status}")
            for p in report["programs"]:
                print(f"  {_program_line(p)}")
    return 0 if found else 1


# -- verify / simulate ----------------------------------------------------------


def _classification_dict(g, cls, program) -> dict:
    return {
        "kind": cls.kind,
        "halt_step": cls.halt_step,
        "partial_halt_steps": list(cls.partial_halt_steps),
        "partial_halt_vertices": [_names(g, stuck) for stuck in cls.partial_halt_vertices],
        "program": render_program(g, program),
        "trace": [_names(g, level) for level in cls.trace],
    }


def _print_classification(g, cls, program, output: str):
    if output == "json":
        print(json.dumps(_classification_dict(g, cls, program)))
        return
    print(f"program: {_program_line(render_program(g, program))}")
    print(f"kind: {cls.kind}" + (f" (halted at step {cls.halt_step})" if cls.halt_step is not None else ""))
    halts = " ".join(map(str, cls.partial_halt_steps)) or "none"
    print(f"partial halts: {halts}")
    for step, stuck in zip(cls.partial_halt_steps, cls.partial_halt_vertices):
        print(f"  stuck at step {step}: {' '.join(_names(g, stuck))}")
    for i, level in enumerate(cls.trace):
        print(f"  E{i}: {' '.join(_names(g, level)) or '-'}")


def _cmd_verify(args) -> int:
    g = _load_simple_graph(args)
    source = _vertex_set(g, args.source, args.source_ids, "source")
    target = _vertex_set(g, args.target, args.target_ids, "target")
    text = _program_text(args.program)
    if args.engine == "stp":
        program = _parse_stp_program(g, text)
        cls = classify_stp(g, source, target, program)
    else:
        program = _parse_scp_program(g, text)
        cls = classify_scp(g, source, target, program)
    _print_classification(g, cls, program, args.output)
    if args.expect is None:
        return 0
    if args.expect == "feasible":
        return 0 if cls.kind in ("feasible", "exact") else 1
    return 0 if cls.kind == args.expect else 1


def _cmd_simulate(args) -> int:
    g = _load_simple_graph(args)
    source = _vertex_set(g, args.source, args.source_ids, "source")
    target = None
    if args.target is not None or args.target_ids is not None:
        target = _vertex_set(g, args.target, args.target_ids, "target")
    text = _program_text(args.program)
    if args.engine == "stp":
        program = _parse_stp_program(g, text)
        trace = simulate_stp(g, source, program)
    else:
        program = _parse_scp_program(g, text)
        trace = simulate_scp(g, source, program)
    if args.output == "dot":
        sys.stdout.write(to_dot(g, source=source, target=target, trace=trace))
    elif args.output == "json":
        print(json.dumps({
            "program": render_program(g, program),
            "trace": [_names(g, level) for level in trace],
        }))
    else:
        for i, level in enumerate(trace):
            print(f"E{i}: {' '.join(_names(g, level)) or '-'}")
    return 0


# -- convert / gen ---------------------------------------------------------------


def _cmd_convert(args) -> int:
    g = _load_graph(args)
    if isinstance(g, MultiGraph):
        g = convert_multigraph(g)
    text = serialize_graph(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    instance = random_instance(
        args.seed,
        max_vertices=args.max_vertices,
        max_colors=args.max_colors,
        extra_dims=args.extra_dims,
        singleton_target=args.singleton_target,
    )
    name = args.name or f"instance_{args.seed}"
    for path in write_instance(instance, args.out_dir, name):
        print(path)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_graph_args(p, with_sets=True):
    p.add_argument("--graph", required=True, help="graph document (JSON)")
    p.add_argument("--color-dim", help="categorical dimension used as walk colour (default: color)")
    if with_sets:
        p.add_argument("--source", help="file of source vertex ids, one per line")
        p.add_argument("--source-ids", help="inline comma-separated source vertex ids")
        p.add_argument("--target", help="file of target vertex ids, one per line")
        p.add_argument("--target-ids", help="inline comma-separated target vertex ids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkmine",
        description="Mine, verify and simulate deterministic graph-walking programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="search for programs leading from source to target")
    _add_graph_args(p)
    p.add_argument("--engine", choices=("scp", "stp"), default="scp")
    p.add_argument("--mode", choices=("exact", "feasible"), default="exact")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-programs", type=int)
    p.add_argument("--max-triples", type=int)
    p.add_argument("--time-budget", type=float, help="wall-clock budget in seconds")
    p.add_argument("--fidelity", choices=("repaired", "literal"), default="repaired")
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("verify", help="classify a given program on an instance")
    _add_graph_args(p)
    p.add_argument("--engine", choices=("scp", "stp"), default="scp")
    p.add_argument("--program", required=True,
                   help="colour list 'red,green', criterion JSON, or @file")
    p.add_argument("--expect", choices=("exact", "feasible", "infeasible", "complete_halt"))
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="print the endpoint trace of a program")
    _add_graph_args(p)
    p.add_argument("--engine", choices=("scp", "stp"), default="scp")
    p.add_argument("--program", required=True)
    p.add_argument("--output", choices=("json", "text", "dot"), default="text")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("convert", help="subdivide a multigraph into a simple graph")
    _add_graph_args(p, with_sets=False)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--name")
    p.add_argument("--max-vertices", type=int, default=12)
    p.add_argument("--max-colors", type=int, default=4)
    p.add_argument("--extra-dims", type=int, default=0)
    p.add_argument("--singleton-target", action="store_true")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
