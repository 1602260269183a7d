"""Command-line surface: solve, construct, generate, validate, scan.

Exit codes are part of the stable interface: 0 ok, 1 scan check violated,
2 parse error, 3 oversize, 4 construction failure, 5 validation failure.
All JSON output is one record per line with exact "p/q" rationals.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import constructions, engine, engine_twinwidth, engine_twodeg, families, oracles
from .graph import (
    Graph,
    Graph6Error,
    GraphError,
    Mode,
    OversizeError,
    XYInstance,
    from_edge_json,
    from_graph6,
    graph6_to_masks,
    masks_connected,
    masks_to_graph6,
    to_graph6,
    vertex_ids,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_OVERSIZE = 3
EXIT_CONSTRUCTION = 4
EXIT_VALIDATION = 5

FLAG_SUBCUBIC = 1
FLAG_TREE = 2
FLAG_CONNECTED = 4
FLAG_ATFREE = 8
ATFREE_FLAG_MAX_N = 12


class CliError(Exception):
    """Command-line input refused as malformed (exit 2)."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    stripped = text.strip()
    try:
        if path.endswith(".json") or _is_json_document(stripped):
            return from_edge_json(stripped)
        line = next((ln for ln in text.splitlines() if ln.strip()), "")
        return from_graph6(line)
    except (GraphError, OversizeError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _is_json_document(text: str) -> bool:
    # Edge-list JSON starts with "{", but so does graph6 of order 60.
    if not text.startswith("{"):
        return False
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _size_limit() -> int:
    try:
        return oracles.size_limit()
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_ids(arg: str | None, g: Graph) -> frozenset[int]:
    if not arg:
        return frozenset()
    if arg == "all":
        return frozenset(g.vertices())
    try:
        ids = frozenset(int(tok) for tok in arg.split(",") if tok.strip())
    except ValueError as exc:
        raise CliError(f"bad id list {arg!r}") from exc
    return ids


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    g = _load_graph(args.input)
    inst = XYInstance(g, _parse_ids(args.x, g), _parse_ids(args.y, g), Mode(args.mode))
    max_n = args.max_n if args.max_n is not None else _size_limit()
    if args.variant == "gamma":
        res = oracles.exact_domination(inst, max_n=max_n)
    else:
        res = oracles.exact_packing(inst, max_n=max_n)
    print(oracles.exact_result_json(args.variant, inst, res))
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _read_rotation_system(path: str):
    return engine.RotationSystem.from_json(_read_text(path))


def _read_contraction_sequence(path: str):
    return engine_twinwidth.ContractionSequence.from_json(_read_text(path))


def _read_convex_encoding(path: str):
    return constructions.ConvexEncoding.from_json(_read_text(path))


def _read_disks(path: str):
    return constructions.DiskConfiguration.from_csv(_read_text(path))


@dataclass(frozen=True)
class ConstructClass:
    """What `construct --class NAME` reads and runs: ``run(input,
    certificate)``, the certificate None when the class reads none or an
    optional one is not given."""

    run: Callable
    read_certificate: Callable | None = None
    required: str | None = None  # what --certificate holds, when it must be given
    read_input: Callable = _load_graph


# The drivers are looked up on their modules at each call, not bound here,
# so that wrappers installed on those modules (perfbench's tracer) see them.
CONSTRUCT_CLASSES = {
    "planar": ConstructClass(lambda g, rs: engine.run_planar(g, rs), _read_rotation_system),
    "treewidth": ConstructClass(
        lambda g, compl: engine.run_treewidth(g, compl), _load_graph, "chordal completion"
    ),
    "twodeg": ConstructClass(lambda g, _: engine_twodeg.run_twodeg(g)),
    "twinwidth": ConstructClass(
        lambda g, seq: engine_twinwidth.run_twinwidth(g, seq, max(2, seq.declared_width)),
        _read_contraction_sequence,
        "contraction sequence",
    ),
    "dh": ConstructClass(lambda g, _: engine.run_distance_hereditary(g)),
    "atfree": ConstructClass(lambda g, _: constructions.construct_atfree(g)),
    "convex": ConstructClass(
        lambda g, enc: constructions.construct_convex(g, enc),
        _read_convex_encoding,
        "convex encoding JSON",
    ),
    "unitdisk": ConstructClass(
        lambda cfg, _: constructions.construct_unitdisk(cfg), read_input=_read_disks
    ),
    "generic": ConstructClass(lambda g, _: constructions.construct_generic(g)),
}


def cmd_construct(args) -> int:
    spec = CONSTRUCT_CLASSES[args.cls]
    if spec.required and not args.certificate:
        raise CliError(f"--certificate ({spec.required}) required")
    source = spec.read_input(args.input)
    cert = None
    if spec.read_certificate is not None and args.certificate:
        cert = spec.read_certificate(args.certificate)
    print(spec.run(source, cert).to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _parse_params(spec: str | None) -> dict[str, str]:
    out: dict[str, str] = {}
    if not spec:
        return out
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise CliError(f"bad parameter {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def cmd_generate(args) -> int:
    params = _parse_params(args.params)
    family = families.FAMILIES.get(args.family)
    if family is None:
        raise CliError(f"unknown family {args.family!r}")
    values = []
    for name, (_, default) in family.parameters.items():
        if name not in params:
            if default is None:
                raise CliError(f"family {args.family} needs parameter {name}")
            values.append(default)
            continue
        kind = float if isinstance(default, float) else int
        try:
            values.append(kind(params[name]))
        except ValueError as exc:
            noun = "a number" if kind is float else "an integer"
            raise CliError(f"parameter {name} must be {noun}") from exc
    try:
        made = family.generate(*values)
    except (ValueError, OverflowError) as exc:
        raise CliError(str(exc)) from exc
    if isinstance(made, Graph):
        print(to_graph6(made))
    elif isinstance(made, constructions.DiskConfiguration):
        sys.stdout.write(made.to_csv())
    else:
        print(made.to_json())
    return EXIT_OK


def cmd_list_families(_args) -> int:
    for name, family in families.FAMILIES.items():
        entry = {
            "name": name,
            "parameters": {key: text for key, (text, _) in family.parameters.items()},
            "guarantees": family.guarantees,
        }
        print(json.dumps(entry, separators=(",", ":")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _id_set(ids, key: str) -> frozenset[int]:
    if isinstance(ids, list):
        try:
            return frozenset(vertex_ids(ids))
        except TypeError:
            pass
    raise CliError(f"witness field {key!r} must be a list of vertex ids")


def _validate_witness_doc(doc, g: Graph) -> str | None:
    if not isinstance(doc, dict):
        raise CliError("witness JSON must be an object")
    if "variant" in doc:
        mode = Mode(doc.get("mode", "plain"))
        x = _id_set(doc.get("x", []), "x")
        y = _id_set(doc.get("y", []), "y")
        inst = XYInstance(g, x, y, mode)
        members = _id_set(doc["witness"], "witness")
        if len(members) != doc["value"]:
            return "witness size disagrees with value"
        if doc["variant"] == "gamma":
            if not oracles.check_xy_dominating(inst, members):
                return "witness is not a dominating set for the instance"
        elif doc["variant"] == "rho":
            if not oracles.check_xy_packing(inst, members):
                return "witness is not a packing for the instance"
        else:
            return f"unknown variant {doc['variant']!r}"
        return None
    if "class" in doc:
        if not isinstance(doc["class"], str):
            raise CliError("witness field 'class' must be a string")
        d = _id_set(doc["D"], "D")
        p = _id_set(doc["P"], "P")
        try:
            num, den = doc["constant"].split("/")
            constant = Fraction(int(num), int(den))
        except (AttributeError, ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad constant {doc['constant']!r}") from exc
        return engine.witness_problem(g, d, p, doc["class"], constant)
    return "unrecognized witness JSON (need 'variant' or 'class')"


def cmd_validate(args) -> int:
    what = args.what
    try:
        if what == "witness":
            doc = json.loads(_read_text(args.document))
            g = _load_graph(args.graph)
            problem = _validate_witness_doc(doc, g)
        elif what == "tw-cert":
            completion = _load_graph(args.document)
            g = _load_graph(args.graph)
            width = engine.completion_width(g, completion)
            if width is None:
                problem = "not a chordal supergraph on the same vertices"
            elif args.k is not None and width > args.k:
                problem = f"width {width} exceeds {args.k}"
            else:
                problem = None
        elif what == "tww-seq":
            seq = _read_contraction_sequence(args.document)
            g = _load_graph(args.graph)
            problem = (
                None
                if engine_twinwidth.validate_contraction_sequence(g, seq)
                else "sequence invalid (red degree above declared width, or malformed)"
            )
        else:  # rotation
            rs = _read_rotation_system(args.document)
            g = _load_graph(args.graph)
            problem = (
                None
                if engine.validate_rotation_planarity(g, rs)
                else "rotation system fails the genus-0 face count"
            )
    except (KeyError, ValueError) as exc:
        raise CliError(f"cannot parse validation inputs: {exc}") from exc
    if problem is not None:
        print(f"invalid: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


# The scan works on neighbourhood bitmasks (see ``dompack.graph``) and never
# builds a Graph.  Every field of a record but its graph6 is an isomorphism
# invariant, so ``--enumerate-n`` evaluates each isomorphism class once, on
# its first labelled graph (156 classes for the 32,768 graphs at n = 6), and
# each graph adds only its own graph6.

# check name -> (the class flags it applies to, violation and equality tests
# on (gamma, rho)); a graph without those flags is not checked.
_SCAN_CHECKS = {
    "duality": (0, lambda g, r: g < r, lambda g, r: g == r),
    "henning": (FLAG_SUBCUBIC | FLAG_CONNECTED, lambda g, r: g > 2 * r + 1,
                lambda g, r: g == 2 * r + 1),
    "treeeq": (FLAG_TREE, lambda g, r: g != r, lambda g, r: g == r),
}
# --filter NAME keeps the graphs with all of these class flags.
_SCAN_FILTERS = {"all": 0, "subcubic": FLAG_SUBCUBIC, "tree": FLAG_TREE}


def _scan_one(task):
    """The scan record of one graph but its graph6 field, all isomorphism
    invariants, or None if the graph lacks the filter's flags ``keep``."""
    masks, check, keep, max_n = task
    n = len(masks)
    degs = list(map(int.bit_count, masks))
    m = sum(degs) // 2
    flags = (FLAG_SUBCUBIC if not degs or max(degs) <= 3 else 0) | (FLAG_TREE if m == n - 1 else 0)
    # FLAG_TREE means m = n - 1 until the connectivity test, which is dear
    # and so runs only on graphs the filter may keep.
    if flags & keep == keep and masks_connected(masks):
        flags |= FLAG_CONNECTED
    else:
        flags &= ~FLAG_TREE
    if flags & keep != keep:
        return None
    oracles.check_size(n, max_n)
    if n <= ATFREE_FLAG_MAX_N and families.at_free_masks(masks):
        flags |= FLAG_ATFREE
    gamma = oracles.domination_kernel(masks)[0]
    rho = oracles.packing_kernel(masks)[0]
    needs, violates, meets = _SCAN_CHECKS[check]
    applicable = flags & needs == needs
    k = math.gcd(gamma, rho)
    return {
        "n": n,
        "m": m,
        "gamma": gamma,
        "rho": rho,
        "ratio": f"{gamma // k}/{rho // k}" if rho else None,
        "class_flags": flags,
        "check": check,
        "applicable": applicable,
        "violation": applicable and violates(gamma, rho),
        "equality": applicable and meets(gamma, rho),
    }


def _file_lines(text):
    """(line number, graph6, masks) for each nonblank line of a scan file,
    decoded as it is reached; a malformed line's masks are its Graph6Error."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line:
            try:
                masks = graph6_to_masks(line)
            except Graph6Error as exc:
                masks = exc
            yield lineno, line, masks


# A record's line is its graph6 field and then its tail, the bytes json.dumps
# would give with separators=(",", ":"): a fixed-key format takes half the
# time, since even a reused JSONEncoder builds a fresh C encoder on every
# encode call.
_SCAN_TAIL = (
    ',"n":%d,"m":%d,"gamma":%d,"rho":%d,"ratio":%s,"class_flags":%d,'
    '"check":%s,"applicable":%s,"violation":%s,"equality":%s}'
)
_JSON_BOOL = ("false", "true")


def _scan_tail(r) -> str:
    return _SCAN_TAIL % (
        r["n"], r["m"], r["gamma"], r["rho"],
        "null" if r["ratio"] is None else encode_basestring_ascii(r["ratio"]),
        r["class_flags"], encode_basestring_ascii(r["check"]),
        _JSON_BOOL[r["applicable"]], _JSON_BOOL[r["violation"]], _JSON_BOOL[r["equality"]],
    )


def _scan_line(graph6: str, tail: str) -> str:
    return '{"graph6":' + encode_basestring_ascii(graph6) + tail


# Records go to stdout this many lines per write, not one write per graph:
# whatever wraps stdout pays per write.
_SCAN_BLOCK_LINES = 1024


class _ScanOutput:
    """The record lines, written in blocks, with the summary and the first
    ten counterexamples."""

    def __init__(self):
        self.summary = {"graphs": 0, "checked": 0, "violations": 0, "equalities": 0, "malformed": 0}
        self.counterexamples = []
        self.lines = []

    def add(self, graph6: str, record, tail: str) -> None:
        summary = self.summary
        summary["graphs"] += 1
        if record["applicable"]:
            summary["checked"] += 1
            summary["violations"] += record["violation"]
            summary["equalities"] += record["equality"]
        if record["violation"] and len(self.counterexamples) < 10:
            self.counterexamples.append({"graph6": graph6, **record})
        self.lines.append(_scan_line(graph6, tail))
        if len(self.lines) == _SCAN_BLOCK_LINES:
            self.flush()

    def flush(self) -> None:
        if self.lines:
            sys.stdout.write("\n".join(self.lines) + "\n")
            self.lines.clear()


def _scan_one_or_oversize(task):
    """``_scan_one``, with an oversize graph's error returned, not raised: a
    pool hands back a chunk of results only once every task in it is done."""
    try:
        return _scan_one(task)
    except OversizeError as exc:
        return exc


def _scan_enumeration(n: int, orbit_ids, check: str, keep: int, max_n: int, out: _ScanOutput) -> None:
    """Every labelled graph on n vertices, in code order, each with the
    record of its isomorphism class (``families.labeled_orbit_ids(n)``),
    evaluated on the class's first graph."""
    classes = []  # per class: (record, tail), or None if the filter drops it
    for masks, c in zip(families.enumerate_labeled_masks(n), orbit_ids):
        if c == len(classes):
            record = _scan_one((masks, check, keep, max_n))
            classes.append(None if record is None else (record, _scan_tail(record)))
        entry = classes[c]
        if entry is not None:
            out.add(masks_to_graph6(masks), *entry)


def _scan_file(text: str, check: str, keep: int, max_n: int, jobs: int, out: _ScanOutput) -> None:
    """The lines of a scan file in order, up to an oversize graph, whatever
    ``jobs`` is: a malformed line is reported and counted when the loop
    reaches it, and each well-formed one is evaluated on its own, as the
    loop reaches it or, with ``jobs`` > 1, ahead of it in a pool of that
    many processes."""
    lines = _file_lines(text)
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            from multiprocessing import Pool

            lines = list(lines)
            pool = stack.enter_context(Pool(jobs))
            tasks = [(masks, check, keep, max_n) for _, _, masks in lines
                     if not isinstance(masks, Graph6Error)]
            results = pool.imap(_scan_one_or_oversize, tasks, chunksize=64)
            evaluate = lambda _: next(results)
        else:
            evaluate = lambda masks: _scan_one((masks, check, keep, max_n))
        for lineno, graph6, masks in lines:
            if isinstance(masks, Graph6Error):
                print(f"line {lineno}: skipped malformed graph6 ({masks})", file=sys.stderr)
                out.summary["malformed"] += 1
                continue
            record = evaluate(masks)
            if isinstance(record, OversizeError):
                raise record
            if record is not None:
                out.add(graph6, record, _scan_tail(record))


def cmd_scan(args) -> int:
    _normalize_scan_source(args)
    n = args.enumerate_n
    # The source's errors (an unreadable file, an enumeration size out of
    # range) come before those of the size limit.
    source = _read_text(args.file) if n is None else families.labeled_orbit_ids(n)
    max_n = _size_limit()
    keep = _SCAN_FILTERS[args.filter]
    out = _ScanOutput()
    try:
        if n is not None:
            _scan_enumeration(n, source, args.check, keep, max_n, out)
        else:
            _scan_file(source, args.check, keep, max_n, min(args.jobs, os.cpu_count() or 1), out)
    finally:
        out.flush()
    print(json.dumps({"summary": out.summary}, separators=(",", ":")))
    if out.counterexamples:
        for record in out.counterexamples:
            print("counterexample: " + json.dumps(record, separators=(",", ":")), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace each call.
    ap = argparse.ArgumentParser(
        prog="dompack",
        description="Exact domination/packing oracles and certified constructions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="exact gamma or rho for an instance")
    sp.add_argument("input")
    sp.add_argument("--variant", choices=["gamma", "rho"], required=True)
    sp.add_argument("--mode", choices=["plain", "total", "black"], default="plain")
    sp.add_argument("--x", default="", help="comma-separated ids or 'all'")
    sp.add_argument("--y", default="", help="comma-separated ids or 'all'")
    sp.add_argument("--max-n", type=int, default=None, help="override the size guardrail")
    sp.set_defaults(func=cmd_solve)

    cp = sub.add_parser("construct", help="certified witness for a graph class")
    cp.add_argument("input")
    cp.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=list(CONSTRUCT_CLASSES),
    )
    cp.add_argument("--certificate", default=None)
    cp.set_defaults(func=cmd_construct)

    gp = sub.add_parser("generate", help="emit a named family member")
    gp.add_argument("--family", required=True)
    gp.add_argument("--params", default="", help="comma-separated key=value pairs")
    gp.set_defaults(func=cmd_generate)

    lp = sub.add_parser("list-families", help="family metadata as JSON lines")
    lp.set_defaults(func=cmd_list_families)

    vp = sub.add_parser("validate", help="re-check a witness or certificate")
    vp.add_argument("--what", choices=["witness", "tw-cert", "tww-seq", "rotation"], required=True)
    vp.add_argument("--k", type=int, default=None, help="width bound for tw-cert")
    vp.add_argument("document", help="witness JSON, completion graph, sequence or rotation system")
    vp.add_argument("graph", help="the graph it is checked against")
    vp.set_defaults(func=cmd_validate)

    scp = sub.add_parser("scan", help="stream gamma/rho records with a conjecture check")
    src = scp.add_mutually_exclusive_group(required=True)
    src.add_argument("--source", nargs=2, default=None,
                     metavar=("KIND", "ARG"),
                     help="'enumerate-n N' (labeled graphs, N <= 7) or 'file PATH'")
    src.add_argument("--enumerate-n", type=int, default=None, metavar="N",
                     help="shorthand for --source enumerate-n N")
    src.add_argument("--file", default=None, help="shorthand for --source file PATH")
    scp.add_argument("--filter", choices=list(_SCAN_FILTERS), default="all")
    scp.add_argument("--check", choices=list(_SCAN_CHECKS), default="duality")
    scp.add_argument("--jobs", type=int, default=1,
                     help="worker processes for --file input (enumeration runs in-process)")
    scp.set_defaults(func=cmd_scan)
    return ap


def _normalize_scan_source(args) -> None:
    if args.source is None:
        return
    kind, arg = args.source
    if kind == "enumerate-n":
        try:
            args.enumerate_n = int(arg)
        except ValueError as exc:
            raise CliError(f"bad enumeration size {arg!r}") from exc
    elif kind == "file":
        args.file = arg
    else:
        raise CliError(f"unknown scan source {kind!r} (use enumerate-n or file)")


def main(argv=None) -> int:
    """Run one command; the only place where an error becomes an exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GraphError) as exc:
        message, code = str(exc), EXIT_PARSE
    except OversizeError as exc:
        message, code = str(exc), EXIT_OVERSIZE
    except engine.EngineError as exc:
        for app in exc.trace:
            print(app.to_json(), file=sys.stderr)
        message, code = f"construction failed: {exc}", EXIT_CONSTRUCTION
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
