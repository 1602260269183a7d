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
from collections import Counter
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
    from_edge_doc,
    from_edge_json,
    from_graph6,
    graph6_to_masks,
    masks_connected,
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


def _load_graph(path: str, max_n: int | None = None) -> Graph:
    """The graph of a graph6 or edge-list JSON file; with ``max_n``, an order
    above it is refused before the graph is built."""
    text = _read_text(path)
    try:
        if path.endswith(".json"):
            return from_edge_json(text.strip(), max_n)
        # Edge-list JSON starts with "{", but so does graph6 of order 60.
        if text.lstrip().startswith("{"):
            try:
                doc = json.loads(text.strip())
            except ValueError:
                pass
            else:
                return from_edge_doc(doc, max_n)
        line = next((ln for ln in text.splitlines() if ln.strip()), "")
        del text  # the file is held at most twice, and once while it decodes
        return from_graph6(line, max_n)
    except (GraphError, OversizeError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


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
    max_n = args.max_n if args.max_n is not None else _size_limit()
    g = _load_graph(args.input, max_n)
    inst = XYInstance(g, _parse_ids(args.x, g), _parse_ids(args.y, g), Mode(args.mode))
    if args.variant == "gamma":
        res = oracles.exact_domination(inst, max_n=max_n)
        holds = oracles.check_xy_dominating(inst, res.witness)
    else:
        res = oracles.exact_packing(inst, max_n=max_n)
        holds = oracles.check_xy_packing(inst, res.witness)
    if not holds or len(res.witness) != res.value:
        raise engine.EngineError(f"{args.variant} witness {sorted(res.witness)} fails its check")
    print(oracles.exact_result_json(args.variant, inst, res))
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _read_contraction_sequence(path: str):
    return engine_twinwidth.ContractionSequence.from_json(_read_text(path))


def _read_convex_encoding(path: str):
    return constructions.ConvexEncoding.from_json(_read_text(path))


def _read_disks(path: str):
    return constructions.DiskConfiguration.from_csv(_read_text(path))


@dataclass(frozen=True)
class ConstructClass:
    """What `construct --class NAME` reads and runs: ``run(input,
    certificate)``, the certificate None when the class reads none.  A
    class either reads a certificate, which must then be given, or none."""

    run: Callable
    read_certificate: Callable | None = None
    certificate: str | None = None  # what --certificate holds, beside read_certificate
    read_input: Callable = _load_graph


# The drivers are looked up on their modules at each call, not bound here,
# so that wrappers installed on those modules (perfbench's tracer) see them.
CONSTRUCT_CLASSES = {
    "planar": ConstructClass(lambda g, _: engine.run_planar(g)),
    "treewidth": ConstructClass(
        lambda g, compl: engine.run_treewidth(g, compl), _load_graph, "chordal completion"
    ),
    "twodeg": ConstructClass(lambda g, _: engine_twodeg.run_twodeg(g)),
    "twinwidth": ConstructClass(
        lambda g, seq: engine_twinwidth.run_twinwidth(g, seq),
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
    if bool(args.certificate) != bool(spec.read_certificate):
        if args.certificate:
            raise CliError(f"class {args.cls} reads no --certificate")
        raise CliError(f"--certificate ({spec.certificate}) required")
    source = spec.read_input(args.input)
    cert = spec.read_certificate(args.certificate) if args.certificate else None
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
        key = key.strip()
        if key in out:
            raise CliError(f"parameter {key} given twice")
        out[key] = val.strip()
    return out


def cmd_generate(args) -> int:
    params = _parse_params(args.params)
    family = families.FAMILIES.get(args.family)
    if family is None:
        raise CliError(f"unknown family {args.family!r}")
    unknown = sorted(params.keys() - family.parameters.keys())
    if unknown:
        raise CliError(f"family {args.family} has no parameter {unknown[0]}")
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
        if type(doc["value"]) is not int:  # JSON true would pass as 1
            raise CliError("witness field 'value' must be an integer")
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
        else:  # tww-seq
            seq = _read_contraction_sequence(args.document)
            g = _load_graph(args.graph)
            problem = (
                None
                if engine_twinwidth.validate_contraction_sequence(g, seq)
                else "sequence invalid (red degree above declared width, or malformed)"
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


# A record's line is '{"graph6":', its graph6 and then its tail, the bytes
# json.dumps would give with separators=(",", ":"): a fixed-key format takes
# half the time, since even a reused JSONEncoder builds a fresh C encoder on
# every encode call.  The check name and the "p/q" ratio need no escaping.
_SCAN_TAIL = (
    ',"n":%d,"m":%d,"gamma":%d,"rho":%d,"ratio":%s,"class_flags":%d,'
    '"check":"%s","applicable":%s,"violation":%s,"equality":%s}'
)
_JSON_BOOL = ("false", "true")


def _scan_one(task):
    """(tail, applicable, violation, equality) of one graph's scan record,
    the tail being its line after the graph6 field, all isomorphism
    invariants; None if the graph lacks the filter's flags ``keep``."""
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
    violation = applicable and violates(gamma, rho)
    equality = applicable and meets(gamma, rho)
    k = math.gcd(gamma, rho)
    tail = _SCAN_TAIL % (
        n, m, gamma, rho, f'"{gamma // k}/{rho // k}"' if rho else "null", flags, check,
        _JSON_BOOL[applicable], _JSON_BOOL[violation], _JSON_BOOL[equality],
    )
    return tail, applicable, violation, equality


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


# Records go to stdout this many lines per write, not one write per graph:
# whatever wraps stdout pays per write.  The enumeration writes this many
# codes at a time, a whole number of its 256-code runs.
_SCAN_BLOCK_LINES = 1024


class _ScanOutput:
    """The summary and the first ten counterexample lines."""

    def __init__(self):
        self.summary = {"graphs": 0, "checked": 0, "violations": 0, "equalities": 0, "malformed": 0}
        self.counterexamples = []

    def count(self, result, graphs: int = 1) -> None:
        """Add ``graphs`` graphs with this ``_scan_one`` result to the summary."""
        _, applicable, violation, equality = result
        summary = self.summary
        summary["graphs"] += graphs
        if applicable:
            summary["checked"] += graphs
            summary["violations"] += graphs * violation
            summary["equalities"] += graphs * equality


def _scan_one_or_oversize(task):
    """``_scan_one``, with an oversize graph's error returned, not raised: a
    pool hands back a chunk of results only once every task in it is done."""
    try:
        return _scan_one(task)
    except OversizeError as exc:
        return exc


def _scan_enumeration(n: int, orbit_ids, check: str, keep: int, max_n: int, out: _ScanOutput) -> None:
    """Every labelled graph on n vertices, in code order, each with the
    record of its isomorphism class (``families.labeled_orbit_ids(n)``).
    Each class is evaluated on the masks of its first graph; the lines are
    then built 256 codes at a time.  Such a run shares the code's bits 8 and
    up, so each line is two lookups in tables of the line's start and its
    graph6, JSON-escaped once per table, then its class's tail: nothing is
    called per code.  The summary takes each class once, times its size,
    and the counterexamples are the first ten graphs of violating
    classes."""
    # Of the graph6 digits 63..126, JSON escapes only the backslash (92).
    digits = [encode_basestring_ascii(chr(63 + x))[1:-1] for x in range(64)]
    lo, hi, high, low = families.labeled_graph6_tables(n, digits)
    head = ['{"graph6":"' + s for s in high]
    # A code's graph6 word is lo[k & 255] | hi[k >> 8]; a run splits its
    # shared hi entry once, and lo is split here.
    lo_high = [w >> 12 for w in lo]
    lo_low = [w & 4095 for w in lo]
    sizes = Counter(orbit_ids)
    results = []  # per class, None where the filter drops it
    k = 0
    for c in range(len(sizes)):
        k = orbit_ids.index(c, k)
        results.append(_scan_one((families.labeled_masks(n, k), check, keep, max_n)))
    # Each tail opens with the graph6 string's closing quote.
    tails = [result and '"' + result[0] for result in results]
    for start in range(0, len(orbit_ids), _SCAN_BLOCK_LINES):
        block = []
        for k0 in range(start, min(start + _SCAN_BLOCK_LINES, len(orbit_ids)), 256):
            h = hi[k0 >> 8]
            hh, hl = h >> 12, h & 4095
            block += [head[a | hh] + low[b | hl] + t
                      for a, b, t in zip(lo_high, lo_low, map(tails.__getitem__, orbit_ids[k0:k0 + 256]))
                      if t]
        if block:
            sys.stdout.write("\n".join(block) + "\n")
    for c, result in enumerate(results):
        if result is not None:
            out.count(result, sizes[c])
    violating = [result is not None and result[2] for result in results]
    if any(violating):
        for k, c in enumerate(orbit_ids):
            if violating[c]:
                w = lo[k & 255] | hi[k >> 8]
                out.counterexamples.append(head[w >> 12] + low[w & 4095] + tails[c])
                if len(out.counterexamples) == 10:
                    break


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
        block = []  # lines not yet written: an error that ends the scan writes them too
        try:
            for lineno, graph6, masks in lines:
                if isinstance(masks, Graph6Error):
                    print(f"line {lineno}: skipped malformed graph6 ({masks})", file=sys.stderr)
                    out.summary["malformed"] += 1
                    continue
                result = evaluate(masks)
                if isinstance(result, OversizeError):
                    raise result
                if result is not None:
                    out.count(result)
                    line = '{"graph6":' + encode_basestring_ascii(graph6) + result[0]
                    if result[2] and len(out.counterexamples) < 10:
                        out.counterexamples.append(line)
                    block.append(line)
                    if len(block) == _SCAN_BLOCK_LINES:
                        sys.stdout.write("\n".join(block) + "\n")
                        block.clear()
        finally:
            if block:
                sys.stdout.write("\n".join(block) + "\n")


def cmd_scan(args) -> int:
    n = args.enumerate_n
    # The source's errors (an unreadable file, an enumeration size out of
    # range) come before those of the size limit.
    source = _read_text(args.file) if n is None else families.labeled_orbit_ids(n)
    max_n = _size_limit()
    keep = _SCAN_FILTERS[args.filter]
    out = _ScanOutput()
    if n is not None:
        _scan_enumeration(n, source, args.check, keep, max_n, out)
    else:
        _scan_file(source, args.check, keep, max_n, min(args.jobs, os.cpu_count() or 1), out)
    print(json.dumps({"summary": out.summary}, separators=(",", ":")))
    if out.counterexamples:
        for line in out.counterexamples:
            print("counterexample: " + line, file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


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
    sp.add_argument("--max-n", type=_at_least(0), default=None, help="override the size guardrail")
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
    vp.add_argument("--what", choices=["witness", "tw-cert", "tww-seq"], required=True)
    vp.add_argument("--k", type=int, default=None, help="width bound for tw-cert")
    vp.add_argument("document", help="witness JSON, completion graph or sequence")
    vp.add_argument("graph", help="the graph it is checked against")
    vp.set_defaults(func=cmd_validate)

    scp = sub.add_parser("scan", help="stream gamma/rho records with a conjecture check")
    src = scp.add_mutually_exclusive_group(required=True)
    src.add_argument("--enumerate-n", type=int, default=None, metavar="N",
                     help="every labelled graph on N vertices, N <= 7")
    src.add_argument("--file", default=None, help="graph6 lines, one graph each")
    scp.add_argument("--filter", choices=list(_SCAN_FILTERS), default="all")
    scp.add_argument("--check", choices=list(_SCAN_CHECKS), default="duality")
    scp.add_argument("--jobs", type=_at_least(1), default=1,
                     help="worker processes for --file input (enumeration runs in-process)")
    scp.set_defaults(func=cmd_scan)
    return ap


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
