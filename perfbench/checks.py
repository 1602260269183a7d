"""Output checks, run after the timed region.

Each check returns None when the output is right and a short reason when it
is not.  They re-derive every witness with the definitional checkers in
``dompack.oracles`` and compare against values known independently of the
program (family formulas, brute force on small graphs).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from dompack import constructions, oracles
from dompack.graph import Graph, Mode, XYInstance, from_edge_json, from_graph6

SCAN_GRAPHS = 1 << 15  # labelled graphs on 6 vertices
SCAN_SAMPLE = 128

# construct --class -> (class tag in the witness, mode the witness is for,
# additive slack in |D| <= c|P| + slack).  Mirrors `validate --what witness`.
CLASS_SPEC = {
    "planar": ("planar", Mode.PLAIN, 0),
    "treewidth": ("treewidth", Mode.PLAIN, 0),
    "twodeg": ("2-degenerate", Mode.PLAIN, 0),
    "twinwidth": ("twin-width", Mode.BLACK, 0),
    "dh": ("distance-hereditary", Mode.TOTAL, 0),
    "atfree": ("at-free", Mode.PLAIN, 2),
    "convex": ("convex", Mode.PLAIN, 0),
    "unitdisk": ("unit-disk", Mode.PLAIN, 0),
    "generic": ("generic", Mode.PLAIN, 0),
}


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return from_edge_json(text)
    if path.endswith(".csv"):
        return constructions.DiskConfiguration.from_csv(text).intersection_graph()
    return from_graph6(text.strip())


def _expected_constant(cls: str, g: Graph) -> Fraction:
    fixed = {"planar": 10, "treewidth": 3, "twodeg": 7, "twinwidth": 16,
             "dh": 2, "atfree": 3, "convex": 3}
    if cls in fixed:
        return Fraction(fixed[cls])
    if cls == "unitdisk":
        return Fraction(constructions.covering_constant())
    return Fraction(g.max_degree() + 1)


def check_scan(text: str, seed: int) -> str | None:
    lines = text.splitlines()
    if not lines:
        return "no output"
    try:
        summary = json.loads(lines[-1])["summary"]
        records = [json.loads(ln) for ln in lines[:-1]]
    except (ValueError, KeyError) as exc:
        return f"unparsable scan output: {exc}"
    if len(records) != SCAN_GRAPHS:
        return f"{len(records)} records, expected {SCAN_GRAPHS}"
    if summary.get("graphs") != SCAN_GRAPHS or summary.get("violations") != 0:
        return f"bad summary {summary}"
    if len({r["graph6"] for r in records}) != SCAN_GRAPHS:
        return "duplicate graphs in the enumeration"
    for r in records:
        if r["n"] != 6 or r["violation"] or r["gamma"] < r["rho"]:
            return f"bad record {r}"
    for r in random.Random(seed).sample(records, SCAN_SAMPLE):
        g = from_graph6(r["graph6"])
        inst = XYInstance(g)
        want = (g.edge_count, oracles.reference_domination_value(inst),
                oracles.reference_packing_value(inst))
        if (r["m"], r["gamma"], r["rho"]) != want:
            return f"record {r['graph6']} disagrees with brute force {want}"
    return None


def check_solve(req: dict, text: str) -> tuple[str | None, int | None]:
    """Returns (problem, value)."""
    try:
        doc = json.loads(text)
        value, witness = doc["value"], frozenset(doc["witness"])
        echo = (doc["variant"], doc["mode"], doc["x"], doc["y"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable solve output: {exc}", None
    if echo != (req["variant"], req["mode"], req["x"], req["y"]):
        return f"output echoes {echo}, not the request", value
    if len(witness) != value:
        return "witness size differs from value", value
    if req["expect"] is not None and value != req["expect"]:
        return f"{req['family']}: {req['variant']} {value}, expected {req['expect']}", value
    g = load_graph(req["graph"])
    inst = XYInstance(g, frozenset(req["x"]), frozenset(req["y"]), Mode(req["mode"]))
    check = oracles.check_xy_dominating if req["variant"] == "gamma" else oracles.check_xy_packing
    if not check(inst, witness):
        return f"witness fails the {req['variant']} checker", value
    return None, value


def check_solve_pairs(reqs: list, values: list) -> dict:
    """gamma >= rho on every instance, gamma = rho on trees.  Returns the
    failing request indices with a reason."""
    by_inst: dict = {}
    for i, req in enumerate(reqs):
        by_inst.setdefault(req["instance"], {})[req["variant"]] = i
    bad = {}
    for pair in by_inst.values():
        gi, ri = pair["gamma"], pair["rho"]
        gamma, rho = values[gi], values[ri]
        if gamma is None or rho is None:
            continue
        if gamma < rho or (reqs[gi]["equal"] and gamma != rho):
            reason = f"{reqs[gi]['family']}: gamma {gamma} vs rho {rho}"
            bad[gi] = bad[ri] = reason
    return bad


def check_construct(req: dict, text: str) -> str | None:
    tag, mode, slack = CLASS_SPEC[req["cls"]]
    try:
        doc = json.loads(text)
        d, p = frozenset(doc["D"]), frozenset(doc["P"])
        num, den = doc["constant"].split("/")
        constant = Fraction(int(num), int(den))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparsable construct output: {exc}"
    if doc["class"] != tag:
        return f"class {doc['class']!r}, expected {tag!r}"
    g = load_graph(req["graph"])
    if constant != _expected_constant(req["cls"], g):
        return f"constant {constant} is not the certified one"
    inst = XYInstance(g, mode=mode)
    if not oracles.check_xy_dominating(inst, d):
        return "D fails the dominating checker"
    if not oracles.check_xy_packing(inst, p):
        return "P fails the packing checker"
    if (p and len(d) > constant * len(p) + slack) or (not p and d):
        return "size of D exceeds the certified budget"
    return None
