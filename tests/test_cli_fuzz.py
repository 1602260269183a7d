"""Random documents through every reader behind the command line.

Each example is written to a file and run through ``cli.main``: the
certificate formats (rotation systems, contraction sequences, convex
encodings, chordal completions) through ``construct`` and ``validate``,
witness JSON through ``validate``, disk CSV through ``construct``, and
graph6 lines through ``solve`` and ``scan --file``.  No exception may
escape, the exit code must be one the command documents, and stderr never
holds a traceback.  The documents are mostly near the real formats, so that
they get past ``json.loads`` and reach the checks behind it; every graph
stays small.  The graph6 lines are also decoded directly, against the
string-based decoder the byte-level one replaced.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dompack import cli
from dompack.graph import Graph6Error, from_graph6, graph6_to_masks
from _reference import graph6_to_masks_by_string

EXIT_CODES = {
    "solve": {0, 2, 3},
    "construct": {0, 2, 3, 4},
    "validate": {0, 2, 3, 5},
    "scan": {0, 1, 2, 3},
}

FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

GRAPHS = {
    "k2": '{"n":2,"edges":[[0,1]]}',
    "p4": '{"n":4,"edges":[[0,1],[1,2],[2,3]]}',
    "c4": '{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]]}',
    "k4": '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}',
    "red": '{"n":3,"edges":[[0,1]],"red_edges":[[1,2]]}',
    "convex": '{"n":5,"edges":[[0,3],[1,3],[1,4],[2,4]]}',
    "edgeless": '{"n":3,"edges":[]}',
}

# Documents are drawn well formed, with small ids, and then a third of them
# get one entry, at any depth, replaced by JSON of any shape, or the whole
# text cut short.
scalars = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.integers() | st.floats() | st.text(max_size=3)
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
ids = st.integers(0, 5) | st.integers(-1, 7)
keys = ids.map(str)


def id_lists(min_size=0, max_size=5):
    return st.lists(ids, min_size=min_size, max_size=max_size)


def _poke(draw, value):
    """``value`` with one entry, at a random depth, replaced by junk."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value[key] = _poke(draw, value[key])
        return value
    return draw(junk)


@st.composite
def documents(draw, doc):
    value = draw(doc)
    if draw(st.integers(0, 2)) == 0:
        value = _poke(draw, value)
    text = json.dumps(value)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


rotations = st.fixed_dictionaries(
    {"rotations": st.dictionaries(keys, id_lists(max_size=4), max_size=5)}
)
sequences = st.fixed_dictionaries(
    {"width": ids | st.integers(), "merges": st.lists(id_lists(3, 3), max_size=5)}
)
encodings = st.fixed_dictionaries(
    {
        "x_order": id_lists(),
        "y_neighbors": st.dictionaries(keys, id_lists(max_size=4), max_size=4),
    }
)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 6))
    pairs = st.sampled_from([[u, v] for v in range(n) for u in range(v)] or [[0, 0]])
    doc = {"n": n, "edges": draw(st.lists(pairs, max_size=10))}
    if draw(st.integers(0, 3)) == 0:
        doc["red_edges"] = draw(st.lists(pairs, max_size=2))
    return doc


witnesses = st.fixed_dictionaries(
    {
        "variant": st.sampled_from(["gamma", "rho"]),
        "value": ids,
        "witness": id_lists(),
    },
    optional={
        "mode": st.sampled_from(["plain", "total", "black"]),
        "x": id_lists(),
        "y": id_lists(),
    },
) | st.fixed_dictionaries(
    {
        "class": st.sampled_from(["generic", "twin-width", "at-free", "other"]),
        "constant": st.sampled_from(["1/1", "4/1", "3/2", "16/1", "0/1", "4/0", "a/b"]),
        "D": id_lists(),
        "P": id_lists(),
    }
)
numbers = st.one_of(
    st.integers(-5, 5).map(str),
    st.fractions(max_denominator=50).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-300, 300)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10**10, 10**10)),
)
centre = st.builds(lambda x, y: f"{x},{y}", numbers, numbers)
disk_csv = st.lists(st.one_of(centre, centre, centre, st.text(max_size=6)), max_size=5).map("\n".join)
G6_BYTES = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def graph6_lines(draw):
    """A graph6 line of order at most 9, whole, cut short or lengthened, or
    any short text."""
    n = draw(st.integers(0, 9))
    size = (n * (n - 1) // 2 + 5) // 6
    line = chr(63 + n) + draw(st.text(G6_BYTES, min_size=size, max_size=size))
    return draw(st.one_of(
        st.just(line),
        st.just(line),
        st.just(line[:-1]),
        st.builds(line.__add__, G6_BYTES),
        st.text(st.characters(min_codepoint=32, max_codepoint=127), max_size=8),
        st.text(max_size=5),
    ))


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")

    def put(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    for name, text in GRAPHS.items():
        put(f"{name}.json", text)
    return put


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES[argv[0]], (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


graph_names = st.sampled_from(sorted(GRAPHS))


@FUZZ
@given(documents(rotations), graph_names)
def test_rotation_systems(write, text, graph):
    cert, g = write("rotation.json", text), write(f"{graph}.json", GRAPHS[graph])
    run(["construct", "--class", "planar", "--certificate", cert, g])
    run(["validate", "--what", "rotation", cert, g])


@FUZZ
@given(documents(sequences), graph_names)
def test_contraction_sequences(write, text, graph):
    cert, g = write("sequence.json", text), write(f"{graph}.json", GRAPHS[graph])
    run(["construct", "--class", "twinwidth", "--certificate", cert, g])
    run(["validate", "--what", "tww-seq", cert, g])


@FUZZ
@given(documents(encodings), graph_names)
def test_convex_encodings(write, text, graph):
    cert, g = write("encoding.json", text), write(f"{graph}.json", GRAPHS[graph])
    run(["construct", "--class", "convex", "--certificate", cert, g])


@FUZZ
@given(documents(edge_lists()), graph_names | documents(edge_lists()), st.integers(-1, 4) | st.none())
def test_chordal_completions(write, text, graph, k):
    cert = write("completion.json", text)
    g = write("graph.json", GRAPHS.get(graph, graph))
    run(["construct", "--class", "treewidth", "--certificate", cert, g])
    run(["validate", "--what", "tw-cert", cert, g] + ([] if k is None else ["--k", str(k)]))


@FUZZ
@given(documents(witnesses), graph_names)
def test_witnesses(write, text, graph):
    run(["validate", "--what", "witness", write("witness.json", text), write(f"{graph}.json", GRAPHS[graph])])


@FUZZ
@given(disk_csv)
def test_disk_csv(write, text):
    run(["construct", "--class", "unitdisk", write("disks.csv", text)])


@FUZZ
@given(
    graph6_lines(),
    st.sampled_from(["gamma", "rho"]),
    st.sampled_from(["plain", "total", "black"]),
)
def test_graph6_solve(write, line, variant, mode):
    run(["solve", "--variant", variant, "--mode", mode, write("graph.g6", line + "\n")])


@FUZZ
@given(st.lists(graph6_lines(), max_size=6), st.sampled_from(["duality", "henning", "treeeq"]))
def test_graph6_scan(write, lines, check):
    run(["scan", "--check", check, "--file", write("stream.g6", "\n".join(lines) + "\n")])


def _decoded(decode, line):
    try:
        return decode(line)
    except Graph6Error as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(graph6_lines())
@example("D?\u00e9")  # a data byte beyond ASCII
@example("C\x7f")
@example(">>graph6<<Bw\n")
def test_graph6_decoder_matches_the_string_decoder(line):
    # The same masks, or the same error message.
    want = _decoded(graph6_to_masks_by_string, line)
    assert _decoded(graph6_to_masks, line) == want
    g = _decoded(from_graph6, line)
    assert g == want if isinstance(want, str) else g.masks == want
