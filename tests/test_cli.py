import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dompack import cli, engine, engine_twodeg, families
from dompack.cli import main
from dompack.constructions import ConvexEncoding
from dompack.engine import RotationSystem
from dompack.engine_twinwidth import ContractionSequence
from dompack.graph import (
    MAX_ORDER,
    Graph,
    Graph6Error,
    OversizeError,
    _g6_encode_n,
    graph6_to_masks,
    masks_to_graph6,
    to_graph6,
)
from _reference import (
    SCAN_FILTERS,
    brute_force_tww_sequence,
    convex_graph,
    enumerate_labeled_graphs,
    scan_check,
    scan_class_flags,
    to_edge_json,
)
from conftest import random_graph


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def petersen_file(tmp_path):
    return write(tmp_path, "petersen.g6", to_graph6(families.gen_petersen()) + "\n")


class TestSolve:
    def test_gamma_petersen(self, petersen_file, capsys):
        code, out, _ = run_cli(["solve", "--variant", "gamma", petersen_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 3 and doc["variant"] == "gamma"

    def test_rho_with_y_all(self, tmp_path, capsys):
        k5 = write(tmp_path, "k5.g6", to_graph6(families.gen_rook(1)) + "\n")
        from conftest import complete

        k5 = write(tmp_path, "k5.g6", to_graph6(complete(5)) + "\n")
        code, out, _ = run_cli(
            ["solve", "--variant", "rho", "--y", "all", k5], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == 0

    def test_total_mode(self, tmp_path, capsys):
        c4 = write(tmp_path, "c4.g6", to_graph6(families.gen_cycle(4)) + "\n")
        code, out, _ = run_cli(
            ["solve", "--variant", "gamma", "--mode", "total", c4], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.g6", "not graph6 at all \x01\n")
        code, _, err = run_cli(["solve", "--variant", "gamma", bad], capsys)
        assert code == 2 and "error" in err

    def test_oversize_is_3(self, tmp_path, capsys):
        from dompack.graph import Graph

        big = write(tmp_path, "big.g6", to_graph6(Graph.from_edges(70)) + "\n")
        code, _, _ = run_cli(["solve", "--variant", "gamma", big], capsys)
        assert code == 3

    def test_graph6_of_order_60(self, tmp_path, capsys):
        # Its graph6 header byte is "{", the first byte of edge-list JSON too.
        text = to_graph6(families.gen_cycle(60))
        assert text.startswith("{")
        c60 = write(tmp_path, "c60.g6", text + "\n")
        code, out, _ = run_cli(["solve", "--variant", "rho", c60], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 20


class TestConstruct:
    def test_generic_petersen(self, petersen_file, capsys):
        code, out, _ = run_cli(["construct", "--class", "generic", petersen_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "generic"
        num, den = map(int, doc["ratio"].split("/"))
        assert num / den <= 4

    def test_treewidth_tree_constant_one(self, tmp_path, capsys):
        tree = families.gen_random_tree(8, 1)
        tf = write(tmp_path, "tree.g6", to_graph6(tree) + "\n")
        cf = write(tmp_path, "chordal.g6", to_graph6(tree) + "\n")
        code, out, _ = run_cli(
            ["construct", "--class", "treewidth", "--certificate", cf, tf], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["constant"] == "1/1"

    def test_twodeg_unknown_rule_is_4(self, tmp_path, monkeypatch, capsys):
        def bogus(st):
            app = engine.rule_isolated(st)
            return app and dataclasses.replace(app, rule_id="bogus")

        monkeypatch.setattr(engine_twodeg, "rule_isolated", bogus)
        gf = write(tmp_path, "e3.g6", to_graph6(Graph.from_edges(3)) + "\n")
        code, out, err = run_cli(["construct", "--class", "twodeg", gf], capsys)
        assert code == 4 and out == ""
        *trace, last = err.splitlines()
        assert [json.loads(line)["rule"] for line in trace] == ["bogus"] * 3
        assert last == "error: construction failed: unknown rule bogus"

    def test_planar_stall_is_4(self, tmp_path, capsys):
        from conftest import complete

        k12 = write(tmp_path, "k12.g6", to_graph6(complete(12)) + "\n")
        code, _, err = run_cli(["construct", "--class", "planar", k12], capsys)
        assert code == 4
        # K12 beside a path of three: the path goes in three steps, each
        # written to stderr as a trace line before the stall's error line.
        g = Graph.from_edges(15, complete(12).edges() + [(12, 13), (13, 14)])
        gf = write(tmp_path, "k12p3.g6", to_graph6(g) + "\n")
        code, out, err = run_cli(["construct", "--class", "planar", gf], capsys)
        assert code == 4 and out == ""
        lines = err.splitlines()
        assert [json.loads(line)["rule"] for line in lines[:-1]] == [
            "low_degree", "x_elim", "isolated"
        ]
        assert lines[-1] == (
            "error: construction failed: planar rules stalled (non-planar input?)"
        )

    def test_convex_uncovered_point_is_4(self, tmp_path, capsys, monkeypatch):
        # The witness check is certify's dominating checker alone: a D that
        # loses the left endpoint of a packed interval leaves a vertex
        # undominated on this encoding, and construct exits 4.
        from dompack import constructions

        enc = families.gen_random_convex(4, 3, 7)
        real = constructions.certify

        def drop_endpoint(g, d, p, tag, constant, *rest):
            y = min(v for v in p if v in enc.y_neighbors)
            lo, _ = constructions._check_encoding(g, enc)[y]
            return real(g, set(d) - {enc.x_order[lo]}, p, tag, constant, *rest)

        monkeypatch.setattr(constructions, "certify", drop_endpoint)
        gf = write(tmp_path, "g.json", to_edge_json(convex_graph(enc)))
        ef = write(tmp_path, "enc.json", enc.to_json())
        code, out, err = run_cli(
            ["construct", "--class", "convex", "--certificate", ef, gf], capsys
        )
        assert code == 4 and out == ""
        assert err == "error: construction failed: convex: D fails the dominating checker\n"

    def test_twinwidth_via_files(self, tmp_path, capsys):
        g = families.gen_path(4)
        seq = brute_force_tww_sequence(g, 2)
        gf = write(tmp_path, "p4.g6", to_graph6(g) + "\n")
        sf = write(tmp_path, "seq.json", seq.to_json())
        code, out, _ = run_cli(
            ["construct", "--class", "twinwidth", "--certificate", sf, gf], capsys
        )
        assert code == 0
        assert json.loads(out)["class"] == "twin-width"

    def test_unitdisk_csv(self, tmp_path, capsys):
        cfg = families.gen_random_unitdisk(10, 6.0, 3)
        df = write(tmp_path, "disks.csv", cfg.to_csv())
        code, out, _ = run_cli(["construct", "--class", "unitdisk", df], capsys)
        assert code == 0

    def test_convex_needs_certificate(self, tmp_path, capsys):
        enc = families.gen_random_convex(4, 3, 1)
        gf = write(tmp_path, "g.json", to_edge_json(convex_graph(enc)))
        code, _, _ = run_cli(["construct", "--class", "convex", gf], capsys)
        assert code == 2
        ef = write(tmp_path, "enc.json", enc.to_json())
        code, out, _ = run_cli(
            ["construct", "--class", "convex", "--certificate", ef, gf], capsys
        )
        assert code == 0

    # sha256 of the stdout of `construct --class C` on the seeded in-class
    # inputs of `_golden_argv`: witnesses and traces are a stable interface,
    # so these digests must not change.
    @pytest.mark.parametrize(
        "cls, digest",
        [
            ("planar",
             "2f12060175e8669dfcd56e37b5f8e1a6a8ad1bb9ad6495d3974f5e9500e47f99"),
            ("generic",
             "5a435bc9b5265571ad6797bd08f14ce3e37d8afa01e0a2201365c1a11e2f44c1"),
            ("treewidth",
             "d4c9816793ec7842e0a5f4ca9dfbeee20d99f340862384f710e7f59da0732b5e"),
            ("twodeg",
             "4d2494ff5cdbf6793325f444d59637caf8d96588fe32753c7869cfcb44d72265"),
            ("dh",
             "5c43f5b1d8c914890db524c31837bebf162cb9162edce5bca14d1569dff6be78"),
            ("twinwidth",
             "d372fda968dbe32632053689a58d24eb00332228ef3d4908fe872344666fcc98"),
            ("atfree",
             "d00c384c108a425cf87cedef710c46e1a8a2f3b071cfbd84b44e68ee4d0d147d"),
            ("convex",
             "070b1c599f090aa351a74f2545de95bbea606c94d9045865adb75b213aad66ce"),
            ("unitdisk",
             "0a15c64e1bc19633c480857c34e6f09f72a1c7f31c9ba4d475d3661ee7b1c8d1"),
        ],
    )
    def test_golden_stdout(self, cls, digest, tmp_path, capsys):
        code, out, _ = run_cli(_golden_argv(cls, tmp_path), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_stdout_twinwidth_red_edges(self, tmp_path, capsys):
        # The cographs above contract without red edges; this sequence has
        # width 6, and the run takes low-black steps with red neighbours and
        # contractions that make red edges.
        import conftest

        g, seq = conftest.random_cograph(120, 4, flip=0.1)
        assert seq.declared_width == 6
        gf = write(tmp_path, "g.json", to_edge_json(g))
        sf = write(tmp_path, "seq.json", seq.to_json())
        code, out, _ = run_cli(
            ["construct", "--class", "twinwidth", gf, "--certificate", sf], capsys
        )
        assert code == 0
        trace = json.loads(out)["trace"]
        lowblack = [s["payload"] for s in trace if s["rule"] == "tww_lowblack"]
        assert any(p["reds"] for p in lowblack) and any(p["s_red"] for p in lowblack)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "51c469d5c1f8f70b39bcd937f9f7b6d473d03779edc09a30a0847dbc2e8d1f23"
        )

    # The drivers' budgets add up over components, so a disjoint union of
    # two in-class pieces must construct and validate like each piece.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cls", ["planar", "treewidth", "twodeg", "dh", "convex"])
    def test_disjoint_union_of_two_pieces(self, cls, seed, tmp_path, capsys):
        argv = _union_argv(cls, seed, tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        wf = write(tmp_path, "witness.json", out)
        code, out, err = run_cli(["validate", "--what", "witness", wf, argv[3]], capsys)
        assert (code, out, err) == (0, "ok\n", "")


def _disjoint_union(g, h):
    return Graph.from_edges(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


def _union_argv(cls, seed, tmp_path):
    """`construct` arguments for the disjoint union of two seeded in-class
    pieces of 5 to 60 vertices; the certificate, where the class reads one,
    is the union of the pieces' certificates."""
    import conftest

    rng = random.Random(seed)
    sizes = rng.randint(5, 60), rng.randint(5, 60)
    seeds = rng.randrange(1 << 30), rng.randrange(1 << 30)
    cert = None
    if cls == "treewidth":
        (g, cg), (h, ch) = (conftest.random_partial_ktree(n, 3, s) for n, s in zip(sizes, seeds))
        union = _disjoint_union(g, h)
        cert = write(tmp_path, "cert.g6", to_graph6(_disjoint_union(cg, ch)) + "\n")
    elif cls == "convex":
        a, b = (families.gen_random_convex(n, n // 2, s) for n, s in zip(sizes, seeds))
        shift = len(a.x_order) + len(a.y_neighbors)
        enc = ConvexEncoding(
            a.x_order + tuple(x + shift for x in b.x_order),
            {**a.y_neighbors,
             **{y + shift: tuple(x + shift for x in ns) for y, ns in b.y_neighbors.items()}},
        )
        union = convex_graph(enc)
        cert = write(tmp_path, "enc.json", enc.to_json())
    else:
        make = {"planar": conftest.random_planar, "twodeg": conftest.random_twodeg,
                "dh": conftest.random_dh}[cls]
        union = _disjoint_union(*(make(n, s) for n, s in zip(sizes, seeds)))
    gf = write(tmp_path, "g.json", to_edge_json(union))
    argv = ["construct", "--class", cls, gf]
    return argv + ["--certificate", cert] if cert else argv


def _golden_argv(cls, tmp_path):
    """`construct` arguments for one seeded in-class input of up to 200
    vertices (the AT-free pair search is exhaustive, so that one is smaller)."""
    import conftest
    from dompack.graph import is_connected

    cert = None
    if cls == "planar":
        g = conftest.random_planar(200, 1)
    elif cls == "generic":
        g = conftest.random_graph(200, 0.03, 2)
    elif cls == "treewidth":
        g, completion = conftest.random_partial_ktree(200, 3, 3)
        cert = write(tmp_path, "cert.g6", to_graph6(completion) + "\n")
    elif cls == "twodeg":
        g = conftest.random_twodeg(200, 4)
    elif cls == "dh":
        g = conftest.random_dh(200, 5)
    elif cls == "twinwidth":
        g, seq = conftest.random_cograph(160, 6)
        cert = write(tmp_path, "seq.json", seq.to_json())
    elif cls == "atfree":
        g = conftest.random_interval_graph(40, 7)
        assert is_connected(g)
    elif cls == "convex":
        enc = families.gen_random_convex(100, 80, 8)
        g = convex_graph(enc)
        cert = write(tmp_path, "enc.json", enc.to_json())
    else:
        cfg = families.gen_random_unitdisk(150, 16.0, 9)
        gf = write(tmp_path, "disks.csv", cfg.to_csv())
    if cls != "unitdisk":
        gf = write(tmp_path, "g.json", to_edge_json(g))
    argv = ["construct", "--class", cls, gf]
    return argv + ["--certificate", cert] if cert else argv


def _generate_in_child(family, params, refuse):
    """`generate` in a child with 1 GB of address space and 30 s of CPU; with
    ``refuse``, building or encoding a graph fails the run."""
    import resource

    code = "import sys; from dompack import cli; from dompack.graph import Graph\n"
    if refuse:
        code += (
            "def refuse(*args, **kwargs): raise AssertionError('graph built or encoded')\n"
            "Graph.from_edges = staticmethod(refuse); cli.to_graph6 = refuse\n"
        )
    code += "sys.exit(cli.main(sys.argv[1:]))"

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (30, 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, "generate", "--family", family, "--params", params],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit,
    )


class TestGenerateValidate:
    def test_generate_chained_blocks(self, capsys):
        code, out, _ = run_cli(["generate", "--family", "chained-blocks", "--params", "i=2"], capsys)
        assert code == 0
        from dompack.graph import from_graph6

        assert from_graph6(out.strip()).n == 14

    def test_generate_oversize(self, capsys):
        code, _, _ = run_cli(["generate", "--family", "split", "--params", "k=6"], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "family, params, order",
        [
            ("chained-blocks", "i=43008", 6 * 43008 + 2),
            ("rook", "n=508", 508 * 508),
            ("cycle", f"n={MAX_ORDER + 1}", MAX_ORDER + 1),
            ("path", f"n={MAX_ORDER + 1}", MAX_ORDER + 1),
            ("random-tree", f"n={MAX_ORDER + 1},seed=3", MAX_ORDER + 1),
        ],
    )
    def test_generate_above_the_order_cap_is_3(self, family, params, order):
        # Refused before any graph is built or encoded.  Without the guard,
        # rook builds about n**3 edges before any other check.
        run = _generate_in_child(family, params, refuse=True)
        assert run.returncode == 3 and run.stdout == ""
        assert run.stderr == f"error: order {order} above the cap of {MAX_ORDER}\n"

    def test_generate_rook_capped_at_64(self):
        # Below the order cap, rook's edge list still grows as n**3: n=100
        # peaks at about 300 MB.  n=65 is refused before any graph is built.
        run = _generate_in_child("rook", "n=65", refuse=True)
        assert run.returncode == 3 and run.stdout == ""
        assert run.stderr == "error: rook family has n^2 (n-1) edges; capped at n=64\n"
        run = _generate_in_child("rook", "n=64", refuse=False)
        assert run.returncode == 0 and run.stderr == ""
        assert graph6_to_masks(run.stdout.strip()) == families.gen_rook(64).masks

    def test_generate_long_path_in_linear_time(self, capsys):
        # An encoder whose time grows as n^3 takes about 8 s on this path.
        t0 = time.perf_counter()
        code, out, _ = run_cli(["generate", "--family", "path", "--params", "n=6000"], capsys)
        elapsed = time.perf_counter() - t0
        assert code == 0 and elapsed < 1.0
        assert graph6_to_masks(out.strip()) == families.gen_path(6000).masks

    def test_generate_unitdisk_wide_box_reads_back(self, tmp_path, capsys):
        argv = ["generate", "--family", "random-unitdisk", "--params", "n=4,box=1e149,seed=2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 4
        df = write(tmp_path, "disks.csv", out)
        code, _, _ = run_cli(["construct", "--class", "unitdisk", df], capsys)
        assert code == 0

    def test_generate_unknown(self, capsys):
        code, _, _ = run_cli(["generate", "--family", "nope"], capsys)
        assert code == 2

    def test_list_families(self, capsys):
        code, out, _ = run_cli(["list-families"], capsys)
        assert code == 0
        names = [json.loads(line)["name"] for line in out.splitlines()]
        assert "chained-blocks" in names and "petersen" in names

    @pytest.mark.parametrize(
        "graph, witness, code",
        [
            # Plain- but not total-dominating: the class is checked in total mode.
            ('{"n":2,"edges":[[0,1]]}',
             {"class": "distance-hereditary", "constant": "2/1", "D": [0], "P": [0]}, 5),
            # Vertex 2 sees D only over a red edge: the class is checked in black mode.
            ('{"n":3,"edges":[[0,1]],"red_edges":[[1,2]]}',
             {"class": "twin-width", "constant": "16/1", "D": [1], "P": [1]}, 5),
            # The AT-free budget is 3|P| + 2.
            ('{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]]}',
             {"class": "at-free", "constant": "3/1", "D": [0, 1, 2, 3, 4], "P": [0]}, 0),
            ('{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]]}',
             {"class": "at-free", "constant": "3/1", "D": [0, 1, 2, 3, 4, 5], "P": [0]}, 5),
        ],
        ids=["dh-total", "twinwidth-black", "atfree-slack", "atfree-over-slack"],
    )
    def test_validate_class_rules(self, graph, witness, code, tmp_path, capsys):
        gf = write(tmp_path, "g.json", graph)
        wf = write(tmp_path, "w.json", json.dumps(witness))
        assert run_cli(["validate", "--what", "witness", wf, gf], capsys)[0] == code

    def test_validate_witness_roundtrip(self, tmp_path, capsys):
        gf = write(tmp_path, "c6.g6", to_graph6(families.gen_cycle(6)) + "\n")
        code, out, _ = run_cli(["solve", "--variant", "gamma", gf], capsys)
        wf = write(tmp_path, "w.json", out)
        code, out, _ = run_cli(["validate", "--what", "witness", wf, gf], capsys)
        assert code == 0 and out.strip() == "ok"

    def test_validate_constructed_witness(self, tmp_path, capsys):
        gf = write(tmp_path, "c6.g6", to_graph6(families.gen_cycle(6)) + "\n")
        code, out, _ = run_cli(["construct", "--class", "planar", gf], capsys)
        wf = write(tmp_path, "w.json", out)
        code, out, _ = run_cli(["validate", "--what", "witness", wf, gf], capsys)
        assert code == 0

    def test_validate_rejects_tampered_witness(self, tmp_path, capsys):
        gf = write(tmp_path, "c6.g6", to_graph6(families.gen_cycle(6)) + "\n")
        _, out, _ = run_cli(["solve", "--variant", "gamma", gf], capsys)
        doc = json.loads(out)
        doc["witness"] = doc["witness"][:-1]
        wf = write(tmp_path, "w.json", json.dumps(doc))
        code, _, err = run_cli(["validate", "--what", "witness", wf, gf], capsys)
        assert code == 5

    def test_validate_tww_rejects_overwidth(self, tmp_path, capsys):
        g = families.gen_cycle(7)
        seq = brute_force_tww_sequence(g, 2)
        lying = ContractionSequence(seq.merges, 1)
        gf = write(tmp_path, "c7.g6", to_graph6(g) + "\n")
        sf = write(tmp_path, "seq.json", lying.to_json())
        code, _, err = run_cli(["validate", "--what", "tww-seq", sf, gf], capsys)
        assert code == 5

    def test_validate_rotation(self, tmp_path, capsys):
        g = families.gen_cycle(5)
        rs = RotationSystem({v: tuple(sorted(g.adj[v])) for v in g.vertices()})
        gf = write(tmp_path, "c5.g6", to_graph6(g) + "\n")
        rf = write(tmp_path, "rot.json", rs.to_json())
        code, _, _ = run_cli(["validate", "--what", "rotation", rf, gf], capsys)
        assert code == 0

    def test_validate_tw_cert(self, tmp_path, capsys):
        from dompack.graph import Graph

        c4 = families.gen_cycle(4)
        chordal = Graph.from_edges(4, c4.edges() + [(0, 2)])
        gf = write(tmp_path, "c4.g6", to_graph6(c4) + "\n")
        cf = write(tmp_path, "chordal.g6", to_graph6(chordal) + "\n")
        code, _, _ = run_cli(["validate", "--what", "tw-cert", cf, gf], capsys)
        assert code == 0
        code, _, _ = run_cli(["validate", "--what", "tw-cert", "--k", "1", cf, gf], capsys)
        assert code == 5
        code, _, _ = run_cli(["validate", "--what", "tw-cert", gf, gf], capsys)
        assert code == 5  # C4 itself is not chordal

    def test_construct_treewidth_bad_certificate(self, tmp_path, capsys):
        c4 = families.gen_cycle(4)
        gf = write(tmp_path, "c4.g6", to_graph6(c4) + "\n")
        p4 = write(tmp_path, "p4.g6", to_graph6(families.gen_path(4)) + "\n")
        code, _, _ = run_cli(
            ["construct", "--class", "treewidth", "--certificate", p4, gf], capsys
        )
        assert code == 4  # a path is not a supergraph of the cycle

    def test_construct_treewidth_edgeless(self, tmp_path, capsys):
        # Width 0 is lifted to 1: each isolated vertex pays one for one.
        ef = write(tmp_path, "e3.g6", "B?\n")  # three vertices, no edges
        code, out, _ = run_cli(
            ["construct", "--class", "treewidth", "--certificate", ef, ef], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["constant"] == "1/1" and doc["D"] == doc["P"] == [0, 1, 2]


def _scan_file_text(oversize: bool) -> str:
    """The 1,024 labelled graphs on five vertices, one graph6 line each, with
    a malformed line 501 and a blank line; with ``oversize``, a 70-vertex
    cycle after the first 599 graphs."""
    lines = [masks_to_graph6(m) for m in families.enumerate_labeled_masks(5)]
    lines.insert(800, "")
    lines.insert(500, "bad!line")
    if oversize:
        lines.insert(600, to_graph6(families.gen_cycle(70)))
    return "\n".join(lines) + "\n"


SCAN_MALFORMED_ERR = (
    "line 501: skipped malformed graph6 (expected 100 data bytes for n=35, got 7)\n"
)


class TestScan:
    def test_duality_enumerate_5(self, capsys):
        code, out, _ = run_cli(["scan", "--enumerate-n", "5", "--check", "duality"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["graphs"] == 1024 and summary["violations"] == 0

    def test_source_spelling(self, tmp_path, capsys):
        code, out1, _ = run_cli(["scan", "--source", "enumerate-n", "4", "--check", "duality"], capsys)
        assert code == 0
        sf = write(tmp_path, "one.g6", to_graph6(families.gen_cycle(5)) + "\n")
        code, out2, _ = run_cli(["scan", "--source", "file", sf], capsys)
        assert code == 0
        assert json.loads(out2.splitlines()[0])["gamma"] == 2
        code, _, _ = run_cli(["scan", "--source", "bogus", "x"], capsys)
        assert code == 2

    def test_treeeq_filter(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--enumerate-n", "5", "--filter", "tree", "--check", "treeeq"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["violations"] == 0
        assert summary["graphs"] == 125  # labeled trees on 5 vertices: 5^3

    def test_henning_flags_petersen(self, tmp_path, capsys):
        stream = to_graph6(families.gen_petersen()) + "\n" + to_graph6(families.gen_cycle(6)) + "\n"
        sf = write(tmp_path, "sub.g6", stream)
        code, out, _ = run_cli(
            ["scan", "--file", sf, "--filter", "subcubic", "--check", "henning"], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
        assert records[0]["equality"] is True  # Petersen: gamma = 2 rho + 1
        assert records[0]["gamma"] == 3 and records[0]["rho"] == 1

    def test_order_byte_out_of_range_is_malformed(self, tmp_path, capsys):
        bad = chr(127) + "?" * 336
        sf = write(tmp_path, "bad.g6", "A_\n" + bad + "\n")
        code, out, err = run_cli(["scan", "--file", sf, "--check", "duality"], capsys)
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["malformed"] == 1 and summary["graphs"] == 1
        assert "line 2: skipped malformed graph6" in err

    def test_malformed_lines_counted(self, tmp_path, capsys):
        sf = write(tmp_path, "mixed.g6", "A_\nbroken\x02line\nA?\n")
        code, out, err = run_cli(["scan", "--file", sf, "--check", "duality"], capsys)
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["malformed"] == 1 and summary["graphs"] == 2
        assert "line 2" in err

    def test_parallel_matches_serial(self, tmp_path, capsys):
        stream = "".join(
            to_graph6(g) + "\n" for g in enumerate_labeled_graphs(4)
        )
        sf = write(tmp_path, "four.g6", stream)
        code1, out1, _ = run_cli(["scan", "--file", sf, "--check", "duality"], capsys)
        code2, out2, _ = run_cli(
            ["scan", "--file", sf, "--check", "duality", "--jobs", "2"], capsys
        )
        assert code1 == code2 == 0
        assert out1 == out2

    # sha256 of the stdout of `scan --enumerate-n 5 ...`: scan records are a
    # stable interface, so these digests must not change.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--check", "duality"],
             "ed4dc9b1946c185d651d87f4c567d4f031ef2cba24143254d846ec68a906f4be"),
            (["--filter", "tree", "--check", "treeeq"],
             "3379a24667e6f7a93b8b43434877b49cb22f7ea7ab9460918043a2f5e5e695b0"),
            (["--filter", "subcubic", "--check", "henning"],
             "d6661edde51bcefe665c2d3ab42d4da2f23d6aacd0077889479f9fce4d321e1f"),
        ],
        ids=["duality", "tree-treeeq", "subcubic-henning"],
    )
    def test_golden_stdout(self, args, digest, capsys):
        code, out, _ = run_cli(["scan", "--enumerate-n", "5", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_stdout_n6(self, capsys):
        # The benchmarked sweep: all 32,768 labelled graphs on six vertices.
        code, out, _ = run_cli(["scan", "--enumerate-n", "6", "--check", "duality"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0282d1be41039aa0b1a1c26e38dcf8bef730a884f6452890aaa368373af2f997"
        )

    # The same sweep under the other two checks, recorded before the scan
    # evaluated one graph per isomorphism class.
    @pytest.mark.parametrize(
        "check, digest",
        [("henning", "dbfac9453b3e66a949ecc210a8e3e56dd5d1766062cbf4f7084adf471df56cde"),
         ("treeeq", "26ef4b2679dbd65dd54cdf8e1207a9d45f7d2e715891309453cc5fb290736dd1")],
    )
    def test_golden_stdout_n6_checks(self, check, digest, capsys):
        code, out, _ = run_cli(["scan", "--enumerate-n", "6", "--check", check], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the stdout of `scan --file` on `_scan_file_text(False)`, with
    # --jobs 1 and 2, recorded before the filters became class-flag masks.
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "check, filt, digest",
        [("duality", "all", "ccd34c5a8c76604cd79ccdbd566b7e6e666323e461bc4351ef17546e9a77013d"),
         ("treeeq", "tree", "e33036ba05bb5ebf22e3e5cf9b07ee1fa25b7aaf5d1c2b8bd35c381c12bba432"),
         ("henning", "subcubic",
          "5648d96f1e67270e67b006950cc2ec27683a2f1163babf456d037ada6a9c5590")],
    )
    def test_file_golden(self, check, filt, digest, jobs, tmp_path, capsys):
        sf = write(tmp_path, "five.g6", _scan_file_text(False))
        argv = ["scan", "--file", sf, "--check", check, "--filter", filt, "--jobs", jobs]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == SCAN_MALFORMED_ERR
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # A 70-vertex cycle after the first 599 graphs: the records before it are
    # written, then the size guard exits 3, whatever --jobs.
    @pytest.mark.parametrize(
        "jobs, digest, lines",
        [("1", "4f2ecdf796392bc9e905a3007598f39963e6b4028ec30c0e30de59fe24183f04", 599),
         ("2", "4f2ecdf796392bc9e905a3007598f39963e6b4028ec30c0e30de59fe24183f04", 599)],
    )
    def test_file_oversize_mid_file(self, jobs, digest, lines, tmp_path, capsys):
        sf = write(tmp_path, "five.g6", _scan_file_text(True))
        code, out, err = run_cli(["scan", "--file", sf, "--jobs", jobs], capsys)
        assert code == 3
        assert err == SCAN_MALFORMED_ERR + "error: n=70 exceeds limit 64\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(out.splitlines()) == lines

    def test_file_stops_at_an_oversize_line_whatever_jobs(self, tmp_path, capsys):
        # The pool path listed every line first, and so also reported the
        # malformed line after the cycle, which --jobs 1 never reaches.
        text = "\n".join(["A_", to_graph6(families.gen_cycle(70)), "bad!line", "A_"]) + "\n"
        sf = write(tmp_path, "cut.g6", text)
        serial = run_cli(["scan", "--file", sf, "--jobs", "1"], capsys)
        assert run_cli(["scan", "--file", sf, "--jobs", "2"], capsys) == serial
        code, out, err = serial
        assert code == 3 and err == "error: n=70 exceeds limit 64\n"
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_file_filter_runs_before_the_size_guard(self, jobs, tmp_path, capsys):
        # The cycle is no tree: the tree filter drops it before the guard.
        sf = write(tmp_path, "five.g6", _scan_file_text(True))
        argv = ["scan", "--file", sf, "--check", "treeeq", "--filter", "tree", "--jobs", jobs]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == SCAN_MALFORMED_ERR
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e33036ba05bb5ebf22e3e5cf9b07ee1fa25b7aaf5d1c2b8bd35c381c12bba432"
        )

    def test_file_filtered_oversize(self, tmp_path, capsys):
        # The cycle is subcubic, so it reaches the guard.
        sf = write(tmp_path, "five.g6", _scan_file_text(True))
        argv = ["scan", "--file", sf, "--check", "henning", "--filter", "subcubic"]
        code, serial, err = run_cli(argv + ["--jobs", "1"], capsys)
        assert code == 3
        assert err == SCAN_MALFORMED_ERR + "error: n=70 exceeds limit 64\n"
        assert hashlib.sha256(serial.encode()).hexdigest() == (
            "b334f2038e7a49035b72bb726ff4c42a70bf41d5243d7dfa78f034b30260240f"
        )
        code, pooled, err = run_cli(argv + ["--jobs", "2"], capsys)
        assert code == 3
        assert err == SCAN_MALFORMED_ERR + "error: n=70 exceeds limit 64\n"
        assert pooled == serial

    @pytest.mark.parametrize("check", ["duality", "henning", "treeeq"])
    def test_tables_match_the_old_predicates(self, check, monkeypatch):
        # The filter masks and the check table against the predicates and
        # the check chain they replaced (tests/_reference.py), on every
        # labelled graph with n <= 5 and seeded random graphs with n <= 12.
        rng = random.Random(15)
        graphs = [m for n in range(6) for m in families.enumerate_labeled_masks(n)]
        graphs += [random_graph(rng.randint(1, 12), rng.choice([0.1, 0.2, 0.3, 0.5]), seed).masks
                   for seed in range(300)]
        graphs += [families.gen_random_tree(n, n).masks for n in range(1, 13)]
        # C6 and a spider with four legs of length 2 have asteroidal triples.
        spider = Graph.from_edges(9, [(0, v) for v in range(1, 5)] + [(v, v + 4) for v in range(1, 5)])
        graphs += [families.gen_cycle(6).masks, spider.masks]
        by_flags = {}
        for masks in graphs:
            degs = [mask.bit_count() for mask in masks]
            flags = scan_class_flags(masks, sum(degs) // 2, max(degs, default=0) <= 3)
            record = cli._scan_one((masks, check, 0, 64))
            assert record["class_flags"] == flags
            outcome = (record["applicable"], record["violation"], record["equality"])
            assert outcome == scan_check(check, record["gamma"], record["rho"], flags)
            for name, keep in cli._SCAN_FILTERS.items():
                kept = cli._scan_one((masks, check, keep, 64))
                assert kept == (record if SCAN_FILTERS[name](masks) else None)
            by_flags.setdefault(flags, masks)
        # Each combination a graph can have: a tree is connected.
        assert sorted(by_flags) == [0, 1, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15]
        # Every (gamma, rho) outcome of the check on each flag combination,
        # violations included: the kernels are replaced by fixed answers.
        for gamma, rho in itertools.product(range(5), repeat=2):
            monkeypatch.setattr(cli.oracles, "domination_kernel", lambda masks: (gamma,))
            monkeypatch.setattr(cli.oracles, "packing_kernel", lambda masks: (rho,))
            for flags, masks in by_flags.items():
                record = cli._scan_one((masks, check, 0, 64))
                outcome = (record["applicable"], record["violation"], record["equality"])
                assert outcome == scan_check(check, gamma, rho, flags)

    @pytest.mark.parametrize("check", ["duality", "henning", "treeeq"])
    def test_class_records_match_each_graph(self, check, capsys):
        # Each record is its class's, computed on another labelled graph:
        # it must equal the record of the graph itself.
        code, out, _ = run_cli(["scan", "--enumerate-n", "5", "--check", check], capsys)
        assert code == 0
        lines = out.splitlines()[:-1]
        graphs = list(families.enumerate_labeled_masks(5))
        assert len(lines) == len(graphs) == 1024
        for line, masks in zip(lines, graphs):
            own = {"graph6": masks_to_graph6(masks), **cli._scan_one((masks, check, 0, 64))}
            assert json.loads(line) == own

    def test_violations_exit_1_with_ten_counterexamples(self, monkeypatch, capsys):
        # A domination kernel that answers 0 makes every graph with a vertex
        # violate duality: gamma = 0 < rho.
        monkeypatch.setattr(cli.oracles, "domination_kernel", lambda masks: (0,))
        code, out, err = run_cli(["scan", "--enumerate-n", "4", "--check", "duality"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert json.loads(lines[-1])["summary"]["violations"] == 64
        assert err.splitlines() == ["counterexample: " + line for line in lines[:10]]

    def test_record_lines_are_compact_json(self, capsys):
        # Records with a backslash in their graph6, a null ratio and each
        # flag value, against json.dumps.
        records = [{"graph6": masks_to_graph6(m), **cli._scan_one((m, check, 0, 64))}
                   for m in families.enumerate_labeled_masks(4)
                   for check in ("duality", "henning", "treeeq")]
        records.append(dict(records[0], graph6='"\\', ratio=None, violation=True))
        assert any("\\" in r["graph6"] for r in records)
        assert any(r["ratio"] is None for r in records)
        for r in records:
            line = cli._scan_line(r["graph6"], cli._scan_tail(r))
            assert line == json.dumps(r, separators=(",", ":"))

    def test_parallel_enumeration_matches_serial(self, capsys):
        code1, out1, _ = run_cli(["scan", "--enumerate-n", "4", "--jobs", "1"], capsys)
        code2, out2, _ = run_cli(["scan", "--enumerate-n", "4", "--jobs", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_enumeration_starts_no_pool(self):
        # The enumeration evaluates its classes in-process, whatever --jobs.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys; from dompack import cli\n"
            "rc = cli.main(['scan', '--enumerate-n', '4', '--jobs', '2'])\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr); sys.exit(rc)"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0 and run.stderr == "False\n"
        assert json.loads(run.stdout.splitlines()[-1])["summary"]["graphs"] == 64

    def test_jobs_clamped_to_cpu_count(self, monkeypatch, tmp_path, capsys):
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        stream = "".join(masks_to_graph6(m) + "\n" for m in families.enumerate_labeled_masks(3))
        sf = write(tmp_path, "three.g6", stream)
        code, out, _ = run_cli(["scan", "--file", sf, "--jobs", "1000"], capsys)
        assert code == 0 and started == [3]
        assert json.loads(out.splitlines()[-1])["summary"]["graphs"] == 8


# The path 0-1-2-3 and a rotation system whose entry for vertex 0 is the list
# [1], not the id 1.
P4_JSON = '{"n":4,"edges":[[0,1],[1,2],[2,3]]}'
NESTED_ROTATION = '{"rotations":{"0":[[1]],"1":[0,2],"2":[1,3],"3":[2]}}'
# Contraction sequences on K2 whose ids or width are not integers; int()
# used to read each of them as the valid sequence [[0,1,2]] at width 2.
K2_JSON = '{"n":2,"edges":[[0,1]]}'
NON_INTEGER_SEQUENCES = [
    '{"width":2,"merges":[["0","1",2]]}',
    '{"width":2,"merges":[[0.0,1,2]]}',
    '{"width":2.0,"merges":[[0,1,2]]}',
]


class TestMalformedInputs:
    """Malformed input exits 2 with a one-line error, never a traceback."""

    @staticmethod
    def assert_parse_error(result):
        code, out, err = result
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            {"variant": "gamma", "value": 1, "witness": ["a"], "mode": "plain", "x": [], "y": []},
            {"variant": "gamma", "value": 1, "witness": [1.5], "mode": "plain", "x": [], "y": []},
            {"class": "generic", "constant": "4/0", "D": [0, 1, 4, 5], "P": [0]},
        ],
        ids=["scalar", "string-id", "float-id", "zero-denominator"],
    )
    def test_validate_witness(self, doc, petersen_file, tmp_path, capsys):
        wf = write(tmp_path, "w.json", json.dumps(doc))
        self.assert_parse_error(
            run_cli(["validate", "--what", "witness", wf, petersen_file], capsys)
        )

    def test_validate_takes_a_document_and_a_graph(self, tmp_path, capsys):
        # argparse names the missing or the extra file and exits 2.
        wf = write(tmp_path, "w.json", '{"class":"generic","constant":"1/1","D":[0],"P":[0]}')
        gf = write(tmp_path, "k2.g6", "A_\n")
        for files, problem in (
            ([wf], "the following arguments are required: graph"),
            ([wf, gf, gf], f"unrecognized arguments: {gf}"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["validate", "--what", "witness", *files])
            assert exc.value.code == 2 and problem in capsys.readouterr().err
        assert run_cli(["validate", "--what", "witness", wf, gf], capsys)[:2] == (0, "ok\n")

    def test_scan_negative_enumeration(self, capsys):
        self.assert_parse_error(run_cli(["scan", "--enumerate-n", "-1"], capsys))

    def test_size_limit_not_an_integer(self, petersen_file, monkeypatch, capsys):
        monkeypatch.setenv("DOMPACK_MAX_N", "abc")
        self.assert_parse_error(run_cli(["solve", "--variant", "gamma", petersen_file], capsys))

    def test_scan_cap_checked_before_the_pool(self, capsys):
        # Raised inside the pool's feeder thread, this error used to hang.
        code, _, err = run_cli(["scan", "--enumerate-n", "8", "--jobs", "2"], capsys)
        assert code == 3 and "capped" in err

    def test_generate_infinite_box(self, capsys):
        argv = ["generate", "--family", "random-unitdisk", "--params", "n=3,box=inf"]
        self.assert_parse_error(run_cli(argv, capsys))

    @pytest.mark.parametrize("params", ["n=-3", "n=3,box=-5", "n=3,box=1e200"])
    def test_generate_unitdisk_out_of_range(self, params, capsys):
        # n=-3 printed nothing, box=-5 drew from a 0.01 box, and box=1e200
        # wrote centres that construct --class unitdisk refuses.
        argv = ["generate", "--family", "random-unitdisk", "--params", params]
        self.assert_parse_error(run_cli(argv, capsys))

    @pytest.mark.parametrize("sequence", NON_INTEGER_SEQUENCES, ids=["str", "float", "width"])
    def test_sequence_ids_must_be_integers(self, sequence, tmp_path, capsys):
        gf = write(tmp_path, "k2.json", K2_JSON)
        sf = write(tmp_path, "seq.json", sequence)
        self.assert_parse_error(run_cli(
            ["construct", "--class", "twinwidth", "--certificate", sf, gf], capsys
        ))
        self.assert_parse_error(run_cli(["validate", "--what", "tww-seq", sf, gf], capsys))

    @pytest.mark.parametrize(
        "cls, graph, certificate",
        [
            ("generic", '{"n":3,"edges":[[0,1,2]]}', None),
            ("generic", '{"n":3,"edges":[[0,1]],"red_edges":[[0]]}', None),
            ("planar", '{"n":2,"edges":[[0,1]]}', '{"rotations":[1]}'),
            ("planar", P4_JSON, NESTED_ROTATION),
            ("convex", '{"n":2,"edges":[[0,1]]}', '{"x_order":[[0]],"y_neighbors":{}}'),
            ("convex", '{"n":2,"edges":[[0,1]]}', '{"x_order":'),
            ("unitdisk", "0,0\n1e400,0\n", None),
            ("unitdisk", "0,0\n1e300,0\n", None),
            ("unitdisk", "0,1e-999999999\n", None),
            ("unitdisk", "0,0\n1E+4301,0\n", None),
        ],
        ids=["edge-triple", "red-edge-single", "rotations-list", "rotations-list-id",
             "convex-list-id", "convex-truncated", "disk-float-overflow",
             "disk-square-overflow", "disk-huge-exponent", "disk-exponent-past-bound"],
    )
    def test_construct_inputs(self, cls, graph, certificate, tmp_path, capsys):
        argv = ["construct", "--class", cls, write(tmp_path, "in.txt", graph)]
        if certificate is not None:
            argv += ["--certificate", write(tmp_path, "cert.json", certificate)]
        self.assert_parse_error(run_cli(argv, capsys))

    def test_validate_rotation_list_id(self, tmp_path, capsys):
        rf = write(tmp_path, "rot.json", NESTED_ROTATION)
        gf = write(tmp_path, "p4.json", P4_JSON)
        self.assert_parse_error(run_cli(["validate", "--what", "rotation", rf, gf], capsys))

    # JSON true and false are not vertex ids, though Python reads them as 1
    # and 0: each of these exited 0, the first printing "D":[0,true].
    @pytest.mark.parametrize(
        "graph", ['{"n":2,"edges":[[false,true]]}', '{"n":true,"edges":[]}',
                  '{"n":2,"edges":[],"red_edges":[[0,true]]}'],
        ids=["edge", "order", "red-edge"],
    )
    def test_edge_list_bool_ids(self, graph, tmp_path, capsys):
        gf = write(tmp_path, "g.json", graph)
        self.assert_parse_error(run_cli(["construct", "--class", "generic", gf], capsys))

    def test_rotation_bool_ids(self, tmp_path, capsys):
        rf = write(tmp_path, "rot.json", '{"rotations":{"0":[true],"1":[false]}}')
        gf = write(tmp_path, "k2.json", K2_JSON)
        self.assert_parse_error(run_cli(["validate", "--what", "rotation", rf, gf], capsys))

    def test_sequence_bool_ids(self, tmp_path, capsys):
        sf = write(tmp_path, "seq.json", '{"width":true,"merges":[[false,true,2]]}')
        gf = write(tmp_path, "k2.json", K2_JSON)
        self.assert_parse_error(run_cli(
            ["construct", "--class", "twinwidth", "--certificate", sf, gf], capsys
        ))

    def test_witness_bool_ids(self, tmp_path, capsys):
        wf = write(tmp_path, "w.json", '{"class":"generic","constant":"2/1","D":[true],"P":[0]}')
        gf = write(tmp_path, "k2.json", K2_JSON)
        self.assert_parse_error(run_cli(["validate", "--what", "witness", wf, gf], capsys))


class TestOrderCap:
    """Edge-list JSON above the graph6 order cap exits 3 before any
    allocation: Graph.from_edges is never reached."""

    @pytest.fixture(autouse=True)
    def no_graph_build(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Graph.from_edges reached")

        monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))

    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 10**9])
    def test_oversize_order_exits_3(self, n, tmp_path, capsys):
        gf = write(tmp_path, "big.json", json.dumps({"n": n, "edges": []}))
        k2 = write(tmp_path, "k2.g6", "A_\n")
        wf = write(tmp_path, "w.json", '{"class":"generic","constant":"1/1","D":[],"P":[]}')
        for argv in (
            ["solve", "--variant", "gamma", gf],
            ["construct", "--class", "generic", gf],
            ["validate", "--what", "witness", wf, gf],
            ["validate", "--what", "tw-cert", gf, k2],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 3 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert f"order {n} above the cap of {MAX_ORDER}" in err

    def test_graph6_encoder_shares_the_cap(self):
        assert _g6_encode_n(MAX_ORDER) == "~}~~"
        with pytest.raises(Graph6Error):
            _g6_encode_n(MAX_ORDER + 1)


class TestExitCodes:
    """Each error type reaches its exit code through ``cli.main`` alone,
    with nothing on stdout and one error line last on stderr."""

    @pytest.mark.parametrize(
        "argv, env, code",
        [
            (["generate", "--family", "split", "--params", "k=6"], {}, 3),
            (["validate", "--what", "witness", "{witness}", "{big}"], {}, 3),
            (["scan", "--enumerate-n", "8"], {}, 3),
            # The enumeration cap is checked before the size limit is read.
            (["scan", "--enumerate-n", "8"], {"DOMPACK_MAX_N": "x"}, 3),
            (["scan", "--enumerate-n", "-1"], {}, 2),
            (["solve", "--variant", "gamma", "{c65}"], {}, 3),
            (["construct", "--class", "planar", "{stall}"], {}, 4),
        ],
        ids=["family-cap", "validate-order-cap", "enumeration-cap",
             "enumeration-cap-bad-limit", "enumeration-negative", "solve-size-limit",
             "construct-stall"],
    )
    def test_exit_code(self, argv, env, code, tmp_path, monkeypatch, capsys):
        from conftest import complete

        monkeypatch.delenv("DOMPACK_MAX_N", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        stall = Graph.from_edges(15, complete(12).edges() + [(12, 13), (13, 14)])
        files = {
            "witness": write(tmp_path, "w.json", '{"class":"generic","constant":"1/1","D":[],"P":[]}'),
            "big": write(tmp_path, "big.json", json.dumps({"n": MAX_ORDER + 1, "edges": []})),
            "c65": write(tmp_path, "c65.g6", to_graph6(families.gen_cycle(65)) + "\n"),
            "stall": write(tmp_path, "k12p3.g6", to_graph6(stall) + "\n"),
        }
        got, out, err = run_cli([arg.format(**files) for arg in argv], capsys)
        assert got == code and out == ""
        *trace, last = err.splitlines()
        assert last.startswith("error: ")
        # Only a failed construction writes its rule applications first.
        assert [json.loads(line)["rule"] for line in trace] == (
            ["low_degree", "x_elim", "isolated"] if code == 4 else []
        )

    def test_oversize_is_no_value_error(self):
        # Else a handler for malformed input (exit 2) could catch it.
        assert not issubclass(OversizeError, ValueError)


def test_unitdisk_startup_loads_neither_numpy_nor_multiprocessing():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; import dompack.cli; from dompack import constructions; "
        "assert constructions.covering_constant() == 43; "
        "print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


class TestRoundTrips:
    GRAPH_FAMILIES = [
        ("chained-blocks", "i=1"),
        ("split", "k=2"),
        ("threedeg", "k=2"),
        ("rook", "n=3"),
        ("cycle", "n=7"),
        ("path", "n=6"),
        ("petersen", ""),
        ("random-tree", "n=8,seed=4"),
    ]

    @pytest.mark.parametrize("family,params", GRAPH_FAMILIES)
    def test_generate_solve_validate(self, family, params, tmp_path, capsys):
        args = ["generate", "--family", family]
        if params:
            args += ["--params", params]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        gf = write(tmp_path, "g.g6", out)
        code, out, _ = run_cli(["solve", "--variant", "gamma", gf], capsys)
        assert code == 0
        wf = write(tmp_path, "w.json", out)
        code, out, _ = run_cli(["validate", "--what", "witness", wf, gf], capsys)
        assert code == 0

    def test_construct_validate_all_classes(self, tmp_path, capsys):
        tree = families.gen_random_tree(9, 2)
        tf = write(tmp_path, "tree.g6", to_graph6(tree) + "\n")
        specs = [
            (["construct", "--class", "planar", tf], tf),
            (["construct", "--class", "treewidth", "--certificate", tf, tf], tf),
            (["construct", "--class", "twodeg", tf], tf),
            (["construct", "--class", "dh", tf], tf),
            (["construct", "--class", "atfree", tf], tf),
            (["construct", "--class", "generic", tf], tf),
        ]
        g = families.gen_path(5)
        seq = brute_force_tww_sequence(g, 2)
        pf = write(tmp_path, "p5.g6", to_graph6(g) + "\n")
        sf = write(tmp_path, "seq.json", seq.to_json())
        specs.append((["construct", "--class", "twinwidth", "--certificate", sf, pf], pf))
        enc = families.gen_random_convex(4, 3, 8)
        cf = write(tmp_path, "conv.json", to_edge_json(convex_graph(enc)))
        ef = write(tmp_path, "enc.json", enc.to_json())
        specs.append((["construct", "--class", "convex", "--certificate", ef, cf], cf))
        cfg = families.gen_random_unitdisk(12, 5.0, 3)
        df = write(tmp_path, "disks.csv", cfg.to_csv())
        uf = write(tmp_path, "disks.json", to_edge_json(cfg.intersection_graph()))
        specs.append((["construct", "--class", "unitdisk", df], uf))
        for args, gf in specs:
            code, out, _ = run_cli(args, capsys)
            assert code == 0, args
            wf = write(tmp_path, "w.json", out)
            code, _, err = run_cli(["validate", "--what", "witness", wf, gf], capsys)
            assert code == 0, (args, err)


def test_readme_lists_the_construct_classes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(ln for ln in readme.splitlines() if ln.startswith("dompack construct "))
    listed = line.split("--class ", 1)[1].split()[0].split("|")
    assert listed == list(cli.CONSTRUCT_CLASSES)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, petersen_file):
        cmds = [
            [sys.executable, "-m", "dompack.cli", "solve", "--variant", "gamma", petersen_file],
            [sys.executable, "-m", "dompack.cli", "construct", "--class", "generic", petersen_file],
        ]
        for cmd in cmds:
            a = subprocess.run(cmd, capture_output=True)
            b = subprocess.run(cmd, capture_output=True)
            assert a.stdout == b.stdout and a.returncode == b.returncode
