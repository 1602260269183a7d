import argparse
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

from dompack import cli, constructions, engine, families, oracles
from dompack.cli import main
from dompack.constructions import ConvexEncoding
from dompack.engine_twinwidth import ContractionSequence
from dompack.graph import (
    MAX_ORDER,
    Graph,
    Graph6Error,
    OversizeError,
    XYInstance,
    _g6_encode_n,
    graph6_to_masks,
    masks_connected,
    masks_to_graph6,
    to_graph6,
)
from _reference import (
    SCAN_FILTERS,
    brute_force_tww_sequence,
    convex_graph,
    edges,
    enumerate_labeled_graphs,
    enumerate_labeled_masks,
    scan_check,
    scan_class_flags,
    sequence_json,
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

    def test_oversize_refused_before_the_graph_is_built(self, tmp_path, capsys):
        # K_3000 in graph6 is 0.75 MB; building its Graph before the size
        # guard took 585 MB.  The order is read from the header first.
        import tracemalloc

        n = 3000
        text = _g6_encode_n(n) + "~" * (n * (n - 1) // 12) + "\n"  # C(3000, 2) is 6k
        big = write(tmp_path, "k3000.g6", text)
        tracemalloc.start()
        try:
            code, out, err = run_cli(["solve", "--variant", "gamma", big], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == f"error: {big}: n=3000 exceeds limit 64\n"
        # The text is held at most twice: as read, and as its first line.
        assert peak < 3 * len(text)

    @pytest.mark.parametrize("name, text, extra", [
        ("json", json.dumps({"n": 70, "edges": [[0, 1]]}), []),
        ("bad-x", to_graph6(Graph.from_edges(70)), ["--x", "7,oops"]),
        ("bad-y", to_graph6(Graph.from_edges(70)), ["--y", "99"]),
        ("short-graph6", to_graph6(Graph.from_edges(70))[:-3], []),
    ])
    def test_oversize_checked_first(self, name, text, extra, tmp_path, capsys):
        # The order is checked before the graph is built, so an oversize
        # input exits 3 even when its ids or its graph6 body are malformed.
        big = write(tmp_path, "big.g6", text + "\n")
        code, out, err = run_cli(["solve", "--variant", "gamma", big] + extra, capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {big}: n=70 exceeds limit 64\n"

    @pytest.mark.parametrize("prefix", [">>graph6<<", " ", "\t>>graph6<<"])
    def test_order_read_after_header_and_whitespace(self, prefix, tmp_path, capsys):
        # The size guard reads the order where the parser does: after the
        # line is stripped and its optional header removed.
        text = to_graph6(families.gen_petersen())
        plain = write(tmp_path, "plain.g6", text + "\n")
        marked = write(tmp_path, "marked.g6", prefix + text + "\n")
        want = run_cli(["solve", "--variant", "gamma", plain], capsys)
        assert want[0] == 0
        assert run_cli(["solve", "--variant", "gamma", marked], capsys) == want
        big = write(tmp_path, "big.g6", prefix + to_graph6(Graph.from_edges(70)) + "\n")
        code, out, err = run_cli(["solve", "--variant", "gamma", big], capsys)
        assert (code, out, err) == (3, "", f"error: {big}: n=70 exceeds limit 64\n")

    @pytest.mark.parametrize("variant, kernel, witness", [
        ("gamma", "domination_kernel", (1, 0b1, 0)),
        ("rho", "packing_kernel", (2, 0b11, 0)),
    ])
    def test_witness_rechecked_before_printing(self, variant, kernel, witness, tmp_path,
                                               monkeypatch, capsys):
        # On the path 0-1-2, {0} dominates nothing past 1 and {0, 1} is no
        # packing; a kernel answering either used to have it printed, exit 0.
        p3 = write(tmp_path, "p3.g6", to_graph6(families.gen_path(3)) + "\n")
        monkeypatch.setattr(oracles, kernel, lambda *args: witness)
        code, out, err = run_cli(["solve", "--variant", variant, p3], capsys)
        assert code == 4 and out == ""
        ids = [v for v in range(3) if witness[1] >> v & 1]
        assert err == f"error: construction failed: {variant} witness {ids} fails its check\n"

    def test_graph6_of_order_60(self, tmp_path, capsys):
        # Its graph6 header byte is "{", the first byte of edge-list JSON too.
        text = to_graph6(families.gen_cycle(60))
        assert text.startswith("{")
        c60 = write(tmp_path, "c60.g6", text + "\n")
        code, out, _ = run_cli(["solve", "--variant", "rho", c60], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 20

    def test_edge_list_parsed_once(self, tmp_path, monkeypatch, capsys):
        # An edge list whose name does not end in .json used to be parsed
        # twice: once to tell it from graph6, then again to read it.
        calls = []
        loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        gf = write(tmp_path, "g.txt", to_edge_json(families.gen_petersen()))
        code, out, _ = run_cli(["solve", "--variant", "gamma", gf], capsys)
        assert code == 0 and len(calls) == 1
        assert loads(out)["value"] == 3

    def test_malformed_json_file(self, tmp_path, capsys):
        gf = write(tmp_path, "g.json", '{"n":2,"edges":')
        code, out, err = run_cli(["solve", "--variant", "gamma", gf], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {gf}: bad edge-list JSON: ")


# The construct classes that read no --certificate, and what it holds for
# those that read one.
READS_NO_CERTIFICATE = ["planar", "twodeg", "dh", "atfree", "unitdisk", "generic"]
CERTIFICATES = {
    "treewidth": "chordal completion",
    "twinwidth": "contraction sequence",
    "convex": "convex encoding JSON",
}


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

    def test_certify_failure_prints_the_trace(self, tmp_path, monkeypatch, capsys):
        certify = engine.certify

        def drop_one(g, d, p, *args):
            return certify(g, set(d) - {min(d)}, p, *args)

        monkeypatch.setattr(engine, "certify", drop_one)
        gf = write(tmp_path, "p3.g6", to_graph6(families.gen_path(3)) + "\n")
        code, out, err = run_cli(["construct", "--class", "planar", gf], capsys)
        assert code == 4 and out == ""
        *trace, last = err.splitlines()
        assert [json.loads(line)["rule"] for line in trace] == [
            "low_degree", "x_elim", "isolated"
        ]
        assert last == "error: construction failed: planar: D fails the dominating checker"

    def test_planar_stall_is_4(self, tmp_path, capsys):
        from conftest import complete

        k12 = write(tmp_path, "k12.g6", to_graph6(complete(12)) + "\n")
        code, _, err = run_cli(["construct", "--class", "planar", k12], capsys)
        assert code == 4
        # K12 beside a path of three: the path goes in three steps, each
        # written to stderr as a trace line before the stall's error line.
        g = Graph.from_edges(15, edges(complete(12)) + [(12, 13), (13, 14)])
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

    def test_twodeg_refuses_a_nonempty_3_core(self, tmp_path, capsys):
        from conftest import complete

        gf = write(tmp_path, "k4.g6", to_graph6(complete(4)) + "\n")
        assert run_cli(["construct", "--class", "twodeg", gf], capsys) == (
            4, "", "error: construction failed: input is not 2-degenerate: "
            "its 3-core has 4 vertices\n"
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
        sf = write(tmp_path, "seq.json", sequence_json(seq))
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

    def test_unitdisk_past_float_precision(self, tmp_path, capsys):
        # Float centres beyond 2**53 round these quarters away, and the float
        # cover lookup missed a disk: "D fails the dominating checker", exit 4.
        text = ("36028797018963973/2,5/2\n36028797018963971/2,27/4\n"
                "72057594037927971/4,0\n72057594037927961/4,0\n")
        df = write(tmp_path, "disks.csv", text)
        code, out, _ = run_cli(["construct", "--class", "unitdisk", df], capsys)
        assert code == 0
        doc = json.loads(out)
        inst = XYInstance(constructions.DiskConfiguration.from_csv(text).intersection_graph())
        assert oracles.check_xy_dominating(inst, doc["D"])
        assert oracles.check_xy_packing(inst, doc["P"])

    def test_each_class_reads_a_certificate_or_none(self):
        assert sorted(READS_NO_CERTIFICATE + list(CERTIFICATES)) == sorted(cli.CONSTRUCT_CLASSES)

    @pytest.mark.parametrize("cls, noun", CERTIFICATES.items())
    def test_certificate_required(self, cls, noun, petersen_file, capsys):
        result = run_cli(["construct", "--class", cls, petersen_file], capsys)
        assert result == (2, "", f"error: --certificate ({noun}) required\n")

    @pytest.mark.parametrize("cls", READS_NO_CERTIFICATE)
    def test_certificate_refused_where_none_is_read(self, cls, petersen_file, tmp_path,
                                                     capsys):
        # planar used to check the file as a rotation system, which no rule
        # reads, and the other classes ignored it, even a missing one.
        for cert in (petersen_file, str(tmp_path / "missing.json")):
            argv = ["construct", "--class", cls, "--certificate", cert, petersen_file]
            result = run_cli(argv, capsys)
            assert result == (2, "", f"error: class {cls} reads no --certificate\n")

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

    # Small inputs that take the branches the seeded inputs above never
    # reach: the 2-degenerate low-out step and its unwind, a pack step whose
    # unwind pays its backstop, and the dominating pair of K1.  The rules of
    # the trace, D, P and the sha256 of stdout.
    @pytest.mark.parametrize(
        "cls, graph, rules, d, p, digest",
        [
            ("twodeg",
             '{"n":7,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,4],[3,4],[4,5],[4,6]]}',
             ["2deg_pendant_support", "2deg_anchored_leaf", "2deg_low_out", "isolated",
              "isolated"],
             [0, 1, 4], [1, 5],
             "c1f32c80126c93cddf1200b179fb04ad9349d4c0e57d7da5fd46ba7d93d0a293"),
            ("twodeg",
             '{"n":11,"edges":[[0,1],[0,2],[0,6],[1,2],[1,3],[2,3],[2,4],[2,5],[3,4],'
             '[3,6],[4,5],[5,7],[6,7],[7,8],[7,9],[8,9],[8,10],[9,10]]}',
             ["2deg_free_degree2", "2deg_extra_x_edge", "2deg_x_x_edge", "isolated",
              "2deg_pack", "isolated", "2deg_dominated_fringe", "2deg_anchored_leaf",
              "2deg_anchored_leaf", "2deg_anchored_leaf", "isolated", "2deg_x_x_edge",
              "isolated", "isolated"],
             [2, 4, 7, 8, 9], [5, 10],
             "8935e70a21c62fac9e79795bedd6b484c8232f224fbc18a8efe3e1078c1a3340"),
            ("atfree", '{"n":1,"edges":[]}', [], [0], [0],
             "ca920c137999ff45c42da0b26a43cb20280121e6ca732fdd407f9af79729e74e"),
        ],
        ids=["twodeg-low-out", "twodeg-backstop", "atfree-k1"],
    )
    def test_golden_branches(self, cls, graph, rules, d, p, digest, tmp_path, capsys):
        gf = write(tmp_path, "g.json", graph)
        code, out, err = run_cli(["construct", "--class", cls, gf], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [step["rule"] for step in doc["trace"]] == rules
        assert (doc["D"], doc["P"]) == (d, p)
        for step in doc["trace"]:
            if step["rule"] == "2deg_pack":
                # The pack step deletes its layer-2 vertices, so one in D
                # got there only as the step's backstop.
                pay = step["payload"]
                assert set(pay["backstop"].values()) == set(pay["layer2"]) == {7} <= set(d)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_stdout_twinwidth_red_edges(self, tmp_path, capsys):
        # The cographs above contract without red edges; this sequence has
        # width 6, and the run takes low-black steps with red neighbours and
        # contractions that make red edges.
        import conftest

        g, seq = conftest.random_cograph(120, 4, flip=0.1)
        assert seq.declared_width == 6
        gf = write(tmp_path, "g.json", to_edge_json(g))
        sf = write(tmp_path, "seq.json", sequence_json(seq))
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

    # sha256 of stdout and stderr of the twin-width construct on 300-vertex
    # cographs with flipped edges (widths 5, 5 and 9): every merge makes or
    # keeps red edges on a graph larger than the goldens above.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "fefac1c7662a8d58f09c489fc41135a4dbdb07267af0033e162e741088c0cd89"),
            (3, "24cd374f5f1c4cd929eba3667ef0d598addf8fe1f6a53430db39786371e290e2"),
            (4, "0d42e3759ca4b2beb5d17fb797d447f7ff4590cecc7dc4813189ff957b62ebb6"),
        ],
    )
    def test_golden_twinwidth_red_edges_n300(self, seed, digest, tmp_path, capsys):
        import conftest

        g, seq = conftest.random_cograph(300, seed, flip=0.1)
        gf = write(tmp_path, "g.json", to_edge_json(g))
        sf = write(tmp_path, "seq.json", sequence_json(seq))
        code, out, err = run_cli(
            ["construct", "--class", "twinwidth", gf, "--certificate", sf], capsys
        )
        assert code == 0
        lowblack = [s["payload"] for s in json.loads(out)["trace"] if s["rule"] == "tww_lowblack"]
        assert any(p["reds"] for p in lowblack)
        assert hashlib.sha256((out + err).encode()).hexdigest() == digest

    # The twin-width inputs of perfbench's construct timings at n = 1000 and
    # 2000: its cograph generator with random.Random(7) draws the same graph
    # and sequence as conftest's with seed 7 and no flips.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "n, digest",
        [
            (1000, "af856182ec81e6978cc9fde34004df712a218132e09330b9076481226f1e7e28"),
            (2000, "973b2767ef0e8b3a1e949560e06109f471f72f53c010c60faf9947a0e090f9f3"),
        ],
    )
    def test_golden_twinwidth_large_cographs(self, n, digest, tmp_path, capsys):
        import conftest

        g, seq = conftest.random_cograph(n, 7)
        gf = write(tmp_path, "g.g6", to_graph6(g) + "\n")
        sf = write(tmp_path, "seq.json", sequence_json(seq))
        code, out, err = run_cli(
            ["construct", "--class", "twinwidth", gf, "--certificate", sf], capsys
        )
        assert code == 0
        assert hashlib.sha256((out + err).encode()).hexdigest() == digest

    # sha256 of the stdout of `construct --class C` at n = 4000 on the
    # conftest generators: the indexed rule lookups and the cached radius-2
    # balls must pick what the full scans picked on large inputs too.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "cls, digest",
        [
            ("twodeg", "4552339a5ab6d1d61209b07f694ab17f057d03c16e2e236601565dfb1b12e08e"),
            ("planar", "e3fedaf9a0baba607bcf44a8a241e6dd10206f3b7d47811c72232624844440ac"),
            ("dh", "ee68818914e1fab76f022a4f5b405fbe99b5dfe8c733a22aa0c5e8d65c694a7c"),
            ("convex", "afe467b1fe887f47e1fca85f344aabf101f83a8b6fa1375c4a9023ce5d83d636"),
        ],
    )
    def test_golden_stdout_n4000(self, cls, digest, tmp_path, capsys):
        import conftest

        cert = None
        if cls == "twodeg":
            g = conftest.random_twodeg(4000, 4)
        elif cls == "planar":
            g = conftest.random_planar(4000, 1)
        elif cls == "dh":
            g = conftest.random_dh(4000, 5)
        else:
            enc = conftest.random_convex(2000, 2000, 8)
            g = convex_graph(enc)
            cert = write(tmp_path, "enc.json", enc.to_json())
        argv = ["construct", "--class", cls, write(tmp_path, "g.json", to_edge_json(g))]
        code, out, _ = run_cli(argv + ["--certificate", cert] if cert else argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the stdout of `construct --class twodeg` on two graphs with
    # a hub: K_{2,8000} and the fan over a path of 8000 vertices.  A hub's
    # counters move by one at almost every step.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "graph, digest",
        [
            ("k2n", "2a2fa1eeea3106cc5e0b8afcf92ab13a14ce21389c1c7af1c8852a9a98a3d92e"),
            ("fan", "647a8799fee578c69b26560447caa906a89f5a38740306501f998cff5ac9e5c2"),
        ],
    )
    def test_golden_stdout_hubs(self, graph, digest, tmp_path, capsys):
        import conftest

        g = getattr(conftest, graph)(8000)
        argv = ["construct", "--class", "twodeg", write(tmp_path, "g.json", to_edge_json(g))]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
    return Graph.from_edges(g.n + h.n, edges(g) + [(u + g.n, v + g.n) for u, v in edges(h)])


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
        cert = write(tmp_path, "seq.json", sequence_json(seq))
    elif cls == "atfree":
        g = conftest.random_interval_graph(40, 7)
        assert masks_connected(g.masks)
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
            ("random-unitdisk", f"n={MAX_ORDER + 1}", MAX_ORDER + 1),
            ("random-convex", f"nx={MAX_ORDER + 1},ny=0", MAX_ORDER + 1),
            # Within the cap, but each of the nx left vertices gets its own
            # singleton interval.
            ("random-convex", f"nx={MAX_ORDER},ny=0", 2 * MAX_ORDER),
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
        sf = write(tmp_path, "seq.json", sequence_json(lying))
        code, _, err = run_cli(["validate", "--what", "tww-seq", sf, gf], capsys)
        assert code == 5

    def test_rotation_is_no_validate_choice(self, petersen_file, capsys):
        # It checked a rotation system, an embedding format no driver reads.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--what", "rotation", petersen_file, petersen_file])
        assert exc.value.code == 2
        assert "invalid choice: 'rotation'" in capsys.readouterr().err

    def test_validate_tw_cert(self, tmp_path, capsys):
        from dompack.graph import Graph

        c4 = families.gen_cycle(4)
        chordal = Graph.from_edges(4, edges(c4) + [(0, 2)])
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
    lines = [masks_to_graph6(m) for m in enumerate_labeled_masks(5)]
    lines.insert(800, "")
    lines.insert(500, "bad!line")
    if oversize:
        lines.insert(600, to_graph6(families.gen_cycle(70)))
    return "\n".join(lines) + "\n"


SCAN_MALFORMED_ERR = (
    "line 501: skipped malformed graph6 (expected 100 data bytes for n=35, got 7)\n"
)


def scan_fields(result):
    """The fields of the tail of a ``cli._scan_one`` result, after checking
    that its applicable, violation and equality are the result's own."""
    tail, *outcome = result
    fields = json.loads("{" + tail[1:])
    assert [fields["applicable"], fields["violation"], fields["equality"]] == outcome
    return fields


class TestScan:
    def test_duality_enumerate_5(self, capsys):
        code, out, _ = run_cli(["scan", "--enumerate-n", "5", "--check", "duality"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["graphs"] == 1024 and summary["violations"] == 0

    def test_source_spelling(self, tmp_path, capsys):
        # The sources are spelt --enumerate-n N and --file PATH; the stdout
        # digests are those of the spellings the retired --source KIND ARG
        # was an alias of.
        sf = write(tmp_path, "c5.g6", to_graph6(families.gen_cycle(5)) + "\n")
        for source, digest in (
            (["--enumerate-n", "4"], "e1f9ea90dfec8de04791f76e7522895db10c9e412e0ea91c923a5b0aea291229"),
            (["--file", sf], "d787754604b4659bcde2ea24222ed2bb6a5586e9f1c048362684032ffbf02a12"),
        ):
            code, out, _ = run_cli(["scan", *source, "--check", "duality"], capsys)
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        for argv in (["--source", "enumerate-n", "4"], ["--file", sf, "--source", "file", sf]):
            with pytest.raises(SystemExit) as exc:
                main(["scan", *argv])
            assert exc.value.code == 2 and capsys.readouterr().out == ""

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

    @pytest.mark.slow
    def test_golden_stdout_n7(self, monkeypatch):
        # All 2,097,152 labelled graphs on seven vertices, 316 MB of records,
        # hashed as they are written instead of held.
        class HashingWriter(io.TextIOBase):
            def __init__(self):
                self.sha, self.size = hashlib.sha256(), 0

            def write(self, text):
                data = text.encode()
                self.sha.update(data)
                self.size += len(data)
                return len(text)

        out = HashingWriter()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["scan", "--enumerate-n", "7", "--check", "duality"]) == 0
        assert out.size == 316_016_336
        assert out.sha.hexdigest() == (
            "48399e996ef4af3c74d2f91ecd0b2f9708009a040b7f5f5a395fb919e75d0c3a"
        )

    # Every (check, filter) pair, with the kernels and with a domination
    # kernel that answers 0, under which every graph with a vertex violates
    # duality and every tree violates treeeq.
    @pytest.mark.parametrize("gamma_zero", [False, True], ids=["kernels", "gamma0"])
    @pytest.mark.parametrize("check, filt", itertools.product(
        ["duality", "henning", "treeeq"], ["all", "subcubic", "tree"]))
    def test_enumeration_matches_a_file_of_its_graphs(self, check, filt, gamma_zero,
                                                      monkeypatch, tmp_path, capsys):
        # The enumeration evaluates, counts and picks counterexamples per
        # class; the file path does all three graph by graph.  On the same
        # graphs in code order they must give the same exit code, stdout and
        # stderr.
        if gamma_zero:
            monkeypatch.setattr(cli.oracles, "domination_kernel", lambda masks: (0,))
        text = "".join(masks_to_graph6(m) + "\n" for m in enumerate_labeled_masks(5))
        sf = write(tmp_path, "five.g6", text)
        args = ["--check", check, "--filter", filt]
        enumerated = run_cli(["scan", "--enumerate-n", "5", *args], capsys)
        assert enumerated == run_cli(["scan", "--file", sf, *args], capsys)
        code, _, err = enumerated
        violated = gamma_zero and check != "henning"
        assert code == violated
        assert len(err.splitlines()) == 10 * violated

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
        graphs = [m for n in range(6) for m in enumerate_labeled_masks(n)]
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
            result = cli._scan_one((masks, check, 0, 64))
            record = scan_fields(result)
            assert record["class_flags"] == flags
            assert result[1:] == scan_check(check, record["gamma"], record["rho"], flags)
            for name, keep in cli._SCAN_FILTERS.items():
                kept = cli._scan_one((masks, check, keep, 64))
                assert kept == (result if SCAN_FILTERS[name](masks) else None)
            by_flags.setdefault(flags, masks)
        # Each combination a graph can have: a tree is connected.
        assert sorted(by_flags) == [0, 1, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15]
        # Every (gamma, rho) outcome of the check on each flag combination,
        # violations included: the kernels are replaced by fixed answers.
        for gamma, rho in itertools.product(range(5), repeat=2):
            monkeypatch.setattr(cli.oracles, "domination_kernel", lambda masks: (gamma,))
            monkeypatch.setattr(cli.oracles, "packing_kernel", lambda masks: (rho,))
            for flags, masks in by_flags.items():
                result = cli._scan_one((masks, check, 0, 64))
                assert result[1:] == scan_check(check, gamma, rho, flags)
                assert scan_fields(result)["gamma"] == gamma

    @pytest.mark.parametrize("check", ["duality", "henning", "treeeq"])
    def test_class_records_match_each_graph(self, check, capsys):
        # Each record is its class's, computed on another labelled graph:
        # it must equal the record of the graph itself.
        code, out, _ = run_cli(["scan", "--enumerate-n", "5", "--check", check], capsys)
        assert code == 0
        lines = out.splitlines()[:-1]
        graphs = list(enumerate_labeled_masks(5))
        assert len(lines) == len(graphs) == 1024
        for line, masks in zip(lines, graphs):
            own = scan_fields(cli._scan_one((masks, check, 0, 64)))
            assert json.loads(line) == {"graph6": masks_to_graph6(masks), **own}

    def test_violations_exit_1_with_ten_counterexamples(self, monkeypatch, capsys):
        # A domination kernel that answers 0 makes every graph with a vertex
        # violate duality: gamma = 0 < rho.
        monkeypatch.setattr(cli.oracles, "domination_kernel", lambda masks: (0,))
        code, out, err = run_cli(["scan", "--enumerate-n", "4", "--check", "duality"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert json.loads(lines[-1])["summary"]["violations"] == 64
        assert err.splitlines() == ["counterexample: " + line for line in lines[:10]]

    def test_record_lines_are_compact_json(self, monkeypatch, tmp_path, capsys):
        # Record and counterexample lines with a backslash in their graph6
        # (n = 4) and a null ratio (n = 0), each against json.dumps of
        # itself.  A domination kernel that answers 0 on the graphs with four
        # edges on four vertices makes them violate, graph6 C\ among them.
        sf = write(tmp_path, "four.g6", "".join(masks_to_graph6(m) + "\n"
                                                for m in enumerate_labeled_masks(4)))
        kernel = cli.oracles.domination_kernel
        lines, counterexamples = [], []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(cli.oracles, "domination_kernel", lambda masks: (
                    (0,) if sum(map(int.bit_count, masks)) == 8 else kernel(masks)))
            for source in (["--enumerate-n", "0"], ["--enumerate-n", "4"], ["--file", sf]):
                for check in ("duality", "henning", "treeeq"):
                    _, out, err = run_cli(["scan", *source, "--check", check], capsys)
                    lines += out.splitlines()[:-1]
                    counterexamples += [ln.removeprefix("counterexample: ") for ln in err.splitlines()]
        records = [json.loads(line) for line in lines]
        assert any(r["ratio"] is None for r in records)
        assert any("\\" in r["graph6"] and r["violation"] for r in records)
        assert any("\\" in json.loads(line)["graph6"] for line in counterexamples)
        for line in lines + counterexamples:
            assert line == json.dumps(json.loads(line), separators=(",", ":"))

    def test_records_are_written_1024_lines_at_a_time(self, monkeypatch, tmp_path, capsys):
        # One stdout write per 1,024 record lines, in order, the last one short.
        class RecordingWriter(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        text = "".join(masks_to_graph6(m) + "\n" for m in enumerate_labeled_masks(5))
        sf = write(tmp_path, "many.g6", "".join((text * 3).splitlines(True)[:2500]))
        for argv, sizes in ((["--enumerate-n", "5"], [1024]), (["--file", sf], [1024, 1024, 452])):
            writes = []
            monkeypatch.setattr(sys, "stdout", RecordingWriter())
            assert main(["scan", *argv, "--filter", "all"]) == 0
            records = [w for w in writes if w.startswith('{"graph6":')]
            assert [w.count("\n") for w in records] == sizes
            assert "".join(records) == "".join(sys.stdout.getvalue().splitlines(True)[:-1])

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
        stream = "".join(masks_to_graph6(m) + "\n" for m in enumerate_labeled_masks(3))
        sf = write(tmp_path, "three.g6", stream)
        code, out, _ = run_cli(["scan", "--file", sf, "--jobs", "1000"], capsys)
        assert code == 0 and started == [3]
        assert json.loads(out.splitlines()[-1])["summary"]["graphs"] == 8


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

    @pytest.mark.parametrize("jobs, problem", [
        ("0", "must be at least 1, got 0"),
        ("-3", "must be at least 1, got -3"),
        ("x", "invalid int value: 'x'"),
    ])
    def test_scan_jobs_at_least_one(self, jobs, problem, capsys):
        # --jobs 0 and --jobs -3 used to run serially.
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--enumerate-n", "3", "--jobs", jobs])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"dompack scan: error: argument --jobs: {problem}\n")

    @pytest.mark.parametrize("spelling, problem", [
        ("--max-n", "dompack solve: error: argument --max-n: must be at least 0, got -5"),
        ("DOMPACK_MAX_N", "error: DOMPACK_MAX_N must be at least 0, got -5"),
    ])
    def test_size_limit_at_least_zero(self, spelling, problem, petersen_file, monkeypatch,
                                      capsys):
        # Both used to exit 3: "n=10 exceeds limit -5".
        argv = ["solve", "--variant", "gamma", petersen_file]
        if spelling == "--max-n":
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--max-n", "-5"])
            code, (out, err) = exc.value.code, capsys.readouterr()
        else:
            monkeypatch.setenv("DOMPACK_MAX_N", "-5")
            code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == problem

    def test_size_limit_not_an_integer(self, petersen_file, monkeypatch, capsys):
        monkeypatch.setenv("DOMPACK_MAX_N", "abc")
        self.assert_parse_error(run_cli(["solve", "--variant", "gamma", petersen_file], capsys))

    def test_scan_cap_checked_before_the_pool(self, capsys):
        # Raised inside the pool's feeder thread, this error used to hang.
        code, _, err = run_cli(["scan", "--enumerate-n", "8", "--jobs", "2"], capsys)
        assert code == 3 and "capped" in err

    @pytest.mark.parametrize("family, params, problem", [
        ("random-tree", "n=4,sed=3", "family random-tree has no parameter sed"),
        ("cycle", "n=5,n=6", "parameter n given twice"),
    ])
    def test_generate_params_declared_once(self, family, params, problem, capsys):
        # Both used to exit 0: the misspelt seed left the seed at 0, and the
        # second n replaced the first.
        result = run_cli(["generate", "--family", family, "--params", params], capsys)
        self.assert_parse_error(result)
        assert result[2] == f"error: {problem}\n"

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
            ("convex", '{"n":2,"edges":[[0,1]]}', '{"x_order":[[0]],"y_neighbors":{}}'),
            ("convex", '{"n":2,"edges":[[0,1]]}', '{"x_order":'),
            ("unitdisk", "0,0\n1e400,0\n", None),
            ("unitdisk", "0,0\n1e300,0\n", None),
            ("unitdisk", "0,1e-999999999\n", None),
            ("unitdisk", "0,0\n1E+4301,0\n", None),
        ],
        ids=["edge-triple", "red-edge-single", "convex-list-id", "convex-truncated",
             "disk-float-overflow", "disk-square-overflow", "disk-huge-exponent",
             "disk-exponent-past-bound"],
    )
    def test_construct_inputs(self, cls, graph, certificate, tmp_path, capsys):
        argv = ["construct", "--class", cls, write(tmp_path, "in.txt", graph)]
        if certificate is not None:
            argv += ["--certificate", write(tmp_path, "cert.json", certificate)]
        self.assert_parse_error(run_cli(argv, capsys))

    # The disk grid scales every centre by the lcm of the denominators.  One
    # coordinate carries a denominator up to 10^8600 (4300 decimals and
    # exponent -4300), which still runs; a common multiple past it exits 3
    # before a scaled point is built.  One disk per prime above 1,000, 3,000
    # of them, gave a 40,399-bit scale and ran for 100 s.
    def test_disk_scale_cap(self, tmp_path, capsys):
        finest = "0." + "0" * 4299 + "1e-4300"
        refused = (3, "", "error: coordinate denominators have a common multiple above 10^8600\n")

        def construct(csv):
            return run_cli(["construct", "--class", "unitdisk", write(tmp_path, "in.csv", csv)],
                           capsys)

        code, out, _ = construct(f"{finest},0\n1,{finest}\n")
        assert code == 0 and json.loads(out)["P"] == [0]
        assert construct(f"{finest},0\n1/3,0\n") == refused
        primes = [p for p in range(1001, 30000) if all(p % d for d in range(2, isqrt(p) + 1))]
        assert construct("".join(f"{3 * i * p + 1}/{p},0\n"
                                 for i, p in enumerate(primes[:3000]))) == refused

    # A red edge outside black mode exited 4 from the planar, treewidth,
    # twodeg and dh drivers ("driver expects a plain graph"), but 2 from
    # atfree and generic, which only the witness check refused.
    @pytest.mark.parametrize("cls", ["planar", "treewidth", "twodeg", "dh", "atfree", "generic"])
    def test_red_edges_refused_outside_black_mode(self, cls, tmp_path, capsys):
        graph = '{"n":4,"edges":[[0,1],[1,2]],"red_edges":[[2,3]]}'
        argv = ["construct", "--class", cls, write(tmp_path, "g.json", graph)]
        if cls == "treewidth":  # a valid completion: the path 0-1-2-3
            path = '{"n":4,"edges":[[0,1],[1,2],[2,3]]}'
            argv += ["--certificate", write(tmp_path, "c.json", path)]
        result = run_cli(argv, capsys)
        self.assert_parse_error(result)
        assert result[2].endswith(" mode requires an all-black graph\n")

    # twodeg tested the degeneracy first, so a red-edge graph of degeneracy
    # 3 exited 4 ("input has degeneracy 3 > 2") where one of degeneracy 2
    # exits 2.
    def test_twodeg_refuses_red_edges_before_the_class_test(self, tmp_path, capsys):
        graph = '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3]],"red_edges":[[2,3]]}'
        gf = write(tmp_path, "g.json", graph)
        result = run_cli(["construct", "--class", "twodeg", gf], capsys)
        assert result == (2, "", "error: plain mode requires an all-black graph\n")

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

    def test_sequence_bool_ids(self, tmp_path, capsys):
        sf = write(tmp_path, "seq.json", '{"width":true,"merges":[[false,true,2]]}')
        gf = write(tmp_path, "k2.json", K2_JSON)
        self.assert_parse_error(run_cli(
            ["construct", "--class", "twinwidth", "--certificate", sf, gf], capsys
        ))

    # A gamma witness on K2 whose value is not an int: true and 1.0 passed
    # as 1 (exit 0) and "1" failed the size check (exit 5).
    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_witness_value_must_be_an_integer(self, value, tmp_path, capsys):
        gf = write(tmp_path, "k2.json", K2_JSON)
        doc = {"variant": "gamma", "value": 1, "witness": [0], "mode": "plain", "x": [], "y": []}
        wf = write(tmp_path, "w.json", json.dumps(doc))
        assert run_cli(["validate", "--what", "witness", wf, gf], capsys)[:2] == (0, "ok\n")
        wf = write(tmp_path, "w.json", json.dumps({**doc, "value": value}))
        self.assert_parse_error(run_cli(["validate", "--what", "witness", wf, gf], capsys))

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
        stall = Graph.from_edges(15, edges(complete(12)) + [(12, 13), (13, 14)])
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
        sf = write(tmp_path, "seq.json", sequence_json(seq))
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


def _readme_synopsis():
    """README's command-line synopsis per command, continuation lines
    included, and the parser's subcommands."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    synopsis = {}
    for line in block.strip().splitlines():
        if line.startswith("dompack "):
            command = line.split()[1]
            synopsis[command] = ""
        synopsis[command] += line + " "
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return synopsis, commands.choices


def test_readme_synopsis_lists_every_option():
    synopsis, commands = _readme_synopsis()
    assert sorted(synopsis) == sorted(commands)
    for command, sub in commands.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    assert re.search(re.escape(option) + r"(?![\w-])", synopsis[command]), option


def test_readme_lists_every_choice():
    # Each option with choices is listed as A|B|..., its choices in parser order.
    synopsis, commands = _readme_synopsis()
    for command, sub in commands.items():
        for action in sub._actions:
            if action.choices and action.option_strings:
                option = action.option_strings[0]
                listed = re.search(re.escape(option) + r" ([\w-]+(?:\|[\w-]+)*)", synopsis[command])
                assert listed and listed.group(1).split("|") == list(action.choices), option


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
