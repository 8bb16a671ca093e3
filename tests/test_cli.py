"""Unit tests for the command-line surface: the spec grammar, output
formats, determinism, and exit codes."""

import argparse
import ast
import hashlib
import importlib
import importlib.util
import itertools
import json
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chromsym.cli as cli
import chromsym.engine as engine
import chromsym.graphs as graphs
import chromsym.symfunc as symfunc
from chromsym.cli import SpecParseError, build_parser, main, parse_composition, parse_graph_spec
from chromsym.engine import csf_cycle_chord, scan_theta, theta_scan_cells
from chromsym.graphs import Family, GraphSpec, build_graph, count_proper_colorings, render_graph_spec
from chromsym.symfunc import Basis, EPositivityReport, SymFunc

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m chromsym` in a child process that imports the
    package from src, whether or not this process was given PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "chromsym", *argv],
                          env={**os.environ, "PYTHONPATH": path}, text=True, **kwargs)


# ---------------------------------------------------------------- grammar

def test_parse_graph_spec_families():
    assert parse_graph_spec("path:6") == GraphSpec(Family.PATH, (6,))
    assert parse_graph_spec("cycle:7") == GraphSpec(Family.CYCLE, (7,))
    assert parse_graph_spec("tadpole:5,2") == GraphSpec(Family.TADPOLE, (5, 2))
    assert parse_graph_spec("cc:3,4") == GraphSpec(Family.CYCLE_CHORD, (3, 4))
    assert parse_graph_spec("theta:2,3,2") == GraphSpec(Family.THETA, (3, 2, 2))
    assert parse_graph_spec("glambda:2,2,2,1") == GraphSpec(Family.MULTIPATH, (2, 2, 2, 1))
    assert parse_graph_spec("edges:4;0-1,1-2,2-3,0-3") == GraphSpec(
        Family.EDGES, (4,), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    # reversed pairs normalize, so a chorded square reads naturally
    assert parse_graph_spec("edges:4;0-1,1-2,2-3,3-0,0-2") == GraphSpec(
        Family.EDGES, (4,), ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    )
    assert parse_graph_spec("edges:3;") == GraphSpec(Family.EDGES, (3,), ())
    assert parse_graph_spec("cc:3,3  \n") == GraphSpec(Family.CYCLE_CHORD, (3, 3))


def test_parse_round_trips_canonical_specs():
    specs = [
        GraphSpec(Family.PATH, (6,)),
        GraphSpec(Family.TADPOLE, (4, 3)),
        GraphSpec(Family.CYCLE_CHORD, (2, 5)),
        GraphSpec(Family.THETA, (4, 3, 2)),
        GraphSpec(Family.MULTIPATH, (3, 2, 2, 2)),
        GraphSpec(Family.EDGES, (5,), ((0, 1), (2, 4), (1, 3))),
    ]
    for spec in specs:
        assert parse_graph_spec(render_graph_spec(spec)) == spec


def test_parse_errors_carry_positions():
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("pat:3")
    assert err.value.pos == 0
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("path")
    assert err.value.pos == 0
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("path:")
    assert err.value.pos == 5
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("path:a")
    assert err.value.pos == 5
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("cc:3,x")
    assert err.value.pos == 5
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("cc:3,-2")
    assert err.value.pos == 5
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("edges:4")
    assert err.value.pos == 6
    with pytest.raises(SpecParseError) as err:
        parse_graph_spec("edges:4;0-1,2")
    assert err.value.pos == 12
    # only ASCII digits: a superscript or an Arabic-Indic digit is not
    # a parameter
    for text in ("path:\u00b2", "path:\u0663"):
        with pytest.raises(SpecParseError) as err:
            parse_graph_spec(text)
        assert err.value.pos == 5


def test_parse_composition():
    assert parse_composition("4,2") == (4, 2)
    assert parse_composition("6") == (6,)
    with pytest.raises(SpecParseError) as exc:
        parse_composition("4,2,0")
    assert exc.value.pos == 4
    with pytest.raises(SpecParseError):
        parse_composition("")


# ----------------------------------------------------------------- csf

def test_csf_latex_matches_known_expansion(capsys):
    assert main(["csf", "cc:3,3", "--format", "latex"]) == 0
    assert capsys.readouterr().out == "54e_6+16e_{51}+26e_{42}+2e_{222}\n"


def test_csf_text_format(capsys):
    assert main(["csf", "cycle:3"]) == 0
    assert capsys.readouterr().out == "6e_3\n"
    assert main(["csf", "path:3"]) == 0
    assert capsys.readouterr().out == "3e_3 + e_{21}\n"


def test_csf_json_format(capsys):
    assert main(["csf", "cc:3,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "spec": "cc:3,3",
        "source": "formula",
        "csf": {
            "basis": "e",
            "terms": [[[6], 54], [[5, 1], 16], [[4, 2], 26], [[2, 2, 2], 2]],
        },
    }


def test_csf_oracle_fallback(capsys):
    assert main(["csf", "theta:2,2,2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["source"] == "oracle"
    assert data["csf"]["terms"][0] == [[5], 35]


def test_csf_and_scan_take_the_oracle_on_a_built_graph(monkeypatch, capsys):
    # the benchmark's tracer wraps these names, so every transfer must
    # pass through them: one graph and one oracle call per scan cell
    calls = {"csf_oracle": 0, "theta_graph": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    oracle = counting("csf_oracle", engine.csf_oracle)
    monkeypatch.setattr(engine, "csf_oracle", oracle)
    monkeypatch.setattr(cli, "csf_oracle", oracle)
    monkeypatch.setattr(engine, "theta_graph", counting("theta_graph", engine.theta_graph))
    cells = len(list(scan_theta(7)))
    assert calls == {"csf_oracle": cells, "theta_graph": cells}
    calls["csf_oracle"] = 0
    assert main(["csf", "theta:3,3,2"]) == 0
    capsys.readouterr()
    assert calls["csf_oracle"] == 1


def test_csf_multipath_transfer_keeps_the_state_budget(monkeypatch, capsys):
    # the oracle's budget holds for a theta graph, whose paths are its
    # chains: theta:3,3,2 peaks at 17 live terms, after its second chain
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 16)
    assert main(["csf", "theta:3,3,2", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: oracle transfer capped at 16 live states, chain 2 of 3 left 17\n"
    )
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 17)
    assert main(["csf", "theta:3,3,2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["source"] == "oracle"
    assert data["csf"]["terms"] == [
        [[7], 98], [[6, 1], 40], [[5, 2], 42], [[4, 3], 22],
        [[4, 2, 1], 6], [[3, 3, 1], 8], [[3, 2, 2], 6],
    ]
    # and an edges spec
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 0)
    assert main(["csf", "edges:4;0-1,1-2,2-3,0-2", "--format", "json"]) == 1
    assert "oracle transfer capped at 0 live states" in capsys.readouterr().err


def test_csf_edges_family(capsys):
    assert main(["csf", "edges:4;0-1,1-2,2-3,0-3"]) == 0
    cycle = capsys.readouterr().out
    assert main(["csf", "cycle:4"]) == 0
    assert capsys.readouterr().out == cycle


def test_csf_edgeless_graph_of_a_thousand_vertices(capsys):
    # its power-sum expansion is one term with a thousand parts, and the
    # conversion to e must not recurse once per part
    assert main(["csf", "edges:1000;"]) == 0
    assert capsys.readouterr().out == "e_{" + "1" * 1000 + "}\n"


def test_csf_output_is_deterministic(capsys):
    assert main(["csf", "tadpole:5,3", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["csf", "tadpole:5,3", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------- delta

def test_delta_straddle_picture(capsys):
    assert main(["delta", "4,2", "--b", "3"]) == 0
    assert capsys.readouterr().out == (
        "composition 4,2   n = 6   b = 3\n"
        "split: p=1 s=3 q=2 t=1\n"
        "window (3, 7]\n"
        "|1111|22|1111|\n"
        "    ^ ^^ ^\n"
        "window straddles segments: e2 of overlaps (1, 2, 1)\n"
        "delta = 5\n"
    )


def test_delta_inside_picture(capsys):
    assert main(["delta", "2,4", "--b", "3"]) == 0
    assert capsys.readouterr().out == (
        "composition 2,4   n = 6   b = 3\n"
        "split: p=2 s=1 q=1 t=3\n"
        "window (3, 5]\n"
        "|11|2222|11|\n"
        "     ^^\n"
        "window inside (2, 6]: leftovers 1 * 1\n"
        "delta = 1\n"
    )


def test_delta_json(capsys):
    assert main(["delta", "4,2", "--b", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta"] == 5
    assert data["split"] == {"p": 1, "s": 3, "q": 2, "t": 1}
    assert data["mode"] == "straddle"
    assert data["overlaps"] == [1, 2, 1]
    assert main(["delta", "2,4", "--b", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "inside"
    assert data["leftovers"] == [1, 1]


def test_delta_domain_errors(capsys):
    assert main(["delta", "4,2", "--b", "1"]) == 2
    assert "chord distance" in capsys.readouterr().err
    assert main(["delta", "4,x", "--b", "3"]) == 2
    capsys.readouterr()
    # the message points at the offending part, not at the first one
    assert main(["delta", "4,0", "--b", "2"]) == 2
    assert "column 3 of '4,0'" in capsys.readouterr().err
    # fewer than 4 vertices leave no chord distance, so say that rather
    # than name an empty range
    assert main(["delta", "3", "--b", "1"]) == 2
    err = capsys.readouterr().err
    assert "a chord needs at least 4 vertices" in err and "[2, 1]" not in err
    with pytest.raises(SystemExit) as exc:
        main(["delta", "4,2"])
    assert exc.value.code == 2


def test_delta_picture_width_is_capped(capsys):
    # the picture has n + i_1 cells and z + 2 bars; (4997, 2) fills the
    # cap exactly and (4998, 2) passes it by two
    assert main(["delta", "4997,2", "--b", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines[3]) == cli._DELTA_MAX_CELLS == 10_000
    assert main(["delta", "4998,2", "--b", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: delta picture capped at 10000 cells, this one needs 10002; "
        "--format json prints the segments instead\n"
    )
    # JSON holds no picture, so a composition of two million vertices
    # still prints in full
    assert main(["delta", "2000000,2,2", "--b", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2_000_004 and data["segments"][-1] == [2_000_004, 4_000_004]


@pytest.mark.parametrize("value", ["\uff12", "-1"])
def test_delta_b_must_be_a_positive_ascii_integer(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["delta", "4,2", "--b", value])
    assert exc.value.code == 2
    assert "--b" in capsys.readouterr().err


# --------------------------------------------------------------- verify

def test_verify_pass_text(capsys):
    assert main(["verify", "cc:3,3"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "formula: agrees with oracle" in out
    assert "e-positive: yes" in out


def test_verify_json_shape_and_determinism(capsys):
    assert main(["verify", "cc:3,3", "--format", "json"]) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["passed"] is True
    assert data["equal"] is True
    assert data["colorings_match"] is True
    assert data["e_positive"] is True
    assert data["negative_terms"] == []
    assert "timings" not in data
    assert main(["verify", "cc:3,3", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_verify_oracle_only_family(capsys):
    assert main(["verify", "theta:3,3,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["formula"] is None and data["equal"] is None
    assert data["passed"] is True


@pytest.mark.parametrize("name, wrap, line", [
    ("csf_oracle", lambda f: lambda g: f(g) + SymFunc(Basis.ELEMENTARY, {(g.n,): 1}),
     "formula: DISAGREES with oracle"),
    ("count_proper_colorings", lambda f: lambda g, k: f(g, k) + 1,
     "colorings: DISAGREE for k = 0..6"),
    ("is_e_positive", lambda f: lambda x: EPositivityReport(False, (((2, 2, 2), -1),)),
     "e-positive: NO, e.g. coefficient -1 at (2, 2, 2)"),
])
def test_verify_failing_check_gives_the_fail_verdict(name, wrap, line, monkeypatch, capsys):
    # each route is made wrong in turn; the verdict follows any of them
    monkeypatch.setattr(engine, name, wrap(getattr(engine, name)))
    assert main(["verify", "cc:3,3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert line in out
    assert out[-1] == "verdict: FAIL"
    assert main(["verify", "cc:3,3", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_claw_is_not_e_positive_and_passes(capsys):
    # the claw is not e-positive (Stanley 1995), and the edges family
    # expects nothing, so its negative term is reported but no failure
    spec = "edges:4;0-1,0-2,0-3"
    assert main(["verify", spec]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "e-positive: NO, e.g. coefficient -2 at (2, 2)" in out
    assert out[-1] == "verdict: PASS"
    assert main(["verify", spec, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["negative_terms"] == [[[2, 2], -2]]
    assert data["e_positive"] is False and data["passed"] is True


def test_verify_resource_bound_exits_one(monkeypatch, capsys):
    # the path on 7 vertices is one chain, which leaves 15 live terms
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 14)
    for spec in ("edges:7;0-1,1-2,2-3,3-4,4-5,5-6", "path:7"):
        assert main(["verify", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: oracle transfer capped at 14 live states, chain 1 of 1 left 15\n"
        )


def test_verify_refuses_formula_sizes_before_the_oracle(monkeypatch, capsys):
    def oracle(graph):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(engine, "csf_oracle", oracle)
    assert main(["verify", "cycle:30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: closed formulas capped at 26 vertices, graph has 30 (2**29 compositions)\n"
    )


def test_verify_refuses_memo_sizes_before_the_oracle(monkeypatch, capsys):
    # theta(3,3,2) has 8 edges, one more than the memo may hold here, so
    # the spec is refused before the graph is built or the oracle runs
    def refuse(*args):
        raise AssertionError("the graph was built or the oracle ran")

    monkeypatch.setattr(graphs, "_CHROM_MAX_MEMO", 7)
    monkeypatch.setattr(engine, "build_graph", refuse)
    monkeypatch.setattr(engine, "csf_oracle", refuse)
    assert main(["verify", "theta:3,3,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deletion-contraction capped at 7 edges in its memo, graph has 8\n"


@pytest.mark.parametrize("argv, n", [
    (["csf", "path:1000000"], 1000000),
    (["csf", "glambda:1000000"], 1000001),
    (["verify", "glambda:1000000"], 1000001),
])
def test_formula_refusal_comes_before_the_graph_is_built(argv, n, monkeypatch, capsys):
    def build(spec):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "build_graph", build)
    monkeypatch.setattr(engine, "build_graph", build)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: closed formulas capped at 26 vertices, graph has {n} (2**{n - 1} compositions)\n"
    )


CONVERSION_REFUSAL = "p_to_e capped at 50000 accumulator terms, the image of p_42 has 53174"


@pytest.mark.parametrize("argv", [
    ["csf", "theta:1000000,2,2"],
    ["verify", "theta:1000000,2,2"],
    ["csf", "glambda:3,3,3,3,1000000"],
    ["verify", "glambda:3,3,3,3,1000000"],
    ["csf", "theta:30000,30000,30000"],
    ["csf", "theta:16,16,16"],
    ["verify", "theta:14,14,15"],
    ["csf", "glambda:" + ",".join(["2"] * 40)],
])
def test_conversion_refusal_comes_before_the_graph_is_built(argv, monkeypatch, capsys):
    # each spec builds a connected graph on 42 or more vertices, whose
    # conversion needs A_42, so the spec alone is refused
    def build(spec):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "build_graph", build)
    monkeypatch.setattr(engine, "build_graph", build)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {CONVERSION_REFUSAL}\n"


def test_long_cycle_is_refused_before_any_chain_step(monkeypatch, capsys):
    # the 45-cycle is one chain of 44 inner vertices, whose free middles
    # would reach A_42 before the transfer takes a step; the spec check,
    # which grows the table to the largest component, refuses it first
    def cut_terms(*args):
        raise AssertionError("a chain step ran")

    monkeypatch.setattr(engine, "_cut_terms", cut_terms)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    cycle = ",".join(f"{v}-{(v + 1) % 45}" for v in range(45))
    assert main(["csf", f"edges:45;{cycle}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {CONVERSION_REFUSAL}\n"


@pytest.mark.parametrize("n_max", ["42", "100000"])
def test_scan_refuses_an_unconvertible_max_n_before_any_cell(n_max, monkeypatch, capsys):
    # every cell on 42 or more vertices converts through A_42, so the
    # scan is refused before its cells are listed or any transfer runs
    def refuse(*args):
        raise AssertionError("the cells were listed or a chain step ran")

    monkeypatch.setattr(engine, "theta_scan_cells", refuse)
    monkeypatch.setattr(engine, "_cut_terms", refuse)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    assert main(["scan-theta", "--max-n", n_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {CONVERSION_REFUSAL}\n"


def _edges_spec(n, edges):
    return f"edges:{n};" + ",".join(f"{u}-{v}" for u, v in edges)


# a 15-vertex spine with two leaves on each vertex, and a 22-rung ladder
CATERPILLAR = _edges_spec(45, [(v, v + 1) for v in range(14)]
                          + [((v - 15) // 2, v) for v in range(15, 45)])
LADDER = _edges_spec(44, [(v, v + 1) for v in range(43) if v != 21]
                     + [(v, v + 22) for v in range(22)])


@pytest.mark.parametrize("command", ["csf", "verify"])
@pytest.mark.parametrize("spec", [CATERPILLAR, LADDER], ids=["caterpillar", "ladder"])
def test_connected_edges_spec_is_refused_before_the_build(command, spec, monkeypatch, capsys):
    # neither graph has a long chain, so only the spec check, which walks
    # the edge list for the largest component, stops it short of the
    # transfer, which runs for seconds on either
    def refuse(*args):
        raise AssertionError("the graph was built or a chain step ran")

    monkeypatch.setattr(cli, "build_graph", refuse)
    monkeypatch.setattr(engine, "build_graph", refuse)
    monkeypatch.setattr(engine, "_cut_terms", refuse)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    assert main([command, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {CONVERSION_REFUSAL}\n"


def test_edges_spec_of_small_components_converts_past_42_vertices(capsys):
    # fifteen triangles on 45 vertices: the table grows to A_3, not A_45
    triangles = [(3 * t + i, 3 * t + j) for t in range(15) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert main(["csf", _edges_spec(45, triangles)]) == 0
    assert capsys.readouterr().out == f"{6 ** 15}e_{{{'3' * 15}}}\n"


@pytest.mark.parametrize("spec", [
    "theta:9,8,8",
    "edges:8;" + ",".join(f"{u}-{v}" for u, v in itertools.combinations(range(8), 2)),
])
def test_verify_runs_past_the_old_edge_cap(spec, capsys):
    # 25 and 28 edges, past what a 2**m subset loop could take
    assert main(["verify", spec]) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")


@pytest.mark.parametrize("spec, n", [("path:64", 64), ("cc:30,30", 60)])
def test_closed_formula_size_bound_exits_one(spec, n):
    # 2**(n-1) compositions would never finish; the refusal comes first
    capped = run_module("csf", spec, capture_output=True, timeout=20)
    assert capped.returncode == 1
    assert capped.stdout == ""
    assert capped.stderr.startswith("error: closed formulas capped")
    assert capped.stderr.count("\n") == 1 and f"graph has {n}" in capped.stderr


def test_long_chain_table_bound_exits_one():
    # the table is grown from the spec, before the graph is built, so
    # 89 999 vertices are refused once it reaches A_42
    capped = run_module("csf", "theta:30000,30000,30000", capture_output=True, timeout=20)
    assert capped.returncode == 1
    assert capped.stdout == ""
    assert capped.stderr == f"error: {CONVERSION_REFUSAL}\n"


@pytest.mark.parametrize("command", ["csf", "verify"])
def test_conversion_term_bound_exits_one(command):
    # 40 paths of length 2: the transfer leaves 442 p-terms, one of them
    # p_42, whose image holds all 53 174 partitions of 42
    capped = run_module(command, "glambda:" + ",".join(["2"] * 40),
                        capture_output=True, timeout=60)
    assert capped.returncode == 1
    assert capped.stdout == ""
    assert capped.stderr == (
        "error: p_to_e capped at 50000 accumulator terms, the image of p_42 has 53174\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["csf", "tadpole:2,30"], "tadpole cycle needs at least 3 vertices, got 2"),
    (["csf", "theta:30,1,1"], "at most one path may have length 1"),
    (["verify", "theta:30,1,1"], "at most one path may have length 1"),
    (["csf", "glambda:30,1,1"], "at most one path may have length 1"),
    (["csf", "glambda:30,0"], "path lengths must be positive: (30, 0)"),
])
def test_parameter_errors_come_before_the_formula_size_cap(argv, message, capsys):
    # each spec is past the formulas' 26-vertex cap, but its params are
    # ones the builder rejects, so it is a usage error
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_closed_formula_below_the_bound_still_runs(capsys):
    assert main(["csf", "path:20"]) == 0
    assert capsys.readouterr().out.startswith("20e_{20} + 18e_{19,1} + ")


@pytest.mark.parametrize("command, spec", [("verify", "cc:3,3"), ("csf", "edges:3;0-1")])
@pytest.mark.parametrize("value", ["-1", "\u0663", "3.0", "", "24"])
def test_max_edges_must_be_a_nonnegative_ascii_integer(command, spec, value, capsys):
    # no value of it parses, malformed or not: the bound is on live states
    with pytest.raises(SystemExit) as exc:
        main([command, spec, "--max-edges", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-edges" in capsys.readouterr().err


def test_state_budget_is_inclusive(monkeypatch, capsys):
    # one edge is one chain, which leaves two live terms: the edge
    # skipped, and the edge kept
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 0)
    assert main(["csf", "edges:3;"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 1)
    assert main(["csf", "edges:3;0-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle transfer capped at 1 live states, chain 1 of 1 left 2\n"
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 2)
    assert main(["csf", "edges:3;0-1"]) == 0
    assert capsys.readouterr().out == "2e_{21}\n"


def test_outputs_match_the_benchmark_reference_digests(capsys):
    # every csf and verify request the benchmark can pick, keyed by its
    # argv joined with spaces, against the SHA-256 of its recorded stdout
    reference = SRC.parent / "perfbench" / "reference" / "digests.json"
    digests = json.loads(reference.read_text(encoding="utf-8"))
    assert len(digests) == 84
    differ = []
    for key, want in digests.items():
        assert main(key.split(" ")) == 0, key
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != want:
            differ.append(key)
    assert differ == []


# ----------------------------------------------------------- scan-theta

def test_scan_theta_text_and_json(capsys):
    assert main(["scan-theta", "--max-n", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "n=4 theta 2,2,1: e-positive yes, min coeff 2 at 3,1\n"
        "n=5 theta 2,2,2: e-positive yes, min coeff 1 at 2,2,1\n"
        "n=5 theta 3,2,1: e-positive yes, min coeff 6 at 3,2\n"
    )
    assert "scanning" in captured.err
    assert main(["scan-theta", "--max-n", "5", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [(r["a"], r["b"], r["c"]) for r in rows] == theta_scan_cells(5)
    assert all(r["schema"] == 1 for r in rows)


def test_scan_theta_resume(tmp_path, capsys):
    ck = tmp_path / "rows.jsonl"
    assert main(["scan-theta", "--max-n", "6", "--resume", str(ck)]) == 0
    first = capsys.readouterr().out
    stamp = ck.read_text()
    assert main(["scan-theta", "--max-n", "6", "--resume", str(ck)]) == 0
    assert capsys.readouterr().out == first
    assert ck.read_text() == stamp


def test_scan_theta_resumes_past_torn_last_line(tmp_path, capsys):
    ck = tmp_path / "rows.jsonl"
    assert main(["scan-theta", "--max-n", "7", "--resume", str(ck)]) == 0
    fresh = capsys.readouterr().out
    whole = ck.read_bytes()
    assert whole.count(b"\n") == 10
    ck.write_bytes(whole[:-30])
    assert main(["scan-theta", "--max-n", "7", "--resume", str(ck)]) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh
    assert captured.err.count("torn line") == 1
    assert ck.read_bytes() == whole
    for line in ck.read_text().splitlines():
        json.loads(line)


def test_scan_theta_malformed_inner_line_exits_two(tmp_path, capsys):
    ck = tmp_path / "rows.jsonl"
    assert main(["scan-theta", "--max-n", "6", "--resume", str(ck)]) == 0
    capsys.readouterr()
    lines = ck.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:-20] + "\n"
    ck.write_text("".join(lines))
    assert main(["scan-theta", "--max-n", "6", "--resume", str(ck)]) == 2
    assert "line 2 is not a scan row" in capsys.readouterr().err
    assert ck.read_text() == "".join(lines)


def test_scan_theta_has_no_edge_bound(capsys):
    # cells are bounded by the transfer's live terms, so there is no
    # edge cap to set
    with pytest.raises(SystemExit) as exc:
        main(["scan-theta", "--max-n", "9", "--max-edges", "8"])
    assert exc.value.code == 2
    assert "--max-edges" in capsys.readouterr().err


def test_scan_theta_unusable_checkpoint_exits_two(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "rows.jsonl"
    for path in (missing, tmp_path):
        assert main(["scan-theta", "--max-n", "6", "--resume", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not missing.parent.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_theta_rejects_nonpositive_jobs(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan-theta", "--max-n", "6", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "\uff15"])
def test_scan_theta_max_n_must_be_a_nonnegative_ascii_integer(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan-theta", "--max-n", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n" in captured.err


def test_scan_theta_requires_max_n():
    with pytest.raises(SystemExit) as exc:
        main(["scan-theta"])
    assert exc.value.code == 2


# ------------------------------------------------------------- nice etc.

def test_nice_text_and_json(capsys):
    assert main(["nice", "glambda:2,2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "nice: no" in out
    assert "witness: attains 3,1,1 but not the dominated 2,2,1" in out
    assert main(["nice", "path:5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"spec": "path:5", "nice": True, "witness": None}
    assert main(["nice", "glambda:2,2,2,2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["witness"] == [[4, 2], [3, 3]]


def test_chrompoly_counts(capsys):
    assert main(["chrompoly", "cycle:5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    graph = build_graph(GraphSpec(Family.CYCLE, (5,)))
    assert data["counts"] == [count_proper_colorings(graph, k) for k in range(6)]
    assert main(["chrompoly", "path:3"]) == 0
    out = capsys.readouterr().out
    assert "k=2: 2" in out and "k=3: 12" in out


def test_chrompoly_long_paths_never_trace_back():
    # deletion-contraction runs without recursion, and a path whose
    # minors would hold more edges than the memo budget (719 400 for
    # path:1200) is a resource bound, not a crash
    ok = run_module("chrompoly", "path:500", "--format", "json", capture_output=True)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["counts"][2] == 2
    capped = run_module("chrompoly", "path:1200", capture_output=True)
    assert "Traceback" not in capped.stderr
    assert capped.returncode == 1
    assert capped.stderr.startswith("error: ") and capped.stderr.count("\n") == 1


def test_chrompoly_minor_budget_is_a_resource_bound():
    # the minors of a dense irregular graph, G(16, 1/2), would hold more
    # edges than the memo budget; a long cycle (186 999) and K16 (6 686)
    # stay inside it
    rng = random.Random(1)
    dense = ",".join(f"{u}-{v}" for u, v in itertools.combinations(range(16), 2)
                     if rng.random() < 0.5)
    capped = run_module("chrompoly", f"edges:16;{dense}", capture_output=True)
    assert "Traceback" not in capped.stderr
    assert capped.returncode == 1
    assert capped.stderr.startswith("error: ") and capped.stderr.count("\n") == 1
    k16 = ",".join(f"{u}-{v}" for u, v in itertools.combinations(range(16), 2))
    for spec in ["cycle:500", f"edges:16;{k16}"]:
        ok = run_module("chrompoly", spec, "--format", "json", capture_output=True)
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["counts"][-1] > 0


@pytest.mark.parametrize("command, spec, message", [
    ("nice", "path:1000000", "stable-partition search capped at 12 vertices, graph has 1000000"),
    ("nice", "theta:5,5,4", "stable-partition search capped at 12 vertices, graph has 13"),
    ("chrompoly", "path:1000000",
     "deletion-contraction capped at 500000 edges in its memo, graph has 999999"),
    ("chrompoly", "cc:1,500000",
     "deletion-contraction capped at 500000 edges in its memo, graph has 500001"),
])
def test_size_bounds_come_before_the_build(command, spec, message, monkeypatch, capsys):
    def refuse(spec):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "build_graph", refuse)
    assert main([command, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["csf", "verify"])
def test_the_oracle_refuses_a_graph_past_its_vertex_bound(command, monkeypatch, capsys):
    # refused before the chains are found, which keep lists per vertex
    chains = engine._graph_chains

    def refuse(graph):
        raise AssertionError("the chains were found")

    monkeypatch.setattr(engine, "_graph_chains", refuse)
    assert main([command, "edges:1000001;"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle capped at 1000000 vertices, graph has 1000001\n"
    # a graph at the bound is taken
    monkeypatch.setattr(engine, "_graph_chains", chains)
    monkeypatch.setattr(engine, "_ORACLE_MAX_VERTICES", 5)
    assert main([command, "edges:5;0-1"]) == 0
    capsys.readouterr()
    assert main([command, "edges:6;0-1"]) == 1
    assert capsys.readouterr().err == "error: oracle capped at 5 vertices, graph has 6\n"


def test_verify_refuses_the_coloring_check_past_its_vertex_bound(monkeypatch, capsys):
    # the bound sits after the oracle, so edges:1000001; keeps the
    # oracle's message, and before the first coloring count
    counts = engine.count_proper_colorings

    def refuse(graph, k):
        raise AssertionError("the colorings were counted")

    monkeypatch.setattr(engine, "count_proper_colorings", refuse)
    assert main(["verify", "edges:1001;"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coloring check capped at 1000 vertices, graph has 1001\n"
    # a graph at the bound is checked
    monkeypatch.setattr(engine, "count_proper_colorings", counts)
    assert main(["verify", "edges:1000;"]) == 0
    assert "colorings: agree for k = 0..1000\n" in capsys.readouterr().out


def test_size_bounds_come_after_the_parameter_rules(capsys):
    # a spec the builder rejects stays bad input, even past a size bound
    assert main(["nice", "cycle:2"]) == 2
    assert main(["nice", "edges:20;0-30"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert main(["chrompoly", "tadpole:2,600000"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["nice", "edges:3;0-5"], "edge (0, 5) out of range for n=3"),
    (["chrompoly", "edges:3;0-1,0-1"], "duplicate edge (0, 1)"),
])
def test_bad_edges_are_usage_errors_when_the_spec_is_made(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_chrompoly_prints_counts_past_the_digit_cap(capsys):
    # Python refuses to print ints of more than sys.get_int_max_str_digits()
    # digits; lowered to 640, the edgeless 300-vertex graph's 300**300
    # (744 digits) stands in for edges:1400;'s 1400**1400 (4405 digits)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["chrompoly", "edges:300;"]) == 0
        text = capsys.readouterr().out
        assert main(["chrompoly", "edges:300;", "--format", "json"]) == 0
        data = capsys.readouterr().out
        assert sys.get_int_max_str_digits() == 640
        # parsing keeps the cap: a 700-digit spec parameter is bad input
        assert main(["csf", "path:" + "9" * 700]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "(640 digits)" in captured.err
    finally:
        sys.set_int_max_str_digits(cap)
    lines = text.splitlines()
    assert lines[0] == "graph: edges:300; (300 vertices)"
    assert lines[1:] == [f"k={k}: {k ** 300}" for k in range(301)]
    assert json.loads(data)["counts"] == [k ** 300 for k in range(301)]


def test_a_failed_render_prints_nothing(monkeypatch, capsys):
    class Unprintable(int):
        def __format__(self, spec):
            raise ValueError("cannot print this count")

    monkeypatch.setattr(cli, "count_proper_colorings",
                        lambda graph, k: Unprintable(k) if k == 3 else k)
    assert main(["chrompoly", "path:5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot print this count\n"


# ------------------------------------------------------------ exit codes

def test_usage_errors_exit_two(capsys):
    assert main(["csf", "pat:3"]) == 2
    assert "unknown family" in capsys.readouterr().err
    assert main(["csf", "cycle:2"]) == 2
    assert main(["csf", "tadpole:2,3"]) == 2
    assert main(["csf", "edges:3;0-5"]) == 2
    assert main(["csf", "theta:2,1,1"]) == 2
    assert main(["nice", "path:13"]) == 1  # resource cap, not usage
    with pytest.raises(SystemExit) as exc:
        main(["csf", "cc:3,3", "--format", "html"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = run_module("csf", "cc:3,3", "--format", "latex", capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "54e_6+16e_{51}+26e_{42}+2e_{222}"


def test_closed_stdout_is_not_a_traceback():
    # the reader is gone before the child prints anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module("csf", "cc:9,9", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1


def loaded_by_cli_import(*modules: str) -> str:
    """Which of the named modules a fresh interpreter holds after
    importing chromsym.cli, as the printed sorted list."""
    code = f"import sys, chromsym.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_the_process_pool_out():
    # only a parallel scan needs worker processes, so starting the CLI
    # pays nothing for them
    assert loaded_by_cli_import("concurrent.futures", "multiprocessing") == "[]\n"


def test_cli_import_leaves_dataclasses_out():
    # the value types are named tuples, so start-up never pays for
    # dataclasses and the inspect, ast and dis modules it loads
    assert loaded_by_cli_import("dataclasses", "inspect") == "[]\n"


def test_installed_script_runs():
    proc = subprocess.run(
        ["chromsym", "verify", "cc:2,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: PASS" in proc.stdout


# ------------------------------------------------------------------ docs

def test_readme_names_only_real_options():
    """Every --option in the README's code is one the parser accepts:
    the named subcommand's, or some subcommand's when none is named.
    pip's flags in the install lines are not chromsym's."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {name: set(sub._option_string_actions) for name, sub in commands.items()}
    anywhere = set().union(*accepted.values())
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.M | re.S)
    snippets = re.findall(r"`([^`\n]+)`", readme) + "\n".join(blocks).splitlines()
    unknown = []
    for snippet in snippets:
        if snippet.startswith("pip "):
            continue
        command = next((word for word in snippet.split() if word in accepted), None)
        for option in re.findall(r"(?<![\w-])--[a-z][a-z-]*", snippet):
            if option not in (accepted[command] if command else anywhere):
                unknown.append((command, option))
    assert unknown == []


def test_readme_quick_start_runs_as_written(capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", readme, re.M | re.S)
    exec(code.group(1), {})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["54e_6 + 16e_{51} + 26e_{42} + 2e_{222}", "True"]


# ------------------------------------------------------------- package

PUBLIC = {
    "csf_path", "csf_cycle", "csf_tadpole", "csf_cycle_chord", "csf_oracle",
    "closed_formula", "verify", "chord_weight",
    "Graph", "GraphSpec", "Family", "build_graph", "theta_graph", "ResourceLimitError",
    "Basis", "SymFunc", "p_to_e", "principal_specialization", "is_e_positive",
    "render_text", "to_json_dict",
}


def test_package_exports_only_the_documented_names():
    import chromsym

    names = {name for name, value in vars(chromsym).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_benchmark_imports_resolve():
    """Every name the benchmark harness takes from chromsym resolves:
    `from chromsym... import`, `import chromsym...`, `chromsym.X...`
    chains, and the module attributes perfbench/spans.py rebinds."""
    import chromsym

    def resolve(dotted: str):
        obj = chromsym
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
                importlib.import_module(f"{obj.__name__}.{part}")
            obj = getattr(obj, part)  # AttributeError names what is missing
        return obj

    def chain(node: ast.AST) -> str | None:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "chromsym":
            return ".".join(["chromsym", *reversed(parts)])
        return None

    bench = SRC.parent / "perfbench"
    taken = set()
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chromsym":
                taken.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                taken.update(a.name for a in node.names if a.name.split(".")[0] == "chromsym")
            elif isinstance(node, ast.Attribute) and chain(node):
                taken.add(chain(node))
    assert {"chromsym.csf_oracle", "chromsym.SymFunc", "chromsym.cli.main"} <= taken
    for dotted in sorted(taken):
        resolve(dotted)

    spec = importlib.util.spec_from_file_location("spans", bench / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, _, targets, _ in spans.WRAPPED:
        found = [resolve(f"chromsym.{t}" if not t.startswith("chromsym.") else t)
                 for t in targets]
        assert all(fn is found[0] for fn in found), targets
