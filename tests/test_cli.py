import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linksig import cli, genskein
from linksig.cli import main
from linksig.gaussian import GaussianInteger as G
from linksig.genskein import DELTA3_COEFFS
from linksig.splice import SpliceDiagram


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants(capsys):
    code, out = run(capsys, "invariants", "--strands", "3", "--word", "1,2,1")
    assert code == 0
    data = json.loads(out)
    assert data["components"] == 2
    assert data["signature"] == -1
    assert data["det"] == "2i"
    assert data["conway_text"] == "+ t - t^-1"


def test_list_values_may_begin_with_a_negative_letter(capsys):
    # argparse reads "-1,2" as an option unless it is joined with "="
    joined = run(capsys, "invariants", "--strands", "3", "--word=-1,2")
    assert joined[0] == 0
    assert run(capsys, "invariants", "--strands", "3", "--word", "-1,2") == joined
    assert run(capsys, "skeinpoly", "a", "--J", "3", "--sign", "+",
               "--x", "-1,2,1") == run(capsys, "skeinpoly", "a", "--J", "3",
                                       "--sign", "+", "--x=-1,2,1")
    assert main(["closedform", "c", "--n", "4", "--k", "2", "--J", "2",
                 "--alpha", "-1,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": "alphas must be nonnegative"}\n'


def test_family_prints_word(capsys):
    code, out = run(capsys, "family", "b", "--n", "1", "--k", "1",
                    "--J", "1", "--alpha", "0")
    assert code == 0
    assert out.strip() == "-2,1,1,2,1"


def test_splice_eval(tmp_path, capsys):
    from linksig.splice import torus_delta_diagram
    path = tmp_path / "d.json"
    path.write_text(json.dumps(torus_delta_diagram(2, 1).to_json()))
    code, out = run(capsys, "splice", "eval", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["det"] == "4"
    code, out = run(capsys, "splice", "eval", "--file", str(path),
                    "--multivariable")
    data = json.loads(out)
    assert data["det"] == "4"
    assert data["factors"]


def test_skeinpoly_value(capsys):
    code, out = run(capsys, "skeinpoly", "a", "--J", "1", "--sign", "+",
                    "--x", "0")
    assert code == 0 and out.strip() == "2"
    code, out = run(capsys, "skeinpoly", "a", "--J", "2", "--sign", "+",
                    "--x", "1,1", "--symbolic")
    assert code == 0
    assert json.loads(out) == {"x1*x2": "-4"}


def test_closedform_verify(capsys):
    code, out = run(capsys, "closedform", "b", "--n", "1", "--k", "1",
                    "--J", "1", "--alpha", "1", "--verify")
    assert code == 0
    data = json.loads(out)
    assert (data["sign"], data["null"]) == (-1, 1)
    assert data["verified"] is True


def test_closedform_explore_unproven(capsys):
    code, out = run(capsys, "closedform", "b", "--n", "4", "--k", "2",
                    "--J", "2", "--alpha", "1,1", "--explore")
    assert code == 0
    data = json.loads(out)
    assert "not established" in data["closed_form"]
    assert "direct" in data
    # the wide family at n = 0 mod 4 has no closed-form determinant either
    code, out = run(capsys, "closedform", "c", "--n", "4", "--k", "2",
                    "--J", "2", "--alpha", "1,1", "--explore")
    assert code == 0
    data = json.loads(out)
    assert data["det"] is None
    assert data["direct"] == {"sign": -24, "null": 2}
    # without --explore an unproven closed form is a failure
    for kind in ("b", "c"):
        code, out = run(capsys, "closedform", kind, "--n", "4", "--k", "2",
                        "--J", "2", "--alpha", "1,1")
        assert code == 1
        assert "not established" in json.loads(out)["closed_form"]


def test_skein_verify(capsys):
    code, out = run(capsys, "skein", "verify", "--relation", "b2",
                    "--trials", "3", "--seed", "1", "--strands", "3",
                    "--maxlen", "6")
    assert code == 0
    assert "3/3" in out
    code, out = run(capsys, "skein", "verify", "--relation", "b3",
                    "--trials", "3", "--seed", "1", "--strands", "3",
                    "--maxlen", "6")
    assert code == 0
    assert "3/3" in out
    code, out = run(capsys, "skein", "verify", "--relation", "conway",
                    "--trials", "5", "--seed", "2", "--strands", "4",
                    "--maxlen", "8")
    assert code == 0
    code, out = run(capsys, "skein", "verify", "--relation", "blocks",
                    "--trials", "3", "--seed", "3")
    assert code == 0


def test_prohibit_theorem11(capsys):
    code, out = run(capsys, "prohibit", "theorem11", "--n", "1", "--k", "3",
                    "--r", "0", "--lambda", "13", "--lambda-odd", "0",
                    "--lambda-even", "13", "--lambda-plus", "10",
                    "--lambda-minus", "3")
    assert code == 1
    assert json.loads(out)["verdict"] == "prohibited"


def test_prohibit_degree9(capsys):
    code, out = run(capsys, "prohibit", "degree9", "--alpha", "2",
                    "--beta", "1", "--gamma", "23", "--m-curve")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "admissible"
    assert len(data["schemes"]) == 1
    # past Harnack's bound of 28 ovals: prohibited without a sieve
    code, out = run(capsys, "prohibit", "degree9", "--alpha", "100",
                    "--beta", "100", "--gamma", "100")
    assert code == 1
    assert json.loads(out)["violated"] == ["Harnack bound: more than 28 ovals"]


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_placeholder_positional_rejects_other_words():
    for argv in (["skein", "nonsense", "--relation", "b2"],
                 ["splice", "show", "--file", "d.json"],
                 ["skeinpoly", "b", "--J", "1", "--sign", "+"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _cable_chain(cables: int) -> dict:
    """The unknot cabled `cables` times by (2, 3), each time at the last arrowhead."""
    d = SpliceDiagram.unknot()
    for _ in range(cables):
        d = d.cable(d.arrowheads()[-1], 1, 2, 3)
    return d.to_json()


def _listed_twice() -> dict:
    """The (2, 6) torus link with its last arrowhead listed again, sign flipped."""
    obj = SpliceDiagram.unknot().cable(1, 2, 1, 3).to_json()
    obj["vertices"].append({**obj["vertices"][-1], "sign": -1})
    return obj


#: splice diagram files that `splice eval` must refuse, by file name
MALFORMED_DIAGRAMS = {
    "listed-twice.json": _listed_twice(),
    # numerator degree 196609 with 2 divisions, far past cli.MAX_SPLICE_DEGREE
    "cable-chain.json": _cable_chain(16),
    "empty.json": {},
    "unsigned.json": {"vertices": [{"id": 0, "kind": "plain"},
                                   {"id": 1, "kind": "arrowhead"}],
                      "edges": [{"a": 0, "b": 1}]},
    "unknown-vertex.json": {"vertices": [{"id": 0, "kind": "plain"},
                                         {"id": 1, "kind": "arrowhead", "sign": 1}],
                            "edges": [{"a": 0, "b": 5}]},
    "misspelled-kind.json": {"vertices": [{"id": 0, "kind": "plane"},
                                          {"id": 1, "kind": "arrowhead", "sign": 1}],
                             "edges": [{"a": 0, "b": 1}]},
    # JSON floats and bools where integers belong are refused, not truncated
    "bool-sign.json": {"vertices": [{"id": 0, "kind": "plain"},
                                    {"id": 1, "kind": "arrowhead", "sign": True}],
                       "edges": [{"a": 0, "b": 1}]},
    "float-weight.json": {"vertices": [{"id": 0, "kind": "plain"},
                                       {"id": 1, "kind": "plain"},
                                       *({"id": v, "kind": "arrowhead", "sign": 1}
                                         for v in (2, 3, 4))],
                          "edges": [{"a": 0, "b": 1, "weight_at_a": 1.5},
                                    *({"a": 0, "b": v, "weight_at_a": 1}
                                      for v in (2, 3, 4))]},
    "float-id.json": {"vertices": [{"id": 0.7, "kind": "plain"},
                                   {"id": 1, "kind": "arrowhead", "sign": 1}],
                      "edges": [{"a": 0.7, "b": 1}]},
    "list-edge.json": {"vertices": [{"id": 0, "kind": "plain"},
                                    {"id": 1, "kind": "arrowhead", "sign": 1}],
                       "edges": [{"a": [0], "b": 1}]},
    "no-arrowhead.json": {"vertices": [{"id": 0, "kind": "plain"}], "edges": []},
    # weights -1 (to the arrowhead), -2 and -2: (t - t^-1)(t^4 - t^-4) over
    # (t^2 - t^-2)^2, whose second division leaves a remainder
    "no-link.json": {"vertices": [{"id": 0, "kind": "plain"},
                                  {"id": 1, "kind": "arrowhead", "sign": 1},
                                  {"id": 2, "kind": "plain"},
                                  {"id": 3, "kind": "plain"}],
                     "edges": [{"a": 0, "b": 1, "weight_at_a": -1},
                               {"a": 0, "b": 2, "weight_at_a": -2},
                               {"a": 0, "b": 3, "weight_at_a": -2}]},
}


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--strands", "3", "--word", "1,5"], "out of range"),
    (["prohibit", "degree9", "--alpha", "1", "--beta", "1", "--gamma", "0"],
     "at least one oval"),
    # an empty range of splittings is not a prohibition
    (["prohibit", "degree9", "--alpha", "-1", "--beta", "0", "--gamma", "5"],
     "oval counts cannot be negative"),
    # the alternation bound needs both counts, not one
    (["prohibit", "theorem11", "--n", "1", "--k", "3", "--lambda", "13",
      "--lambda-odd", "0", "--lambda-even", "13", "--lambda-plus", "10"],
     "needs both lambda_+ and lambda_-"),
    (["prohibit", "theorem11", "--n", "1", "--k", "3", "--lambda", "13",
      "--lambda-odd", "0", "--lambda-even", "13", "--lambda-plus=-4",
      "--lambda-minus=-5"], "oval counts cannot be negative"),
    (["splice", "--file", "missing.json"], "missing.json"),
    (["invariants", "--strands", "9", "--word", ",".join(["1"] * 1001)],
     "word too large"),
    (["skein", "verify", "--relation", "conway", "--strands", "17",
      "--maxlen", "501"], "word too large"),
    (["skein", "verify", "--relation", "b2", "--trials", "-3"],
     "--trials must be nonnegative"),
    (["skein", "verify", "--relation", "conway", "--maxlen", "-2"],
     "--maxlen must be nonnegative"),
    (["skein", "verify", "--relation", "conway", "--strands", "1"],
     "--strands must be at least 2 for --relation conway, got 1"),
    (["skein", "verify", "--relation", "b3", "--strands", "2"],
     "--strands must be at least 3 for --relation b3, got 2"),
    (["closedform", "b", "--n", "1", "--k", "80", "--J", "1", "--alpha", "1",
      "--verify"], "Seifert dimension 12723 > 12000"),
    (["closedform", "c", "--n", "1000", "--k", "3", "--J", "2",
      "--alpha", "1,1", "--explore"], "family word too large"),
    # refused as outside the family, not reported as "not established"
    (["closedform", "c", "--n", "4", "--k", "2", "--J", "2",
      "--alpha=-1,5"], "alphas must be nonnegative"),
    (["skein", "verify", "--relation", "blocks", "--trials", "4001"],
     "--trials must be at most 4000, got 4001"),
    (["skein", "verify", "--relation", "conway", "--maxlen", "1000",
      "--trials", "20"], "too many trials for the word size"),
    # the b3 relation appends four squared half twists, 24 letters
    (["skein", "verify", "--relation", "b3", "--strands", "3", "--maxlen",
      "3990", "--trials", "1"], "4014 letters x 2 strand gaps = 8028 > 8000"),
    (["splice", "--file", "empty.json"], "lacks the key 'vertices'"),
    (["splice", "--file", "unsigned.json"], "lacks the key 'sign'"),
    (["splice", "--file", "unknown-vertex.json"], "edge (0, 5) joins an unknown"),
    (["splice", "--file", "misspelled-kind.json"], "has kind 'plane'"),
    (["splice", "--file", "bool-sign.json"], "needs a sign +-1, not True"),
    (["splice", "--file", "float-weight.json"], "integer weight on the edge to 1"),
    (["splice", "--file", "float-id.json"], "vertex id 0.7 is not an integer"),
    (["splice", "--file", "list-edge.json"], "malformed splice diagram"),
    (["splice", "--file", "listed-twice.json"], "vertex id 5 is listed twice"),
    (["splice", "--file", "cable-chain.json"],
     "splice product too large: degree 196609^2 x 2 divisions > 30000^2"),
    (["splice", "--file", "no-arrowhead.json"], "diagram has no arrowhead"),
    (["splice", "--file", "no-link.json", "--multivariable"],
     "no link has these weights: division leaves a remainder"),
    (["skeinpoly", "a", "--J", "0", "--sign", "+"], "arity must be positive"),
    (["skeinpoly", "a", "--J", "3", "--sign", "-", "--x", "1,2"],
     "need exactly j entries"),
    (["skeinpoly", "a", "--J", "25", "--sign", "+", "--symbolic"],
     "--J must be at most 24 for --symbolic, got 25"),
], ids=["invariants", "degree9", "degree9-negative-count",
        "theorem11-one-sided", "theorem11-negative-count", "splice", "invariants-size", "skein-size",
        "skein-trials", "skein-maxlen", "skein-conway-strands",
        "skein-b3-strands", "closedform-verify-size", "closedform-explore-size",
        "closedform-negative-twist",
        "skein-trials-bound", "skein-trials-size", "skein-b3-inserted-size",
        "splice-empty", "splice-unsigned", "splice-unknown-vertex",
        "splice-misspelled-kind", "splice-bool-sign", "splice-float-weight",
        "splice-float-id", "splice-list-edge", "splice-listed-twice",
        "splice-size", "splice-no-arrowhead", "splice-no-link", "skeinpoly-arity",
        "skeinpoly-length", "skeinpoly-symbolic-size"])
def test_bad_input_is_a_json_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, diagram in MALFORMED_DIAGRAMS.items():
        (tmp_path / name).write_text(json.dumps(diagram))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]



@st.composite
def small_splice_files(draw) -> dict:
    """Splice JSON on at most 7 vertices with no valence 2: 0-2 nodes, each
    leaf an arrowhead (sign +-1) or plain, node weights in [-3, 3]."""
    nodes = draw(st.integers(0, 2))
    if nodes == 0:
        edges = [(0, 1)] if draw(st.booleans()) else []
    else:
        # node 1 joins node 0; each node gets leaves up to valence 3 at least
        edges = [(0, 1)] * (nodes - 1)
        owners = [u for u in range(nodes) for _ in range(4 - nodes)]
        owners += draw(st.lists(st.integers(0, nodes - 1),
                                max_size=7 - nodes - len(owners)))
        edges += [(u, nodes + i) for i, u in enumerate(owners)]
    sign = st.sampled_from((1, -1))
    vertices = [{"id": v, "kind": "plain"} if v < nodes or draw(st.booleans())
                else {"id": v, "kind": "arrowhead", "sign": draw(sign)}
                for v in range(1 + len(edges))]
    weight = st.integers(-3, 3)
    return {"vertices": vertices, "edges": [
        {"a": a, "b": b, **({"weight_at_a": draw(weight)} if a < nodes else {}),
         **({"weight_at_b": draw(weight)} if b < nodes else {})}
        for a, b in edges]}


@settings(max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(diagram=small_splice_files())
def test_splice_eval_answers_or_refuses(tmp_path, capsys, diagram):
    # an answer, or a refusal as one JSON line; never a traceback
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram))
    for extra in ([], ["--multivariable"]):
        code = main(["splice", "eval", "--file", str(path), *extra])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and "det" in json.loads(out)
        else:
            assert (code, out) == (2, "")
            (line,) = err.splitlines()
            assert set(json.loads(line)) == {"error"}


def test_size_limit_is_on_letters_times_strand_gaps(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_WORD_SIZE", 4)
    assert main(["invariants", "--strands", "3", "--word", "1,-2"]) == 0
    capsys.readouterr()
    assert main(["invariants", "--strands", "3", "--word", "1,-2,1"]) == 2
    assert "3 letters x 2 strand gaps = 6 > 4" in capsys.readouterr().err
    assert main(["skein", "verify", "--relation", "b3", "--strands", "3",
                 "--maxlen", "3"]) == 2
    assert "word too large" in capsys.readouterr().err
    # the block identity draws no braid word, so the limit does not apply
    assert main(["skein", "verify", "--relation", "blocks", "--trials", "1",
                 "--strands", "3", "--maxlen", "3"]) == 0


def test_closedform_limit_is_on_the_seifert_dimension(monkeypatch, capsys):
    # b, n = 1, k = 1, J = 1, alpha = 1: 1 + 2 + 3 letters, dimension 4
    argv = ["closedform", "b", "--n", "1", "--k", "1", "--J", "1",
            "--alpha", "1", "--verify"]
    monkeypatch.setattr(cli, "MAX_FAMILY_DIMENSION", 4)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_FAMILY_DIMENSION", 3)
    assert main(argv) == 2
    assert "Seifert dimension 4 > 3" in capsys.readouterr().err
    # without --verify or --explore no word is built, so the limit does not apply
    assert main(argv[:-1]) == 0


def test_family_limit_is_on_the_letter_count(monkeypatch, capsys):
    # b, n = 1, k = 1, J = 1, alpha = 1: 1 + 2 + 3 letters
    argv = ["family", "b", "--n", "1", "--k", "1", "--J", "1", "--alpha", "1"]
    monkeypatch.setattr(cli, "MAX_FAMILY_LETTERS", 6)
    assert main(argv) == 0
    assert capsys.readouterr().out == "-1,-2,1,1,2,1\n"
    monkeypatch.setattr(cli, "MAX_FAMILY_LETTERS", 5)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "family word too large: 6 letters > 5"}


def test_splice_limit_is_on_degree_squared_times_divisions(tmp_path, monkeypatch,
                                                          capsys):
    # the (2, 3) torus knot: (t - t^-1)(t^6 - t^-6) over (t^2 - t^-2) and
    # (t^3 - t^-3), so degree 1 + 6 = 7 with 2 divisions, and 7^2 x 2 = 98
    path = tmp_path / "d.json"
    path.write_text(SpliceDiagram.unknot().cable(1, 1, 2, 3).dumps())
    argv = ["splice", "eval", "--file", str(path)]
    monkeypatch.setattr(cli, "MAX_SPLICE_DEGREE", 10)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["omega"] == "+ t^2 - 1 + t^-2"
    monkeypatch.setattr(cli, "MAX_SPLICE_DEGREE", 9)
    for extra in ([], ["--multivariable"]):
        assert main(argv + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "splice product too large: "
                                   "degree 7^2 x 2 divisions > 9^2"}


def test_trial_limit_is_on_trials_times_size_squared(monkeypatch, capsys):
    # 3 strands, maxlen 0 and the 2 appended letters: size 4, and
    # 4 trials x 4^2 = 64 = 8^2
    monkeypatch.setattr(cli, "MAX_WORD_SIZE", 8)
    argv = ["skein", "verify", "--relation", "conway", "--strands", "3",
            "--maxlen", "0"]
    assert main(argv + ["--trials", "4"]) == 0
    capsys.readouterr()
    assert main(argv + ["--trials", "5"]) == 2
    assert "5 trials x 4^2 > 8^2" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_TRIALS", 3)
    assert main(argv + ["--trials", "4"]) == 2
    assert "--trials must be at most 3, got 4" in capsys.readouterr().err


def test_skein_verify_checks_empty_words(monkeypatch, capsys):
    # every word drawn is empty; each trial still checks the relation
    argv = ["skein", "verify", "--relation", "conway", "--strands", "2",
            "--maxlen", "0", "--trials", "3"]
    assert run(capsys, *argv) == (0, "3/3 residuals vanished\n")
    conway = genskein.conway_potential
    monkeypatch.setattr(genskein, "conway_potential", lambda word: conway(word) + 1)
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-1] == "0/3 residuals vanished"


@pytest.mark.parametrize("relation, target, name, wrong", [
    # a Conway potential off by one breaks the crossing-switch relation
    ("conway", genskein, "conway_potential",
     lambda conway: lambda word: conway(word) + 1),
    # five-term coefficients that do not cancel
    ("b2", cli.RelationSpec, "delta3_order4",
     lambda make: staticmethod(lambda: dataclasses.replace(
         make(), coefficients=DELTA3_COEFFS[:-1] + (DELTA3_COEFFS[-1] + 1,)))),
    # a determinant form that is off by one
    ("b3", cli, "det_relation_check",
     lambda check: lambda word, spec: check(word, spec) + G(1, 0)),
    # a block identity that is off by one
    ("blocks", cli, "block_identity_residual",
     lambda residual: lambda *blocks: residual(*blocks) + 1),
], ids=["conway", "b2-coefficients", "b3-det", "blocks"])
def test_skein_verify_reports_failures(monkeypatch, capsys, relation, target,
                                       name, wrong):
    monkeypatch.setattr(target, name, wrong(getattr(target, name)))
    code, out = run(capsys, "skein", "verify", "--relation", relation,
                    "--trials", "6", "--seed", "3")
    *failures, summary = out.splitlines()
    vanished, trials = map(int, summary.split(" ")[0].split("/"))
    assert code == 1
    assert summary.endswith(" residuals vanished")
    assert trials == 6 and vanished < trials
    assert len(failures) == trials - vanished
    assert all(line.startswith("trial ") and "nonzero" in line for line in failures)
