import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sgspec import cli, operators, spectra
from sgspec.cli import main
from sgspec.graph import ParseError, SignedGraph, parse_graph, serialize_function, serialize_graph
from sgspec.harness import random_signed_graph
from sgspec.operators import check_certificates_1lap

from test_graph import complete, path, triangle


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.json"
    p.write_bytes(serialize_graph(complete(5)))
    return str(p)


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.json"
    p.write_bytes(serialize_graph(path(3)))
    return str(p)


@pytest.fixture
def cut_file(tmp_path):
    # its patterns are rejected by cuts of every stage: one-vertex cuts of
    # the screen, the pin stage's of a component ({b, c} at (0, 1, -1, 1, -1))
    # and of a zero vertex, and the max-flow's of the support ({c, d, e} at
    # (1, 1, 1, 1, -1)) and of the zero block ({a, b} at (0, 0, 1, 1, -1))
    p = tmp_path / "cut.json"
    p.write_bytes(serialize_graph(SignedGraph.build(
        "abcde", [("a", "b", 1.0, 1), ("a", "c", 1.0, 1), ("a", "e", 3.0, 1), ("b", "c", 3.0, -1),
                  ("c", "d", 3.0, 1), ("d", "e", 2.0, -1)])))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSpectrum:
    def test_empty_graph(self, capsys, tmp_path):
        gfile = tmp_path / "empty.json"
        gfile.write_text('{"vertices": [], "edges": []}')
        code, out, _ = run(capsys, "spectrum", "--graph", str(gfile), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"] == [] and doc["multiplicities"] == []

    def test_p2_json(self, capsys, p3_file):
        code, out, _ = run(capsys, "spectrum", "--graph", p3_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0])
        assert doc["multiplicities"] == [1, 1, 1]

    def test_p1_enumeration(self, capsys, k5_file):
        code, out, _ = run(capsys, "spectrum", "--graph", k5_file, "--p", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["smallest_positive"] == "3/4"

    @pytest.mark.parametrize("one_vertex", [True, False], ids=("one-vertex", "p3"))
    def test_p1_keys_match_onelap(self, capsys, tmp_path, p3_file, one_vertex):
        gfile = tmp_path / "one.json"
        gfile.write_text('{"vertices": [{"id": "a"}], "edges": []}')
        graph = str(gfile) if one_vertex else p3_file
        code, out, _ = run(capsys, "spectrum", "--graph", graph, "--p", "1")
        assert code == 0
        spec = json.loads(out)
        code, out, _ = run(capsys, "onelap", "--graph", graph)
        assert code == 0
        onelap = json.loads(out)
        assert set(spec) == {"eigenvalues", "lambda_1", "smallest_positive"}
        assert spec == {key: onelap[key] for key in spec}
        if one_vertex:
            assert spec["smallest_positive"] is None

    def test_other_p_rejected(self, capsys, p3_file):
        code, _, err = run(capsys, "spectrum", "--graph", p3_file, "--p", "2.5")
        assert code == 2
        assert "extremal" in err


class TestCheeger:
    def test_k5_degree_measure(self, capsys, tmp_path):
        g = complete(5)
        gfile = tmp_path / "g.json"
        # serialize with unit mu; the flag restores the degree measure
        doc = json.loads(serialize_graph(g))
        for v in doc["vertices"]:
            v["mu"] = 1.0
        gfile.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "cheeger", "--graph", str(gfile), "--k", "2",
                           "--mu-mode", "degree")
        assert code == 0
        assert json.loads(out)["value"] == "3/4"

    def test_heuristic_at_k_equal_n(self, capsys, tmp_path):
        # every group of every start gets a vertex: no traceback at k = n
        gfile = tmp_path / "g.json"
        gfile.write_bytes(serialize_graph(random_signed_graph(14, 0.4, seed=14, connected=True)))
        code, out, _ = run(capsys, "cheeger", "--graph", str(gfile), "--k", "14", "--heuristic")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is False and len(doc["pairs"]) == 14


class TestNodal:
    def test_counts_and_exit_code(self, capsys, p3_file, tmp_path):
        ffile = tmp_path / "f.json"
        ffile.write_bytes(serialize_function([1.0, 0.0, -1.0], path(3)))
        code, out, _ = run(capsys, "nodal", "--graph", p3_file,
                           "--function", str(ffile), "--dual")
        assert code == 0
        doc = json.loads(out)
        assert doc["strong"] == 2 and doc["weak"] == 2
        assert doc["identity_ok"]
        assert "dual_strong" in doc


def _tampered(ols, kind, tamper, stage=None):
    """ols with ``tamper(t, *certs)`` in place of the first entry of
    ``kind`` in ``certificates`` that has columns, a cut column of the form
    of ``stage`` if one is named (see ``_formed``)."""
    hits = [i for i, (k, t, *certs) in enumerate(ols.certificates) if k == kind and t.shape[1]
            and (stage is None or _formed(t, certs[0], stage).any())]
    assert hits
    certificates = list(ols.certificates)
    certificates[hits[0]] = (kind, *tamper(*certificates[hits[0]][1:]))
    return dataclasses.replace(ols, certificates=tuple(certificates))


def _formed(t, pi, stage):
    """Which cut columns have the form that ``stage`` leaves: pi at one
    support vertex (the screen's), at two or more (a pin or a side of the
    support flow), or on the zeros alone (a zero vertex or the zero block)."""
    on = np.count_nonzero(pi * t, axis=0)
    return {"screen": on == 1, "support-cut": on > 1, "zero-cut": on == 0}[stage]


def _without_the_first_column(*block):
    return tuple(a[..., 1:] for a in block)


def _flow_patterns(g):
    """The patterns that neither the screen nor the pin stage decides."""
    decide, out = spectra._pin_stage(g), set()
    for t, rejected, _, _ in spectra._screened_blocks(g):
        rest = t[:, ~rejected]
        out |= set(zip(*rest[:, ~decide(rest)[0]].tolist()))
    return out


class TestOnelap:
    def test_verify_flag(self, capsys, tmp_path):
        gfile = tmp_path / "t.json"
        gfile.write_bytes(serialize_graph(triangle((-1, 1, 1))))
        code, out, _ = run(capsys, "onelap", "--graph", str(gfile), "--verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda_2"] is None  # unbalanced
        # one certificate per scanned pattern: 3^3 patterns up to negation
        assert doc["verified"] == {"pairs": len(doc["pairs"]),
                                   "rejections": 13 - len(doc["pairs"])}
        assert doc["patterns_scanned"] == 13

    def test_verify_adds_only_the_verified_key(self, capsys, p3_file):
        _, plain, _ = run(capsys, "onelap", "--graph", p3_file)
        code, verified, _ = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 0
        doc = json.loads(verified)
        assert doc.pop("verified") == {"pairs": 5, "rejections": 8}
        assert doc == json.loads(plain)

    def test_verify_catches_a_wrongly_rejected_pattern(self, capsys, p3_file, monkeypatch):
        # a max-flow that finds no flow where there is one, on a network with
        # arcs (broken on every network, it would leave no pair at all): the
        # pattern goes missing from the pairs, and its rejection does not check
        real = operators._feasible_flow

        def no_flow(n, arcs, lo, hi):
            flows, side = real(n, arcs, lo, hi)
            return (None, []) if side is None and arcs else (flows, side)

        monkeypatch.setattr(operators, "_feasible_flow", no_flow)
        assert run(capsys, "onelap", "--graph", p3_file)[0] == 0  # unnoticed without --verify
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "certificate of pattern" in err and "failed its check" in err

    def test_verify_catches_a_corrupted_witness(self, capsys, p3_file, monkeypatch):
        # z_uv + 1 on the first edge of every witness the max-flow leaves
        real = spectra._pattern_lambda

        def corrupted(g, f):
            kind, *cols = real(g, f)
            if kind == "witness":
                cols[2] = cols[2].copy()
                cols[2][0] += 1
            return kind, *cols

        monkeypatch.setattr(spectra, "_pattern_lambda", corrupted)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "witness certificate of pattern" in err and "failed its check" in err

    def test_verify_matches_each_pair_with_its_witness(self, capsys, p3_file, monkeypatch):
        real = cli.one_lap_enumerate

        def shifted(g, at_most=None):
            ols = real(g, at_most)
            first, *rest = ols.pairs
            wrong = dataclasses.replace(first, lam=first.lam + 1)
            return dataclasses.replace(ols, pairs=(wrong, *rest))

        monkeypatch.setattr(cli, "one_lap_enumerate", shifted)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "the pairs are not the witnessed eigenpairs" in err

    @pytest.mark.parametrize("tamper", ["z-edge", "z-vertex", "p", "float"])
    def test_verify_catches_a_tampered_witness(self, capsys, p3_file, monkeypatch, tamper):
        # one entry of the first witness column with v0 on its support:
        # z_uv + 1 on v0's edge, z_x + 1 at v0, p + 1, or z_x at v0 as a
        # float, which is no Python int
        real = cli.one_lap_enumerate

        def tampered(g, at_most=None):
            def one_entry(t, p, q, z_edge, z_vertex):
                p, z_edge, z_vertex = p.copy(), z_edge.copy(), z_vertex.copy()
                j = np.flatnonzero(t[0])[0]
                if tamper == "z-edge":
                    z_edge[0, j] += 1
                elif tamper == "z-vertex":
                    z_vertex[0, j] += 1
                elif tamper == "p":
                    p[j] += 1
                else:
                    z_vertex[0, j] = float(z_vertex[0, j])
                return t, p, q, z_edge, z_vertex

            return _tampered(real(g, at_most), "witness", one_entry)

        monkeypatch.setattr(cli, "one_lap_enumerate", tampered)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert ("witness certificate is malformed" if tamper == "float"
                else "witness certificate of pattern") in err

    def test_verify_catches_a_missing_pattern(self, capsys, cut_file, monkeypatch):
        # some patterns meet the max-flow and are rejected there, by cuts
        # that join the screen's and the pin stage's in their block
        real = cli.one_lap_enumerate

        def one_dropped(g, at_most=None):
            flow = _flow_patterns(g)

            def flow_one_dropped(t, pi):
                hit = [f in flow for f in zip(*t.tolist())]
                assert any(hit)
                kept = np.arange(t.shape[1]) != hit.index(True)
                return t[:, kept], pi[:, kept]

            return _tampered(real(g, at_most), "cut", flow_one_dropped)

        monkeypatch.setattr(cli, "one_lap_enumerate", one_dropped)
        code, out, err = run(capsys, "onelap", "--graph", cut_file, "--verify")
        assert code == 1 and out == ""
        assert "do not cover every sign pattern" in err

    def test_verify_catches_a_missing_screened_pattern(self, capsys, p3_file, monkeypatch):
        real = cli.one_lap_enumerate

        def one_dropped(g, at_most=None):
            def first_screened_dropped(t, pi):
                kept = np.arange(t.shape[1]) != _formed(t, pi, "screen").argmax()
                return t[:, kept], pi[:, kept]

            return _tampered(real(g, at_most), "cut", first_screened_dropped, "screen")

        monkeypatch.setattr(cli, "one_lap_enumerate", one_dropped)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "do not cover every sign pattern" in err

    def test_verify_catches_a_pair_screened_out_by_a_wrong_pair(self, capsys, p3_file,
                                                                monkeypatch):
        # (1, 1, 1) is a pair at lambda = 0; marked rejected by the screen's
        # cut at the first vertex, it goes missing from the pairs, and the
        # cut does not check
        real = spectra._screened_blocks

        def forged(g, at_most=None):
            for t, rejected, pi, above in real(g, at_most):
                j = (t.T == (1, 1, 1)).all(axis=1).argmax()
                assert tuple(t[:, j]) == (1, 1, 1) and not rejected[j]
                rejected[j], pi[0, j] = True, 1
                yield t, rejected, pi, above

        monkeypatch.setattr(spectra, "_screened_blocks", forged)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "cut certificate of pattern (1, 1, 1) failed its check" in err

    def test_verify_catches_a_pair_rejected_by_forged_pins(self, capsys, p3_file, monkeypatch):
        # (1, 1, 1) is a pair at lambda = 0; marked rejected as a pin that
        # differs from the support's, with the whole support as the pin, it
        # goes missing from the pairs, and the cut does not check
        real = spectra._pin_stage

        def forged(g):
            decide = real(g)

            def forged_decide(t):
                rejected, pi = decide(t)
                j = (t.T == (1, 1, 1)).all(axis=1)
                if j.any():
                    assert not rejected[j].any()
                    rejected, pi[:, j] = rejected | j, t[:, j]
                return rejected, pi

            return forged_decide

        monkeypatch.setattr(spectra, "_pin_stage", forged)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "cut certificate of pattern (1, 1, 1) failed its check" in err

    @pytest.mark.parametrize("stage", ["screen", "support-cut", "zero-cut", "witness"])
    def test_verify_catches_a_missing_staged_pattern(self, capsys, cut_file, monkeypatch, stage):
        # the first witness, or the first cut column of the stage's form
        real = cli.one_lap_enumerate

        def one_dropped(g, at_most=None):
            if stage == "witness":
                return _tampered(real(g, at_most), stage, _without_the_first_column)

            def dropped(t, pi):
                kept = np.arange(t.shape[1]) != _formed(t, pi, stage).argmax()
                return t[:, kept], pi[:, kept]

            return _tampered(real(g, at_most), "cut", dropped, stage)

        monkeypatch.setattr(cli, "one_lap_enumerate", one_dropped)
        code, out, err = run(capsys, "onelap", "--graph", cut_file, "--verify")
        assert code == 1 and out == ""
        assert "do not cover every sign pattern" in err

    @pytest.mark.parametrize("stage", ["screen", "support-cut", "zero-cut", "witness"])
    def test_verify_catches_a_forged_staged_block(self, capsys, cut_file, monkeypatch, stage):
        # every cut column of the stage's form forged: pi negated (no pi and
        # -pi both check) for the screen and the zero cuts, sgn on the whole
        # support for the support cuts (its demand is 0); or every witness at
        # lambda + 1
        real = cli.one_lap_enumerate
        forgery = {"screen": lambda t, pi: -pi, "support-cut": lambda t, pi: t.astype(pi.dtype),
                   "zero-cut": lambda t, pi: -pi}

        def forge(kind, t, *certs):
            if kind == "witness":
                p, q, *z = certs
                return (p + q, q, *z) if stage == "witness" else certs
            if stage == "witness":
                return certs
            hit = _formed(t, certs[0], stage)
            return (np.where(hit, forgery[stage](t, certs[0]), certs[0]),)

        def forged(g, at_most=None):
            ols = real(g, at_most)
            # the stage leaves some column (_tampered asserts it)
            _tampered(ols, "witness" if stage == "witness" else "cut", lambda *block: block,
                      None if stage == "witness" else stage)
            certificates = tuple((k, t, *forge(k, t, *certs)) for k, t, *certs in ols.certificates)
            return dataclasses.replace(ols, certificates=certificates)

        monkeypatch.setattr(cli, "one_lap_enumerate", forged)
        code, out, err = run(capsys, "onelap", "--graph", cut_file, "--verify")
        assert code == 1 and out == ""
        assert "failed its check" in err

    @pytest.mark.parametrize("which", [0, -1], ids=("first", "last"))
    def test_verify_catches_a_vertex_dropped_from_a_support_cut(self, capsys, cut_file,
                                                                 monkeypatch, which):
        # the side {c, d, e} of (1, 1, 1, 1, -1) less c or less e: the demand
        # of {d, e} or {c, d} is within the capacity of its cut
        real = cli.one_lap_enumerate
        f = (1, 1, 1, 1, -1)

        def dropped(g, at_most=None):
            def one_less(t, pi):
                pi, j = pi.copy(), (t.T == f).all(axis=1).argmax()
                assert tuple(t[:, j]) == f and pi[:, j].tolist() == [0, 0, 1, 1, -1]
                pi[np.flatnonzero(pi[:, j])[which], j] = 0
                return t, pi

            return _tampered(real(g, at_most), "cut", one_less)

        monkeypatch.setattr(cli, "one_lap_enumerate", dropped)
        code, out, err = run(capsys, "onelap", "--graph", cut_file, "--verify")
        assert code == 1 and out == ""
        assert "cut certificate of pattern (1, 1, 1, 1, -1) failed its check" in err

    def test_verify_catches_a_zero_cut_that_wraps_in_int8(self, capsys, p3_file, monkeypatch):
        # pi = -128 where it was -1: abs(-128) is -128 in int8, so a check that
        # took abs in the block's own dtype would pass every column
        real = cli.one_lap_enumerate

        def forged(g, at_most=None):
            ols = real(g, at_most)
            certificates = tuple(
                (k, t, np.where(certs[0] == -1, -128, certs[0]).astype(np.int8))
                if k == "cut" else (k, t, *certs) for k, t, *certs in ols.certificates)
            assert any((pi == -128).any() for k, _, pi, *_ in certificates if k == "cut")
            return dataclasses.replace(ols, certificates=certificates)

        monkeypatch.setattr(cli, "one_lap_enumerate", forged)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "failed its check" in err

    @staticmethod
    def _duplicated(t, pi):
        # the first column twice, in place of the last: as many columns as before
        j = np.r_[0, :t.shape[1] - 1]
        return t[:, j], pi[:, j]

    @staticmethod
    def _entry_two(t, pi):
        # (1, -1, 2): z has no free edge in (1, -1, 1), so its cut still checks
        t = t.copy()
        t[2, (t.T == (1, -1, 1)).all(axis=1).argmax()] = 2
        return t, pi

    @pytest.mark.parametrize("tamper", [
        # a column negated with its pi still checks
        _duplicated, lambda t, pi: (np.hstack((t[:, :1], -t[:, 1:])),
                                    np.hstack((pi[:, :1], -pi[:, 1:]))), _entry_two,
    ], ids=("duplicated", "led-by-minus-one", "entry-two"))
    def test_verify_catches_a_screened_column_off_the_patterns(self, capsys, p3_file,
                                                               monkeypatch, tamper):
        real = cli.one_lap_enumerate

        def tampered(g, at_most=None):
            def checked(t, pi):
                t, pi = tamper(t, pi)
                # so only the coverage check can fail
                assert check_certificates_1lap(g, "cut", t, pi).all()
                return t, pi

            return _tampered(real(g, at_most), "cut", checked)

        monkeypatch.setattr(cli, "one_lap_enumerate", tampered)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert "do not cover every sign pattern" in err

    @pytest.mark.parametrize("argv", [("onelap",), ("onelap", "--verify"), ("spectrum", "--p", "1")])
    def test_empty_graph(self, capsys, tmp_path, argv):
        gfile = tmp_path / "empty.json"
        gfile.write_text('{"vertices": [], "edges": []}')
        code, out, err = run(capsys, *argv, "--graph", str(gfile))
        assert (code, out) == (2, "")
        assert "one_lap_enumerate needs at least one vertex" in err

    def test_reports_screen_survivors(self, capsys, p3_file):
        code, out, _ = run(capsys, "onelap", "--graph", p3_file)
        assert code == 0
        doc = json.loads(out)
        assert "verified" not in doc
        # 3^3 patterns up to negation; the screen drops 5 of them, among
        # them (1, -1, 1): its middle pins lambda = 2, and the support 4/3
        assert (doc["patterns_scanned"], doc["patterns_solved"]) == (13, 8)
        assert doc["pairs"] and all(p["lambda_hi"] == p["lambda"] for p in doc["pairs"])


def _above_tampered(real, tamper):
    """A bounded ``one_lap_enumerate`` whose certificates and pairs
    ``tamper(g, certificates, pairs)`` replaces."""
    def tampered(g, at_most=None):
        ols = real(g, at_most)
        certificates, pairs = tamper(g, list(ols.certificates), list(ols.pairs))
        return dataclasses.replace(ols, certificates=tuple(certificates), pairs=tuple(pairs))

    return tampered


class TestOnelapAtMost:
    """``onelap --at-most P/Q``: the pairs with lambda <= P/Q, every other
    pattern left undecided put "above" it. On the path a - b - c the pairs
    are (1, 1, 1) at 0, (0, 0, 1), (1, 0, -1) and (1, 0, 0) at 1 and
    (0, 1, 0) at 2. At 1/2 the screen rejects 5 of the 13 patterns, 5 lie
    above, and 3 reach the pin stage, where (1, 1, 1) alone is a pair;
    lambda_2 = 1 of this balanced graph lies above the bound."""

    def test_bounded_output(self, capsys, p3_file):
        _, plain, _ = run(capsys, "onelap", "--graph", p3_file)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", "--at-most", "1/2")
        assert (code, err) == (0, "")
        doc, full = json.loads(out), json.loads(plain)
        assert doc.pop("at_most") == "1/2"
        assert doc.pop("verified") == {"pairs": 1, "rejections": 7, "above": 5}
        assert doc["pairs"] == [p for p in full["pairs"] if Fraction(p["lambda"]) <= Fraction(1, 2)]
        assert {k: doc[k] for k in ("eigenvalues", "lambda_1", "lambda_2", "smallest_positive")} == {
            "eigenvalues": ["0"], "lambda_1": "0", "lambda_2": None, "smallest_positive": None}
        assert (doc["patterns_scanned"], doc["patterns_solved"]) == (13, 3)

    @pytest.mark.parametrize("bound, values", [("1", ["0", "1"]), ("2.5", ["0", "1", "2"]),
                                               ("-0.5", []), ("0.99", ["0"]), (" 1e0 ", ["0", "1"])])
    def test_bound_is_exact(self, capsys, p3_file, bound, values):
        code, out, _ = run(capsys, "onelap", "--graph", p3_file, "--verify", f"--at-most={bound}")
        assert code == 0
        doc = json.loads(out)
        assert doc["at_most"] == str(Fraction(bound)) and doc["eigenvalues"] == values
        assert doc["lambda_1"] == (values[0] if values else None)
        verified = doc["verified"]
        assert verified["pairs"] + verified["rejections"] + verified["above"] == 13

    # the last three: 10**9999 and 10**-99999 would take Fraction minutes to
    # build, and 5000 digits are past Python's int parsing limit
    @pytest.mark.parametrize("bound", ["abc", "nan", "NaN", "inf", "-inf", "1/0", "", "1/2/3",
                                       "0x10", "1/-2", "2/0.5", "1e9999", "1e-99999", "1" * 5000],
                             ids=lambda b: b if len(b) < 10 else "5000-digits")
    def test_malformed_bound_exits_2(self, capsys, p3_file, bound):
        with pytest.raises(ParseError):
            cli._bound(bound)
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", f"--at-most={bound}")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: --at-most") and err.count("\n") == 1

    @pytest.mark.parametrize("unit", ["p", "q"])
    def test_bound_moved_by_one_unit(self, capsys, p3_file, monkeypatch, unit):
        # 1/2 as 2/2 or 1/1 on every above column: those at lambda = 1 are no
        # longer above it (a q = b p)
        def moved(g, certificates, pairs):
            for i, (kind, t, *certs) in enumerate(certificates):
                if kind == "above":
                    p, q = certs
                    certificates[i] = (kind, t, p + (unit == "p"), q - (unit == "q"))
                    ok = check_certificates_1lap(g, *certificates[i])
                    assert not ok.all() and ok.any()
            return certificates, pairs

        monkeypatch.setattr(cli, "one_lap_enumerate", _above_tampered(cli.one_lap_enumerate, moved))
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", "--at-most", "1/2")
        assert code == 1 and out == ""
        assert "above certificate of pattern" in err and "failed its check" in err

    def test_above_names_another_bound(self, capsys, p3_file, monkeypatch):
        # (0, 1, 0) at lambda = 2 is above 2/2 too: its column checks, but
        # it names a bound other than the one asked for
        def moved(g, certificates, pairs):
            for i, (kind, t, *certs) in enumerate(certificates):
                if kind == "above":
                    p, q = certs
                    certificates[i] = (kind, t, p + (t.T == (0, 1, 0)).all(axis=1), q)
                    assert check_certificates_1lap(g, *certificates[i]).all()
            return certificates, pairs

        monkeypatch.setattr(cli, "one_lap_enumerate", _above_tampered(cli.one_lap_enumerate, moved))
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", "--at-most", "1/2")
        assert code == 1 and out == ""
        assert err == "an above certificate names a bound other than 1/2\n"

    def test_a_pair_filed_as_above(self, capsys, p3_file, monkeypatch):
        # (1, 1, 1), the pair at lambda = 0 <= 1/2, moved from its witness
        # into the above block, its pair dropped: its column does not check
        def filed(g, certificates, pairs):
            k = next(i for i, c in enumerate(certificates) if c[0] == "witness" and c[1].shape[1])
            kind, t, *_ = certificates[k]
            assert t.T.tolist() == [[1, 1, 1]]
            certificates[k] = (kind, *(a[..., :0] for a in certificates[k][1:]))
            i = next(i for i, c in enumerate(certificates) if c[0] == "above")
            _, above, p, q = certificates[i]
            certificates[i] = ("above", np.hstack((above, t)), np.append(p, p[:1]),
                               np.append(q, q[:1]))
            return certificates, [pr for pr in pairs if pr.f != (1, 1, 1)]

        monkeypatch.setattr(cli, "one_lap_enumerate", _above_tampered(cli.one_lap_enumerate, filed))
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", "--at-most", "1/2")
        assert code == 1 and out == ""
        assert err == "above certificate of pattern (1, 1, 1) failed its check\n"

    def test_an_above_column_dropped(self, capsys, p3_file, monkeypatch):
        def dropped(g, certificates, pairs):
            i = next(i for i, c in enumerate(certificates) if c[0] == "above" and c[1].shape[1])
            certificates[i] = ("above", *_without_the_first_column(*certificates[i][1:]))
            return certificates, pairs

        monkeypatch.setattr(cli, "one_lap_enumerate", _above_tampered(cli.one_lap_enumerate,
                                                                       dropped))
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", "--at-most", "1/2")
        assert code == 1 and out == ""
        assert "do not cover every sign pattern" in err

    def test_above_without_a_bound(self, capsys, p3_file, monkeypatch):
        # a bounded result passed off as the unbounded one: its above blocks
        # name a bound that was not asked for, and its pairs are not all
        real = cli.one_lap_enumerate
        monkeypatch.setattr(cli, "one_lap_enumerate", lambda g, at_most=None: real(g, Fraction(1, 2)))
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert code == 1 and out == ""
        assert err == "an above certificate names a bound other than None\n"

    def test_a_pair_above_the_bound(self, capsys, p3_file, monkeypatch):
        # the unbounded result passed off as the bounded one: every
        # certificate checks and covers, but pairs at 1 and 2 exceed 1/2
        real = cli.one_lap_enumerate
        monkeypatch.setattr(cli, "one_lap_enumerate", lambda g, at_most=None: real(g))
        code, out, err = run(capsys, "onelap", "--graph", p3_file, "--verify", "--at-most", "1/2")
        assert code == 1 and out == ""
        assert err == "the pairs are not the witnessed eigenpairs\n"

    def test_no_bound_no_above_block(self, capsys, p3_file):
        ols = cli.one_lap_enumerate(parse_graph(Path(p3_file).read_bytes()))
        assert {kind for kind, *_ in ols.certificates} == {"cut", "witness"}
        _, out, _ = run(capsys, "onelap", "--graph", p3_file, "--verify")
        assert "at_most" not in json.loads(out) and "above" not in json.loads(out)["verified"]


class TestTransform:
    def test_remove_node_roundtrip(self, capsys, p3_file, tmp_path):
        out_file = tmp_path / "out.json"
        code, out, _ = run(capsys, "transform", "--graph", p3_file,
                           "--remove-node", "v1", "-o", str(out_file))
        assert code == 0
        g2 = parse_graph(out_file.read_bytes())
        assert g2.n == 2 and g2.edges == ()
        assert g2.kappa == (1.0, 1.0)

    def test_missing_surgery_flag(self, capsys, p3_file):
        code, _, err = run(capsys, "transform", "--graph", p3_file)
        assert code == 2
        assert "remove" in err

    @pytest.mark.parametrize("edge", ["v0", "v0,v1,v2"])
    def test_remove_edge_needs_two_ids(self, capsys, p3_file, tmp_path, edge):
        ffile = tmp_path / "f.json"
        ffile.write_text('{"values": {"v0": 1, "v1": -1, "v2": 1}}')
        code, out, err = run(capsys, "transform", "--graph", p3_file, "--function", str(ffile),
                             "--remove-edge", edge)
        assert code == 2 and out == ""
        assert "--remove-edge" in err and "Traceback" not in err


class TestExtremal:
    def test_certified_extremes(self, capsys, p3_file):
        code, out, _ = run(capsys, "extremal", "--graph", p3_file, "--p", "3", "--restarts", "2")
        doc = json.loads(out)
        assert code == 0 and doc["converged_min"] and doc["converged_max"]
        assert doc["lambda_min"] == pytest.approx(0.0, abs=1e-9)
        assert sorted(doc) == ["converged_max", "converged_min", "f_max", "f_min", "lambda_max",
                               "lambda_min", "p", "residual_max", "residual_min"]

    @pytest.mark.parametrize("flags", [
        ("--p", "inf"), ("--p=-inf",), ("--p", "nan"), ("--p", "1"),
        ("--p", "2", "--restarts", "-1"), ("--p", "2", "--seed", "-1"),
    ])
    def test_bad_p_or_restarts_exit_2(self, capsys, p3_file, flags):
        code, out, err = run(capsys, "extremal", "--graph", p3_file, *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_empty_graph_exits_2(self, capsys, tmp_path):
        gfile = tmp_path / "empty.json"
        gfile.write_text('{"vertices": [], "edges": []}')
        code, out, err = run(capsys, "extremal", "--graph", str(gfile), "--p", "2")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestVerify:
    def test_small_suite(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "trials": 3,
                                   "checks": ["count-identity"]}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_p1_is_not_a_vacuous_pass(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 3, "p_list": [1.0],
                                   "checks": ["nodal-bounds", "cheeger-bounds"]}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        doc = json.loads(out)
        assert code == 0 and doc["ok"]
        for a in doc["aggregates"].values():
            assert a["checked"] + a["skipped"] == 3
            assert list(a["skip_reasons"]) == ["interior eigenvalues uncertified for p=1.0"]

    @pytest.mark.parametrize("cfg", [
        # degenerate eigenvalues (r = 2) with a zero entry in the basis
        # eigenvector, where "dual-strong-upper-mult" used to fail
        {"seed": 15, "trials": 3, "n_min": 4, "n_max": 7, "density": 0.4,
         "models": ["all-negative", "all-positive"], "p_list": [2.0], "mu_mode": "degree"},
        {"seed": 17, "trials": 3, "n_min": 4, "n_max": 7, "density": 0.9,
         "models": ["uniform", "balanced"], "p_list": [2.0, 3.0], "mu_mode": "degree"},
    ])
    def test_nodal_bounds_on_degenerate_eigenvalues(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "checks": ["nodal-bounds"]}))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        agg = json.loads(out)["aggregates"]["nodal-bounds"]
        assert code == 0
        assert agg["checked"] > 0 and agg["failed"] == 0

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        json.dumps({"trials": 2, "checks": ["count-identity"], "trails": 3}),
        json.dumps({"trials": 0}),
        json.dumps({"trials": -3, "p_list": [0.5]}),
        json.dumps({"trials": 2, "p_list": [2.0, 0.5]}),
        json.dumps({"trials": 2, "mu_mode": "volume"}),
        json.dumps({"trials": "2"}),
        json.dumps({"models": 3}),
        json.dumps({"trials": 2, "p_list": [2.0, float("inf")], "checks": ["perron-frobenius"]}),
        json.dumps({"trials": 2, "p_list": [float("nan")], "checks": ["perron-frobenius"]}),
        '{"trials": 2, "tol": Infinity, "checks": ["interlacing-edge"]}',
        json.dumps({"trials": 2, "tol": True, "checks": ["interlacing-edge"]}),
        json.dumps({"trials": 2, "density": True, "checks": ["count-identity"]}),
        json.dumps({"seed": True, "trials": 1, "checks": ["count-identity"]}),
        json.dumps({"seed": -1, "trials": 1, "checks": ["count-identity"]}),
        json.dumps({"seed": 1.5, "trials": 1, "checks": ["count-identity"]}),
        '{"models": %s}' % ("[" * 10**5 + "]" * 10**5),
    ])
    def test_bad_config_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "parse error" in err


class TestJsonOutput:
    """Every ``--format json`` document is json.dumps(doc, indent=2, sort_keys=True)."""

    @pytest.fixture
    def files(self, tmp_path):
        g = random_signed_graph(6, 0.7, seed=3, mu_mode="degree", connected=True)
        f = spectra.spectrum_p2(g).vectors[:, 2].copy()
        f[1] = 0.0
        paths = {"g": tmp_path / "g.json", "f": tmp_path / "f.json", "cfg": tmp_path / "cfg.json"}
        paths["g"].write_bytes(serialize_graph(g))
        paths["f"].write_bytes(serialize_function(f, g))
        paths["cfg"].write_text(json.dumps({"seed": 2, "trials": 2, "n_min": 4, "n_max": 5,
                                            "p_list": [2.0, 3.0]}))
        u, v, _, _ = g.edges[-1]  # away from the zero at vertex 1
        return {key: str(p) for key, p in paths.items()} | {
            "edge": f"{g.ids[u]},{g.ids[v]}", "node": g.ids[4], "out": str(tmp_path / "o.json")}

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--graph", "{g}"),
        ("spectrum", "--graph", "{g}", "--p", "1"),
        ("extremal", "--graph", "{g}", "--p", "3", "--restarts", "1"),
        ("nodal", "--graph", "{g}", "--function", "{f}", "--dual"),
        ("cheeger", "--graph", "{g}", "--k", "2"),
        ("onelap", "--graph", "{g}", "--verify"),
        ("onelap", "--graph", "{g}", "--verify", "--at-most", "3/2"),
        ("transform", "--graph", "{g}", "--remove-node", "{node}", "-o", "{out}"),
        ("transform", "--graph", "{g}", "--remove-edge", "{edge}", "--function", "{f}",
         "-o", "{out}"),
        ("verify", "--config", "{cfg}"),
    ], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_stdout_is_json_dumps(self, capsys, files, argv):
        code, out, err = run(capsys, *(a.format(**files) for a in argv))
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestRandomAndErrors:
    def test_random_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "random", "--n", "5", "--seed", "9")
        code2, out2, _ = run(capsys, "random", "--n", "5", "--seed", "9")
        assert code1 == code2 == 0 and out1 == out2
        g = parse_graph(out1)
        assert g.n == 5

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "random", "--n", "5", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph", "/nope/missing.json")
        assert code == 2
        assert "not found" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--graph", "{dir}"),
        ("verify", "--config", "{dir}"),
        ("transform", "--graph", "{graph}", "--remove-node", "v1", "-o", "{dir}"),
        ("random", "--n", "3", "-o", "{dir}"),
        ("nodal", "--graph", "{graph}", "--function", "{missing}"),
    ], ids=("graph-dir", "config-dir", "transform-output-dir", "random-output-dir",
            "missing-function"))
    def test_unusable_path_exits_2(self, capsys, tmp_path, p3_file, argv):
        # a path that cannot be opened as asked: one error line, no traceback
        paths = {"dir": str(tmp_path), "graph": p3_file, "missing": str(tmp_path / "nope.json")}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("file not found: " if "{missing}" in argv else "Is a directory: ")

    def test_parse_error(self, capsys, tmp_path):
        # malformed, and nested past the decoder's recursion limit
        bad = tmp_path / "bad.json"
        for text in ("{not json", '{"vertices": %s}' % ("[" * 10**5 + "]" * 10**5)):
            bad.write_text(text)
            code, out, err = run(capsys, "spectrum", "--graph", str(bad))
            assert code == 2 and out == ""
            assert "parse error" in err and "Traceback" not in err

    @pytest.mark.parametrize("vertex, edge", [
        (',"mu":"x"', ""),
        (',"kappa":NaN', ""),
        (',"kappa":-Infinity', ""),
        ("", ',"w":1e309'),
        ("", ',"sigma":true'),
    ])
    def test_bad_graph_values_exit_2(self, capsys, tmp_path, vertex, edge):
        gfile = tmp_path / "g.json"
        gfile.write_text('{"vertices":[{"id":"a"%s},{"id":"b"}],'
                         '"edges":[{"u":"a","v":"b"%s}]}' % (vertex, edge))
        code, out, err = run(capsys, "spectrum", "--graph", str(gfile))
        assert code == 2 and out == ""
        assert "parse error" in err

    def test_bad_usage(self, capsys):
        assert run(capsys, "spectrum")[0] == 2


class TestMalformedFunctionExit2:
    """A function document that the command cannot take exits 2 with one
    error line, no output and no traceback."""

    @pytest.mark.parametrize("argv, values", [
        (("nodal",), '{"v0": 0, "v1": 0, "v2": 0}'),
        (("nodal",), '{"v0": 1, "v1": NaN, "v2": 1}'),
        (("nodal",), '{"v0": 1, "v1": 0, "v2": 1, "zz": 1}'),
        (("nodal",), '{"v0": 1, "v1": 0}'),
        (("transform", "--remove-edge", "v0,v1"), '{"v0": 1, "v1": 0, "v2": -1}'),
        (("transform", "--remove-edge", "v0,v1"), '{"v0": 1, "v1": Infinity, "v2": -1}'),
        (("transform", "--remove-node", "v1"), '{"v0": 1, "v1": 0.5, "v2": -1}'),
        (("nodal",), "[" * 10**5 + "]" * 10**5),
    ], ids=("nodal-zero", "nodal-nan", "nodal-unknown-vertex", "nodal-missing-vertex",
            "edge-zero-endpoint", "edge-inf", "node-nonzero-at-vertex", "nodal-nested"))
    def test_exit_2(self, capsys, p3_file, tmp_path, argv, values):
        ffile = tmp_path / "f.json"
        ffile.write_text('{"values": %s}' % values)
        code, out, err = run(capsys, argv[0], "--graph", p3_file, "--function", str(ffile),
                             *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith(("error: ", "parse error: ")) and "Traceback" not in err
        assert err.count("\n") == 1


class TestParserBuiltOnce:
    def test_reused_parser_answers_as_fresh_ones(self, capsys, p3_file):
        calls = [("spectrum", "--graph", p3_file), ("spectrum", "--bogus", "1"), ("--help",),
                 ("spectrum", "--graph", p3_file, "--format", "text")]
        cli.build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in reused] == [0, 2, 0, 0]
        assert reused == fresh
        assert reused[0][1] and reused[2][1].startswith("usage: sgspec")

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = "import sgspec.cli as c; print(c.build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "0"
