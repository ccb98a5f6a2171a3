import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinquad.cli import main
from pinquad.cochains import Cochain, INT, QMODZ, Z2, Z4
from pinquad.complexes import build_complex, face_closure
from pinquad.errors import NotPseudoManifold, ParseError, PinquadError
from pinquad.fixtures import CATALOG_NAMES, catalog, fixture_text, raw_mobius_pair
from pinquad.identities import random_complex
from pinquad.textio import (
    complex_from_text,
    content_hash,
    format_cochain,
    format_complex,
    integer,
    manifold_from_text,
    parse_cochain,
    parse_complex,
)


class TestComplexFormat:
    def test_round_trip_fixture(self, torus):
        text = format_complex(torus.complex, orientation=torus.orientation)
        m = manifold_from_text(text)
        assert m.complex.f_vector() == torus.complex.f_vector()
        assert m.orientable

    def test_round_trip_of_mixed_dimensions(self):
        rng = random.Random(8)
        mixed = 0
        for _ in range(400):
            x = random_complex(rng)
            if face_closure(x.simplices(x.dim)) == set(x.all_simplices()):
                continue  # pure: every maximal simplex is top-dimensional
            mixed += 1
            text = format_complex(x)
            listed = [tuple(map(int, line.split()[1:])) for line in text.splitlines()
                      if line.startswith("simplex")]
            assert len({len(s) for s in listed}) > 1
            assert not any(set(a) < set(b) for a in listed for b in listed)
            for y in (build_complex(listed), complex_from_text(text)):
                assert y.simplices_by_dim == x.simplices_by_dim and y.rank == x.rank
            with pytest.raises(NotPseudoManifold):
                manifold_from_text(text, require_full=False, require_ordering=False)
        assert mixed >= 15

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_fixture_text_is_accepted(self, name):
        # the writer lists each simplex once and only boundary auto, which
        # the parser's refusals of repeated and mixed lines must let through
        m = catalog(name)
        x = complex_from_text(fixture_text(name))
        assert x.simplices_by_dim == m.complex.simplices_by_dim and x.rank == m.complex.rank

    def test_rank_lines(self):
        text = "dim 1\nrank 0 5\nrank 1 2\nsimplex 0 1\nboundary auto\n"
        x = complex_from_text(text)
        assert x.simplices(1) == ((1, 0),)  # rank order, not id order

    def test_comments_and_blank_lines(self):
        text = "# a circle\n\ndim 1\nsimplex 0 1\nsimplex 1 2 # last\nsimplex 0 2\n"
        x = complex_from_text(text)
        assert x.f_vector() == (3, 3)

    def test_explicit_boundary_must_match(self):
        good = "dim 2\nsimplex 0 1 2\nboundary 0 1\nboundary 1 2\nboundary 0 2\n"
        m = manifold_from_text(good, require_full=False, require_ordering=False)
        assert not m.closed
        bad = "dim 2\nsimplex 0 1 2\nboundary 0 1\n"
        from pinquad.errors import NotPseudoManifold

        with pytest.raises(NotPseudoManifold):
            manifold_from_text(bad, require_full=False, require_ordering=False)

    def test_malformed_line_names_line(self):
        text = "dim 2\nsimplex 0 1 2\nsimplex 0 one 2\n"
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert "line 3" in str(err.value)

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_complex("vertex 0\n")

    def test_declared_dim_checked(self):
        with pytest.raises(ParseError):
            complex_from_text("dim 3\nsimplex 0 1 2\n")

    @pytest.mark.parametrize("text, line", [
        ("dim 1\nsimplex 0 1\nboundary 7\n", 3),
        ("boundary 0 5\nsimplex 0 1\n", 1),
        ("dim 1\nsimplex 0 1\norient 0 9 +1\n", 3),
        # a line that names no vertex at all
        ("simplex\n", 1),
        ("dim 1\nsimplex 0 1\nboundary\n", 3),
        ("simplex 0 1\nsimplex 1 2\nboundary\n", 3),
        ("dim 1\nsimplex 0 1\norient +1\n", 3),
        # a rank line for a vertex in no simplex, before or after the simplices
        ("dim 1\nsimplex 0 1\nrank 7 0\n", 3),
        ("rank 0 0\nrank 5 1\nsimplex 0 1\n", 2),
    ])
    def test_unknown_vertex_names_its_line(self, text, line):
        with pytest.raises(ParseError) as info:
            manifold_from_text(text)
        assert info.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("dim 1\nsimplex 0 1\ndim 1\n", 3),
        ("rank 0 1\nsimplex 0 1\nrank 0 1\n", 3),
        ("rank 0 1\nrank 1 0\nrank 0 2\nsimplex 0 1\n", 3),
        ("dim 2\nsimplex 0 1 2\norient 0 1 2 +1\norient 0 1 2 +1\n", 4),
        ("dim 2\nsimplex 0 1 2\norient 0 1 2 +1\norient 2 0 1 -1\n", 4),
        ("dim 2 3\nsimplex 0 1 2\n", 1),
        ("simplex 0 1\nrank 0 1 2\n", 2),
        ("dim 1\nsimplex 0 1\nsimplex 1 2\nsimplex 0 1\n", 4),
        ("dim 1\nsimplex 0 1\nsimplex 1 2\nsimplex 1 0\n", 4),
        ("dim 1\nsimplex 0 1\nsimplex 1 2\nboundary 0\nboundary 0\nboundary 2\n", 5),
        ("dim 1\nsimplex 0 1\nboundary auto\nboundary auto\n", 4),
        ("dim 1\nsimplex 0 1\nsimplex 1 2\nboundary auto\nboundary 0\nboundary 2\n", 5),
        ("dim 1\nsimplex 0 1\nsimplex 1 2\nboundary 0\nboundary 2\nboundary auto\n", 6),
    ], ids=["dim-twice", "rank-twice", "rank-twice-apart", "orient-twice",
            "orient-twice-reordered", "dim-extra-field", "rank-extra-field", "simplex-twice",
            "simplex-twice-reordered", "boundary-twice", "boundary-auto-twice",
            "explicit-after-auto", "auto-after-explicit"])
    def test_repeated_or_overlong_line_names_its_line(self, text, line):
        # each was once accepted, the later line overwriting or repeating
        # the earlier (explicit boundary lines overriding boundary auto) or
        # its extra fields ignored
        with pytest.raises(ParseError) as info:
            parse_complex(text)
        assert info.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("dim 1\nsimplex -1 0\n", 2),
        ("dim 1\nsimplex 0 1\nboundary -1\n", 3),
        ("dim 1\nsimplex 0 1\norient 0 -1 +1\n", 3),
        ("rank -2 0\ndim 1\nsimplex 0 1\n", 1),
    ], ids=["simplex", "boundary", "orient", "rank"])
    def test_negative_vertex_names_its_line(self, text, line):
        # a negative vertex would collide with the shifted vertices of a
        # disjoint union: -1 + (max + 1) is the other complex's top vertex
        with pytest.raises(ParseError) as info:
            parse_complex(text)
        assert info.value.line == line and "negative" in str(info.value)


class TestCochainFormat:
    def test_round_trip_all_rings(self, rp2):
        x = rp2.complex
        cases = [
            Cochain(x, 1, Z2, {(0, 1): 1, (2, 3): 1}),
            Cochain(x, 1, Z4, {(0, 1): 3}),
            Cochain(x, 1, INT, {(0, 1): -2}),
            Cochain(x, 1, QMODZ, {(0, 1): Fraction(3, 4)}),
        ]
        for c in cases:
            back = parse_cochain(format_cochain(c), x)
            assert back == c

    def test_header_required(self, rp2):
        with pytest.raises(ParseError):
            parse_cochain("0 1 -> 1\n", rp2.complex)

    def test_bad_value(self, rp2):
        with pytest.raises(ParseError):
            parse_cochain("cochain Z2 1\n0 1 -> x\n", rp2.complex)

    @pytest.mark.parametrize("text, line", [
        ("cochain Z2 x\n", 1),
        ("cochain Z2 1\n0 1 -> 1 -> 2\n", 2),
        ("cochain Z2 1\n0 99 -> 1\n", 2),
        ("cochain Z2 1\n0 1 3 -> 1\n", 2),
        ("cochain Z2 1\n1 0 -> 1\n", 2),
        ("cochain Z2 1\n0 1 -> 1\ncochain Z2 2\n", 3),
        ("cochain QmodZ 1\n0 1 -> 1e5\n", 2),
        ("cochain QmodZ 1\n0 1 -> 0.5\n", 2),
        # integers are a sign and ASCII digits (TestStrictIntegers)
        ("cochain Z2 0_1\n", 1),
        ("cochain Z4 1\n0 1 -> 1_1\n", 2),
        ("cochain Z2 1\n0_0 1 -> 1\n", 2),
        ("cochain Int 1\n0 1 -> \u0663\n", 2),
        ("cochain Z2 1\n0 1 -> \uff11\n", 2),
        # a simplex listed twice, even with another value
        ("cochain Z2 1\n0 1 -> 1\n0 1 -> 0\n", 3),
    ])
    def test_malformed_input_names_its_line(self, rp2, text, line):
        with pytest.raises(ParseError) as info:
            parse_cochain(text, rp2.complex)
        assert info.value.line == line


class TestStrictIntegers:
    """Every integer of the text formats and of the command line is an
    optional sign and ASCII digits, with spaces around it allowed as int()
    allows them; int() alone also takes underscores and other scripts'
    digits.  The malformed cochain lines are in TestCochainFormat."""

    @pytest.mark.parametrize("text", ["1_1", "\u0663", "\uff13", "", " ", "+", "1 2",
                                      "--1", "0x1", "1.0", "1e2"])
    def test_reader_refuses(self, text):
        with pytest.raises(ValueError):
            integer(text)

    @pytest.mark.parametrize("text", ["0", "7", "-3", "+1", "-0", "007", " 1", "1 ",
                                      "\t-3\n", "123456789012345678901234567890"])
    def test_reader_agrees_with_int(self, text):
        assert integer(text) == int(text)

    @pytest.mark.parametrize("text, line", [
        ("dim \u0662\nsimplex 0 1 2\n", 1),
        ("rank 0 1_0\nsimplex 0 1\n", 1),
        ("dim 2\nsimplex 0 1 2_0\n", 2),
        ("simplex 0 1\nboundary 0_0\n", 2),
        ("simplex 0 1\norient 0 \uff11 +1\n", 2),
    ])
    def test_complex_refuses(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_complex(text)
        assert info.value.line == line

    @pytest.mark.parametrize("argv, bad", [
        (["quad", "negate", "--fixture", "rp2", "--values", "1,3,\u0663"], "\u0663"),
        (["cohomology", "--fixture", "rp2", "-k", "1_1"], "1_1"),
        (["ggroup", "--fixture", "rp2", "-n", "\u0662"], "\u0662"),
        (["quad", "verify", "--fixture", "rp2", "--seed", "1_0"], "1_0"),
        (["quad", "verify", "--fixture", "rp2", "--trials", "\uff13"], "\uff13"),
        (["ggroup", "--fixture", "rp2", "--budget-log2", "1_0"], "1_0"),
        (["identities", "--seed", "\uff13"], "\uff13"),
    ])
    def test_cli_refuses(self, argv, bad, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if "error:" in l]
        assert len(errors) == 1 and repr(bad) in errors[0]

    def test_valid_input_reads_as_before(self, rp2, capsys):
        """Signs, leading zeros and spaces around option values and --values
        items still parse."""
        c = parse_cochain("cochain Z4 +1\n+0 01 -> -1\n", rp2.complex)
        assert c == Cochain(rp2.complex, 1, Z4, {(0, 1): 3})
        spec = parse_complex("dim +2\nrank 0 00\nsimplex 0 1 +2\n")
        assert (spec.dim, spec.rank, spec.maximal) == (2, {0: 0}, [(0, 1, 2)])
        for values in ("0,2", " 0 , 2 "):
            assert main(["quad", "negate", "--fixture", "torus", "--values", values]) == 0
        assert main(["cohomology", "--fixture", "rp2", "-k", "+1"]) == 0
        assert main(["cohomology", "--fixture", "rp2", "-k", " 1 "]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["-Q values (0, 2)"] * 2 + ["dim H^1(M) = 1"] * 2
        padded = ["quad", "verify", "--fixture", "rp2", "--format", "jsonl"]
        assert main(padded + ["--trials", "3", "--seed", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(padded + ["--trials", " 3", "--seed", "1 "]) == 0
        assert capsys.readouterr().out == plain


_cochain_lines = st.text(alphabet="0123456789 -> /x#e.", max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.builds("cochain {} {}\n{}".format,
              st.sampled_from(["Z2", "Z4", "Int", "QmodZ", "Z3"]),
              st.text(alphabet="-012 x", max_size=3),
              st.lists(_cochain_lines, max_size=4).map("\n".join)),
))
def test_parse_cochain_raises_only_parse_errors(rp2, text):
    try:
        c = parse_cochain(text, rp2.complex)
    except ParseError:
        return
    assert isinstance(c, Cochain)


_vertices = st.lists(st.integers(-1, 4).map(str), max_size=4).map(" ".join)
_complex_lines = st.one_of(
    st.builds("simplex {}".format, _vertices),
    st.builds("boundary {}".format, st.one_of(st.just("auto"), _vertices)),
    st.builds("orient {} {}".format, _vertices, st.sampled_from(["+1", "-1", "x"])),
    st.builds("dim {}".format, st.integers(-1, 3)),
    st.builds("rank {} {}".format, st.integers(0, 4), st.integers(0, 4)),
    st.text(alphabet="dimrankxsplbo0123 -+#", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_complex_lines, max_size=8).map("\n".join)))
def test_complex_parsers_raise_only_typed_errors(text):
    """Malformed text is a ParseError; well-formed text that is no manifold
    fails validation with another PinquadError."""
    try:
        parse_complex(text)
    except ParseError:
        return
    try:
        manifold_from_text(text)
    except PinquadError:
        pass


class TestCli:
    def test_info_text(self, capsys):
        assert main(["info", "--fixture", "rp2"]) == 0
        out = capsys.readouterr().out
        assert "(6, 15, 10)" in out and "nonorientable" in out

    def test_info_jsonl_hash_stable(self, capsys):
        assert main(["info", "--fixture", "torus", "--format", "jsonl"]) == 0
        first = capsys.readouterr().out
        assert main(["info", "--fixture", "torus", "--format", "jsonl"]) == 0
        second = capsys.readouterr().out
        assert first == second
        record = json.loads(first)
        assert record["f_vector"] == [7, 21, 14]
        assert record["hash"] == content_hash(fixture_text("torus"))

    def test_cohomology(self, capsys):
        assert main(["cohomology", "--fixture", "rp2", "-k", "1"]) == 0
        assert "= 1" in capsys.readouterr().out
        assert main(["cohomology", "--fixture", "annulus", "-k", "1", "--rel"]) == 0
        assert "= 1" in capsys.readouterr().out
        assert main(["cohomology", "--fixture", "sphere3", "-k", "2"]) == 0
        assert "= 0" in capsys.readouterr().out

    def test_quad_enumerate_rp2(self, capsys):
        assert main(["quad", "enumerate", "--fixture", "rp2",
                     "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [json.loads(l)["values"] for l in lines]
        assert values == [[1], [3]]

    def test_quad_brown_klein(self, capsys):
        assert main(["quad", "brown", "--fixture", "klein",
                     "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert sorted(record["betas"]) == [0, 0, 2, 6]

    def test_quad_verify_torus(self, capsys):
        assert main(["quad", "verify", "--fixture", "torus",
                     "--trials", "50", "--seed", "7"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_quad_eval_with_file(self, tmp_path, capsys, rp2):
        solver_basis = catalog("rp2")
        from pinquad.cochains import CohomologySolver

        (x,) = CohomologySolver(rp2.pair, 1).basis
        path = tmp_path / "x.cochain"
        path.write_text(format_cochain(x))
        assert main(["quad", "eval", "--fixture", "rp2", "--values", "1",
                     "--cochain", str(path), "--format", "jsonl"]) == 0
        assert json.loads(capsys.readouterr().out)["value_z4"] == 1

    def test_quad_negate_and_boundary(self, capsys):
        assert main(["quad", "negate", "--fixture", "rp2", "--values", "1"]) == 0
        assert "(3,)" in capsys.readouterr().out
        assert main(["quad", "boundary", "--fixture", "disk2", "--values", ""]) == 0
        assert "(0,)" in capsys.readouterr().out

    def test_ggroup_engines_agree(self, capsys):
        for fixture, profile in (("mobius", "Z/4"), ("annulus", "Z/2 + Z/2")):
            for engine in ("formula", "bruteforce"):
                assert main(["ggroup", "--fixture", fixture,
                             "--engine", engine]) == 0
                assert profile in capsys.readouterr().out

    def test_identities_ok_and_mutated(self, capsys):
        assert main(["identities", "--trials", "25", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["identities", "--trials", "40", "--seed", "3",
                     "--suites", "coboundary,suspension_shifts_cup",
                     "--mutate-signs"]) == 2

    def test_zero_trials_exits_zero(self, capsys):
        assert main(["identities", "--trials", "0"]) == 0

    def test_parse_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cpx"
        bad.write_text("simplex 0 one 2\n")
        assert main(["info", "--complex", str(bad)]) == 1

    def test_missing_file_is_exit_1(self):
        assert main(["info", "--complex", "/nonexistent/x.cpx"]) == 1

    def test_complex_file_workflow(self, tmp_path, capsys, klein):
        path = tmp_path / "klein.cpx"
        path.write_text(format_complex(klein.complex))
        assert main(["info", "--complex", str(path)]) == 0
        assert "(9, 27, 18)" in capsys.readouterr().out

    def test_pair_file_workflow(self, tmp_path, capsys, mobius):
        path = tmp_path / "mobius.cpx"
        path.write_text(format_complex(mobius.complex))
        assert main(["cohomology", "--pair", str(path), "-k", "1", "--rel"]) == 0
        assert "= 1" in capsys.readouterr().out
        assert main(["ggroup", "--pair", str(path), "-n", "2"]) == 0
        assert "Z/4" in capsys.readouterr().out

    def test_spin_mode(self, capsys):
        assert main(["quad", "enumerate", "--fixture", "torus",
                     "--mode", "spin", "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(v in (0, 2) for l in lines for v in json.loads(l)["values"])

    def test_spin_on_nonorientable_is_exit_2(self, capsys):
        assert main(["quad", "enumerate", "--fixture", "rp2",
                     "--mode", "spin"]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pinquad.cli", "info", "--fixture", "sphere2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "(4, 6, 4)" in proc.stdout


class TestCliMalformedInput:
    """Malformed values, cochains and complexes, and paths that cannot be read,
    end in one error line and exit 1."""

    @staticmethod
    def fails_cleanly(argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_wrong_value_count(self, capsys):
        self.fails_cleanly(["quad", "negate", "--fixture", "torus", "--values", "0"],
                           capsys)

    def test_value_not_an_integer(self, tmp_path, capsys, rp2):
        from pinquad.cochains import CohomologySolver

        (x,) = CohomologySolver(rp2.pair, 1).basis
        path = tmp_path / "x.cochain"
        path.write_text(format_cochain(x))
        self.fails_cleanly(["quad", "eval", "--fixture", "rp2", "--values", "x",
                            "--cochain", str(path)], capsys)

    def test_complex_names_an_unknown_vertex(self, tmp_path, capsys):
        path = tmp_path / "bad.complex"
        path.write_text("dim 1\nsimplex 0 1\nboundary 7\n")
        self.fails_cleanly(["info", "--complex", str(path)], capsys)

    def test_complex_has_a_negative_vertex(self, tmp_path, capsys):
        path = tmp_path / "bad.complex"
        path.write_text("dim 2\nsimplex -1 0 1\nsimplex 0 1 2\n")
        self.fails_cleanly(["info", "--complex", str(path)], capsys)

    def test_complex_with_an_empty_simplex(self, tmp_path, capsys):
        path = tmp_path / "bad.complex"
        path.write_text("simplex\n")
        self.fails_cleanly(["info", "--complex", str(path)], capsys)

    @pytest.mark.parametrize("suites", ["nonexistent", ","])
    def test_unknown_suite(self, suites, capsys):
        self.fails_cleanly(["identities", "--trials", "1", "--suites", suites], capsys)

    def test_no_source(self, capsys):
        assert main(["info"]) == 1
        assert capsys.readouterr().err == "error: one of --fixture, --complex or --pair is required\n"

    def test_cochain_names_a_non_simplex(self, tmp_path, capsys):
        path = tmp_path / "bad.cochain"
        path.write_text("cochain Z2 1\n0 99 -> 1\n")
        self.fails_cleanly(["quad", "eval", "--fixture", "rp2", "--values", "1",
                            "--cochain", str(path)], capsys)

    @pytest.mark.parametrize("argv", [
        ["info", "--complex"],
        ["quad", "eval", "--fixture", "rp2", "--values", "1", "--cochain"],
    ], ids=["complex", "cochain"])
    def test_path_is_a_directory(self, argv, tmp_path, capsys):
        self.fails_cleanly(argv + [str(tmp_path)], capsys)


@pytest.mark.parametrize("sources", [("--fixture", "--complex"), ("--complex", "--pair"),
                                     ("--fixture", "--pair")])
@pytest.mark.parametrize("command", [["info"], ["quad", "enumerate"], ["ggroup"]])
def test_two_input_sources_are_a_usage_error(command, sources, tmp_path, capsys):
    # each source names a manifold, so naming two would silently drop one
    path = tmp_path / "torus.complex"
    path.write_text(fixture_text("torus"))
    value = {"--fixture": "rp2", "--complex": str(path), "--pair": str(path)}
    argv = command + [arg for s in sources for arg in (s, value[s])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {sources[1]}: not allowed with argument {sources[0]}" in captured.err


def test_partial_orientation_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "tetra.complex"
    path.write_text("dim 2\nsimplex 0 1 2\nsimplex 0 1 3\nsimplex 0 2 3\n"
                    "simplex 1 2 3\norient 0 1 2 +1\n")
    assert main(["info", "--complex", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotPseudoManifold") and len(err.splitlines()) == 1


class TestCliNegativeCounts:
    """A negative trial count or budget is a usage error, not a silent pass."""

    @pytest.mark.parametrize("argv", [
        ["ggroup", "--fixture", "rp2", "--engine", "bruteforce", "--budget-log2", "-3"],
        ["quad", "verify", "--fixture", "rp2", "--trials", "-5"],
        ["identities", "--trials", "-3"],
    ])
    def test_negative_count_is_exit_1(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if "error:" in l]
        # the option is named, so the refusal comes from the parser
        assert len(errors) == 1 and f"{argv[-2]}: {argv[-1]} is negative" in errors[0]

    @pytest.mark.parametrize("value", ["65", "10000000000"])
    def test_budget_log2_above_the_cap_is_exit_1(self, value, capsys):
        argv = ["ggroup", "--fixture", "rp2", "--engine", "bruteforce", "--budget-log2", value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if "error:" in l]
        assert len(errors) == 1 and f"--budget-log2: {value} exceeds the cap 64" in errors[0]

    def test_budget_log2_at_the_cap_runs(self, capsys):
        argv = ["ggroup", "--fixture", "rp2", "--engine", "bruteforce", "--budget-log2", "64"]
        assert main(argv) == 0
        assert "Z/4" in capsys.readouterr().out

    def test_zero_trials_still_run(self, capsys):
        assert main(["quad", "verify", "--fixture", "rp2", "--trials", "0"]) == 0
        assert "0 trials: 0 failures" in capsys.readouterr().out

    def test_run_suites_refuses_negative_trials(self):
        from pinquad.identities import run_suites

        with pytest.raises(ValueError):
            run_suites(trials=-3)

    def test_run_suites_names_an_unknown_suite(self):
        from pinquad.identities import ALL_SUITES, run_suites

        with pytest.raises(ValueError) as info:
            run_suites(trials=1, names=["dd_zero", "nonexistent"])
        assert "'nonexistent'" in str(info.value)
        assert all(name in str(info.value) for name in ALL_SUITES)


# each suite's formula, as its docstring states it
SUITE_FORMULAS = {
    "coboundary": "d(X u_i Y) = (-1)^i (dX u_i Y + (-1)^|X| X u_i dY\n"
                  "                           - X u_{i-1} Y - (-1)^{i+|X||Y|} Y u_{i-1} X).",
    "sq2_sum_rule": "Sq^2(c'+c) = Sq^2 c' + Sq^2 c + dc' u_k dc + d(c' u_{k-1} c + dc' u_k c).",
    "sq2_sum_rule_cocycle": "For a cocycle c': Sq^2(c'+c) = Sq^2 c' + Sq^2 c + d(c' u_{k-1} c).",
    "sq_commutes_d": "Sq^i(dc) = d(Sq^i c) for Z2 cochains.",
    "suspension_shifts_cup": "s(x u_i y) = (-1)^{|x|+i+1} sx u_{i+1} sy over Int and Z2.",
    "sd_equals_ds": "sd = ds over Int, Z2, Z4 and QmodZ.",
    "suspension_cup0": "sx u_0 sy = 0 identically on the suspension.",
    "dd_zero": "dd = 0 over every ring.",
}


class TestSuiteTable:
    def test_the_eight_suites_in_order(self):
        from pinquad.identities import ALL_SUITES, _SUITES

        assert ALL_SUITES == tuple(SUITE_FORMULAS) == tuple(_SUITES)

    @pytest.mark.parametrize("name", SUITE_FORMULAS)
    def test_each_public_suite_is_its_table_entry(self, name):
        import inspect

        from pinquad import identities
        from pinquad.cochains import cup_i

        suite = getattr(identities, f"{name}_suite")
        assert suite is identities._SUITES[name]
        assert suite.__name__ == f"{name}_suite"
        assert suite.__doc__ == SUITE_FORMULAS[name]
        params = inspect.signature(suite).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("trials", 1000), ("seed", 0), ("cup", cup_i)]
        report = suite(trials=3, seed=1)
        assert report.name == name and report.trials == 3 and report.ok

    def test_run_suites_runs_the_entry_in_the_table(self, monkeypatch):
        from pinquad import identities

        calls = []
        real = identities._SUITES["dd_zero"]
        monkeypatch.setitem(identities._SUITES, "dd_zero",
                            lambda **kw: calls.append(kw) or real(**kw))
        (report,) = identities.run_suites(trials=2, seed=4, names=["dd_zero"])
        assert report == real(trials=2, seed=4)
        assert calls == [{"trials": 2, "seed": 4, "cup": identities.cup_i}]


def test_enumerate_past_the_budget_is_exit_2(tmp_path, capsys, eleven_tori):
    path = tmp_path / "tori.txt"
    path.write_text(format_complex(eleven_tori.complex))
    assert main(["quad", "enumerate", "--complex", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BudgetExceeded") and len(err.splitlines()) == 1


def test_brown_refuses_functions_times_terms_before_enumerating(tmp_path, capsys):
    # six tori: 2^12 functions and 2^12 Gauss sum terms each fit the budget
    # alone, but their product, about a minute of sums, does not
    from pinquad.complexes import disjoint_union

    x = z = catalog("torus").complex
    for _ in range(5):
        z, _, _ = disjoint_union(z, x)
    path = tmp_path / "tori.complex"
    path.write_text(format_complex(z))
    assert main(["quad", "brown", "--complex", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: BudgetExceeded: 2^24 Gauss sum terms exceed the budget 1048576\n"


@pytest.mark.parametrize("name,copies,mode,err", [
    ("klein", 6, "spin", "SpinOnNonorientable: spin mode needs an oriented manifold"),
    ("annulus", 12, "pin", "NotClosedSurface: Gauss sums need a closed surface"),
])
def test_brown_refuses_what_it_cannot_sum_before_the_budget(tmp_path, capsys, name, copies, mode, err):
    # h = 12, past the product budget, but no Gauss sum would be taken:
    # the refusal names the input, not the budget
    from pinquad.complexes import disjoint_union

    x = z = catalog(name).complex
    for _ in range(copies - 1):
        z, _, _ = disjoint_union(z, x)
    path = tmp_path / "copies.complex"
    path.write_text(format_complex(z))
    assert main(["quad", "brown", "--complex", str(path), "--mode", mode]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_an_operator_past_the_byte_budget_is_exit_2(tmp_path, capsys, monkeypatch):
    from pinquad import errors
    from pinquad.complexes import barycentric_subdivide

    path = tmp_path / "sd_torus.txt"
    path.write_text(format_complex(barycentric_subdivide(catalog("torus").complex).complex))
    monkeypatch.setattr(errors, "OPERATOR_BUDGET", 1000)
    assert main(["cohomology", "--complex", str(path), "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: BudgetExceeded: 1386 bytes of d_1 exceed the budget 1000\n"


class TestInfoFlags:
    """``info`` reads boundary_full and ordering_ok off the loaded manifold;
    they must be the flags the complex is known to have."""

    @staticmethod
    def info_record(argv, capsys):
        assert main(["info", "--format", "jsonl"] + argv) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_fixture(self, name, capsys):
        # every catalog fixture validates with both conditions required
        record = self.info_record(["--fixture", name], capsys)
        assert (record["boundary_full"], record["ordering_ok"]) == (True, True)

    @pytest.mark.parametrize("text, flags", [
        (format_complex(raw_mobius_pair().ambient), (False, True)),
        # a disk: (1, 3) joins two boundary vertices through the interior,
        # and the interior vertex 0 is ranked first
        ("dim 2\nsimplex 1 2 3\nsimplex 0 1 3\nsimplex 0 3 4\n"
         "simplex 0 4 5\nsimplex 0 1 5\n", (False, False)),
    ], ids=["raw_mobius", "disk_neither_full_nor_ordered"])
    def test_complex_file(self, text, flags, tmp_path, capsys):
        path = tmp_path / "x.cpx"
        path.write_text(text)
        record = self.info_record(["--complex", str(path)], capsys)
        m = manifold_from_text(text, require_full=False, require_ordering=False)
        assert (m.boundary_full, m.ordering_ok) == flags
        assert (record["boundary_full"], record["ordering_ok"]) == flags


def test_cli_import_leaves_the_heavy_modules_unloaded():
    # info and cohomology never need them; each command imports its own
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pinquad.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "pinquad.cli" in proc.stderr
    for name in ("pinquad.ggroups", "pinquad.quadratic", "pinquad.identities"):
        assert name not in proc.stderr


@pytest.mark.parametrize("flags,argv,unused", [
    ([], ["info", "--fixture", "rp2"], ("quadratic", "ggroups", "identities", "suspension")),
    ([], ["quad", "brown", "--fixture", "klein"], ("ggroups", "identities")),
    ([], ["ggroup", "--fixture", "rp2"], ("quadratic", "identities", "suspension")),
    ([], ["identities", "--trials", "1"], ("quadratic", "ggroups")),
    (["-S"], ["info", "--fixture", "rp2"], ("quadratic", "ggroups", "identities", "suspension")),
], ids=["info", "quad", "ggroup", "identities", "info-S"])
def test_each_command_imports_only_its_modules(flags, argv, unused):
    # the records are NamedTuples or SimpleNamespaces, so no command pays for
    # dataclasses (inspect, ast, ...), and ggroup reaches quadratic only
    # through the bridge functions
    proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-m", "pinquad.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "pinquad.cochains" in imported
    assert "dataclasses" not in imported
    assert not imported & {f"pinquad.{name}" for name in unused}
    if "-S" in flags:
        # with no site hook importing it first, only cp2 loads
        # importlib.resources (pathlib, tempfile, zipfile)
        assert "importlib.resources" not in imported


def test_every_export_resolves():
    import pinquad

    for name in pinquad.__all__:
        assert getattr(pinquad, name) is not None, name
    # the star import goes through the lazy table only where nothing has
    # filled the package namespace yet, so it runs in a child
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json\nns = {}\nexec('from pinquad import *', ns)\nimport pinquad\n"
         "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sorted(pinquad.__all__)]))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bound, exported = json.loads(proc.stdout)
    assert bound == exported


def test_one_export_table():
    # the package's _EXPORTS is the only export list, and each name in it is
    # its submodule's own object
    import importlib

    import pinquad

    assert pinquad.SpinProfile is pinquad.ggroups.SpinProfile
    for module, names in pinquad._EXPORTS.items():
        mod = importlib.import_module(f"pinquad.{module}")
        assert not hasattr(mod, "__all__"), module
        for name in names:
            assert getattr(pinquad, name) is getattr(mod, name), name
