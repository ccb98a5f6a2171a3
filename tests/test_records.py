"""The package's records: NamedTuples for the immutable ones,
SimpleNamespace subclasses for the three mutable reports, and GPair, a
NamedTuple checked when built."""

from fractions import Fraction

import pytest

from pinquad.cochains import PIN, QMODZ, SPIN, Z2, Cochain, dual_cochain, solver, zero_cochain
from pinquad.complexes import (
    Collapse,
    Cone,
    Cylinder,
    Subdivision,
    SuspensionComplex,
    barycentric_subdivide,
    collapse_map,
    cone,
    cylinder,
    suspension,
)
from pinquad.errors import ComplexMismatch, NotACocycle, NotRelative
from pinquad.fixtures import catalog, raw_annulus_pair
from pinquad.ggroups import (
    GGroupStructure,
    GPair,
    SpinProfile,
    g_identity,
    g_pin,
    g_pullback,
    g_spin_profile,
)
from pinquad.identities import IdentityReport
from pinquad.quadratic import (
    CylinderExtension,
    QuadValue,
    SubdivisionTransfer,
    VerifyReport,
    cylinder_extend,
    eval_quadratic,
    make_quadratic,
    transfer_subdivision,
    verify_axioms,
)
from pinquad.textio import ComplexSpec, parse_complex


def _rp2_function():
    return make_quadratic(catalog("rp2"), PIN, [1])


# each record as the package's own call sites build it
MAKE = {
    Subdivision: lambda: barycentric_subdivide(catalog("sphere1").complex),
    Cone: lambda: cone(catalog("sphere1").complex),
    SuspensionComplex: lambda: suspension(catalog("sphere1").complex),
    Cylinder: lambda: cylinder(catalog("sphere1").complex),
    Collapse: lambda: collapse_map(catalog("disk2")),
    QuadValue: lambda: eval_quadratic(_rp2_function(), solver(catalog("rp2").pair, 1).basis[0]),
    SubdivisionTransfer: lambda: transfer_subdivision(_rp2_function()),
    CylinderExtension: lambda: cylinder_extend(_rp2_function()),
    GGroupStructure: lambda: g_pin(catalog("rp2").pair, 2),
    SpinProfile: lambda: g_spin_profile(catalog("klein"), 2),
    GPair: lambda: g_identity(catalog("rp2").pair, 2),
}


@pytest.mark.parametrize("cls", MAKE, ids=lambda cls: cls.__name__)
class TestImmutableRecords:
    def test_fields_cannot_be_assigned(self, cls):
        record = MAKE[cls]()
        assert type(record) is cls
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_positional_and_keyword_construction_give_equal_records(self, cls):
        record = MAKE[cls]()
        by_position = cls(*record)
        by_keyword = cls(**{name: getattr(record, name) for name in cls._fields})
        assert by_position == record and by_keyword == record

    def test_repr_names_the_class(self, cls):
        assert repr(MAKE[cls]()).startswith(f"{cls.__name__}(")


def test_subdivision_repr_leaves_out_its_index_dicts():
    sd = barycentric_subdivide(catalog("sphere1").complex)
    text = repr(sd)
    assert text == f"Subdivision(complex={sd.complex!r}, to_base={sd.to_base!r})"
    assert "vertex_of" not in text


def test_cone_and_suspension_fields():
    # suspend reads base, complex and upper off either record
    x = catalog("sphere1").complex
    c = cone(x)
    assert c.complex is c.pair.ambient
    s = suspension(x)
    assert s.upper == s.lower + 1
    for r in (c, s):
        assert r.base is x and r.complex.rank[r.upper] > max(x.rank.values())


def test_g_group_structure_defaults_to_no_generators():
    g = GGroupStructure(2, (1, 1, 1), (4,), 4)
    assert g.generators == () and g.profile() == "Z/4"
    assert g == GGroupStructure(n=2, dims=(1, 1, 1), summands=(4,), order=4, generators=())
    assert g.same_profile(g_pin(catalog("rp2").pair, 2))


def test_quad_value_reads_r_mod_z():
    assert QuadValue(PIN, 3).rmodz == QuadValue(mode=PIN, z4=3).rmodz == 0.75
    assert QuadValue(PIN, 3) != QuadValue(SPIN, 3)


class TestMutableReports:
    def test_verify_report(self):
        report = VerifyReport(3)
        assert report.ok and report.failures == [] and report.trials == 3
        report.failures.append("trial 0: sum law fails")
        assert not report.ok
        assert report == VerifyReport(trials=3, failures=["trial 0: sum law fails"])
        assert VerifyReport(3).failures is not VerifyReport(3).failures
        assert verify_axioms(_rp2_function(), 5) == VerifyReport(5)
        assert repr(VerifyReport(2)) == "VerifyReport(trials=2, failures=[])"

    def test_identity_report(self):
        report = IdentityReport("coboundary", 4)
        assert report.ok and report == IdentityReport(name="coboundary", trials=4, failures=[])
        report.trials = 5
        assert report != IdentityReport("coboundary", 4)
        assert IdentityReport("a", 1).failures is not IdentityReport("a", 1).failures
        assert repr(IdentityReport("a", 1)) == "IdentityReport(name='a', trials=1, failures=[])"

    def test_complex_spec(self):
        spec = ComplexSpec()
        assert (spec.dim, spec.rank, spec.maximal, spec.boundary, spec.orientation) == (
            None, {}, [], "auto", None)
        assert ComplexSpec().maximal is not ComplexSpec().maximal
        parsed = parse_complex("dim 1\nrank 0 0\nsimplex 0 1\n")
        assert parsed == ComplexSpec(dim=1, rank={0: 0}, maximal=[(0, 1)])
        assert parsed == ComplexSpec(1, {0: 0}, [(0, 1)], "auto", None)
        parsed.dim = 2
        assert parsed != ComplexSpec(1, {0: 0}, [(0, 1)])


class TestGPairChecks:
    """An invalid pair raises the error types the checks always raised."""

    def test_valid_pair_by_keyword(self):
        rp2 = catalog("rp2")
        x = rp2.complex
        a = GPair(pair=rp2.pair, n=2, mode=PIN, w=zero_cochain(x, 2, Z2),
                  p=zero_cochain(x, 1, Z2))
        assert a == g_identity(rp2.pair, 2) and hash(a) == hash(g_identity(rp2.pair, 2))

    def test_checks_run_once_per_pair(self, monkeypatch):
        # g_pin builds one pair per generator, so the checks must not repeat
        import pinquad.ggroups as ggroups

        squares = []
        real_sq = ggroups.sq
        monkeypatch.setattr(ggroups, "sq", lambda i, c: squares.append(i) or real_sq(i, c))
        g_identity(catalog("rp2").pair, 2)
        assert squares == [2]

    def test_p_of_the_wrong_degree_or_ring(self):
        rp2 = catalog("rp2")
        x = rp2.complex
        with pytest.raises(ValueError, match="p must be a Z2 cochain"):
            GPair(rp2.pair, 2, PIN, zero_cochain(x, 2, Z2), zero_cochain(x, 2, Z2))
        with pytest.raises(ValueError, match="p must be a Z2 cochain"):
            GPair(rp2.pair, 2, PIN, zero_cochain(x, 2, Z2), zero_cochain(x, 1, QMODZ))

    def test_p_not_a_cocycle(self):
        rp2 = catalog("rp2")
        x = rp2.complex
        with pytest.raises(NotACocycle, match="dp != 0"):
            GPair(rp2.pair, 2, PIN, zero_cochain(x, 2, Z2), dual_cochain(x, x.simplices(1)[0]))

    def test_w_with_the_wrong_coboundary(self):
        sphere3 = catalog("sphere3")
        x = sphere3.complex
        w = dual_cochain(x, x.simplices(2)[0])
        with pytest.raises(NotACocycle, match=r"dw != Sq\^2 p"):
            GPair(sphere3.pair, 2, PIN, w, zero_cochain(x, 1, Z2))
        spin_w = Cochain(x, 2, QMODZ, {x.simplices(2)[0]: Fraction(1, 2)})
        with pytest.raises(NotACocycle, match=r"dw != \(1/2\) Sq\^2 p"):
            GPair(sphere3.pair, 2, SPIN, spin_w, zero_cochain(x, 1, Z2))

    def test_w_of_the_wrong_ring_or_mode(self):
        rp2 = catalog("rp2")
        x = rp2.complex
        p = zero_cochain(x, 1, Z2)
        with pytest.raises(ValueError, match="pin w must be"):
            GPair(rp2.pair, 2, PIN, zero_cochain(x, 2, QMODZ), p)
        with pytest.raises(ValueError, match="spin w must be"):
            GPair(rp2.pair, 2, SPIN, zero_cochain(x, 2, Z2), p)
        with pytest.raises(ValueError, match="unknown mode 'other'"):
            GPair(rp2.pair, 2, "other", zero_cochain(x, 2, Z2), p)

    def test_w_on_another_complex(self):
        rp2, torus = catalog("rp2"), catalog("torus")
        with pytest.raises(ComplexMismatch):
            GPair(rp2.pair, 2, PIN, zero_cochain(torus.complex, 2, Z2),
                  zero_cochain(rp2.complex, 1, Z2))

    def test_p_on_another_complex(self):
        rp2, torus = catalog("rp2"), catalog("torus")
        with pytest.raises(ComplexMismatch):
            GPair(rp2.pair, 2, PIN, zero_cochain(rp2.complex, 2, Z2),
                  zero_cochain(torus.complex, 1, Z2))

    def test_pullback_labelled_with_a_pair_on_another_complex(self):
        rp2, torus = catalog("rp2"), catalog("torus")
        sd = barycentric_subdivide(rp2.complex)
        with pytest.raises(ComplexMismatch):
            g_pullback(sd.to_base, rp2.pair, torus.pair, g_identity(rp2.pair, 2))

    def test_cochains_on_the_boundary_are_not_relative(self):
        pair = raw_annulus_pair()
        x = pair.ambient
        edge = next(s for s in pair.sub_complex().simplices(1))
        with pytest.raises(NotRelative):
            GPair(pair, 2, PIN, zero_cochain(x, 2, Z2), dual_cochain(x, edge))
