"""Golden outputs: the CLI's JSONL bytes and the library's certificates.

The files under tests/golden/ pin bases, decomposition certificates,
G^pin generators and v1 witnesses bit for bit, so a refactor of the GF(2)
layer that changes a pivot choice or a column order shows up here.  They
also pin the values of quadratic functions on seeded cocycles and the basis
values of their subdivision transfers, so a change to evaluation that moves
a value shows up too, and digests of the tables every quadratic context
reads, so a change to the cup-form builder that moves a bit shows up even
where no seeded value reads it.  To rewrite them after an intended change
of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random

import pytest

from pinquad.cli import main
from pinquad.cochains import CohomologySolver, Z2, Cochain, d, to_bits
from pinquad.complexes import ComplexPair, barycentric_subdivide, validate_manifold
from pinquad.errors import PinquadError
from pinquad.fixtures import CATALOG_NAMES, catalog, raw_annulus_pair, raw_mobius_pair
from pinquad.ggroups import g_pin
from pinquad.quadratic import (
    PIN,
    SPIN,
    _sq2_rows,
    enumerate_quadratics,
    eval_quadratic,
    quad_context,
    random_relative_cochain,
    random_relative_cocycle,
    transfer_subdivision,
    v1_witness,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CLI_FIXTURES = ("rp2", "torus", "klein", "mobius", "annulus", "solid_torus")


def cli_commands(name):
    n = catalog(name).n
    cmds = []
    for k in range(n + 1):
        base = ["cohomology", "--fixture", name, "-k", str(k), "--basis",
                "--format", "jsonl"]
        cmds += [base, base + ["--rel"]]
    cmds.append(["quad", "enumerate", "--fixture", name, "--format", "jsonl"])
    cmds.append(["ggroup", "--fixture", name, "--format", "jsonl"])
    return cmds


def cli_output(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in cli_commands(name):
            assert main(argv) == 0, argv
    return out.getvalue()


def _support(c):
    return sorted(list(s) for s, v in c.values.items() if v)


def _certificates(pair, k):
    """Decompose one deterministic cocycle: every basis element plus the
    coboundary of every other relative (k-1)-simplex."""
    solver = CohomologySolver(pair, k)
    vals = {s: 1 for s in pair.relative_simplices(k - 1)[::2]}
    p = d(Cochain(pair.ambient, k - 1, Z2, vals))
    for b in solver.basis:
        p = p + b
    coords, cert = solver.decompose(p)
    return {"coords": list(coords), "cert": _support(cert)}


def library_record(name):
    if name in ("mobius(raw)", "annulus(raw)"):
        pair = raw_mobius_pair() if name == "mobius(raw)" else raw_annulus_pair()
        m, n = None, 2
    else:
        m = catalog(name)
        pair, n = ComplexPair(m.complex, m.pair.sub), m.n
    record = {"name": name}
    for label, p in (("rel", pair), ("abs", ComplexPair(pair.ambient, ()))):
        record[f"bases_{label}"] = [
            [_support(b) for b in CohomologySolver(p, k).basis] for k in range(n + 1)]
    record["certificates"] = [_certificates(pair, k) for k in range(1, n + 1)]
    g = g_pin(pair, n)
    record["g_pin"] = {
        "summands": list(g.summands),
        "generators": [[_support(a.w), _support(a.p)] for a in g.generators],
    }
    if m is not None:
        try:
            record["v1_witness"] = _support(v1_witness(m))
        except (PinquadError, ValueError) as e:
            record["v1_witness"] = type(e).__name__
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


LIBRARY_NAMES = CATALOG_NAMES + ("mobius(raw)", "annulus(raw)")


def solver_digest(pair, k):
    """SHA-256 of the basis bits and of every echelon row (pivot, bits,
    tracker) of the degree-k solver, in hex."""
    solver = CohomologySolver(pair, k)
    h = hashlib.sha256()
    for b in solver.basis:
        h.update(b"b %x\n" % to_bits(pair, b))
    for p in sorted(solver._ech.rows):
        bits, track = solver._ech.rows[p]
        h.update(b"r %d %x %x\n" % (p, bits, track))
    return h.hexdigest()


def sd_solid_torus_digests():
    """One line per degree 1..3 of sd(solid_torus) relative to its
    boundary, the subdivided 3-manifold whose boundary echelons are the
    widest in the test suite."""
    m = catalog("solid_torus")
    pair = validate_manifold(barycentric_subdivide(m.complex).complex, m.n).pair
    return "".join(f"{k} {solver_digest(pair, k)}\n" for k in (1, 2, 3))


QUAD_VALUE_MANIFOLDS = ("rp2", "torus", "klein", "mobius", "annulus", "solid_torus",
                        "sd(rp2)", "sd(mobius)")
TRANSFER_SURFACES = ("rp2", "torus", "klein", "mobius")


def _quad_manifold(name):
    if name.startswith("sd("):
        m = catalog(name[3:-1])
        return validate_manifold(barycentric_subdivide(m.complex).complex, m.n)
    return catalog(name)


def _seeded_cocycles(m, count=20, seed=0):
    """count relative (n-1)-cocycles: a seeded combination of the basis
    plus the coboundary of a seeded random (n-2)-cochain."""
    return _seeded_cocycles_with(random.Random(seed), m, count)


def _seeded_cocycles_with(rng, m, count):
    solver = quad_context(m).solver
    out = []
    for _ in range(count):
        p = solver.reconstruct([rng.randint(0, 1) for _ in range(solver.dim)])
        out.append(p + d(random_relative_cochain(rng, m, m.n - 2)))
    return out


def quad_values():
    """One line per quadratic function: its values on the seeded cocycles
    (every pin function, and every spin function of the torus), then one
    line per pin function of each surface with the basis values of its
    transfer to the barycentric subdivision."""
    lines = []
    for name in QUAD_VALUE_MANIFOLDS:
        m = _quad_manifold(name)
        cocycles = _seeded_cocycles(m)
        for mode in (PIN, SPIN) if name == "torus" else (PIN,):
            for q in enumerate_quadratics(m, mode):
                lines.append({"name": name, "mode": mode,
                              "basis_values": list(q.basis_values),
                              "values": [eval_quadratic(q, p).z4 for p in cocycles]})
    for name in TRANSFER_SURFACES:
        for q in enumerate_quadratics(catalog(name), PIN):
            lines.append({"name": name, "mode": PIN, "basis_values": list(q.basis_values),
                          "sd_basis_values": list(transfer_subdivision(q).function.basis_values)})
    return "".join(json.dumps(l, sort_keys=True, separators=(",", ":")) + "\n"
                   for l in lines)


QUAD_TABLE_MANIFOLDS = (
    tuple(name for name in CATALOG_NAMES if name not in ("sphere0", "cp2"))
    + tuple(f"sd({name})" for name in ("sphere2", "disk2", "rp2", "torus", "klein", "mobius",
                                       "annulus", "sphere3", "disk3", "solid_torus")))


def quad_tables_digest(name):
    """SHA-256 of the tables of one manifold's quadratic context, in hex:
    the cup rows, the pairing rows, the cross table, the Sq^1 parities and,
    from dimension 3 on, the Sq^2 rows."""
    m = _quad_manifold(name)
    ctx = quad_context(m)
    tables = [("rows", ctx.rows), ("pairing", ctx.pairing),
              ("cross", [bit for row in ctx.cross for bit in row]), ("sq1", ctx.sq1)]
    if m.n >= 3:
        tables.append(("sq2", _sq2_rows(m)))
    h = hashlib.sha256()
    for label, table in tables:
        h.update(b"%s %s\n" % (label.encode(), b" ".join(b"%x" % v for v in table)))
    return h.hexdigest()


def quad_tables_digests():
    return "".join(f"{name} {quad_tables_digest(name)}\n" for name in QUAD_TABLE_MANIFOLDS)


def _read(fname):
    with open(os.path.join(GOLDEN, fname), encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("name", CLI_FIXTURES)
def test_cli_jsonl_matches_golden(name):
    assert cli_output(name) == _read(f"cli_{name}.jsonl")


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_library_certificates_match_golden(name):
    golden = {json.loads(l)["name"]: l + "\n"
              for l in _read("library.jsonl").splitlines()}
    assert library_record(name) == golden[name]


def test_sd_solid_torus_solver_matches_golden_digest():
    assert sd_solid_torus_digests() == _read("sd_solid_torus_solver.sha256")


def test_quad_values_match_golden():
    assert quad_values() == _read("quad_values.jsonl")


@pytest.mark.parametrize("name", QUAD_TABLE_MANIFOLDS)
def test_quad_tables_match_golden_digest(name):
    golden = dict(line.split() for line in _read("quad_tables.sha256").splitlines())
    assert quad_tables_digest(name) == golden[name]


@pytest.mark.parametrize("name", QUAD_VALUE_MANIFOLDS)
def test_random_cocycles_match_the_dict_reference(name):
    """random_relative_cocycle adds its parts as bits; it must draw what the
    dict form of ``_seeded_cocycles`` draws, with the same rng calls."""
    m = _quad_manifold(name)
    q = enumerate_quadratics(m)[0]
    for seed in range(3):
        rng, reference = random.Random(seed), random.Random(seed)
        draws = [random_relative_cocycle(rng, q) for _ in range(20)]
        assert draws == _seeded_cocycles_with(reference, m, 20)
        assert rng.getstate() == reference.getstate()


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name in CLI_FIXTURES:
        with open(os.path.join(GOLDEN, f"cli_{name}.jsonl"), "w", encoding="utf-8") as f:
            f.write(cli_output(name))
    with open(os.path.join(GOLDEN, "library.jsonl"), "w", encoding="utf-8") as f:
        for name in LIBRARY_NAMES:
            f.write(library_record(name))
    with open(os.path.join(GOLDEN, "sd_solid_torus_solver.sha256"), "w",
              encoding="utf-8") as f:
        f.write(sd_solid_torus_digests())
    with open(os.path.join(GOLDEN, "quad_values.jsonl"), "w", encoding="utf-8") as f:
        f.write(quad_values())
    with open(os.path.join(GOLDEN, "quad_tables.sha256"), "w", encoding="utf-8") as f:
        f.write(quad_tables_digests())


if __name__ == "__main__":
    regenerate()
