"""The four workloads.  Each one builds its inputs from the seed, times one
pass of operations through pinquad's public functions, and checks the
results against separate computations or required properties.

Calls into pinquad go through module attributes (``quadratic.eval_quadratic``
rather than an imported name) so that the traced mode's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from typing import Dict, List

from pinquad import cochains, complexes, fixtures, ggroups, quadratic, textio
from pinquad.complexes import ComplexPair, ManifoldPair

import checks
from harness import Op, OpFailed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def fresh_pair(pair: ComplexPair) -> ComplexPair:
    """A new pair object: nothing cached on the old one can answer for it."""
    return ComplexPair(pair.ambient, pair.sub)


def fresh_manifold(m: ManifoldPair) -> ManifoldPair:
    return ManifoldPair(fresh_pair(m.pair), m.n, m.orientation,
                        m.boundary_full, m.ordering_ok)


def relabelled(simplices, rng: random.Random):
    verts = sorted({v for s in simplices for v in s})
    image = verts[:]
    rng.shuffle(image)
    perm = dict(zip(verts, image))
    return [tuple(perm[v] for v in s) for s in simplices]


def subdivided(m: ManifoldPair) -> ManifoldPair:
    sd = complexes.barycentric_subdivide(m.complex)
    return complexes.validate_manifold(sd.complex, m.n)


def repeat(count: int, fn):
    """Call fn count times (a batch of short calls); return the last result."""
    for _ in range(count):
        result = fn()
    return result


def basis_print(solver):
    return tuple(tuple(sorted(p.values)) for p in solver.basis)


class Workload:
    name = ""
    min_passes = 1
    setup_repeats = 5
    rss_from_children = False
    tracer = None  # set by the traced run

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.min_passes = 1
            self.setup_repeats = 1
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        """Untimed: warm the catalog and compute reference data."""

    def setup(self):
        raise NotImplementedError

    def ops(self, state) -> List[Op]:
        raise NotImplementedError

    def check(self, state, results) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the run wrote, other than the trace dump."""


class SolveScaled(Workload):
    """Cold GF(2) cohomology on catalog manifolds subdivided in set-up."""

    name = "solve_scaled"
    min_passes = 3
    # (fixture, subdivisions, calls per operation of cohomology, quad_context,
    # g_pin and transfer).  The sd^2 surfaces repeat their calls (each on
    # fresh objects) so that the mid-sized operations all take about 100 ms
    # and the median does not fall between operations of different sizes.
    FAMILY = (("rp2", 2, (4, 9, 3, 3)), ("torus", 2, (2, 5, 2, 2)),
              ("klein", 2, (1, 3, 1, 1)), ("mobius", 2, (1, 2, 1, 1)),
              ("rp2", 3, (1, 1, 1, 1)), ("sphere3", 2, (1, 1, 1, 1)))
    SMOKE = (("rp2", 1, (1, 1, 1, 1)), ("torus", 1, (1, 1, 1, 1)),
             ("mobius", 1, (1, 1, 1, 1)), ("sphere3", 1, (1, 1, 1, 1)))

    def prepare(self) -> None:
        family = self.SMOKE if self.smoke else self.FAMILY
        self.family = family
        self.base_betti: Dict[str, List[int]] = {}
        self.base_profile = {}
        for name, _, _ in family:
            if name in self.base_betti:
                continue
            base = fixtures.catalog(name)
            self.base_betti[name] = checks.Coboundary(base.pair, base.n).betti(base.n)
            self.base_profile[name] = ggroups.g_pin(fresh_pair(base.pair), base.n)

    def setup(self):
        state = []
        for name, levels, reps in self.family:
            prev = m = fixtures.catalog(name)
            for _ in range(levels):
                prev, m = m, subdivided(m)
            state.append((f"sd{levels}({name})", name, prev, m, reps))
        return state

    def ops(self, state) -> List[Op]:
        out = []
        for label, name, prev, m, (r_coh, r_ctx, r_g, r_tr) in state:
            n = m.n
            out.append(Op(f"{label}/cohomology",
                          lambda m=m, n=n, reps=r_coh: repeat(reps, lambda: [
                              cochains.CohomologySolver(fresh_pair(m.pair), k)
                              for k in range(n + 1)]),
                          lambda r: tuple(basis_print(s) for s in r)))
            out.append(Op(f"{label}/quad_context",
                          lambda m=m, reps=r_ctx: repeat(
                              reps, lambda: quadratic.quad_context(fresh_manifold(m))),
                          lambda r: (basis_print(r.solver), r.sq1, tuple(map(tuple, r.cross)))))
            out.append(Op(f"{label}/g_pin",
                          lambda m=m, n=n, reps=r_g: repeat(
                              reps, lambda: ggroups.g_pin(fresh_pair(m.pair), n)),
                          lambda r: (r.profile(), r.order)))
            if n == 2:
                out.append(Op(f"{label}/transfer",
                              lambda prev=prev, reps=r_tr: repeat(
                                  reps, lambda: self._transfer(prev)),
                              lambda r: r[1].function.basis_values))
        return out

    @staticmethod
    def _transfer(base: ManifoldPair):
        q = quadratic.enumerate_quadratics(fresh_manifold(base))[-1]
        return q, quadratic.transfer_subdivision(q)

    def check(self, state, results) -> List[str]:
        problems = []
        for label, name, prev, m, _ in state:
            betti = self.base_betti[name]
            cob = checks.Coboundary(m.pair, m.n)
            solvers = results.get(f"{label}/cohomology")
            if solvers is not None:
                problems += checks.check_cohomology(label, cob, solvers, betti, self.rng)
            ctx = results.get(f"{label}/quad_context")
            if ctx is not None and ctx.solver.dim != betti[m.n - 1]:
                problems.append(f"{label}: quad_context basis has {ctx.solver.dim} classes")
            g = results.get(f"{label}/g_pin")
            if g is not None:
                problems += checks.check_profile(label, g, self.base_profile[name])
            tr = results.get(f"{label}/transfer")
            if tr is not None:
                q, t = tr
                for j, p in enumerate(q.solver.basis):
                    pulled = cochains.pullback(t.subdivision.to_base, p)
                    if quadratic.eval_quadratic(t.function, pulled).z4 != q.basis_values[j]:
                        problems.append(f"{label}: transferred Q differs on basis class {j}")
        return problems


class QuadEval(Workload):
    """Quadratic-function work on catalog manifolds with contexts built in
    set-up: axiom checks, evaluation, the H^1 action and boundaries."""

    name = "quad_eval"
    min_passes = 4
    # name: (verify trials per function, evaluations, v1 repeats, boundary
    # repeats), sized so that nearly every operation takes about 40 ms and
    # the percentiles do not fall between operations of very different
    # sizes; v1_witness on the solid torus is one indivisible, longer call.
    PLAN = {
        "rp2": (68, 510, 57, 0),
        "torus": (55, 360, 27, 0),
        "klein": (42, 290, 10, 0),
        "mobius": (28, 170, 9, 60),
        "annulus": (25, 170, 6, 37),
        "solid_torus": (1, 7, 1, 2),
    }
    SMOKE = ("rp2", "torus", "mobius")

    def prepare(self) -> None:
        names = self.SMOKE if self.smoke else tuple(self.PLAN)
        self.names = names
        self.cocycles = {}
        self.betti = {}
        self.boundary_b0 = {}
        for name in names:
            base = fixtures.catalog(name)
            n = base.n
            cob = checks.Coboundary(base.pair, n)
            self.betti[name] = cob.betti(n)
            solver = cochains.CohomologySolver(fresh_pair(base.pair), n - 1)
            bases = [checks.support(p) for p in solver.basis]
            made = []
            for _ in range(self.PLAN[name][1]):
                target = set()
                for b in bases:
                    if self.rng.random() < 0.5:
                        target ^= b
                c0 = {s for s in cob.rel[n - 2] if self.rng.random() < 0.3}
                target ^= cob.d(c0, n - 2)
                made.append(cochains.Cochain(base.complex, n - 1, cochains.Z2,
                                             {s: 1 for s in target}))
            self.cocycles[name] = made
            if not base.closed:
                bcx = base.boundary_complex()
                self.boundary_b0[name] = checks.Coboundary(ComplexPair(bcx, ()), 0).betti(0)[0]

    def setup(self):
        state = {}
        for name in self.names:
            base = fixtures.catalog(name)
            m = complexes.validate_manifold(base.complex, base.n)
            quadratic.quad_context(m)
            qs = quadratic.enumerate_quadratics(m)
            if not m.closed:
                quadratic.quad_context(quadratic.boundary_manifold(m))
            state[name] = (m, qs)
        return state

    def ops(self, state) -> List[Op]:
        out = []
        for name in self.names:
            m, qs = state[name]
            trials, _, v1_reps, b_reps = self.PLAN[name]
            for j, q in enumerate(qs):
                seed = self.seed * 1000 + j
                out.append(Op(f"{name}/verify{j}",
                              lambda q=q, seed=seed, trials=trials:
                              quadratic.verify_axioms(q, trials=trials, seed=seed),
                              lambda r: len(r.failures)))
            out.append(Op(f"{name}/eval", lambda name=name, qs=qs: [
                quadratic.eval_quadratic(qs[i % len(qs)], p).z4
                for i, p in enumerate(self.cocycles[name])], tuple))
            out.append(Op(f"{name}/v1_act_negate",
                          lambda m=m, qs=qs, reps=v1_reps: repeat(reps, lambda: self._v1(m, qs)),
                          lambda r: tuple((a.basis_values, b.basis_values) for a, b in r)))
            if b_reps:
                out.append(Op(f"{name}/boundary",
                              lambda qs=qs, reps=b_reps: repeat(reps, lambda: [
                                  quadratic.boundary_quadratic(q) for q in qs]),
                              lambda r: tuple(bq.basis_values for bq in r)))
        return out

    @staticmethod
    def _v1(m, qs):
        a = quadratic.v1_witness(m)
        return [(quadratic.act(q, a), quadratic.negate(q)) for q in qs]

    def check(self, state, results) -> List[str]:
        problems = []
        for name in self.names:
            m, qs = state[name]
            n = m.n
            want = 1 << self.betti[name][n - 1]
            if len(qs) != want:
                problems.append(f"{name}: {len(qs)} quadratic functions, expected {want}")
            for j in range(len(qs)):
                rep = results.get(f"{name}/verify{j}")
                if rep is not None and rep.failures:
                    problems.append(f"{name}: verify_axioms failures {rep.failures[:3]}")
            values = results.get(f"{name}/eval")
            if values is not None:
                for p, v in zip(self.cocycles[name], values):
                    # 0 = Q(p + p) = 2 Q(p) + 2 int p u_{n-2} p fixes Q(p) mod 2
                    parity = cochains.integrate(m, cochains.cup_i(p, p, n - 2)) % 2
                    if v % 2 != parity:
                        problems.append(f"{name}: Q(p) = {v} has the wrong parity")
                        break
            pairs = results.get(f"{name}/v1_act_negate")
            if pairs is not None:
                for a, b in pairs:
                    if a.basis_values != b.basis_values:
                        problems.append(f"{name}: act(q, v1) != negate(q)")
            if m.n == 2 and m.closed:
                problems += checks.check_brown(name, [quadratic.brown_gauss(q) for q in qs])
            bqs = results.get(f"{name}/boundary")
            if bqs is not None:
                for bq in bqs:
                    if bq.manifold.n == 2:
                        if quadratic.brown_gauss(bq) != 0:
                            problems.append(f"{name}: boundary structure does not bound")
                    elif len(bq.basis_values) != self.boundary_b0[name]:
                        problems.append(f"{name}: boundary Q has {len(bq.basis_values)} values")
        return problems


class GgroupOracle(Workload):
    """The union-find oracle on every input small enough to enumerate, each
    next to the closed-form engine on fresh pairs."""

    name = "ggroup_oracle"
    min_passes = 4
    setup_repeats = 25
    # (label, copies of the oracle op, oracle calls per op, formula calls per op)
    PLAN = (("rp2", 1, 1, 30), ("mobius", 4, 14, 50),
            ("annulus", 4, 9, 50), ("sphere3", 4, 1, 50))
    SMOKE = (("mobius", 2, 2, 2), ("annulus", 2, 2, 2), ("sphere3", 1, 1, 2))

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        rp2 = complexes.validate_manifold(complexes.build_complex(fixtures.RP2_TRIANGLES), 2)
        mobius = complexes.validate_manifold(
            complexes.build_complex(relabelled(fixtures.MOBIUS_TRIANGLES, rng)), 2,
            require_full=False, require_ordering=False)
        sphere = complexes.validate_manifold(
            complexes.build_complex(relabelled(list(combinations(range(5), 4)), rng)), 3)
        return {"rp2": (rp2.pair, 2), "mobius": (mobius.pair, 2),
                "annulus": (fixtures.raw_annulus_pair(), 2), "sphere3": (sphere.pair, 3)}

    def ops(self, state) -> List[Op]:
        out = []
        for label, copies, o_reps, f_reps in (self.SMOKE if self.smoke else self.PLAN):
            pair, n = state[label]
            for c in range(copies):
                out.append(Op(f"{label}/oracle{c}",
                              lambda pair=pair, n=n, reps=o_reps: repeat(
                                  reps, lambda: ggroups.g_pin_bruteforce(fresh_pair(pair), n)),
                              lambda r: (r.profile(), r.order)))
            out.append(Op(f"{label}/formula",
                          lambda pair=pair, n=n, reps=f_reps: repeat(
                              reps, lambda: ggroups.g_pin(fresh_pair(pair), n)),
                          lambda r: (r.profile(), r.order)))
        return out

    def check(self, state, results) -> List[str]:
        problems = []
        for label in state:
            g = results.get(f"{label}/formula")
            if g is None:
                continue
            for key, r in results.items():
                if key.startswith(f"{label}/oracle"):
                    problems += checks.check_profile(key, r, g)
        return problems


# -- the command line ------------------------------------------------------


class Command:
    """One pinquad invocation with its expected exit code and a checker of
    its parsed stdout records."""

    def __init__(self, label: str, args: List[str], code: int, check=None,
                 malformed: bool = False) -> None:
        self.label, self.args, self.code = label, args, code
        self.check_fn = check
        self.malformed = malformed


def _current_cpu() -> int:
    with open("/proc/self/stat", encoding="ascii") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def _records(stdout: str) -> List[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class CliSmall(Workload):
    """Fixed pinquad commands, each in a fresh child process, one at a time."""

    name = "cli_small"
    min_passes = 4
    rss_from_children = True
    # The identity suites draw random complexes of dimension 2 to 5 from
    # their --seed, and their cost swings with that draw, so they keep the
    # CLI's default seed; the seed varies the verify seeds and the cochain.
    IDENTITY_TRIALS = 100
    VERIFY_TRIALS = 40
    FIXTURES = ("rp2", "torus", "klein", "mobius", "annulus", "solid_torus")

    def prepare(self) -> None:
        # Children run on the CPU this process runs on, so that the kernel
        # timed here measures the speed the child sees.
        os.sched_setaffinity(0, {_current_cpu()})
        for name in self.FIXTURES:
            fixtures.catalog(name)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = os.path.join(OUT_DIR, f"cli_{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.trace_files: List[str] = []
        rp2 = fixtures.catalog("rp2")
        cob = checks.Coboundary(rp2.pair, 2)
        basis = cochains.CohomologySolver(fresh_pair(rp2.pair), 1).basis
        self.cocycle = checks.support(basis[0]) ^ cob.d(
            {s for s in cob.rel[0] if self.rng.random() < 0.5}, 0)

    def setup(self):
        """Inputs and reference data: fixture hashes, strip profiles, and
        two cochain files (the seeded cocycle with its value under the
        library, and one that names a non-simplex)."""
        hashes = {}
        for name in self.FIXTURES:
            text = fixtures.fixture_text(name)
            hashes[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        profiles = {}
        for name, make in (("mobius", fixtures.raw_mobius_pair),
                           ("annulus", fixtures.raw_annulus_pair)):
            pair = make()
            text = textio.format_complex(pair.ambient)
            hashes[f"{name}(raw)"] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            profiles[name] = ggroups.g_pin(pair, 2)
        rp2 = fresh_manifold(fixtures.catalog("rp2"))
        p = cochains.Cochain(rp2.complex, 1, cochains.Z2, {s: 1 for s in self.cocycle})
        good = os.path.join(self.workdir, "good.cochain")
        with open(good, "w", encoding="utf-8") as f:
            f.write(textio.format_cochain(p))
        bad = os.path.join(self.workdir, "bad.cochain")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("cochain Z2 1\n0 99 -> 1\n")
        value = quadratic.eval_quadratic(quadratic.make_quadratic(rp2, "pin", [1]), p).z4
        return {"hashes": hashes, "profiles": profiles, "good": good, "bad": bad,
                "value": value}

    def commands(self, state) -> List[Command]:
        h = state["hashes"]
        seed = str(self.seed)

        def hashed(name):
            return lambda recs: [f"hash {r['hash']} != {h[name]}"
                                 for r in recs if r["hash"] != h[name]]

        def expect(name, fn):
            return lambda recs: hashed(name)(recs) + fn(recs)

        def info(name, f):
            return expect(name, lambda recs: [] if recs[0]["f_vector"] == list(f)
                          and recs[0]["euler"] == sum((-1) ** k * x for k, x in enumerate(f))
                          else ["info: wrong f-vector or euler"])

        def brown(name):
            return expect(name, lambda recs: checks.check_brown(name, recs[0]["betas"]))

        def count(name, k):
            return expect(name, lambda recs: [] if len(recs) == k
                          else [f"{len(recs)} functions, expected {k}"])

        def ggroup(name, profile, order):
            return expect(name, lambda recs: [] if (recs[0]["profile"], recs[0]["order"])
                          == (profile, order) else [f"{name}: {recs[0]['profile']}"])

        def strip(name):
            g = state["profiles"][name]
            return ggroup(f"{name}(raw)", g.profile(), g.order)

        def no_failures(recs):
            return [f"{r.get('suite', 'verify')}: {r['failures']} failures"
                    for r in recs if r["failures"]]

        def cohomology(name, dim):
            m = fixtures.catalog(name)

            def fn(recs):
                cob = checks.Coboundary(m.pair, m.n)
                out = [] if recs[0]["dim"] == dim else ["wrong dimension"]
                for lines in recs[0]["basis"]:
                    c = textio.parse_cochain("\n".join(lines), m.complex)
                    if c.degree != 1 or cob.d(checks.support(c), 1):
                        out.append("basis cocycle not closed")
                return out
            return expect(name, fn)

        def mutant(recs):
            return [] if recs and recs[0]["failures"] > 0 else ["control did not fail"]

        def evaluated(recs):
            return [] if recs[0]["value_z4"] == state["value"] else ["wrong Q(p)"]

        st_f = fixtures.catalog("solid_torus").complex.f_vector()
        verify_torus = ["quad", "verify", "--fixture", "torus",
                        "--trials", str(self.VERIFY_TRIALS), "--seed", seed]
        cmds = [
            Command("info_rp2", ["info", "--fixture", "rp2"], 0, info("rp2", (6, 15, 10))),
            Command("info_solid_torus", ["info", "--fixture", "solid_torus"], 0,
                    info("solid_torus", st_f)),
            Command("cohomology_torus", ["cohomology", "--fixture", "torus", "-k", "1",
                                         "--basis"], 0, cohomology("torus", 2)),
            Command("cohomology_annulus_rel", ["cohomology", "--fixture", "annulus", "-k", "1",
                                               "--rel", "--basis"], 0, cohomology("annulus", 1)),
            Command("enumerate_rp2", ["quad", "enumerate", "--fixture", "rp2"], 0, count("rp2", 2)),
            Command("enumerate_klein", ["quad", "enumerate", "--fixture", "klein"], 0,
                    count("klein", 4)),
            Command("brown_rp2", ["quad", "brown", "--fixture", "rp2"], 0, brown("rp2")),
            Command("brown_torus", ["quad", "brown", "--fixture", "torus"], 0, brown("torus")),
            Command("brown_klein", ["quad", "brown", "--fixture", "klein"], 0, brown("klein")),
            Command("verify_mobius", ["quad", "verify", "--fixture", "mobius", "--trials",
                                      str(self.VERIFY_TRIALS), "--seed", seed], 0,
                    expect("mobius", no_failures)),
            Command("verify_torus", verify_torus, 0, expect("torus", no_failures)),
            Command("eval_rp2", ["quad", "eval", "--fixture", "rp2", "--values", "1",
                                 "--cochain", state["good"]], 0, expect("rp2", evaluated)),
            Command("ggroup_rp2", ["ggroup", "--fixture", "rp2"], 0, ggroup("rp2", "Z/4", 4)),
            Command("ggroup_solid_torus", ["ggroup", "--fixture", "solid_torus"], 0,
                    ggroup("solid_torus", "Z/2 + Z/2", 4)),
            Command("oracle_mobius", ["ggroup", "--fixture", "mobius", "--engine",
                                      "bruteforce"], 0, strip("mobius")),
            Command("oracle_annulus", ["ggroup", "--fixture", "annulus", "--engine",
                                       "bruteforce"], 0, strip("annulus")),
            Command("identities", ["identities", "--trials", str(self.IDENTITY_TRIALS)], 0,
                    lambda recs: no_failures(recs) + ([] if len(recs) == 8
                                                      else ["expected eight suites"])),
            Command("identities_mutant", ["identities", "--suites", "coboundary",
                                          "--mutate-signs", "--trials",
                                          str(self.IDENTITY_TRIALS)], 2, mutant),
            Command("verify_torus_again", verify_torus, 0, expect("torus", no_failures)),
            Command("bad_negate_count", ["quad", "negate", "--fixture", "torus",
                                         "--values", "0"], 1, malformed=True),
            Command("bad_eval_value", ["quad", "eval", "--fixture", "rp2", "--values", "x",
                                       "--cochain", state["good"]], 1, malformed=True),
            Command("bad_cochain_simplex", ["quad", "eval", "--fixture", "rp2", "--values", "1",
                                            "--cochain", state["bad"]], 1, malformed=True),
        ]
        for c in cmds:
            if not c.malformed:
                c.args = c.args + ["--format", "jsonl"]
        return cmds

    def ops(self, state) -> List[Op]:
        self.cmds = self.commands(state)
        return [Op(c.label, lambda c=c: self._run(c), lambda r: r[1]) for c in self.cmds]

    def close(self) -> None:
        if hasattr(self, "workdir"):
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self, cmd: Command):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if self.tracer is None:
            argv = [sys.executable, "-m", "pinquad.cli"] + cmd.args
        else:
            spans = os.path.join(self.workdir, f"spans_{len(self.trace_files)}.jsonl")
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py"), spans] + cmd.args
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            self.trace_files.append(spans)
        if "Traceback" in proc.stderr:
            raise OpFailed(f"{cmd.label}: uncaught exception")
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, state, results) -> List[str]:
        problems = []
        for c in self.cmds:
            r = results.get(c.label)
            if r is None:
                continue
            code, stdout, stderr = r
            if code != c.code:
                problems.append(f"{c.label}: exit {code}, expected {c.code}")
                continue
            if c.malformed:
                lines = stderr.strip().splitlines()
                if stdout or len(lines) != 1 or not lines[0].startswith("error:"):
                    problems.append(f"{c.label}: expected one error line, got {stderr!r}")
                continue
            try:
                problems += [f"{c.label}: {p}" for p in c.check_fn(_records(stdout))]
            except (ValueError, KeyError, IndexError) as e:
                problems.append(f"{c.label}: unreadable output ({e})")
        first = results.get("verify_torus")
        again = results.get("verify_torus_again")
        if first is not None and again is not None and first[1] != again[1]:
            problems.append("verify_torus: repeated command printed different stdout")
        return problems


WORKLOADS = {w.name: w for w in (SolveScaled, QuadEval, GgroupOracle, CliSmall)}
