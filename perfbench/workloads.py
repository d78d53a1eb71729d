"""The three workloads: their inputs, one job each, and the output checks.

Every job starts from a map document (the text a user would pass to
``forminv invert/verify/flow``) and ends with the program's serialized
result, so it covers the CLI's data path without interpreter start-up.
Jobs call the library through module attributes (``lib.inversion.
cross_check``), so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import linecheck
import maps


@dataclass
class Input:
    doc: str  # the map document the program receives
    h: list  # H as {exponent: Fraction} dicts, for the independent checks
    probes: tuple = ()  # (component, exponent) pairs for jacobi_coefficient


@dataclass
class Outcome:
    text: str  # the serialized output that is hashed
    failures: list = field(default_factory=list)  # checks the program failed
    data: dict = field(default_factory=dict)


class Workload:
    name = ""
    degree = 0
    jobs = 0  # distinct inputs per run, a whole number of the maps' shape cycles
    trace_jobs = 0  # jobs in the traced run (and in output_digest)

    def make_h(self, rng: random.Random, index: int) -> list:
        raise NotImplementedError

    def make_input(self, rng: random.Random, index: int) -> Input:
        h = self.make_h(rng, index)
        return Input(maps.document(h, self.degree), h)

    def inputs(self, seed: int, start: int, count: int) -> list[Input]:
        """Inputs ``start .. start+count-1`` of the seed's stream; each is
        drawn from its own generator, so the stream does not depend on how
        it is cut into batches."""
        return [
            self.make_input(random.Random(f"{self.name}:{seed}:{i}"), i)
            for i in range(start, start + count)
        ]

    def warmup_input(self) -> Input:
        """A fixed map, the same for every seed."""
        return self.make_input(random.Random(f"{self.name}:warm-up"), 0)

    def run(self, lib, inp: Input) -> Outcome:
        raise NotImplementedError

    def check(self, inp: Input, out: Outcome, rng: random.Random) -> bool:
        """Independent check of the output (see ``linecheck``)."""
        return linecheck.is_inverse(inp.h, out.text, self.degree, rng)

    @staticmethod
    def known_defect(out: Outcome) -> bool:
        return False


class Wide(Workload):
    """n=3 homogeneous cubic; cross_check through degree 7, all map methods."""

    name = "wide"
    degree = 7
    jobs = 96
    trace_jobs = 24

    def make_h(self, rng, index):
        return maps.wide_map(rng, index)

    def run(self, lib, inp):
        f = lib.mapdoc.parse_map(inp.doc).to_mapf()
        report = lib.inversion.cross_check(f, self.degree)
        return Outcome(lib.mapdoc.serialize_polymap(report.inverse, self.degree))


class Deep(Workload):
    """n=1, mixed degrees; cross_check through degree 30 with the methods
    that apply there at reasonable cost."""

    name = "deep"
    degree = 30
    methods = ("fixed", "recurrent", "ag")
    jobs = 120
    trace_jobs = 30

    def make_h(self, rng, index):
        return maps.deep_map(rng, index)

    def run(self, lib, inp):
        f = lib.mapdoc.parse_map(inp.doc).to_mapf()
        report = lib.inversion.cross_check(f, self.degree, self.methods)
        return Outcome(lib.mapdoc.serialize_polymap(report.inverse, self.degree))


LEMMA31_NILPOTENCY = "lemma31: nilpotency indices match"


class Identities(Workload):
    """Homogeneous H (n, d) in {2,3}^2, the shapes taken in turn; the
    identity suite of ``forminv verify``/``flow`` through degree 6."""

    name = "identities"
    degree = 6
    jobs = 144
    trace_jobs = 24

    def make_h(self, rng, index):
        return maps.identities_map(rng, index)

    def make_input(self, rng, index):
        h = self.make_h(rng, index)
        probes = maps.jacobi_probes(rng, len(h), self.degree)
        return Input(maps.document(h, self.degree), h, tuple(probes))

    def run(self, lib, inp):
        flow, inversion, mapdoc = lib.flow, lib.inversion, lib.mapdoc
        d = self.degree
        f = mapdoc.parse_map(inp.doc).to_mapf()
        failures = []
        residual = flow.pde_residual(flow.deformation_inverse(f, d))
        if not all(c.is_zero() for c in residual.components):
            failures.append("pde_residual = 0")
        flow_series = flow.formal_flow(f, d)
        inverse = flow_series.at(-1)
        if not inverse.eq_through(inversion.invert_recurrent(f, d).inverse_map(), d):
            failures.append("flow at -1 = invert_recurrent")
        square = flow_series.at(2)
        if not square.eq_through(flow.power_map(f, 2, d), d):
            failures.append("flow at 2 = power_map(F, 2)")
        lemma31 = flow.check_lemma31(f, d)
        for label, report in (
            ("lemma31", lemma31),
            ("euler", flow.check_euler_identities(f.h, d)),
            ("prop310", flow.check_prop310(f, d, 2, 2)),
        ):
            failures += [f"{label}: {item.name}" for item in report.items if not item.ok]
        for i, k in inp.probes:
            if inversion.jacobi_coefficient(f, i, k) != inverse.components[i].terms.get(k, 0):
                failures.append(f"jacobi_coefficient({i}, {k}) = inverse")
        text = mapdoc.serialize_polymap(inverse, d) + "\n" + mapdoc.serialize_polymap(square, d)
        return Outcome(text, failures, dict(lemma31.data))

    def check(self, inp, out, rng):
        inverse, square = out.text.split("\n")
        return linecheck.is_inverse(inp.h, inverse, self.degree, rng) and linecheck.is_square(
            inp.h, square, self.degree, rng
        )

    @staticmethod
    def known_defect(out):
        """The truncated nilpotency test in ``flow._nilpotency_index_through``
        treats JN_t^k as zero once its z-order k(d-1) exceeds D-1, so for a
        non-nilpotent JH it can report an index; only that item fails."""
        return (
            out.failures == [LEMMA31_NILPOTENCY]
            and out.data.get("JH nilpotency index") == "not nilpotent"
            and isinstance(out.data.get("JN_t nilpotency index (through truncation)"), int)
        )


WORKLOADS = {w.name: w for w in (Wide(), Deep(), Identities())}
