"""Width certificate tests: solver results made independently checkable."""

import math

import pytest

from repro.hypergraph import Hypergraph
from repro.queries import catalog
from repro.widths import (
    FhtwCertificate,
    fhtw_certificate,
    submodular_width,
    subw_lower_certificate,
)


def H(**edges):
    return Hypergraph({k: list(v) for k, v in edges.items()})


class TestFhtwCertificates:
    CASES = [
        (H(R="AB", S="BC", T="AC"), 1.5),
        (H(R="AB", S="BC", T="CD", U="DA"), 2.0),
        (H(R="AB", S="BC"), 1.0),
    ]

    def test_produce_and_verify(self):
        for h, expected in self.CASES:
            cert = fhtw_certificate(h)
            assert math.isclose(cert.value, expected, abs_tol=1e-6)
            assert cert.verify(), h

    def test_tampered_value_fails(self):
        h = H(R="AB", S="BC", T="AC")
        cert = fhtw_certificate(h)
        tampered = FhtwCertificate(
            h, cert.value - 0.2, cert.decomposition, cert.bag_covers
        )
        assert not tampered.verify()

    def test_tampered_cover_fails(self):
        h = H(R="AB", S="BC", T="AC")
        cert = fhtw_certificate(h)
        broken = [dict(c) for c in cert.bag_covers]
        for cover in broken:
            for key in cover:
                cover[key] = 0.0
        tampered = FhtwCertificate(
            h, cert.value, cert.decomposition, broken
        )
        assert not tampered.verify()


class TestSubwCertificates:
    def test_triangle(self):
        h = H(R="AB", S="BC", T="AC")
        cert = subw_lower_certificate(h)
        assert math.isclose(cert.value, 1.5, abs_tol=1e-5)
        assert cert.verify()

    def test_four_cycle(self):
        h = H(R="AB", S="BC", T="CD", U="DA")
        cert = subw_lower_certificate(h)
        assert math.isclose(cert.value, 1.5, abs_tol=1e-5)
        assert cert.verify()

    def test_tampered_value_fails(self):
        h = H(R="AB", S="BC", T="AC")
        cert = subw_lower_certificate(h)
        cert.value += 0.25
        assert not cert.verify()

    def test_tampered_polymatroid_fails(self):
        h = H(R="AB", S="BC", T="AC")
        cert = subw_lower_certificate(h)
        values = dict(cert.h_values)
        # violate edge domination grossly
        values[frozenset({"A", "B"})] = 5.0
        cert.h_values = values
        assert not cert.verify()

    def test_brackets_match_for_lw4_class1(self):
        """Figure 10's class: the certificates bracket subw=3/2 < fhtw=2."""
        h = Hypergraph(
            {
                "R": ["A1", "B1", "C1", "B2", "C2"],
                "S": ["B1", "C1", "D1", "C2", "D2"],
                "T": ["C1", "D1", "A1", "D2", "A2"],
                "U": ["D1", "A1", "B1", "A2", "B2"],
            }
        )
        lower = subw_lower_certificate(h)
        upper = fhtw_certificate(h)
        assert math.isclose(lower.value, 1.5, abs_tol=1e-5)
        assert math.isclose(upper.value, 2.0, abs_tol=1e-5)
        assert lower.verify()
        assert upper.verify()


class TestCatalogCertificates:
    def test_triangle_ej_both_sides(self):
        h = catalog.triangle_ej().hypergraph()
        lower = subw_lower_certificate(h)
        upper = fhtw_certificate(h)
        assert lower.verify() and upper.verify()
        assert lower.value <= upper.value + 1e-6


class TestAcyclicSubw:
    """An α-acyclic input has subw 1 and builds no MILP; its certificate
    is ``h(S) = [v ∈ S]`` for one vertex ``v``.  HiGHS presolve failed on
    each of these with "Solve error"."""

    @pytest.mark.parametrize(
        "h",
        [
            H(R="AB", S="BC", T="CD"),
            H(R="AB", S="BC", T="CD", U="DE"),
            H(R="AB", S="AC", T="AD"),
            H(R="AB", S="AC", T="AD", U="AE"),
        ],
        ids=["path3", "path4", "star3", "star4"],
    )
    def test_paths_and_stars(self, h):
        assert submodular_width(h) == 1.0
        cert = subw_lower_certificate(h)
        assert cert.value == 1.0
        assert cert.verify()
