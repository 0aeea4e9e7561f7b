import math
from math import gcd

import pytest

from randic import (Graph, biregular_certificate, bounds_report, build_biregular,
                    build_degree_chain, degree_chain_certificate,
                    degree_multiset, is_connected, lower_bound, randic_direct,
                    to_graph6, upper_bound)

from conftest import complete_bipartite, cycle, disjoint_union, path, star


# ── Biregular builder ─────────────────────────────────────────────────

def test_biregular_1_3_is_star():
    assert build_biregular(1, 3) == star(4)


def test_biregular_2_3_is_k23():
    g = build_biregular(2, 3)
    assert g == complete_bipartite(2, 3)
    assert randic_direct(g).value == pytest.approx(math.sqrt(6), abs=1e-12)


def test_biregular_infeasible_scale_names_minimum():
    with pytest.raises(ValueError, match="minimal feasible scale is 2"):
        build_biregular(2, 4)
    g = build_biregular(2, 4, scale=2)
    assert g.n == 6
    assert sorted(g.degrees) == [2, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("d, D, scale", [(3, 3, 1), (0, 2, 1), (2, 3, 0)])
def test_biregular_rejects_bad_args(d, D, scale):
    with pytest.raises(ValueError):
        build_biregular(d, D, scale)


@pytest.mark.parametrize("scale_extra", [0, 1, 2])
def test_biregular_grid_certificates_and_exact_equality(scale_extra):
    for d in range(1, 9):
        for D in range(d + 1, 9):
            g0 = gcd(d, D)
            scale = g0 + scale_extra
            g = build_biregular(d, D, scale)
            p, q = scale * d // g0, scale * D // g0
            assert g.n == p + q
            cert = biregular_certificate(g)
            assert cert is not None and (cert.a, cert.b) == (d, D)
            # equality with the bound reduces to an integer identity:
            # (number of edges) * (d + D) == d * D * n
            assert D * p * (d + D) == d * D * (p + q)
            value = randic_direct(g).value
            assert abs(value - lower_bound(g.n, d, D)) <= 1e-12


# ── Chain construction ────────────────────────────────────────────────

#: graph6 of build_degree_chain(d, D) for every odd pair 1 <= d < D <= 9,
#: pinning the block layout and the labels of the cross edges.
CHAIN_GRAPH6 = {
    (1, 3): 'Hb?_O[M',
    (1, 5): 'SbG?W[C??@_F?N???A??A??[?@o?Bw?Bw',
    (1, 7): ('bbG?W[C??@_F?N?C????B??[?@w?Bw?@???????W??B_??N???^???^_????'
             '??@?????G????w???@o???@{????}????Nw???@~?'),
    (1, 9): ('ubG?W[C??@_F?N?C????B??[?@w?Bw?@???????W??B_??N???^???^_??C?'
             '????????K????w???@w???@{????~????Nw????_???????????B?????B_?'
             '???@w?????^?????B{?????Nw?????^w????????????C????????O??????'
             'B_??????M???????^???????^???????Nw??????B}???????^{??????@~o'),
    (3, 5): 'PVx??KF@w??O?A?B_@o?^?Bw',
    (3, 7): ('_Vx??KF@wC???B?B_@w?^?@??????W??[??N??Bw??^_?????@????@????w'
             '???M???@{???Fo???Nw???Nw'),
    (3, 9): ('rVx??KF@wC???B?B_@w?^?@??????W??[??N??Bw??^_??_???????@_???w'
             '???N???@{???Fw???Nw???C???????????W????B_????N?????^?????^_?'
             '???Nw????B~????????????_???????O??????[??????M??????Bw??????'
             '^??????@~??????B}??????B~_?????@~o'),
    (5, 7): 'VVz~q???WB_N?^?^_??@???G??w?@o?@{??}??Nw?@~?',
    (5, 9): ('iVz~q???WB_N?^?^_C?????K??w?@w?@{??~??Nw??_???????B???B_??@w'
             '???^???B{???Nw???^w????????C??????O????B_????M?????^?????^??'
             '???Nw????B}?????^{????@~o'),
    (7, 9): ('\\Vz~v~}O???B?F?F_Bw?~?F{?^w????O???A???w??F???^???}???~_??^o'
             '??F~???~w'),
}


@pytest.mark.parametrize("d, D", sorted(CHAIN_GRAPH6))
def test_chain_graph6_golden(d, D):
    assert to_graph6(build_degree_chain(d, D)) == CHAIN_GRAPH6[(d, D)]

def test_chain_1_3_shape():
    g = build_degree_chain(1, 3)
    assert g.n == 9 and g.m == 11
    assert degree_multiset(g) == {1: 1, 2: 3, 3: 5}
    two_term = 4.5 - 0.5 * ((1 - 1 / math.sqrt(2)) ** 2
                            + (1 / math.sqrt(2) - 1 / math.sqrt(3)) ** 2)
    assert randic_direct(g).value == pytest.approx(two_term, abs=1e-12)


def test_chain_3_5_block_sizes():
    g = build_degree_chain(3, 5)
    assert g.n == 5 + 5 + 7 == 17


@pytest.mark.parametrize("d, D", [(1, 2), (2, 4), (3, 1), (3, 3)])
def test_chain_rejects_bad_pairs(d, D):
    with pytest.raises(ValueError):
        build_degree_chain(d, D)


def test_chain_grid_matches_closed_form():
    for d in range(1, 10, 2):
        for D in range(d + 2, 10, 2):
            g = build_degree_chain(d, D)
            deg = g.degrees
            assert min(deg) == d and max(deg) == D
            assert is_connected(g)
            cross = [(u, v) for u, v in g.edges if deg[u] != deg[v]]
            assert len(cross) == D - d
            assert all(abs(deg[u] - deg[v]) == 1 for u, v in cross)
            value = randic_direct(g).value
            assert abs(value - upper_bound(g.n, d, D)) <= 1e-12


# ── Chain membership certificate ──────────────────────────────────────

def test_certificate_on_built_chain():
    cert = degree_chain_certificate(build_degree_chain(1, 3))
    assert cert is not None
    assert (cert.d, cert.D) == (1, 3)
    assert len(cert.cross_edges) == 2


def test_certificate_rejects_star_and_path():
    assert degree_chain_certificate(star(4)) is None   # degree gap 2
    assert degree_chain_certificate(path(4)) is None   # two (1,2) cross edges


def test_certificate_requires_irregular():
    with pytest.raises(ValueError, match="regular"):
        degree_chain_certificate(cycle(5))
    with pytest.raises(ValueError, match="isolated"):
        degree_chain_certificate(Graph(3, ((0, 1),)))


def test_certificate_ignores_connectivity():
    # membership is structural; a regular component neither adds cross edges
    # nor changes the degree range here, and the bound value still matches
    g = disjoint_union(build_degree_chain(1, 3), cycle(4))
    cert = degree_chain_certificate(g)
    assert cert is not None
    value = randic_direct(g).value
    assert abs(value - upper_bound(g.n, 1, 3)) <= 1e-12


def test_certificate_ordering_of_cross_edges():
    g = build_degree_chain(3, 7)
    cert = degree_chain_certificate(g)
    deg = g.degrees
    lows = [min(deg[u], deg[v]) for u, v in cert.cross_edges]
    assert lows == [3, 4, 5, 6]


# ── Reports on constructed witnesses ──────────────────────────────────

def test_reports_certify_tightness():
    for d in range(1, 9):
        for D in range(d + 1, 9):
            rep = bounds_report(build_biregular(d, D, gcd(d, D)))
            assert rep.lower_equality is not None
    for d, D in [(1, 3), (1, 5), (3, 5), (5, 9)]:
        rep = bounds_report(build_degree_chain(d, D))
        assert rep.upper_equality is not None
