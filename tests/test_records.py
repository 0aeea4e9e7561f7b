"""Graph and the result records are immutable and survive pickling, which is
how a pool's results cross processes."""

import pickle
from array import array

import pytest

from randic import (BiregularCertificate, BoundsReport, DegreeChainCertificate,
                    DegreeProfile, EnumerationSummary, Graph, RandicValue,
                    VerificationReport, biregular_certificate, bounds_report,
                    build_biregular, build_degree_chain,
                    degree_chain_certificate, degree_profile, extremal_scan,
                    parse_edge_list, randic_direct, verify_theorems)
from randic.enumeration import CheckResult


def _records():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    chain = build_degree_chain(1, 3)
    report = bounds_report(build_biregular(2, 3))
    # no graph with d < D has both certificates, so the chain's is grafted on
    both = report._replace(upper_equality=degree_chain_certificate(chain))
    verification = verify_theorems(4)
    return [randic_direct(star), both, degree_profile(star),
            biregular_certificate(star), degree_chain_certificate(chain),
            verification.checks[0], verification, extremal_scan(4)[0]]


RECORDS = _records()
RECORD_TYPES = (RandicValue, BoundsReport, DegreeProfile, BiregularCertificate,
                DegreeChainCertificate, CheckResult, VerificationReport,
                EnumerationSummary)


def _parsed_graph():
    g = parse_edge_list("5\n3 4\n0 1\n1 2\n0 2\n2 3\n")
    assert type(g._us) is array and g._us.typecode == "q"
    return g


def test_every_record_type_is_covered():
    assert [type(r) for r in RECORDS] == list(RECORD_TYPES)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_set_or_deleted(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 0


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_pickle_round_trips(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_bounds_report_keeps_both_certificates_through_pickle():
    report = RECORDS[1]
    copy = pickle.loads(pickle.dumps(report))
    assert type(copy.lower_equality) is BiregularCertificate
    assert type(copy.upper_equality) is DegreeChainCertificate
    assert (copy.lower_equality, copy.upper_equality) == (
        report.lower_equality, report.upper_equality)


def test_records_are_tuples():
    rv = randic_direct(Graph(2, [(0, 1)]))
    assert rv == (1.0, {(1, 1): 1})
    value, pairs = rv
    assert (value, pairs) == (rv[0], rv[1])
    assert rv._replace(value=2.0).value == 2.0


@pytest.mark.parametrize("g", [Graph(3, [(1, 2), (0, 1)]), _parsed_graph()],
                         ids=["tuple-columns", "parsed"])
def test_graph_attributes_cannot_be_set_or_deleted(g):
    g.degrees, g.edges  # cached, so held in the instance dict
    before = dict(vars(g))
    for name in ("n", "_us", "degrees", "edges", "m", "unknown"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
    for name in ("n", "_us", "degrees", "edges", "unknown"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert vars(g) == before


def test_parsed_graph_pickle_round_trips():
    g = _parsed_graph()
    g.degrees  # cached, so that the pickle carries it
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    assert type(copy._us) is array and copy._us.typecode == "q"
    assert vars(copy)["degrees"] == (2, 2, 3, 2, 1)
    assert copy.edges == ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))
    with pytest.raises(AttributeError):
        copy.n = 6
