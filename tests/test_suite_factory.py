"""Unit tests for the Table 2 method-suite factory."""

import pytest

from repro.core import ReverseStateReconstruction
from repro.warmup import (
    FixedPeriodWarmup,
    NoWarmup,
    SmartsWarmup,
    resolve_method,
    paper_method_names,
    paper_method_suite,
)


class TestSuite:
    def test_sixteen_configurations(self):
        assert len(paper_method_suite()) == 16

    def test_names_match_table2(self):
        expected = [
            "None",
            "FP (20%)", "FP (40%)", "FP (80%)",
            "S$", "SBP", "S$BP",
            "R$ (20%)", "R$ (40%)", "R$ (80%)", "R$ (100%)",
            "RBP",
            "R$BP (20%)", "R$BP (40%)", "R$BP (80%)", "R$BP (100%)",
        ]
        assert paper_method_names() == expected

    def test_fresh_instances_each_call(self):
        first = paper_method_suite()
        second = paper_method_suite()
        assert all(a is not b for a, b in zip(first, second))

    def test_types(self):
        suite = {method.name: method for method in paper_method_suite()}
        assert isinstance(suite["None"], NoWarmup)
        assert isinstance(suite["FP (20%)"], FixedPeriodWarmup)
        assert isinstance(suite["S$BP"], SmartsWarmup)
        assert isinstance(suite["R$BP (20%)"], ReverseStateReconstruction)

    def test_selective_warm_flags(self):
        suite = {method.name: method for method in paper_method_suite()}
        assert suite["S$"].warms_cache and not suite["S$"].warms_predictor
        assert suite["SBP"].warms_predictor and not suite["SBP"].warms_cache
        assert suite["R$ (40%)"].warms_cache and \
            not suite["R$ (40%)"].warms_predictor
        assert suite["RBP"].warms_predictor and not suite["RBP"].warms_cache

    def test_reverse_fractions(self):
        suite = {method.name: method for method in paper_method_suite()}
        assert suite["R$BP (20%)"].fraction == pytest.approx(0.2)
        assert suite["R$BP (100%)"].fraction == pytest.approx(1.0)
        assert suite["RBP"].fraction == pytest.approx(1.0)


class TestMakeMethod:
    def test_builds_by_name(self):
        method = resolve_method("R$BP (40%)")
        assert isinstance(method, ReverseStateReconstruction)
        assert method.fraction == pytest.approx(0.4)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown method"):
            resolve_method("bogus")

    def test_every_listed_name_buildable(self):
        for name in paper_method_names():
            assert resolve_method(name).name == name
