"""Unit tests for the shared spec-grammar plumbing.

All three fault planes (hard faults, sensor faults, soft errors) parse
through :mod:`repro.faults.specs`; these tests pin the shared mechanics
— clause splitting, the ``r<N>`` router token, the one-line error
wrapper — plus the cross-grammar guarantee that every grammar reports
malformed clauses with the same ``bad <what> clause ...`` shape.
"""

import pytest

from repro.faults.hardfaults import parse_fault_spec
from repro.faults.sensors import parse_sensor_spec
from repro.faults.softerrors import parse_soft_error_spec
from repro.faults.specs import parse_router_token, parse_spec, split_clauses


class TestSplitClauses:
    def test_strips_and_drops_empty(self):
        assert split_clauses(" a@1 ;; b@2 ; ") == ["a@1", "b@2"]

    def test_empty_spec_is_no_clauses(self):
        assert split_clauses("") == []
        assert split_clauses(" ; ; ") == []


class TestRouterToken:
    def test_parses_r_prefixed_id(self):
        assert parse_router_token(" r12 ") == 12

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError, match="router must be written 'r<id>'"):
            parse_router_token("12")

    def test_rejects_non_numeric_id(self):
        with pytest.raises(ValueError):
            parse_router_token("rx")


class _Item:
    def __init__(self, kind, rest):
        self.kind, self.rest = kind, rest

    def format(self):
        return f"{self.kind}@{self.rest}"

    def sort_key(self):
        return (self.kind, self.rest)


class TestParseSpec:
    def test_sorts_canonically_and_round_trips(self):
        for spec in ("b@2;a@1", "a@1;b@2"):
            items = parse_spec(spec, "demo", _Item, _Item.sort_key)
            assert [i.format() for i in items] == ["a@1", "b@2"]

    def test_clause_without_at_is_rewrapped(self):
        with pytest.raises(ValueError, match=r"bad demo clause 'oops'"):
            parse_spec("oops", "demo", _Item, _Item.sort_key)

    def test_handler_error_is_rewrapped_with_clause(self):
        def boom(kind, rest):
            raise KeyError(kind)

        with pytest.raises(ValueError, match=r"bad demo clause 'a@1'"):
            parse_spec("a@1", "demo", boom, _Item.sort_key)


class TestUniformErrorShape:
    """Every grammar built on the shared plumbing reports identically."""

    @pytest.mark.parametrize(
        "parser, what",
        [
            (parse_fault_spec, "fault"),
            (parse_sensor_spec, "sensor"),
            (parse_soft_error_spec, "soft-error"),
        ],
    )
    def test_malformed_clause_names_grammar_and_clause(self, parser, what):
        with pytest.raises(ValueError, match=rf"bad {what} clause 'nope@x'"):
            parser("nope@x")

    @pytest.mark.parametrize(
        "parser",
        [parse_fault_spec, parse_sensor_spec, parse_soft_error_spec],
    )
    def test_empty_spec_is_healthy(self, parser):
        assert parser("") == []
