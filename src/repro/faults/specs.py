"""Shared plumbing for the ``;``-separated fault spec grammars.

Three fault planes (hard faults, sensor faults, soft errors) each expose
a tiny campaign grammar with the same mechanical shape:

* a spec string is a ``;``-separated list of clauses, each ``kind@rest``;
* whitespace-only clauses are skipped, so trailing ``;`` is harmless;
* any malformed clause raises a one-line ``ValueError`` naming the
  grammar and quoting the offending clause verbatim —
  ``bad <what> clause '<clause>': <why>`` — which the CLI surfaces
  unchanged before any simulation work starts;
* parsed rules/events sort into a canonical order — the order in which
  the models apply rules and draw their random numbers — so the same
  clauses written in any order run the same campaign (sweep-cache keys
  hash the raw string, so they still tell the two spellings apart).
  Each rule's ``format()`` gives its clause back for ledgers, trace
  events and error messages;
* each grammar has one target check, run by its model and by the CLI,
  which rejects a router or link the mesh lacks in the same format.

This module holds that plumbing once; the per-grammar modules
(:mod:`repro.faults.hardfaults`, :mod:`repro.faults.sensors`,
:mod:`repro.faults.softerrors`) keep only their kind-specific clause
handlers and validation.
"""

from __future__ import annotations

from typing import Callable, List, TypeVar

__all__ = [
    "check_routers",
    "parse_router_token",
    "parse_spec",
    "split_clauses",
]

T = TypeVar("T")


def split_clauses(spec: str) -> List[str]:
    """Split a spec string into stripped, non-empty clauses."""
    return [clause.strip() for clause in spec.split(";") if clause.strip()]


def parse_router_token(token: str) -> int:
    """Parse an ``r<N>`` router designator (shared by per-router rules)."""
    token = token.strip()
    if not token.startswith("r"):
        raise ValueError(f"router must be written 'r<id>', got {token!r}")
    return int(token[1:])


def parse_spec(
    spec: str,
    what: str,
    parse_clause: Callable[[str, str], T],
    sort_key: Callable[[T], object],
) -> List[T]:
    """Parse a spec string into canonically-sorted items.

    ``parse_clause(kind, rest)`` builds one item from a clause already
    split at its first ``@``; any ``KeyError``/``IndexError``/
    ``ValueError`` it (or the split) raises is rewrapped into the
    one-line ``bad {what} clause ...`` message with the original clause
    quoted, so every grammar reports errors identically.
    """
    items: List[T] = []
    for clause in split_clauses(spec):
        try:
            kind, rest = clause.split("@", 1)
            items.append(parse_clause(kind.strip(), rest))
        except (KeyError, IndexError, ValueError) as exc:
            raise ValueError(f"bad {what} clause {clause!r}: {exc}") from None
    items.sort(key=sort_key)
    return items


def check_routers(rules, what: str, num_routers: int) -> None:
    """The target check of the per-router grammars: raise the one-line
    ``bad {what} clause ...`` error for the first rule whose ``router``
    is not in a mesh of ``num_routers`` routers (rules that name no
    router keep router 0, which every mesh has)."""
    for rule in rules:
        if rule.router >= num_routers:
            raise ValueError(
                f"bad {what} clause {rule.format()!r}: the mesh has only "
                f"{num_routers} routers"
            )
