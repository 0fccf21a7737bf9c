"""Exception types, the Undecided search outcome, the search budget and the candidate cap."""

from __future__ import annotations

import operator
from typing import Iterable


class SpectileError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulus(SpectileError):
    """A cyclic factor modulus is out of range."""


class Overflow(SpectileError):
    """A group is too large: its order exceeds 64-bit range, or its tables
    would exceed their cap."""


class GroupMismatch(SpectileError):
    """An element or multiset does not belong to the expected group."""


class NotADivisor(SpectileError):
    """A size argument does not divide the group order."""


class InvalidArgument(SpectileError):
    """An argument violates a documented precondition."""


class EmptyInput(SpectileError):
    """A nonempty set was required."""


class NotTwoDistinctPrimes(SpectileError):
    """The group is not Z_p x Z_q with distinct primes p, q."""


class NotPQShape(SpectileError):
    """The group is not Z_p^2 x Z_q^2 with distinct primes p, q."""


class WrongShape(SpectileError):
    """The group does not have the factor shape an operation requires."""


class InvalidDirection(SpectileError):
    """A direction argument is zero or lies in the wrong factor."""


class TooSmall(SpectileError):
    """The input set is below the minimum size an operation requires."""


class NotATilingPair(SpectileError):
    """The given (set, complement) pair does not tile the group."""


class NotASpectralPair(SpectileError):
    """The given (set, spectrum) pair is not a spectral pair."""


class TheoremViolation(SpectileError):
    """A certified-impossible situation occurred; report the input."""


class BudgetExhausted(SpectileError):
    """A search ran out of node budget before reaching a verdict."""


class ParseError(SpectileError):
    """A document could not be parsed."""


class InvalidElement(ParseError):
    """A parsed element tuple is not valid for the declared group."""


class Undecided:
    """Singleton outcome for searches that ran out of budget.

    Distinct from both a witness and a proven-absent None; callers must
    treat it explicitly and never coerce it to a boolean verdict.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDECIDED"

    def __bool__(self) -> bool:
        raise TypeError("Undecided outcome has no boolean value")


UNDECIDED = Undecided()

# search nodes a clique or exact-cover search may spend before it answers UNDECIDED
DEFAULT_BUDGET = 5_000_000

# The most candidates one sweep, probe or tile enumeration may decide: on one
# core, about 40 s exhaustive (2.5 * 10^6 per second, the size-9 walk's rate;
# the perfbench acceptance sweep reaches 4.5 * 10^6, since its cold sizes
# settle whole orbits of words) or 4.5 minutes sampled (3.8 * 10^5 per second)
# on Z_2^2 x Z_3^2. It admits every 0-containing 9-set of that group (C(35, 8)).
MAX_CANDIDATES = 10**8


def check_candidates(what: str, count: int, sampled: bool) -> None:
    """Refuse, before any work, a plan of more than MAX_CANDIDATES candidates."""
    if count > MAX_CANDIDATES:
        kind, advice = ("a sampled", "fewer") if sampled else ("an exhaustive", "instead")
        raise InvalidArgument(
            f"{kind} {what} has {count} candidates, over the cap of {MAX_CANDIDATES}; "
            f"sample {advice} (--samples)"
        )


def integers(values: Iterable, what: str, error: type[SpectileError]) -> tuple[int, ...]:
    """values as a tuple of ints, through operator.index, which refuses
    floats and strings instead of truncating them, and not bool, an int
    subclass that would pass True for 1; raises error otherwise."""
    try:
        values = tuple(values)
        if bool in map(type, values):
            raise TypeError(f"bool in {list(values)!r}")
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"{what} must be integers: {exc}") from exc
