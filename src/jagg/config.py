"""Resource limits shared by the library and the CLI.

Two limits bound the work of a request, both checked before any work starts:
``arity_cap`` bounds the size of a single truth table, and
``enumeration_budget`` bounds every exhaustive sweep through ``charge``.  A
request over either fails with a ``BudgetError``; a charge refusal names
what would fit.  Limits can be overridden per call or via ``JAGG_*``
environment variables.  Output settings are the CLI's alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

ENV_PREFIX = "JAGG_"

LIMITS = ("arity_cap", "enumeration_budget")


class BudgetError(RuntimeError):
    """A requested sweep or object exceeds a configured limit."""


@dataclass(frozen=True)
class Config:
    """Caps for truth-table work.

    arity_cap           largest truth-table arity: Boolean functions, agenda
                        symbols, the basis of a rational set, 2**judges for
                        the shared-function rule sweep and
                        (2**judges - 2)*|basis| for the independent-rule sweep
    enumeration_budget  work-unit cap for every exhaustive sweep, where work
                        is candidate count times per-candidate sweep size (a
                        single pair or rule check is one candidate times its
                        2**(m*n) matrices or |U|**judges profiles; for both
                        rule sweeps, big-int operations on 1024 bits across
                        the candidates: |U|**judges profiles' worth, which
                        covers the distinct profiles composed at every judge
                        count, plus the lift from one judge fewer and the
                        closure under judge permutations at each count);
                        the default of 2**25 admits pair
                        checks up to m*n = 25, the 3x3 pair enumeration,
                        shared-function rule sweeps up to 4 judges and
                        independent-rule sweeps up to 3 judges on agendas
                        of at most three entries
    """

    arity_cap: int = 20
    enumeration_budget: int = 1 << 25

    def __post_init__(self) -> None:
        for field in LIMITS:
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> "Config":
        """Build a config from ``JAGG_*`` environment variables.

        Unset variables keep their defaults; malformed values raise ValueError.
        """
        env = os.environ if environ is None else environ
        overrides: dict[str, int] = {}
        for field in LIMITS:
            raw = env.get(ENV_PREFIX + field.upper())
            if raw is not None:
                try:
                    overrides[field] = int(raw)
                except ValueError:
                    raise ValueError(f"{ENV_PREFIX + field.upper()} must be an "
                                     f"integer, got {raw!r}") from None
        return cls(**overrides)


DEFAULT = Config()


def charge(config: Config, work: int, what: str | Callable[[], str],
           feasible: str | Callable[[], str]) -> None:
    """Fail with a BudgetError if ``work`` exceeds the enumeration budget.

    Either text may be passed as a function that makes it; it is called only
    on refusal, so an admitted charge formats nothing.
    """
    if work > config.enumeration_budget:
        what, feasible = (text() if callable(text) else text for text in (what, feasible))
        raise BudgetError(
            f"{what} needs {work} work units but the enumeration budget is "
            f"{config.enumeration_budget}; feasible at this budget: {feasible}")
