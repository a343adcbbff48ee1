"""Resource limits and output settings shared by the library and the CLI.

Every exhaustive sweep in this package is bounded up front: the cost of a
request is computed before any work starts, and requests over budget fail
with a message naming what would fit.  Limits can be overridden per call,
via CLI flags, or via ``JAGG_*`` environment variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_PREFIX = "JAGG_"

OUTPUT_FORMATS = ("text", "json")


class BudgetError(RuntimeError):
    """A requested sweep or object exceeds a configured limit."""


@dataclass(frozen=True)
class Config:
    """Caps for truth-table work.

    arity_cap           largest Boolean-function arity (and agenda symbol count)
    matrix_cap          largest m*n for a single commutation check
    enumeration_budget  work-unit cap for exhaustive enumerations, where work
                        is candidate count times per-candidate sweep size
                        (for the shared-function rule sweep, big-int
                        operations on 1024 bits); the default of 2**25 admits
                        the 3x3 pair enumeration, shared-function rule sweeps
                        up to 4 judges and independent-rule sweeps up to 3
                        judges on small agendas
    profile_cap         largest profile count |U|**n for one aggregation check
    output_format       default CLI rendering, "text" or "json"
    """

    arity_cap: int = 20
    matrix_cap: int = 25
    enumeration_budget: int = 1 << 25
    profile_cap: int = 10**7
    output_format: str = "text"

    def __post_init__(self) -> None:
        for field in ("arity_cap", "matrix_cap", "enumeration_budget", "profile_cap"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}, "
                             f"got {self.output_format!r}")

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> "Config":
        """Build a config from ``JAGG_*`` environment variables.

        Unset variables keep their defaults; malformed values raise ValueError.
        """
        env = os.environ if environ is None else environ
        overrides: dict[str, object] = {}
        for field in ("arity_cap", "matrix_cap", "enumeration_budget", "profile_cap"):
            raw = env.get(ENV_PREFIX + field.upper())
            if raw is not None:
                try:
                    overrides[field] = int(raw)
                except ValueError:
                    raise ValueError(f"{ENV_PREFIX + field.upper()} must be an "
                                     f"integer, got {raw!r}") from None
        raw = env.get(ENV_PREFIX + "OUTPUT_FORMAT")
        if raw is not None:
            overrides["output_format"] = raw
        return cls(**overrides)  # type: ignore[arg-type]

    def with_overrides(self, **kwargs: object) -> "Config":
        """Copy of this config with the given fields replaced (Nones ignored)."""
        kept = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kept) if kept else self  # type: ignore[arg-type]


DEFAULT = Config()


def charge(config: Config, work: int, what: str, feasible: str) -> None:
    """Fail with a BudgetError if ``work`` exceeds the enumeration budget."""
    if work > config.enumeration_budget:
        raise BudgetError(
            f"{what} needs {work} work units but the enumeration budget is "
            f"{config.enumeration_budget}; feasible at this budget: {feasible}")
