"""The built-in GMS rule pack.

Importing this package registers every rule with the engine registry
(:func:`repro.analysis.engine.registered_rules` does it lazily).  To add
a project rule: drop a module here, subclass
:class:`~repro.analysis.engine.Rule`, decorate it with
:func:`~repro.analysis.engine.register`, and import it below — the CLI,
baseline, and artifact plumbing pick it up with no further wiring.
"""

from . import (  # noqa: F401  — importing registers the rules
    gms001_set_purity,
    gms002_counter_discipline,
    gms003_resource_lifecycle,
    gms004_silent_suppression,
    gms005_determinism,
)

__all__ = [
    "gms001_set_purity",
    "gms002_counter_discipline",
    "gms003_resource_lifecycle",
    "gms004_silent_suppression",
    "gms005_determinism",
]
