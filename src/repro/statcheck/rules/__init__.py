"""The statcheck rule registry.

Six per-file families, each its own module:

* ``determinism`` (DET) — no hidden entropy, order-stable hashing/serialising;
* ``purity`` (PUR) — stage builders are pure functions of (lab, inputs);
* ``concurrency`` (CONC) — lock coverage, atomic filesystem sequences;
* ``contracts`` (RES/OBS) — failure accounting and span hygiene;
* ``serving`` (SRV) — network transport stays quarantined in repro.serve;
* ``perf`` (PERF) — pipeline artifact reads state their memory story.

A seventh family, ``flow`` (FLOW), lives in
:mod:`repro.statcheck.flow`: those rules are *whole-program* — they need
a call graph over every file, not one :class:`FileContext` — so they are
registered here (``FAMILIES["flow"]``) but instantiated by the flow
package.  :func:`select_rules` returns only the per-file portion of a
selection; pass the same ids to
:func:`repro.statcheck.flow.select_flow_rules` for the rest.

``SYN001`` (unparsable file), ``CYC001`` (module import cycle) and
``SUP001`` (stale suppression) are engine-level checks, documented here
so the catalog is complete.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.statcheck.findings import StatcheckError
from repro.statcheck.rules import (
    concurrency,
    contracts,
    determinism,
    perf,
    purity,
    serving,
)
from repro.statcheck.rules.base import Rule, rule_catalog

#: Every rule class, in reporting order.
RULE_CLASSES: Tuple[Type[Rule], ...] = (
    determinism.RULES
    + purity.RULES
    + concurrency.RULES
    + contracts.RULES
    + serving.RULES
    + perf.RULES
)

#: Rule family name -> the rule ids it contains.
FAMILIES: Dict[str, Tuple[str, ...]] = {
    "determinism": tuple(cls.id for cls in determinism.RULES),
    "purity": tuple(cls.id for cls in purity.RULES),
    "concurrency": tuple(cls.id for cls in concurrency.RULES),
    "contracts": tuple(cls.id for cls in contracts.RULES),
    "serving": tuple(cls.id for cls in serving.RULES),
    "perf": tuple(cls.id for cls in perf.RULES),
    # Whole-program rules (repro.statcheck.flow).  Static tuple rather than
    # an import: the flow package imports the engine, which imports this
    # module — a literal here keeps the registry cycle-free.  A consistency
    # test pins it against flow.FLOW_RULE_IDS.
    "flow": ("FLOW001", "FLOW002", "FLOW003", "FLOW004"),
}


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]


def select_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Per-file rules filtered to ``ids`` (rule ids or family names, any case).

    Flow-family selectors (``flow``, ``FLOW001`` …) are recognised but
    contribute no per-file rules — hand the same ids to
    :func:`repro.statcheck.flow.select_flow_rules` for those.  Raises
    :class:`StatcheckError` for an unknown selector so a typo in CI
    configuration fails loudly instead of silently linting nothing.
    """
    if not ids:
        return default_rules()
    wanted = set()
    known = {cls.id for cls in RULE_CLASSES}
    flow_ids = set(FAMILIES["flow"])
    for selector in ids:
        token = selector.strip()
        if not token:
            continue
        if token.lower() in FAMILIES:
            wanted.update(FAMILIES[token.lower()])
        elif token.upper() in known or token.upper() in flow_ids:
            wanted.add(token.upper())
        else:
            raise StatcheckError(
                f"unknown rule or family {selector!r}; known families: "
                f"{sorted(FAMILIES)}, rules: {sorted(known | flow_ids)}"
            )
    return [cls() for cls in RULE_CLASSES if cls.id in wanted]


def catalog() -> Tuple[dict, ...]:
    """Documentation entries for every rule (id, title, rationale, example),
    flow rules included."""
    from repro.statcheck.flow import flow_catalog

    return rule_catalog(default_rules()) + tuple(flow_catalog())


__all__ = [
    "RULE_CLASSES",
    "FAMILIES",
    "Rule",
    "default_rules",
    "select_rules",
    "catalog",
]
