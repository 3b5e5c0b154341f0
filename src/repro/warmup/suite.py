"""Factories for the paper's Table 2 warm-up configurations.

Sixteen configurations are evaluated in the paper's appendix:

====================  =====================================================
name                  meaning
====================  =====================================================
None                  no state repair
FP (20/40/80%)        fixed period: warm the trailing x% of each gap
S$ / SBP / S$BP       SMARTS full functional warming (cache / BP / both)
R$ (20/40/80/100%)    reverse cache reconstruction from the log tail
RBP                   reverse on-demand branch-predictor reconstruction
R$BP (20/40/80/100%)  reverse reconstruction of both
====================  =====================================================
"""

from __future__ import annotations

from ..core.method import ReverseStateReconstruction
from .base import WarmupMethod
from .fixed_period import FixedPeriodWarmup, SmartsWarmup
from .none import NoWarmup

#: Warm-up percentages swept by the paper.
PAPER_FRACTIONS = (0.2, 0.4, 0.8)
REVERSE_FRACTIONS = (0.2, 0.4, 0.8, 1.0)


def _catalogue():
    """(prototype instance, factory) pairs for every Table 2 entry."""
    entries = [
        (NoWarmup, ()),
        *(
            (FixedPeriodWarmup, (fraction,))
            for fraction in PAPER_FRACTIONS
        ),
        (SmartsWarmup, (True, False)),
        (SmartsWarmup, (False, True)),
        (SmartsWarmup, (True, True)),
        *(
            (ReverseStateReconstruction, (fraction, True, False))
            for fraction in REVERSE_FRACTIONS
        ),
        (ReverseStateReconstruction, (1.0, False, True)),
        *(
            (ReverseStateReconstruction, (fraction, True, True))
            for fraction in REVERSE_FRACTIONS
        ),
    ]
    pairs = []
    for cls, args in entries:
        pairs.append((cls(*args), lambda cls=cls, args=args: cls(*args)))
    return pairs


def paper_method_suite() -> list[WarmupMethod]:
    """Fresh instances of all sixteen Table 2 configurations."""
    return [factory() for _prototype, factory in _catalogue()]


def paper_method_names() -> list[str]:
    """Table 2 names in canonical order."""
    return [prototype.name for prototype, _factory in _catalogue()]
