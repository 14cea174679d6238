"""Pipeline schedule generators.

Each generator produces, per pipeline rank, the ordered list of compute
instructions that rank executes — exactly the static per-rank programs a
real pipeline engine runs.  Three generators cover the paper's four
schedules (Figure 4) and the Section 4.2 hybrid;
:func:`repro.core.schedules.base.build_schedule` dispatches to them:

- :func:`repro.core.schedules.breadth_first.breadth_first_order` — looped,
  the paper's contribution: all micro-batches of a stage before the next
  stage, maximizing communication/computation overlap.  At ``N_loop = 1``
  it is GPipe (Huang et al. 2018): the forward phase, then the backward
  phase.
- :func:`repro.core.schedules.one_f_one_b.one_f_one_b_order` — non-looped,
  backward-first with bounded in-flight micro-batches (Harlap et al. 2018).
- :func:`repro.core.schedules.hybrid.hybrid_order` — looped, in sequences
  of ``S`` micro-batches.  At ``S = N_PP`` it is Megatron-LM's
  interleaved depth-first schedule (Narayanan et al. 2021); larger ``S``
  is the Section 4.2 hybrid.
"""

from repro.core.schedules.base import Schedule, build_schedule
from repro.core.schedules.one_f_one_b import one_f_one_b_order
from repro.core.schedules.breadth_first import breadth_first_order
from repro.core.schedules.hybrid import hybrid_order

__all__ = [
    "Schedule",
    "breadth_first_order",
    "build_schedule",
    "hybrid_order",
    "one_f_one_b_order",
]
