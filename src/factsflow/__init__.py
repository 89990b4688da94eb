"""Maximum-throughput analysis of DC power networks with controllable lines.

The package models networks in the linearised (DC) approximation where the
flow on a line equals its susceptance times the phase-angle difference of
its endpoints.  Lines carrying a control device may vary their susceptance
inside an interval, which turns the throughput maximisation into a
disjunctive mixed-integer problem.  The pieces:

* :mod:`factsflow.model` — domain types and solution validation;
* :mod:`factsflow.linprog` — the in-house bounded-variable simplex;
* :mod:`factsflow.formulations` — fixed-susceptance (MPF) and
  fixed-direction (MVF) linear programs and the sign utilities;
* :mod:`factsflow.maxflow` — classic max flow (MF) and constructive lifts
  for the special cases where it equals the exact optimum;
* :mod:`factsflow.mip` — the exact solver (MFF) by branch and bound on the
  cone-sum relaxation;
* :mod:`factsflow.iterative` — the alternating heuristic (IM) and its
  three-start variant;
* :mod:`factsflow.gadgets` — all-or-nothing choice networks and the
  exact-cover throughput encoding built from them;
* :mod:`factsflow.caseio` — MATPOWER-style ingest, scenario generation and
  JSON/CSV serialization;
* :mod:`factsflow.cli` — the ``factsflow`` command-line tool.
"""

from .model import (
    Bus,
    BusKind,
    InjectionSolution,
    InputError,
    LdcSolution,
    Line,
    LineKind,
    Network,
    ValidationReport,
    check_kirchhoff,
    validate_network,
    validate_solution,
)
from .formulations import (
    extract_signs,
    solve_mpf,
    solve_mvf,
)
from .maxflow import max_flow, cancel_cycles, lift_flow_to_ldc, mff_via_lemma
from .mip import MffConfig, MffResult, solve_mff
from .iterative import multi_start_im, solve_im

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "BusKind",
    "InjectionSolution",
    "InputError",
    "LdcSolution",
    "Line",
    "LineKind",
    "Network",
    "ValidationReport",
    "check_kirchhoff",
    "validate_network",
    "validate_solution",
    "extract_signs",
    "solve_mpf",
    "solve_mvf",
    "max_flow",
    "cancel_cycles",
    "lift_flow_to_ldc",
    "mff_via_lemma",
    "MffConfig",
    "MffResult",
    "solve_mff",
    "multi_start_im",
    "solve_im",
    "__version__",
]
