"""Pluggable solver backends.

The paper dispatches its capturing-language constraints to Z3 over the
SMT-LIB string theory; this reproduction ships its own bounded native
solver.  This package makes the choice a first-class, *pluggable* API:

- :class:`SolverBackend` — the protocol every backend satisfies
  (``name``, ``solve(formula) -> SolverResult``, per-backend tallies);
- :func:`make_backend` — resolve a string *spec* into a backend:

  ========================   ==============================================
  ``native``                 the built-in bounded solver
  ``native?timeout=2``       same, with options
  ``smtlib:z3``              external SMT-LIB solver subprocess (z3/cvc5);
                             degrades to UNKNOWN when no binary exists
  ``portfolio:native+smtlib``  race members, first definitive answer wins
  ``cached:<inner>``         memoize definitive answers of any inner spec
                             (persistently, with a ``query_cache`` dir)
  ========================   ==============================================

- :func:`register_backend` — add new schemes at runtime.

Soundness across backends follows the layering argument of Algorithm 1:
any backend may answer UNKNOWN, but SAT must come with a model that
validates and UNSAT must be definitive, so definitive answers from *any*
registered backend are interchangeable.
"""

from repro.solver.backends.base import (
    BackendDisagreement,
    BackendError,
    SolverBackend,
)
from repro.solver.backends.cached import CachedBackend, QueryCache
from repro.solver.backends.native import NativeBackend
from repro.solver.backends.portfolio import PortfolioBackend
from repro.solver.backends.registry import (
    make_backend,
    register_backend,
    registered_backends,
)
from repro.solver.backends.smtlib import SmtLibBackend

__all__ = [
    "BackendDisagreement",
    "BackendError",
    "CachedBackend",
    "NativeBackend",
    "PortfolioBackend",
    "QueryCache",
    "SmtLibBackend",
    "SolverBackend",
    "make_backend",
    "register_backend",
    "registered_backends",
]
