"""The backend spec registry: strings in, backends out.

Spec grammar (one line, no spaces)::

    spec     ::= scheme [":" argument] ["?" key "=" value ("&" ...)*]
    scheme   ::= "native" | "smtlib" | "portfolio" | "cached"
               | <registered>

Examples::

    native                         the built-in bounded solver
    native?timeout=2               with a per-query wall budget
    smtlib:z3                      z3 subprocess over SMT-LIB (default cmd)
    smtlib:cvc5?timeout=10         cvc5, 10s budget
    portfolio:native+smtlib:z3     race members; '+' separates them
    cached:native                  memoize definitive answers
    cached:portfolio:native+smtlib nesting composes left-to-right

``make_backend`` also accepts an existing backend object (returned
unchanged) and ``None`` (the native default), so every consumer can
take "a spec" without caring which form it got.  The ``query_cache``
keyword is a directory path threaded down to every ``cached:`` level of
a composite spec: its :class:`~repro.solver.backends.cached.QueryCache`
then persists definitive answers on disk across invocations;
``query_cache_max`` caps that store with age-based GC.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.solver.stats import SolverStats

from repro.solver.backends.base import BackendError
from repro.solver.backends.cached import CachedBackend, QueryCache
from repro.solver.backends.native import NativeBackend
from repro.solver.backends.portfolio import PortfolioBackend
from repro.solver.backends.smtlib import SmtLibBackend

#: A scheme factory: (rest-of-spec, default timeout, stats sink,
#: query-cache dir) → backend.
BackendFactory = Callable[..., object]

_REGISTRY: Dict[str, BackendFactory] = {}

_SCHEME_RE = re.compile(r"^([A-Za-z0-9_-]+)(.*)$", re.S)


def register_backend(scheme: str, factory: BackendFactory) -> None:
    """Register a new spec scheme.

    ``factory(rest, timeout=..., stats=..., query_cache=...)`` receives
    everything after the scheme name (starting with ``:`` or ``?`` when
    present) and must return an object with
    ``solve(formula) -> SolverResult``.
    """
    _REGISTRY[scheme] = factory


def registered_backends() -> List[str]:
    return sorted(_REGISTRY)


def make_backend(
    spec: Optional[object] = None,
    *,
    timeout: Optional[float] = None,
    stats: Optional[SolverStats] = None,
    query_cache: Optional[str] = None,
    query_cache_max: Optional[int] = None,
    on_disagreement: Optional[str] = None,
    disagreement_sink=None,
):
    """Resolve ``spec`` into a solver backend.

    ``timeout`` is a *default* per-query budget, threaded down into
    every constructed backend that does not set its own ``?timeout=``
    option.  ``stats`` is the per-backend tally sink, shared by every
    backend in a composite spec.  ``query_cache`` is the directory of
    the persistent query store, picked up by every ``cached:`` level of
    the spec (and ignored by specs without one); ``query_cache_max``
    caps that store's entry count with age-based GC.  ``on_disagreement``
    (``"raise"``/``"collect"``) and ``disagreement_sink`` are threaded
    to every ``portfolio`` level of the spec the same way — there is no
    spec syntax for portfolio-level options (a trailing ``?...`` binds
    to the last member), so collect mode is keyword-only.
    """
    if spec is None or spec == "":
        spec = "native"
    if not isinstance(spec, str):
        if not hasattr(spec, "solve"):
            raise BackendError(
                f"not a backend spec or solver object: {spec!r}"
            )
        # A prebuilt backend still gets the caller's tally sink (bind
        # never overwrites one that was set explicitly at construction).
        if stats is not None:
            binder = getattr(spec, "bind_stats", None)
            if callable(binder):
                binder(stats)
        return spec
    match = _SCHEME_RE.match(spec.strip())
    if not match:
        raise BackendError(f"malformed backend spec {spec!r}")
    scheme, rest = match.group(1), match.group(2)
    factory = _REGISTRY.get(scheme)
    if factory is None:
        raise BackendError(
            f"unknown solver backend {scheme!r}; registered schemes: "
            + ", ".join(registered_backends())
        )
    # Optional extras are offered only to factories whose signatures
    # accept them: factories registered against older, narrower
    # contracts (``factory(rest, timeout=..., stats=...)``) keep
    # working and simply are not offered what they cannot consume.
    extras = {
        "query_cache": query_cache,
        "query_cache_max": query_cache_max,
        "on_disagreement": on_disagreement,
        "disagreement_sink": disagreement_sink,
    }
    kwargs = {
        key: value
        for key, value in extras.items()
        if value is not None and _accepts_keyword(factory, key)
    }
    return factory(rest, timeout=timeout, stats=stats, **kwargs)


def _accepts_keyword(factory: BackendFactory, keyword: str) -> bool:
    import inspect

    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins/C callables: assume legacy
        return False
    return keyword in parameters or any(
        p.kind == p.VAR_KEYWORD for p in parameters.values()
    )


# -- spec-string helpers ------------------------------------------------------


def _split_rest(rest: str) -> Tuple[str, Dict[str, object]]:
    """Split ``":body?k=v&..."`` into (body, options)."""
    if rest.startswith(":"):
        rest = rest[1:]
    body, _, query = rest.partition("?")
    return body, _parse_options(query)


def _parse_options(query: str) -> Dict[str, object]:
    options: Dict[str, object] = {}
    for item in query.split("&") if query else ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise BackendError(
                f"malformed backend option {item!r} (expected key=value)"
            )
        options[key] = _coerce(value)
    return options


def _coerce(value: str) -> object:
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _require_numeric_options(scheme: str, options: Dict[str, object]) -> None:
    """All spec-expressible solver options are numbers; catch a
    ``?timeout=abc`` typo at spec-resolution time instead of letting it
    crash deep inside a solve call."""
    for key, value in options.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BackendError(
                f"{scheme} option {key!r} expects a number, got {value!r}"
            )


# -- built-in schemes ---------------------------------------------------------


def _native_factory(rest, *, timeout=None, stats=None, query_cache=None):
    body, options = _split_rest(rest)
    if body:
        raise BackendError(
            f"native backend takes no argument (got {body!r})"
        )
    _require_numeric_options("native", options)
    if timeout is not None:
        options.setdefault("timeout", timeout)
    return NativeBackend(stats=stats, **options)


def _smtlib_factory(rest, *, timeout=None, stats=None, query_cache=None):
    command, options = _split_rest(rest)
    unknown = set(options) - {"timeout"}
    if unknown:
        raise BackendError(
            f"smtlib backend does not accept option(s) {sorted(unknown)}"
        )
    _require_numeric_options("smtlib", options)
    if timeout is not None:
        options.setdefault("timeout", timeout)
    return SmtLibBackend(command or "z3", stats=stats, **options)


def _portfolio_factory(
    rest, *, timeout=None, stats=None, query_cache=None,
    query_cache_max=None, on_disagreement=None, disagreement_sink=None,
):
    # Members are full specs (each may carry its own ``?options``), so
    # the body is split on '+' only; there are no portfolio-level query
    # options — the shared default ``timeout`` flows into every member.
    body = rest[1:] if rest.startswith(":") else rest
    member_specs = [m for m in body.split("+") if m]
    if not member_specs:
        raise BackendError(
            "portfolio needs members, e.g. portfolio:native+smtlib"
        )
    members = [
        make_backend(
            member,
            timeout=timeout,
            stats=stats,
            query_cache=query_cache,
            query_cache_max=query_cache_max,
            on_disagreement=on_disagreement,
            disagreement_sink=disagreement_sink,
        )
        for member in member_specs
    ]
    return PortfolioBackend(
        members,
        stats=stats,
        on_disagreement=on_disagreement or "raise",
        disagreement_sink=disagreement_sink,
    )


def _cached_factory(
    rest, *, timeout=None, stats=None, query_cache=None,
    query_cache_max=None, on_disagreement=None, disagreement_sink=None,
):
    if not rest.startswith(":") or len(rest) == 1:
        raise BackendError(
            "cached needs an inner backend, e.g. cached:native"
        )
    inner = make_backend(
        rest[1:],
        timeout=timeout,
        stats=stats,
        query_cache=query_cache,
        query_cache_max=query_cache_max,
        on_disagreement=on_disagreement,
        disagreement_sink=disagreement_sink,
    )
    return CachedBackend(
        inner,
        cache=QueryCache(
            store_path=query_cache, store_max_entries=query_cache_max
        )
        if query_cache
        else None,
        tally_stats=stats,
        stats=stats,
    )


register_backend("native", _native_factory)
register_backend("smtlib", _smtlib_factory)
register_backend("portfolio", _portfolio_factory)
register_backend("cached", _cached_factory)
