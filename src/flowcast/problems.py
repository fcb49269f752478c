"""Registry mapping problem names (as stored in model files) to factories."""

from __future__ import annotations

import inspect
from typing import Callable

from .burgers import make_burgers_problem
from .ode import IvpProblem

__all__ = ["register_problem", "build_problem"]

_REGISTRY: dict[str, Callable[..., IvpProblem]] = {}


def register_problem(name: str, factory: Callable[..., IvpProblem]):
    """Register a factory keyword-callable as ``name``, a name not yet taken."""
    if name in _REGISTRY:
        raise ValueError(f"problem {name!r} is already registered")
    _REGISTRY[name] = factory


def build_problem(name: str, /, **options) -> IvpProblem:
    """Call the factory registered as ``name``; an unknown name, or options
    its signature does not accept, raise ValueError."""
    try:
        factory = _REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ValueError(f"unknown problem {name!r} (registered: {known})") from None
    try:
        inspect.signature(factory).bind(**options)
    except TypeError as exc:
        raise ValueError(f"bad options for problem {name!r}: {exc}") from None
    return factory(**options)


register_problem("burgers", make_burgers_problem)
